import csv
import io
import pickle

import numpy as np
import pytest

import mlcascade.methods as methods_module
from mlcascade.data import Dataset, gen_logical
from mlcascade.evaluate import (
    MethodFailure,
    average_ranks,
    derive_seed,
    equivalence_oracle,
    exact_match,
    hamming_score,
    run_experiment,
)
from mlcascade.logistic import LinearModel
from mlcascade.methods import MethodConfig
from mlcascade.transforms import BRModel


def brute_force_exact_match(y_true, y_pred):
    hits = 0
    for ti, pi in zip(y_true.tolist(), y_pred.tolist()):
        if all(a == b for a, b in zip(ti, pi)):
            hits += 1
    return hits / len(y_true)


def brute_force_hamming(y_true, y_pred):
    agree = 0
    total = 0
    for ti, pi in zip(y_true.tolist(), y_pred.tolist()):
        for a, b in zip(ti, pi):
            agree += int(a == b)
            total += 1
    return agree / total


class TestMetrics:
    def test_identical_matrices(self):
        Y = np.array([[1, 0], [0, 1]])
        assert exact_match(Y, Y) == 1.0
        assert hamming_score(Y, Y) == 1.0

    def test_complemented_matrices(self):
        Y = np.array([[1, 0], [0, 1]])
        assert exact_match(Y, 1 - Y) == 0.0
        assert hamming_score(Y, 1 - Y) == 0.0

    def test_single_bit_error(self):
        y_true = np.array([[1, 0], [0, 1]])
        y_pred = np.array([[1, 1], [0, 1]])
        assert exact_match(y_true, y_pred) == 0.5
        assert hamming_score(y_true, y_pred) == 0.75

    def test_single_label_hamming_is_accuracy(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 2, size=(50, 1))
        p = rng.integers(0, 2, size=(50, 1))
        assert hamming_score(t, p) == (t == p).mean()
        assert exact_match(t, p) == hamming_score(t, p)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            exact_match(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            hamming_score(np.zeros((2, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("metric", [exact_match, hamming_score])
    @pytest.mark.parametrize("Y", [np.zeros(3), np.zeros((0, 2)), np.zeros((3, 0))])
    def test_one_d_or_empty_input_rejected(self, metric, Y):
        with pytest.raises(ValueError, match="^prediction sets must be nonempty 2-D matrices$"):
            metric(Y, Y)

    def test_exact_never_exceeds_hamming(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            L = int(rng.integers(1, 8))
            t = rng.integers(0, 2, size=(n, L))
            p = rng.integers(0, 2, size=(n, L))
            assert exact_match(t, p) <= hamming_score(t, p) + 1e-15

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            L = int(rng.integers(1, 6))
            t = rng.integers(0, 2, size=(n, L))
            p = rng.integers(0, 2, size=(n, L))
            assert exact_match(t, p) == brute_force_exact_match(t, p)
            assert hamming_score(t, p) == brute_force_hamming(t, p)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        t = rng.integers(0, 2, size=(20, 4))
        p = rng.integers(0, 2, size=(20, 4))
        perm = rng.permutation(20)
        assert exact_match(t, p) == exact_match(t[perm], p[perm])
        assert hamming_score(t, p) == hamming_score(t[perm], p[perm])

    def test_column_permutation_invariance_of_hamming(self):
        rng = np.random.default_rng(4)
        t = rng.integers(0, 2, size=(20, 5))
        p = rng.integers(0, 2, size=(20, 5))
        perm = rng.permutation(5)
        assert hamming_score(t, p) == hamming_score(t[:, perm], p[:, perm])


class TestRanks:
    def test_simple_ordering(self):
        assert np.array_equal(average_ranks(np.array([0.2, 0.9, 0.5])), [3, 1, 2])

    def test_tie_averaging(self):
        assert np.array_equal(average_ranks(np.array([0.9, 0.9, 0.5])), [1.5, 1.5, 3])

    def test_all_tied(self):
        assert np.array_equal(average_ranks(np.array([0.3, 0.3, 0.3])), [2, 2, 2])

    def test_matches_the_np_unique_loop(self):
        # Rounded scores tie often, -0.0 and 0.0 included.
        rng = np.random.default_rng(0)
        for _ in range(200):
            values = np.round(rng.normal(size=int(rng.integers(1, 12))), 1) * 0.5
            values[rng.random(len(values)) < 0.2] *= -0.0
            order = np.argsort(-values, kind="stable")
            want = np.empty(len(values))
            want[order] = np.arange(1, len(values) + 1)
            for v in np.unique(values):
                tied = values == v
                want[tied] = want[tied].mean()
            assert average_ranks(values).tobytes() == want.tobytes()


class TestEquivalenceOracle:
    def test_single_label_always_true(self):
        rng = np.random.default_rng(5)
        br = BRModel([LinearModel(rng.normal(size=3))], input_dim=2)
        assert equivalence_oracle(br, rng.normal(size=(30, 2)))

    def test_random_br_models(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            L = int(rng.integers(2, 7))
            br = BRModel([LinearModel(rng.normal(size=4)) for _ in range(L)], input_dim=3)
            assert equivalence_oracle(br, rng.normal(size=(20, 3)))

    def test_ties_resolve_to_one_on_both_sides(self):
        br = BRModel([LinearModel(np.zeros(3)) for _ in range(3)], input_dim=2)
        X = np.random.default_rng(7).normal(size=(5, 2))
        assert equivalence_oracle(br, X)
        assert np.array_equal(br.predict(X[:1])[0], [1, 1, 1])

    def test_decisions_that_disagree_with_the_probabilities_fail(self):
        class Flipped(BRModel):
            def predict(self, x):
                return 1 - super().predict(x)

        rng = np.random.default_rng(8)
        br = Flipped([LinearModel(rng.normal(size=3)) for _ in range(2)], input_dim=2)
        assert not equivalence_oracle(br, rng.normal(size=(5, 2)))

    def test_large_label_count_refused(self):
        br = BRModel([LinearModel(np.zeros(2)) for _ in range(13)], input_dim=1)
        with pytest.raises(ValueError):
            equivalence_oracle(br, np.zeros((1, 1)))


class TestRunExperiment:
    def test_single_cell_report(self):
        report = run_experiment({"logical": gen_logical(20)}, ["br"], 1, 0.6, master_seed=2)
        assert report.exact.shape == (1, 1, 1)
        assert report.hamming.shape == (1, 1, 1)

    def test_identical_methods_tie(self):
        # Two entries of the same method see the same derived seed stream only
        # if they sit at the same position, so tie via a deterministic method.
        ds = Dataset(gen_logical(20).X, gen_logical(20).Y[:, :1])
        report = run_experiment({"d": ds}, ["br", "cc"], 2, 0.6, master_seed=3)
        # With one label, br and cc train identical models.
        assert np.array_equal(report.exact[0, 0], report.exact[0, 1])
        assert np.array_equal(report.exact_rank[0], [1.5, 1.5])

    def test_reproducible_reports(self):
        args = ({"logical": gen_logical(20)}, ["br", "elm"], 3, 0.6)
        a = run_experiment(*args, master_seed=11)
        b = run_experiment(*args, master_seed=11)
        assert np.array_equal(a.exact, b.exact)
        assert np.array_equal(a.hamming, b.hamming)
        assert a.metric_csv("exact") == b.metric_csv("exact")
        assert a.table_text() == b.table_text()

    def test_different_seeds_differ(self):
        args = ({"logical": gen_logical(20)}, ["ccasl"], 3, 0.6)
        a = run_experiment(*args, master_seed=1)
        b = run_experiment(*args, master_seed=2)
        assert not np.array_equal(a.exact, b.exact)

    def test_method_failure_is_reported_with_context(self, monkeypatch):
        def boom(dataset, cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(methods_module._TRAINERS, "br", boom)
        with pytest.raises(MethodFailure, match="'br'.*'logical'.*iteration 0"):
            run_experiment({"logical": gen_logical(20)}, ["br"], 1, 0.6, master_seed=1)

    @pytest.mark.parametrize("raised, kind", [(ValueError, ValueError),
                                              (RuntimeError, MethodFailure)])
    def test_fault_class_and_message_survive_pickling(self, monkeypatch, raised, kind):
        # A worker process returns its exception pickled, which drops
        # __cause__: the class alone tells a data error from any other fault.
        def trainer(dataset, cfg):
            raise raised("bad fit")

        monkeypatch.setitem(methods_module._TRAINERS, "br", trainer)
        with pytest.raises(Exception) as caught:
            run_experiment({"logical": gen_logical(20)}, ["br"], 1, 0.6, master_seed=1)
        back = pickle.loads(pickle.dumps(caught.value))
        for e in (caught.value, back):
            assert type(e) is kind
            assert str(e) == "method 'br' failed on dataset 'logical', iteration 0: bad fit"

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            run_experiment({"logical": gen_logical(20)}, ["br"], 0, 0.6, master_seed=1)

    def test_empty_method_list_rejected(self):
        with pytest.raises(ValueError, match="^need at least one method$"):
            run_experiment({"logical": gen_logical(20)}, [], 1, 0.6, master_seed=1)

    @pytest.mark.parametrize("datasets", [[], {}])
    def test_empty_dataset_list_rejected(self, datasets):
        with pytest.raises(ValueError, match="^need at least one dataset$"):
            run_experiment(datasets, ["br"], 1, 0.6, master_seed=1)

    def test_method_config_overrides_respected(self):
        report = run_experiment(
            {"logical": gen_logical(20)},
            [("ccasl", MethodConfig(synthetic_count=0))],
            1,
            0.6,
            master_seed=4,
        )
        assert report.method_names == ["ccasl"]

    def test_derive_seed_streams_are_distinct(self):
        seeds = {derive_seed(1, d, i, s) for d in range(3) for i in range(3) for s in range(4)}
        assert len(seeds) == 36


@pytest.fixture(scope="module")
def report():
    return run_experiment({"logical": gen_logical(20)}, ["br", "cc"], 2, 0.6, master_seed=5)


class TestReportFormats:
    def test_metric_csv_layout(self, report):
        lines = report.metric_csv("exact").strip().split("\n")
        assert lines[0] == "dataset,br,br_rank,cc,cc_rank"
        cells = lines[1].split(",")
        assert cells[0] == "logical"
        assert len(cells) == 5
        float(cells[1])  # parses

    def test_metric_csv_quotes_names_that_need_it(self):
        names = ["a,b", 'say "x"', "c\rd", "plain"]
        report = run_experiment({n: gen_logical(8) for n in names}, ["br"], 1, 0.5, master_seed=1)
        for metric in ("exact", "hamming"):
            rows = list(csv.reader(io.StringIO(report.metric_csv(metric), newline="")))
            assert rows[0] == ["dataset", "br", "br_rank"]
            assert [row[0] for row in rows[1:]] == names
            assert {len(row) for row in rows} == {3}

    def test_table_text_mentions_protocol(self, report):
        text = report.table_text()
        assert "exact match" in text and "hamming score" in text
        assert "iterations=2" in text and "seed=5" in text

    def test_mean_lookup(self, report):
        assert report.mean("exact", "logical", "br") == report.exact_mean[0, 0]
        with pytest.raises(ValueError, match="^metric must be 'exact' or 'hamming', got 'f1'$"):
            report.mean("f1", "logical", "br")
