import numpy as np
import pytest

from mlcascade.data import Dataset, SynthNetSpec, gen_logical, gen_synthetic, shuffle_split
from mlcascade.evaluate import exact_match
from mlcascade.logistic import LinearModel
from mlcascade.methods import (
    METHOD_NAMES,
    MethodConfig,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    train_ccasl,
    train_ccasl_aml,
    train_ccasl_br,
    train_elm_br,
    train_method,
)
from mlcascade.transforms import BRModel, CCModel, train_br, train_cc


@pytest.fixture(scope="module")
def logical():
    return gen_logical(20)


@pytest.fixture(scope="module")
def small_random():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(60, 3))
    Y = rng.integers(0, 2, size=(60, 3))
    return Dataset(X, Y)


class TestDegenerateEquivalences:
    def test_ccasl_without_synthetics_is_cc(self, logical):
        cfg = MethodConfig(synthetic_count=0, seed=3)
        train, test = shuffle_split(logical, 0.6, seed=5)
        ccasl = train_ccasl(train, cfg)
        cc = train_cc(train, None, cfg.base)
        assert np.array_equal(ccasl.predict(test.X), cc.predict(test.X))

    def test_elm_without_projection_is_br(self, logical):
        cfg = MethodConfig(synthetic_count=0, seed=3)
        train, test = shuffle_split(logical, 0.6, seed=5)
        elm = train_elm_br(train, cfg)
        br = train_br(train, cfg.base)
        assert np.array_equal(elm.predict(test.X), br.predict(test.X))

    def test_aml_without_indicators_keeps_cascade_plus_output_structure(self, small_random):
        cfg = MethodConfig(synthetic_count=2, indicator_count=0, seed=4)
        model = train_ccasl_aml(small_random, cfg)
        assert model.indicators.n_nodes == 0
        assert model.middle.n_labels == 2
        assert model.output.n_labels == small_random.n_labels

    def test_stacked_chain_without_synthetics_tracks_the_baselines(self):
        # ccasl+br with H=0 is a chain plus meta layer; on linearly generated
        # labels it should not fall meaningfully below the weaker baseline.
        ds = gen_synthetic(SynthNetSpec(D=4, L=3, N=400, hidden_units=0, seed=8))
        train, test = shuffle_split(ds, 0.6, seed=3)
        cfg = MethodConfig(synthetic_count=0, seed=5)
        stacked = exact_match(test.Y, train_ccasl_br(train, cfg).predict(test.X))
        br = exact_match(test.Y, train_br(train, cfg.base).predict(test.X))
        cc = exact_match(test.Y, train_cc(train, None, cfg.base).predict(test.X))
        assert stacked >= min(br, cc) - 0.1

    def test_aml_without_indicators_tracks_stacked_ccasl_on_linear_data(self):
        # With no label-space nodes both methods reduce to a cascade middle
        # layer under an independent output layer; on linearly generated
        # labels they land in the same accuracy range.
        ds = gen_synthetic(SynthNetSpec(D=4, L=3, N=400, hidden_units=0, seed=6))
        train, test = shuffle_split(ds, 0.6, seed=1)
        cfg = MethodConfig(indicator_count=0, seed=2)
        aml = train_ccasl_aml(train, cfg)
        stacked = train_ccasl_br(train, cfg)
        a = exact_match(test.Y, aml.predict(test.X))
        b = exact_match(test.Y, stacked.predict(test.X))
        assert abs(a - b) <= 0.15
        assert a >= 0.6 and b >= 0.6


class TestCCASL:
    def test_real_labels_ignore_synthetics_reduces_to_cc(self, logical):
        # Zero the synthetic-bit weights inside every real-label chain model;
        # the remaining computation must equal a plain chain over the labels.
        cfg = MethodConfig(synthetic_count=3, seed=7)
        model = train_ccasl(logical, cfg)
        H, D = model.n_synthetic, logical.n_features
        reduced = []
        for j, lm in enumerate(model.chain.models[H:]):
            w = lm.weights.copy()
            w[1 + D : 1 + D + H] = 0.0
            model.chain.models[H + j] = LinearModel(w)
            reduced.append(LinearModel(np.concatenate([w[: 1 + D], w[1 + D + H :]])))
        cc = CCModel(reduced, label_order=np.arange(logical.n_labels), input_dim=D)
        probe = np.random.default_rng(8).normal(size=(20, D))
        assert np.array_equal(model.predict(probe), cc.predict(probe))

    def test_chain_covers_synthetics_then_labels(self, logical):
        cfg = MethodConfig(synthetic_count=4, seed=9)
        model = train_ccasl(logical, cfg)
        assert model.chain.n_labels == 4 + logical.n_labels
        for j, lm in enumerate(model.chain.models):
            assert lm.input_dim == logical.n_features + j

    def test_prediction_returns_real_labels_only(self, logical):
        model = train_ccasl(logical, MethodConfig(seed=1))
        out = model.predict(logical.X)
        assert out.shape == (logical.n_rows, logical.n_labels)

    def test_cascade_at_test_uses_exact_bits(self, logical):
        cfg = MethodConfig(synthetic_count=3, seed=2, cascade_at_test=True)
        model = train_ccasl(logical, cfg)
        from mlcascade.synth import apply_cascade

        Z = apply_cascade(model.cascade, logical.X)
        forced = model.chain.predict(logical.X, prefix=Z)
        assert np.array_equal(model.predict(logical.X), forced[:, 3:])

    def test_training_determinism(self, small_random):
        cfg = MethodConfig(seed=5)
        a = train_ccasl(small_random, cfg)
        b = train_ccasl(small_random, cfg)
        probe = np.random.default_rng(1).normal(size=(10, 3))
        assert np.array_equal(a.predict(probe), b.predict(probe))

    def test_enough_synthetics_recover_the_truth_table(self, logical):
        # With several random units the chain solves all three operators on
        # most seeds, whatever the label order; 12/12 seeds pass at H=6.
        from mlcascade.data import apply_standardizer, fit_standardizer

        ds = apply_standardizer(fit_standardizer(logical), logical)
        perfect = 0
        for seed in range(12):
            model = train_ccasl(ds, MethodConfig(synthetic_count=6, seed=seed))
            perfect += exact_match(ds.Y, model.predict(ds.X)) == 1.0
        assert perfect >= 9


class TestELM:
    def test_default_projection_width_is_twice_the_labels(self, small_random):
        model = train_elm_br(small_random, MethodConfig(seed=1))
        assert model.projection.H == 2 * small_random.n_labels

    def test_determinism_under_fixed_seed(self, small_random):
        probe = np.random.default_rng(2).normal(size=(10, 3))
        a = train_elm_br(small_random, MethodConfig(seed=6))
        b = train_elm_br(small_random, MethodConfig(seed=6))
        assert np.array_equal(a.predict(probe), b.predict(probe))


class TestAML:
    def test_output_layer_is_independent_per_label(self, small_random):
        model = train_ccasl_aml(small_random, MethodConfig(seed=3))
        assert isinstance(model.output, BRModel)
        assert len(model.output.models) == small_random.n_labels

    def test_middle_layer_width(self, small_random):
        cfg = MethodConfig(synthetic_count=2, indicator_count=5, seed=3)
        model = train_ccasl_aml(small_random, cfg)
        assert model.middle.n_labels == 2 + 5
        assert model.output.input_dim == small_random.n_features + 7

    def test_subset_size_clipped_to_label_count(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(30, 2)), rng.integers(0, 2, size=(30, 2)))
        model = train_ccasl_aml(ds, MethodConfig(subset_size=3, seed=1))
        assert all(len(s) <= 2 for s, _ in model.indicators.entries)


class TestUniformContract:
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_predict_shape_and_bits(self, name, small_random):
        train, test = shuffle_split(small_random, 0.6, seed=4)
        model = train_method(name, train, MethodConfig(seed=11))
        out = model.predict(test.X)
        assert out.shape == (test.n_rows, train.n_labels)
        assert set(np.unique(out)) <= {0, 1}
        with pytest.raises(ValueError, match="2-D matrix"):
            model.predict(test.X[0])

    def test_unknown_method_rejected(self, small_random):
        with pytest.raises(ValueError):
            train_method("mlp", small_random)

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_json_round_trip_predicts_identically(self, name, small_random, tmp_path):
        model = train_method(name, small_random, MethodConfig(seed=12))
        path = tmp_path / f"{name.replace('+', '_')}.json"
        save_model(model, path, label_names=small_random.label_names)
        clone, meta = load_model(path)
        probe = np.random.default_rng(13).normal(size=(25, small_random.n_features))
        assert np.array_equal(model.predict(probe), clone.predict(probe))
        assert meta["label_names"] == small_random.label_names

    def test_stacked_kind_comes_from_the_first_layer(self, small_random):
        d = model_to_dict(train_method("ccasl+br", small_random, MethodConfig(seed=14)))
        assert d["kind"] == "ccasl+br"
        # Earlier versions saved a stack built outside train_method as "stack".
        assert model_from_dict({**d, "kind": "stack"}).kind == "ccasl+br"
        with pytest.raises(ValueError, match=r"\$.kind 'cc\+br' does not fit first layer 'ccasl'"):
            model_from_dict({**d, "kind": "cc+br"})

    def test_model_part_that_is_not_an_object_is_named(self, small_random):
        d = model_to_dict(train_method("ccasl+br", small_random, MethodConfig(seed=14)))
        for part, shown in [(5, "5"), ("abc", '"abc"'), ([], "[]")]:
            for doc, path in [(part, "$"), ({**d, "first_layer": part}, "$.first_layer"),
                              ({**d, "first_layer": {**d["first_layer"], "chain": part}},
                               "$.first_layer.chain")]:
                with pytest.raises(ValueError) as e:
                    model_from_dict(doc)
                assert str(e.value) == f"field {path} must be an object, got {shown}"

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            MethodConfig(seed=-1)

    def test_dict_round_trip_is_stable(self, small_random):
        model = train_method("ccasl+aml", small_random, MethodConfig(seed=14))
        d = model_to_dict(model)
        assert model_to_dict(model_from_dict(d)) == d
