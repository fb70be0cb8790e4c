import numpy as np
import pytest

from mlcascade.data import (Dataset, SynthNetSpec, apply_standardizer, fit_standardizer,
                            gen_logical, gen_synthetic, shuffle_split)
from mlcascade.evaluate import equivalence_oracle, exact_match
from mlcascade.logistic import LinearModel, TrainConfig, train_logistic
from mlcascade.transforms import (
    BRModel,
    CCModel,
    train_br,
    train_cc,
    train_stack,
)


@pytest.fixture(scope="module")
def logical():
    return gen_logical(20)


@pytest.fixture(scope="module")
def random_binary_dataset():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(40, 3))
    Y = rng.integers(0, 2, size=(40, 4))
    return Dataset(X, Y)


class TestBinaryRelevance:
    def test_single_label_equals_plain_logistic(self, random_binary_dataset):
        ds = Dataset(random_binary_dataset.X, random_binary_dataset.Y[:, :1])
        br = train_br(ds)
        single = train_logistic(ds.X, ds.Y[:, 0])
        assert np.array_equal(br.models[0].weights, single.weights)
        assert np.array_equal(br.predict(ds.X)[:, 0], single.predict_bit(ds.X))

    def test_logical_per_label_training_accuracy(self, logical):
        br = train_br(logical)
        acc = (br.predict(logical.X) == logical.Y).mean(axis=0)
        assert acc[0] == 1.0  # or
        assert acc[1] == 1.0  # and
        assert acc[2] <= 0.75  # xor has no linear separator

    def test_dim_mismatch(self, logical):
        br = train_br(logical)
        with pytest.raises(ValueError):
            br.predict(np.ones(5))

    def test_single_feature_sanity(self):
        up = LinearModel(np.array([0.0, 1.0]))
        br = BRModel([up], input_dim=1)
        assert br.predict(np.array([[0.5]]))[0, 0] == 1
        assert br.predict(np.array([[-0.5]]))[0, 0] == 0
        assert br.predict(np.array([[0.0]]))[0, 0] == 1  # tie rule

    def test_relabeling_invariance(self, random_binary_dataset):
        ds = random_binary_dataset
        br = train_br(ds)
        perm = np.array([2, 0, 3, 1])
        permuted = BRModel([br.models[j] for j in perm], input_dim=br.input_dim)
        assert np.array_equal(permuted.predict(ds.X), br.predict(ds.X)[:, perm])

    def test_joint_mode_equals_per_label_argmax(self, random_binary_dataset):
        tr, te = shuffle_split(random_binary_dataset, 0.6, 0)
        br = train_br(tr)
        assert equivalence_oracle(br, te.X)

    def test_predictions_do_not_depend_on_the_feature_layout(self):
        ds = gen_synthetic(SynthNetSpec(D=5, L=4, N=300, hidden_units=20, seed=3))
        ds = apply_standardizer(fit_standardizer(ds), ds)
        br = train_br(ds, TrainConfig(epochs=50))
        X = ds.X
        wide = np.hstack([X, X])
        probes = {"C": X, "F": np.asfortranarray(X), "C-sliced": wide[:, :5],
                  "F-sliced": np.asfortranarray(wide)[:, :5],
                  "strided": np.repeat(X, 2, axis=1)[:, ::2]}
        for layout, probe in probes.items():
            assert np.array_equal(probe, X)
            assert br.predict_proba(probe).tobytes() == br.predict_proba(X).tobytes(), layout
            assert br.predict(probe).tobytes() == br.predict(X).tobytes(), layout


class TestClassifierChain:
    def test_single_label_equals_br(self, random_binary_dataset):
        ds = Dataset(random_binary_dataset.X, random_binary_dataset.Y[:, :1])
        cc = train_cc(ds)
        br = train_br(ds)
        assert np.array_equal(cc.models[0].weights, br.models[0].weights)
        assert np.array_equal(cc.predict(ds.X), br.predict(ds.X))

    def test_invalid_permutation(self, logical):
        with pytest.raises(ValueError):
            train_cc(logical, [0, 0, 2])

    def test_logical_chain_recovers_truth_table(self, logical):
        # With xor last it becomes linear given the earlier labels.
        cc = train_cc(logical, [0, 1, 2])
        combos = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        truth = np.array([[0, 0, 0], [1, 0, 1], [1, 0, 1], [1, 1, 0]])
        assert np.array_equal(cc.predict(combos), truth)

    def test_logical_chain_fails_with_xor_first(self, logical):
        scores = []
        for seed in range(10):
            tr, te = shuffle_split(logical, 0.6, seed)
            cc = train_cc(tr, [2, 1, 0])
            scores.append(exact_match(te.Y, cc.predict(te.X)))
        assert 0.2 <= np.mean(scores) <= 0.8

    def test_constant_zero_chain_predicts_zero_vector(self):
        models = [
            LinearModel(np.concatenate([[-5.0], np.zeros(2 + j)]))
            for j in range(3)
        ]
        cc = CCModel(models, label_order=np.arange(3), input_dim=2)
        rng = np.random.default_rng(1)
        assert not cc.predict(rng.normal(size=(10, 2))).any()

    def test_chain_position_dims(self, logical):
        cc = train_cc(logical)
        for j, model in enumerate(cc.models):
            assert model.input_dim == logical.n_features + j

    def test_predictions_in_original_label_indexing(self, logical):
        cc_fwd = train_cc(logical, [0, 1, 2])
        cc_rev = train_cc(logical, [1, 0, 2])
        # Both orders solve the task, so outputs agree label-for-label.
        combos = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(cc_fwd.predict(combos), cc_rev.predict(combos))

    def test_prefix_substitutes_known_bits(self, logical):
        cc = train_cc(logical, [0, 1, 2])
        combos = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        free = cc.predict(combos)
        forced = cc.predict(combos, prefix=free[:, :1].astype(float))
        assert np.array_equal(free, forced)


class _TruthLookup:
    """Stub first layer that replays memorized labels for known rows."""

    def __init__(self, dataset):
        self.dataset = dataset
        self.input_dim = dataset.n_features

    @property
    def n_labels(self):
        return self.dataset.n_labels

    def predict(self, X):
        out = np.zeros((X.shape[0], self.n_labels), dtype=np.int64)
        for i, row in enumerate(X):
            j = np.flatnonzero((self.dataset.X == row).all(axis=1))[0]
            out[i] = self.dataset.Y[j]
        return out


class _ConstantZeros:
    """Stub first layer that predicts all zeros for the dataset's labels."""

    def __init__(self, dataset):
        self.input_dim = dataset.n_features
        self.n_labels = dataset.n_labels

    def predict(self, X):
        return np.zeros((X.shape[0], self.n_labels), dtype=np.int64)


class TestStacking:
    def test_perfect_first_layer_reaches_perfect_training_match(self, logical):
        stacked = train_stack(logical, lambda ds: _TruthLookup(ds))
        assert exact_match(logical.Y, stacked.predict(logical.X)) == 1.0

    def test_constant_zero_first_layer_equals_plain_br(self, logical):
        # All-zero appended columns never influence gradient descent.
        stacked = train_stack(logical, _ConstantZeros)
        br = train_br(logical)
        assert np.array_equal(stacked.predict(logical.X), br.predict(logical.X))

    def test_single_label_collapse(self, random_binary_dataset):
        ds = Dataset(random_binary_dataset.X, random_binary_dataset.Y[:, :1])
        br = train_br(ds)
        cc = train_cc(ds)
        stacked = train_stack(ds, _ConstantZeros)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(25, ds.n_features))
        assert np.array_equal(br.predict(X), cc.predict(X))
        assert np.array_equal(br.predict(X), stacked.predict(X))

    def test_meta_layer_input_dim(self, logical):
        stacked = train_stack(logical, _ConstantZeros)
        assert stacked.meta.input_dim == logical.n_features + logical.n_labels
