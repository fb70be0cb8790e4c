import json

import numpy as np
import pytest

from mlcascade.data import gen_logical
from mlcascade.methods import _build, _encode
from mlcascade.synth import (
    KEEP_PROB,
    THRESHOLD_NOISE,
    WEIGHT_STD,
    LabelIndicatorSet,
    RandomProjection,
    TLUCascade,
    apply_cascade,
    apply_indicators,
    apply_projection,
    init_cascade,
    init_projection,
    sample_indicators,
)


def _round_trip(part):
    """part written to JSON and read back by the model file's field walk."""
    return _build(type(part), json.loads(json.dumps(_encode(part))))


def int_encode(bits) -> int:
    """Integer value of a bit sequence, leftmost bit most significant: the
    oracle for the indicator codes."""
    bits = list(bits)
    if not bits:
        raise ValueError("cannot encode an empty bit sequence")
    value = 0
    for b in bits:
        b = int(b)
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b}")
        value = (value << 1) | b
    return value


@pytest.fixture(scope="module")
def train_X():
    return np.random.default_rng(0).normal(size=(50, 4))


class TestCascadeConstruction:
    def test_empty_cascade(self, train_X):
        cascade = init_cascade(train_X, 0, seed=1)
        assert cascade.H == 0
        assert apply_cascade(cascade, train_X).shape == (50, 0)

    def test_seed_determinism(self, train_X):
        a = init_cascade(train_X, 5, seed=7)
        b = init_cascade(train_X, 5, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert np.array_equal(a.thresholds, b.thresholds)
        c = init_cascade(train_X, 5, seed=8)
        assert not np.array_equal(a.thresholds, c.thresholds)

    def test_constant_training_rows_silence_every_unit(self):
        # Identical rows mean zero activation spread: t == mean, so a > t never
        # fires.  A power-of-two row count keeps the float mean exact.
        X = np.tile([[0.3, -1.2, 0.7]], (16, 1))
        cascade = init_cascade(X, 4, seed=3)
        assert not apply_cascade(cascade, X).any()

    def test_row_lengths_grow_by_one(self, train_X):
        cascade = init_cascade(train_X, 6, seed=2)
        for k, row in enumerate(cascade.weights):
            assert row.shape == (train_X.shape[1] + k,)

    def test_empty_training_matrix_rejected(self):
        with pytest.raises(ValueError):
            init_cascade(np.empty((0, 3)), 2, seed=0)

    def test_mask_sparsity(self):
        # ~10% of weights should be masked to exactly zero.
        X = np.random.default_rng(1).normal(size=(30, 100))
        cascade = init_cascade(X, 100, seed=11)
        flat = np.concatenate(cascade.weights)
        assert flat.size >= 10_000
        zero_fraction = (flat == 0.0).mean()
        assert 0.08 <= zero_fraction <= 0.12

    def test_documented_draw_order(self, train_X):
        """Reconstructing the per-unit draws (weights, mask, threshold jitter)
        from the same seed must reproduce the cascade and its training bits."""
        H, seed = 5, 13
        cascade = init_cascade(train_X, H, seed)
        rng = np.random.default_rng(seed)
        inputs = train_X
        for k in range(H):
            row = rng.normal(0.0, WEIGHT_STD, size=train_X.shape[1] + k)
            row = row * (rng.random(train_X.shape[1] + k) < KEEP_PROB)
            a = inputs @ row
            t = a.mean() + THRESHOLD_NOISE * a.std() * rng.standard_normal()
            z = (a > t).astype(float)
            assert np.array_equal(row, cascade.weights[k])
            assert t == cascade.thresholds[k]
            inputs = np.hstack([inputs, z[:, None]])
        # The z bits used during construction match a fresh evaluation.
        assert np.array_equal(inputs[:, train_X.shape[1]:], apply_cascade(cascade, train_X))


class TestCascadeEvaluation:
    def test_zero_weights_positive_thresholds(self):
        cascade = TLUCascade(
            D=2, H=2,
            weights=[np.zeros(2), np.zeros(3)],
            thresholds=np.array([0.5, 0.5]),
        )
        assert not apply_cascade(cascade, np.array([[3.0, -1.0]]))[0].any()

    def test_single_unit_fires(self):
        cascade = TLUCascade(D=2, H=1, weights=[np.array([1.0, 0.0])], thresholds=np.array([0.0]))
        assert apply_cascade(cascade, np.array([[1.0, 0.0]]))[0, 0] == 1

    def test_hand_built_chaining(self):
        # Unit 2 reads z1 with a large negative weight: it fires only when z1 is off.
        cascade = TLUCascade(
            D=1, H=2,
            weights=[np.array([1.0]), np.array([0.0, -1.0])],
            thresholds=np.array([0.0, -0.5]),
        )
        z_pos = apply_cascade(cascade, np.array([[2.0]]))[0]
        z_neg = apply_cascade(cascade, np.array([[-2.0]]))[0]
        # x=2: z1=1, unit2 activation -1 < -0.5 so z2=0; x=-2: z1=0, activation 0 > -0.5.
        assert np.array_equal(z_pos, [1, 0])
        assert np.array_equal(z_neg, [0, 1])

    def test_outputs_are_bits(self, train_X):
        cascade = init_cascade(train_X, 8, seed=5)
        Z = apply_cascade(cascade, np.random.default_rng(2).normal(size=(30, 4)))
        assert set(np.unique(Z)) <= {0, 1}

    def test_dim_mismatch(self, train_X):
        cascade = init_cascade(train_X, 2, seed=5)
        with pytest.raises(ValueError):
            apply_cascade(cascade, np.ones((1, 3)))

    def test_json_round_trip(self, train_X):
        cascade = init_cascade(train_X, 4, seed=9)
        clone = _round_trip(cascade)
        probe = np.random.default_rng(3).normal(size=(10, 4))
        assert np.array_equal(apply_cascade(cascade, probe), apply_cascade(clone, probe))
        assert np.array_equal(cascade.thresholds, clone.thresholds)


class TestProjection:
    def test_units_read_only_features(self, train_X):
        proj = init_projection(train_X, 6, seed=4)
        assert proj.weights.shape == (6, 4)

    def test_determinism(self, train_X):
        a = init_projection(train_X, 6, seed=4)
        b = init_projection(train_X, 6, seed=4)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.thresholds, b.thresholds)

    def test_constant_rows_silence_units(self):
        X = np.tile([[1.0, 2.0]], (16, 1))
        proj = init_projection(X, 3, seed=6)
        assert not apply_projection(proj, X).any()

    def test_outputs_are_bits(self, train_X):
        proj = init_projection(train_X, 5, seed=8)
        Z = apply_projection(proj, np.random.default_rng(4).normal(size=(20, 4)))
        assert set(np.unique(Z)) <= {0, 1}
        assert Z.shape == (20, 5)

    def test_json_round_trip(self, train_X):
        proj = init_projection(train_X, 3, seed=2)
        clone = _round_trip(proj)
        probe = np.random.default_rng(5).normal(size=(8, 4))
        assert np.array_equal(apply_projection(proj, probe), apply_projection(clone, probe))

    def test_empty_projection_json_round_trip(self, train_X):
        proj = init_projection(train_X, 0, seed=2)
        clone = _round_trip(proj)
        assert clone.weights.shape == (0, 4)
        assert apply_projection(clone, train_X).shape == (50, 0)


class TestThresholdUnitChecks:
    @pytest.mark.parametrize("cls, rows", [
        (TLUCascade, [[0.1, 0.2], [0.3, np.nan, 0.5]]),
        (TLUCascade, [[np.inf, 0.2], [0.3, 0.4, 0.5]]),
        (RandomProjection, [[0.1, 0.2], [-np.inf, 0.4]]),
    ])
    def test_non_finite_weight_row_is_named(self, cls, rows):
        unit = next(k for k, row in enumerate(rows) if not np.all(np.isfinite(row)))
        with pytest.raises(ValueError, match=f"^unit {unit} weight row must be finite$"):
            cls(D=2, H=2, weights=rows, thresholds=[0.0, 0.0])


class TestIntEncode:
    def test_two_bits(self):
        assert int_encode([0, 1]) == 1

    def test_restricted_bits(self):
        bits = [1, 0, 1, 1]
        sub = [bits[i] for i in (1, 3)]
        assert int_encode(sub) == 1

    def test_three_bits(self):
        assert int_encode([1, 0, 1]) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            int_encode([])

    def test_non_bits_rejected(self):
        with pytest.raises(ValueError):
            int_encode([0, 2])


class TestSampleIndicators:
    def test_subset_size_too_large(self):
        Y = np.zeros((5, 3), dtype=int)
        with pytest.raises(ValueError):
            sample_indicators(Y, 2, 4, seed=0)

    def test_all_zero_rows_force_code_zero(self):
        Y = np.zeros((8, 4), dtype=int)
        ind = sample_indicators(Y, 10, 4, seed=1)
        assert all(c == 0 for _, c in ind.entries)

    def test_codes_observed_in_training_data(self):
        Y = gen_logical(20).Y
        observed_pairs = {
            (s, int_encode(row[list(s)]))
            for row in Y
            for s in [(0, 1), (0, 2), (1, 2)]
        }
        ind = sample_indicators(Y, 30, 2, seed=2)
        for s, c in ind.entries:
            assert (s, c) in observed_pairs

    def test_determinism(self):
        Y = gen_logical(20).Y
        a = sample_indicators(Y, 6, 2, seed=5)
        b = sample_indicators(Y, 6, 2, seed=5)
        assert a.entries == b.entries

    def test_subsets_sorted(self):
        Y = np.random.default_rng(6).integers(0, 2, size=(30, 8))
        ind = sample_indicators(Y, 20, 3, seed=7)
        for s, _ in ind.entries:
            assert list(s) == sorted(set(s))


class TestApplyIndicators:
    def test_specific_pattern_fires(self):
        ind = LabelIndicatorSet(n_labels=7, entries=[((0, 2, 5), 5)])
        y = np.array([[1, 0, 0, 0, 0, 1, 0]])
        assert apply_indicators(ind, y)[0, 0] == 1

    def test_pattern_mismatch(self):
        ind = LabelIndicatorSet(n_labels=7, entries=[((0, 2, 5), 5)])
        y = np.array([[0, 0, 0, 0, 0, 1, 0]])
        assert apply_indicators(ind, y)[0, 0] == 0

    def test_full_subset_fires_for_exactly_one_vector(self):
        L = 4
        target = np.array([1, 0, 1, 1])
        ind = LabelIndicatorSet(n_labels=L, entries=[(tuple(range(L)), int_encode(target))])
        all_vectors = ((np.arange(2**L)[:, None] >> np.arange(L - 1, -1, -1)) & 1)
        fired = apply_indicators(ind, all_vectors)[:, 0]
        assert fired.sum() == 1
        assert np.array_equal(all_vectors[fired.astype(bool)][0], target)

    def test_depends_only_on_subset_coordinates(self):
        rng = np.random.default_rng(8)
        Y = rng.integers(0, 2, size=(20, 6))
        ind = sample_indicators(Y, 10, 3, seed=9)
        y = rng.integers(0, 2, size=6)
        base = apply_indicators(ind, y[None, :])[0]
        for k, (s, _) in enumerate(ind.entries):
            outside = [j for j in range(6) if j not in s]
            for j in outside:
                flipped = y.copy()
                flipped[j] ^= 1
                assert apply_indicators(ind, flipped[None, :])[0, k] == base[k]

    def test_out_of_range_subset_rejected(self):
        with pytest.raises(ValueError):
            LabelIndicatorSet(n_labels=3, entries=[((0, 3), 0)])

    def test_json_round_trip(self):
        Y = np.random.default_rng(10).integers(0, 2, size=(15, 5))
        ind = sample_indicators(Y, 8, 2, seed=11)
        clone = _round_trip(ind)
        assert np.array_equal(apply_indicators(ind, Y), apply_indicators(clone, Y))
        assert clone == ind

    def test_list_and_tuple_entries_load_alike(self):
        # A model file gives each entry as a list [subset, code].
        as_lists = LabelIndicatorSet(n_labels=4, seed=2, entries=[[[0, 3], 2], [[1], 1]])
        as_tuples = LabelIndicatorSet(n_labels=4, seed=2, entries=[((0, 3), 2), ((1,), 1)])
        assert as_lists == as_tuples
        assert as_lists.entries == [((0, 3), 2), ((1,), 1)]

    @pytest.mark.parametrize("entries, message", [
        ([((0, 1),)], "entries[0] must be a pair [subset, code], got ((0, 1),)"),
        ([((0,), 1), [[0, 1], 1, 9]],
         "entries[1] must be a pair [subset, code], got [[0, 1], 1, 9]"),
        ([(0, 1)], "entries[0] must be a pair [subset, code], got (0, 1)"),
        ([5], "entries[0] must be a pair [subset, code], got 5"),
        ([((0, [1]), 1)], "entries[0][0][1] must be an integer, got [1]"),
        ([((0, 1), [1])], "entries[0][1] must be an integer, got [1]"),
        ([((0, 1), (1,))], "entries[0][1] must be an integer, got (1,)"),
    ])
    def test_malformed_entry_is_named(self, entries, message):
        with pytest.raises(ValueError) as err:
            LabelIndicatorSet(n_labels=3, entries=entries)
        assert str(err.value) == message


@pytest.mark.parametrize("apply, part", [
    (apply_cascade, TLUCascade(D=2, H=1, weights=[np.ones(2)], thresholds=np.zeros(1))),
    (apply_projection, RandomProjection(D=2, H=1, weights=[np.ones(2)], thresholds=np.zeros(1))),
    (apply_indicators, LabelIndicatorSet(n_labels=2, entries=[((0, 1), 3)])),
])
def test_a_1d_row_is_rejected(apply, part):
    assert apply(part, np.ones((1, 2))).shape == (1, 1)
    with pytest.raises(ValueError, match=r"2-D matrix of rows of width 2, got shape \(2,\)"):
        apply(part, np.ones(2))
