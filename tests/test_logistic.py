import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlcascade.data import SynthNetSpec, gen_logical, load_csv
from mlcascade.evaluate import run_experiment
from mlcascade.logistic import (
    LinearModel,
    TrainConfig,
    cross_entropy,
    cross_entropy_grad,
    sigmoid,
    train_logistic,
)
from mlcascade.methods import MethodConfig
from mlcascade.synth import (LabelIndicatorSet, RandomProjection, TLUCascade, init_cascade,
                             sample_indicators)

DATA = Path(__file__).resolve().parent / "data"

AND_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
AND_Y = np.array([0, 0, 0, 1])
XOR_Y = np.array([0, 1, 1, 0])


def reference_sigmoid(a):
    a = np.clip(a, -35.0, 35.0)
    return 1.0 / (1.0 + np.exp(-a))


def reference_fit(X, y, config):
    """The plain gradient-descent loop train_logistic must match bit for bit:
    returns the weight vector, bias first."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    lr = config.learning_rate
    l2 = config.l2_penalty
    for _ in range(config.epochs):
        err = reference_sigmoid(b + X @ w) - y
        w -= lr * (X.T @ err / n + l2 * w)
        b -= lr * float(err.mean())
    return np.concatenate(([b], w))


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@st.composite
def fit_problems(draw):
    # Past 128 rows the bias sum's pairwise recursion splits the error vector.
    n = draw(st.integers(1, 60) | st.integers(61, 300))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Twice the columns, so a strided view of them is one of the layouts.
    if draw(st.booleans()):
        wide = rng.integers(0, 2, size=(n, 2 * d)).astype(float)
    else:
        wide = rng.normal(scale=draw(st.floats(0.1, 10.0)), size=(n, 2 * d))
    layout = draw(st.sampled_from(["C", "F", "sliced", "strided"]))
    X = {
        "C": np.ascontiguousarray(wide[:, :d]),
        "F": np.asfortranarray(wide[:, :d]),
        "sliced": wide[:, :d],
        "strided": wide[:, ::2],
    }[layout]
    y = rng.integers(0, 2, size=n).astype(float)
    config = TrainConfig(
        learning_rate=draw(st.floats(1e-3, 10.0)),
        epochs=draw(st.integers(1, 50)),
        l2_penalty=draw(st.sampled_from([0.0, 1e-4]) | st.floats(0.0, 1.0)),
    )
    return X, y, config


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert sigmoid(40.0) >= 1 - 1e-12
        assert sigmoid(-40.0) <= 1e-12

    def test_symmetry(self):
        a = np.linspace(-30, 30, 501)
        np.testing.assert_allclose(sigmoid(a) + sigmoid(-a), 1.0, atol=1e-12)

    def test_strictly_inside_unit_interval(self):
        a = np.array([-1e6, -50.0, 0.0, 50.0, 1e6])
        s = sigmoid(a)
        assert np.all(s > 0) and np.all(s < 1)

    def test_monotone(self):
        a = np.linspace(-20, 20, 2000)
        assert np.all(np.diff(sigmoid(a)) > 0)

    def test_same_bits_as_np_clip_form(self):
        a = np.concatenate((np.linspace(-40, 40, 801), [-0.0, -1e300, 1e300, -np.inf, np.inf]))
        assert_same_bits(sigmoid(a), reference_sigmoid(a))
        assert sigmoid(-50.0) == reference_sigmoid(-50.0)
        assert np.isnan(sigmoid(np.nan))


class TestCrossEntropy:
    def test_perfect_confident_model(self):
        # Large weights drive the training point's probability to ~1.
        model = LinearModel(np.array([-30.0, 50.0]))
        assert cross_entropy(model, np.array([[1.0]]), np.array([1])) <= 1e-6

    def test_zero_weights_single_example(self):
        model = LinearModel(np.zeros(3))
        loss = cross_entropy(model, np.array([[0.3, -0.7]]), np.array([1]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_separating_weights_beat_zero_weights_on_and(self):
        separating = LinearModel(np.array([-3.0, 2.0, 2.0]))
        zero = LinearModel(np.zeros(3))
        assert cross_entropy(separating, AND_X, AND_Y) < cross_entropy(zero, AND_X, AND_Y)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            model = LinearModel(rng.normal(size=4))
            X = rng.normal(size=(6, 3))
            y = rng.integers(0, 2, size=6)
            assert cross_entropy(model, X, y) >= 0.0

    def test_dimension_mismatch(self):
        model = LinearModel(np.zeros(3))
        with pytest.raises(ValueError):
            cross_entropy(model, np.ones((2, 5)), np.array([0, 1]))

    def test_empty_rejected(self):
        model = LinearModel(np.zeros(3))
        with pytest.raises(ValueError):
            cross_entropy(model, np.empty((0, 2)), np.empty(0))


class TestGradient:
    def test_matches_central_differences(self):
        """Analytic gradient vs central finite differences at step 1e-5."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 11))
            n = int(rng.integers(1, 51))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n)
            w = rng.normal(scale=0.5, size=d + 1)
            analytic = cross_entropy_grad(LinearModel(w), X, y)
            h = 1e-5
            fd = np.zeros(d + 1)
            for j in range(d + 1):
                up, down = w.copy(), w.copy()
                up[j] += h
                down[j] -= h
                fd[j] = (
                    cross_entropy(LinearModel(up), X, y)
                    - cross_entropy(LinearModel(down), X, y)
                ) / (2 * h)
            rel = np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic))
            assert rel < 1e-5

    @settings(max_examples=400, deadline=None)
    @given(fit_problems())
    def test_one_epoch_from_zero_is_a_step_down_the_gradient(self, problem):
        # The gradient acceptance gate 7 checks is the one the fit descends:
        # from zero weights, the L2 term is zero and one epoch is exactly
        # -lr times the mean gradient, bias first.
        X, y, config = problem
        n, d = X.shape
        lr, l2 = config.learning_rate, config.l2_penalty
        got = train_logistic(X, y, TrainConfig(learning_rate=lr, epochs=1, l2_penalty=l2))
        want = 0.0 - lr * (cross_entropy_grad(LinearModel(np.zeros(d + 1)), X, y) / n)
        assert_same_bits(got.weights, want)


class TestTrainLogistic:
    def test_constant_zero_targets(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3))
        model = train_logistic(X, np.zeros(30))
        assert np.all(model.predict_proba(X) < 0.5)

    def test_and_is_learned(self):
        model = train_logistic(AND_X, AND_Y)
        assert np.array_equal(model.predict_bit(AND_X), AND_Y)

    def test_xor_cannot_be_learned(self):
        # No linear separator exists over the four points, so at most 3 are right.
        model = train_logistic(AND_X, XOR_Y, TrainConfig(epochs=5000, l2_penalty=0.0))
        assert (model.predict_bit(AND_X) == XOR_Y).mean() <= 0.75

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 4))
        y = rng.integers(0, 2, size=15)
        a = train_logistic(X, y)
        b = train_logistic(X, y)
        assert np.array_equal(a.weights, b.weights)

    def test_separable_data_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        y = (X @ np.array([1.5, -2.0]) + 0.3 > 0).astype(int)
        cfg = TrainConfig(epochs=4000, l2_penalty=0.0)
        model = train_logistic(X, y, cfg)
        assert np.array_equal(model.predict_bit(X), y)

    def test_loss_nonincreasing_over_epochs(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, size=20)
        losses = []
        for epochs in range(1, 40):
            model = train_logistic(X, y, TrainConfig(epochs=epochs))
            losses.append(cross_entropy(model, X, y))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_logistic(np.empty((0, 2)), np.empty(0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            train_logistic(np.array([[np.nan, 1.0]]), np.array([1]))

    @pytest.mark.parametrize("X, y, message", [
        (np.zeros(3), np.zeros(3), "X must be a 2-D matrix of feature rows"),
        (np.zeros((3, 2)), np.zeros(2), "X has 3 rows but y has 2 targets"),
        (np.zeros((2, 2)), np.array([0, 2]), "targets must be 0 or 1"),
    ])
    def test_malformed_training_data_is_named(self, X, y, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            train_logistic(X, y)

    def test_divergence_stops_at_first_nonfinite_bias(self):
        lr = 1e30
        with np.errstate(all="ignore"):
            first = next(
                k for k in range(1, 100)
                if not math.isfinite(reference_fit(AND_X, AND_Y, TrainConfig(lr, k))[0])
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as e:
                train_logistic(AND_X, AND_Y, TrainConfig(learning_rate=lr))
        message = str(e.value)
        assert f"epoch {first} of 1000" in message
        with np.errstate(all="ignore"):
            bias = reference_fit(AND_X, AND_Y, TrainConfig(lr, first))[0]
        assert f"the bias is {bias} " in message
        assert "learning_rate=1e+30" in message
        assert "n=4, d=2" in message


class TestBitExactness:
    """train_logistic's in-place loop against the plain loop it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(fit_problems())
    # The bias slot's sign of zero: all-0 and all-1 targets, and one epoch on
    # as many 0 as 1 targets, whose errors cancel and leave the bias at +0.0.
    @example((AND_X, np.zeros(4), TrainConfig()))
    @example((AND_X, np.ones(4), TrainConfig()))
    @example((AND_X, XOR_Y.astype(float), TrainConfig(epochs=1)))
    def test_random_problems(self, problem):
        X, y, config = problem
        # The fit reads a C-contiguous copy of X, whatever X's layout.
        assert_same_bits(train_logistic(X, y, config).weights,
                         reference_fit(np.ascontiguousarray(X), y, config))

    def test_activations_past_both_clamp_bounds(self):
        # Features scaled x50 and a step of 5 push activations past +35 and
        # -35 within the first epochs, where the fit's clamp decides the bits.
        rng = np.random.default_rng(8)
        X = 50.0 * rng.normal(size=(40, 3))
        y = (X[:, 0] + 20.0 * rng.normal(size=40) > 0).astype(float)
        config = TrainConfig(learning_rate=5.0, epochs=30)
        for epochs in (1, 2):
            w = reference_fit(X, y, TrainConfig(5.0, epochs))
            a = w[0] + X @ w[1:]
            assert a.max() > 35.0 and a.min() < -35.0
        assert_same_bits(train_logistic(X, y, config).weights, reference_fit(X, y, config))

    def test_large_problem(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(1000, 32))
        y = (X[:, 0] + rng.normal(size=1000) > 0).astype(float)
        assert_same_bits(train_logistic(X, y).weights, reference_fit(X, y, TrainConfig()))


def unaligned(X):
    """A C-contiguous copy of X whose data starts one byte off alignment."""
    buf = np.zeros(X.nbytes + 1, dtype=np.uint8)
    out = np.ndarray(X.shape, dtype=float, buffer=buf, offset=1)
    out[...] = X
    return out


class TestLayout:
    @settings(max_examples=200, deadline=None)
    @given(fit_problems())
    def test_weights_do_not_depend_on_the_layout_of_x(self, problem):
        X, y, config = problem
        C = np.ascontiguousarray(X)
        want = train_logistic(C, y, config).weights
        wide = np.hstack([C, C])
        for other in (np.asfortranarray(C), wide[:, :C.shape[1]],
                      np.repeat(C, 2, axis=1)[:, ::2], unaligned(C)):
            assert_same_bits(train_logistic(other, y, config).weights, want)


class TestPredict:
    def test_zero_weights_give_half(self):
        model = LinearModel(np.zeros(3))
        assert model.predict_proba(np.array([[7.0, -4.0]]))[0] == 0.5

    def test_orthogonal_input(self):
        model = LinearModel(np.array([0.0, 1.0, 0.0]))
        assert model.predict_proba(np.array([[0.0, 5.0]]))[0] == 0.5

    def test_activation_cancels_to_half(self):
        model = LinearModel(np.array([-1.0, 2.0]))
        assert model.predict_proba(np.array([[0.5]]))[0] == 0.5

    def test_bit_tie_goes_to_one(self):
        model = LinearModel(np.zeros(2))
        assert model.predict_bit(np.array([[3.0]]))[0] == 1

    def test_bit_around_half(self):
        model = LinearModel(np.array([0.0, 1.0]))
        assert model.predict_bit(np.array([[-0.04]]))[0] == 0  # proba ~0.49
        assert model.predict_bit(np.array([[0.04]]))[0] == 1   # proba ~0.51

    def test_bit_matches_activation_sign(self):
        rng = np.random.default_rng(5)
        model = LinearModel(rng.normal(size=4))
        X = rng.normal(size=(200, 3))
        bits = model.predict_bit(X)
        acts = model.activation(X)
        assert np.array_equal(bits, (acts >= 0).astype(int))

    def test_dimension_mismatch(self):
        model = LinearModel(np.zeros(3))
        with pytest.raises(ValueError):
            model.predict_proba(np.ones((1, 5)))
        # A 1-D array is not read as one row, even of the right width.
        with pytest.raises(ValueError, match=r"2-D matrix of rows of width 2, got shape \(2,\)"):
            model.predict_bit(np.ones(2))


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(l2_penalty=-1.0)


# Every integer lower bound of the package, checked by at_least: a call that
# sets the bounded value, the value's name and its least value.
LOWER_BOUNDS = [
    pytest.param(lambda v: TrainConfig(epochs=v), "epochs", 1, id="TrainConfig.epochs"),
    *(pytest.param(lambda v, f=f: MethodConfig(**{f: v}), f, least, id=f"MethodConfig.{f}")
      for f, least in [("synthetic_count", 0), ("indicator_count", 0), ("subset_size", 1),
                       ("seed", 0)]),
    *(pytest.param(lambda v, f=f: SynthNetSpec(**{"D": 1, "L": 1, "N": 1, f: v}), f, least,
                   id=f"SynthNetSpec.{f}")
      for f, least in [("D", 1), ("L", 1), ("N", 1), ("hidden_units", 0), ("seed", 0)]),
    *(pytest.param(lambda v, cls=cls: cls(D=1, H=0, seed=v, weights=[], thresholds=[]),
                   "seed", 0, id=f"{cls.__name__}.seed")
      for cls in (TLUCascade, RandomProjection)),
    pytest.param(lambda v: LabelIndicatorSet(n_labels=1, seed=v, entries=[]), "seed", 0,
                 id="LabelIndicatorSet.seed"),
    pytest.param(lambda v: init_cascade(np.zeros((2, 1)), v, seed=0), "H", 0,
                 id="init_cascade.H"),
    pytest.param(lambda v: sample_indicators(np.zeros((2, 1), dtype=int), v, 1, seed=0),
                 "n_nodes", 0, id="sample_indicators.n_nodes"),
    pytest.param(lambda v: run_experiment({"logical": gen_logical(8)}, ["br"], v, 0.5, 1),
                 "iterations", 1, id="run_experiment.iterations"),
    pytest.param(lambda v: load_csv(DATA / "br-predictions.csv", v), "label_count", 0,
                 id="load_csv.label_count"),
]


@pytest.mark.parametrize("make, name, least", LOWER_BOUNDS)
def test_every_integer_lower_bound_reads_one_way(make, name, least):
    with pytest.raises(ValueError, match=rf"^{name} must be >= {least}, got {least - 1}$"):
        make(least - 1)
    make(least)
