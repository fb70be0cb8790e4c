"""Binary logistic regression trained by deterministic full-batch gradient descent.

This is the base learner behind every label (real or synthetic) in the
toolkit.  Training is intentionally plain: zero initialisation, a fixed step
size, and a fixed epoch count, so that two runs on the same inputs produce
bitwise identical models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Sigmoid arguments are clamped here before exponentiation so probabilities
# stay strictly inside (0, 1) without overflow.
ACTIVATION_CLAMP = 35.0

# Probabilities are clipped to this range inside the loss so it stays finite.
PROB_EPS = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for gradient-descent training of one binary model."""

    learning_rate: float = 0.1
    epochs: int = 1000
    l2_penalty: float = 1e-4

    def __post_init__(self) -> None:
        # A step or penalty of inf or nan makes the first epoch diverge.
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.l2_penalty < math.inf:
            raise ValueError(f"l2_penalty must be finite and >= 0, got {self.l2_penalty}")


@dataclass
class LinearModel:
    """A trained binary classifier: weights[0] is the bias, weights[1:] the coefficients."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1:
            raise ValueError("weights must be a 1-D vector")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0] - 1

    def activation(self, x: np.ndarray) -> np.ndarray:
        """Bias plus dot product of each row of the matrix x."""
        return self.weights[0] + as_rows(x, self.input_dim) @ self.weights[1:]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(self.activation(x))

    def predict_bit(self, x: np.ndarray) -> np.ndarray:
        # Decided on the raw activation so the tie at probability 0.5
        # (activation exactly 0) predicts 1.
        return (self.activation(x) >= 0.0).astype(np.int64)


def sigmoid(a):
    """Logistic function 1 / (1 + exp(-a)), with the argument clamped to +-35."""
    return 1.0 / (1.0 + np.exp(-_clamp(a)))


def _clamp(a, lo=-ACTIVATION_CLAMP, hi=ACTIVATION_CLAMP, out=None):
    """np.clip(a, lo, hi) without np.clip's Python wrapper, which costs ~4 us a call."""
    return np.minimum(np.maximum(a, lo, out=out), hi, out=out)


def as_rows(x, dim: int, dtype=float) -> np.ndarray:
    """x as a 2-D matrix of rows of width dim, checked.

    Every predict and apply function takes its input through this.  A 1-D
    array is rejected, not read as one row: one row is passed as x[None, :]."""
    X = np.asarray(x, dtype=dtype)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"expected a 2-D matrix of rows of width {dim}, got shape {X.shape}")
    return X


def with_bit_columns(X: np.ndarray, H: int) -> np.ndarray:
    """[X | H bit columns] in one C-contiguous matrix, whatever X's layout.

    A GEMV sums in another order on C- and Fortran-ordered matrices, but in
    the same order on a column prefix of this matrix as on a C-contiguous
    copy of that prefix; so units that read their prefix of it give the same
    bits for every layout of X.  Every unit loop that feeds each unit's bit
    to the next (chain prediction, the cascade, the unit draw) writes its
    bits into this matrix."""
    n, D = X.shape
    out = np.empty((n, D + H))
    out[:, :D] = X
    return out


def _check_xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X as a C-contiguous float matrix (copied only if it is not one) and y
    as a flat float vector, checked.  The products of a fit then sum in the
    same order for every memory layout of X."""
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix of feature rows")
    if X.shape[0] == 0:
        raise ValueError("need at least one training example")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} targets")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("targets must be 0 or 1")
    return X, y


def cross_entropy(model: LinearModel, X: np.ndarray, y: np.ndarray) -> float:
    """Summed negative log-likelihood of binary targets under the model.

    Probabilities are clipped to [1e-12, 1 - 1e-12] so the result is finite
    for arbitrarily confident wrong predictions.
    """
    X, y = _check_xy(X, y)
    p = np.clip(sigmoid(model.activation(X)), PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def cross_entropy_grad(model: LinearModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic gradient of cross_entropy w.r.t. the weight vector (bias first)."""
    X, y = _check_xy(X, y)
    err = sigmoid(model.activation(X)) - y
    return np.concatenate(([err.sum()], X.T @ err))


def train_logistic(X: np.ndarray, y: np.ndarray, config: TrainConfig | None = None) -> LinearModel:
    """Fit a logistic model by full-batch gradient descent from zero weights.

    Each epoch computes, in this floating-point order,

        err = sigmoid(b + X @ w) - y
        w  -= lr * (X.T @ err / n + l2 * w)
        b  -= lr * mean(err)

    so the per-epoch step uses the mean gradient over the batch, the fixed
    default step size stays stable across dataset sizes, and the bias is
    never regularized.  Deterministic given (X, y, config).

    Raises ValueError at the first epoch whose bias is not finite: the step
    size is too large for the data.  An overflowing weight turns the next
    epoch's error, and so the bias, non-finite unless every activation it
    reaches is clamped; a fit that still ends with a non-finite weight fails
    in LinearModel.
    """
    if config is None:
        config = TrainConfig()
    X, y = _check_xy(X, y)
    n, d = X.shape
    lr = config.learning_rate
    l2 = config.l2_penalty
    # The loop is bound by numpy call overhead at small n, so it allocates
    # nothing: every step writes into a buffer made here.  Each step is the
    # docstring's operation, rearranged only by commuting an addition or a
    # multiplication or by an exact negation, so the weights are bit for bit
    # those of the plain formula.  The weights are held negated (nw = -w), so
    # X @ nw - b is -(b + X @ w) and exp takes it without a negation step.
    nw = np.zeros(d)
    b = 0.0
    t = np.empty(n)
    g = np.empty(d)
    r = np.empty(d)
    # A ufunc call costs ~0.2 us less with a same-shape array operand than
    # with a Python scalar.
    ones, lo, hi = np.ones(n), np.full(n, -ACTIVATION_CLAMP), np.full(n, ACTIVATION_CLAMP)
    n_d, l2_d, lr_d = np.full(d, float(n)), np.full(d, l2), np.full(d, lr)
    # Local names save a module attribute lookup per call.  np.dot skips
    # matmul's dispatch (~1.2 us a call) and makes the same BLAS call on the
    # C-contiguous X that _check_xy returns.
    dot, subtract, add, multiply, divide, exp = (np.dot, np.subtract, np.add, np.multiply,
                                                 np.divide, np.exp)
    total = np.add.reduce
    XT = X.T
    with np.errstate(all="ignore"):
        for epoch in range(1, config.epochs + 1):
            dot(X, nw, t)
            subtract(t, b, t)
            _clamp(t, lo, hi, t)
            exp(t, t)
            add(t, ones, t)
            divide(ones, t, t)
            subtract(t, y, t)  # err
            dot(XT, t, g)
            divide(g, n_d, g)
            multiply(nw, l2_d, r)  # -(l2 * w)
            subtract(g, r, g)
            multiply(g, lr_d, g)
            add(nw, g, nw)
            # total is np.add.reduce, the pairwise sum err.mean() takes, without its wrapper.
            b -= lr * (float(total(t)) / n)
            if not math.isfinite(b):
                raise ValueError(
                    f"training diverged at epoch {epoch} of {config.epochs}: the bias is "
                    f"{b} (learning_rate={lr!r}, data shape n={n}, d={d}); "
                    "try a smaller learning rate"
                )
    # 0.0 - nw, not -nw: a weight the plain loop leaves at zero is +0.0, never
    # -0.0, and nw holds +0.0 for it.
    return LinearModel(weights=np.concatenate(([b], 0.0 - nw)))

