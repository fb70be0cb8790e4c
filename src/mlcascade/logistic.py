"""Binary logistic regression trained by deterministic full-batch gradient descent.

This is the base learner behind every label (real or synthetic) in the
toolkit.  Training is intentionally plain: zero initialisation, a fixed step
size, and a fixed epoch count, so that two runs on the same inputs produce
bitwise identical models.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np

# Sigmoid arguments are clamped here before exponentiation so probabilities
# stay strictly inside (0, 1) without overflow.
ACTIVATION_CLAMP = 35.0


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
        at_least("epochs", self.epochs, 1)
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
    return 1.0 / (1.0 + np.exp(-np.clip(a, -ACTIVATION_CLAMP, ACTIVATION_CLAMP)))


def as_rows(x, dim: int, dtype=float) -> np.ndarray:
    """x as a 2-D matrix of rows of width dim, checked.

    Every predict and apply function takes its input through this.  A 1-D
    array is rejected, not read as one row: one row is passed as x[None, :]."""
    X = np.asarray(x, dtype=dtype)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"expected a 2-D matrix of rows of width {dim}, got shape {X.shape}")
    return X


def at_least(name: str, value: int, least: int) -> None:
    """Raise ValueError if the integer value named name is below least.

    Every integer lower bound in the package is checked here, so its message
    has one form, which starts with the name: cli._checked reads the flag
    to name from that first word."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@functools.cache
def _blas_thread_calls():
    """The get and set thread-count functions of numpy's bundled OpenBLAS, or
    None when no library in numpy.libs exports them.  The names are tried in
    the order bench/harness.py's blas_info tries them."""
    for lib_path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                           "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            get, set_ = getattr(lib, name, None), getattr(lib, name.replace("get", "set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread, and restore
    its thread count on the way out, an exception included.

    A threaded GEMV can sum in another order than one thread does (a fit's
    X.T @ err from about 5000x100 up), so a fit in this block trains to the
    same bits on every core count; a threaded GEMM can also stall for
    milliseconds on small shapes, and it touches more memory.  Without the
    OpenBLAS functions (another BLAS) the block runs as it is.  The thread
    count is the process's, so two Python threads must not be in such
    blocks at once."""
    get, set_ = _blas_thread_calls() or (lambda: None, lambda threads: None)
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


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

    Each row's loss is the softplus log(1 + exp((1 - 2y) a)) of its
    activation a, clamped to +-35 as sigmoid clamps it: that is
    -[y log sigmoid(a) + (1 - y) log(1 - sigmoid(a))] without the
    cancellation of 1 - sigmoid(a) near 1, and at most 35 a row for
    arbitrarily confident wrong predictions, so no probability is clipped.
    Its derivative is cross_entropy_grad wherever every |a| < 35.
    """
    X, y = _check_xy(X, y)
    a = np.clip(model.activation(X), -ACTIVATION_CLAMP, ACTIVATION_CLAMP)
    return float(np.sum(np.logaddexp(0.0, (1.0 - 2.0 * y) * a)))


def cross_entropy_grad(model: LinearModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic gradient of cross_entropy w.r.t. the weight vector (bias first)."""
    X, y = _check_xy(X, y)
    err = sigmoid(model.activation(X)) - y
    return np.concatenate(([err.sum()], X.T @ err))


def train_logistic(X: np.ndarray, y: np.ndarray, config: TrainConfig = TrainConfig()) -> LinearModel:
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
    X, y = _check_xy(X, y)
    n, d = X.shape
    lr = config.learning_rate
    l2 = config.l2_penalty
    # The loop is bound by numpy call overhead at small n, so it allocates
    # nothing: every step writes into a buffer made here.  Each step is the
    # docstring's operation, rearranged only by commuting an addition or a
    # multiplication or by an exact negation, so the weights are bit for bit
    # those of the plain formula.  The bias and weights are held negated in
    # one vector, bias first as LinearModel stores them (v = -[b, w]), so
    # X @ v[1:] + v[0] is -(b + X @ w) and exp takes it without a negation
    # step.  One update serves both: l2_d[0] = 0 leaves the bias unregularized,
    # and subtracting its zero penalty leaves its gradient as it is, since the
    # error sum is never -0.0 (each error is nonzero, and an exact cancellation
    # gives +0.0).
    v = np.zeros(d + 1)
    t = np.empty(n)
    g = np.empty(d + 1)
    r = np.empty(d + 1)
    # A ufunc call costs ~0.2 us less with an array operand than with a Python
    # scalar: bias and err_sum are 0-d views, and the constants same-shape arrays.
    bias, nw, err_sum, gw = v[0, ...], v[1:], g[0, ...], g[1:]
    ones, lo, hi = np.ones(n), np.full(n, -ACTIVATION_CLAMP), np.full(n, ACTIVATION_CLAMP)
    n_d, l2_d, lr_d = np.full(d + 1, float(n)), np.full(d + 1, l2), np.full(d + 1, lr)
    l2_d[0] = 0.0
    # Local names save a module attribute lookup per call.  The bound X.dot and
    # X.T.dot make np.dot's BLAS call on the C-contiguous X that _check_xy
    # returns, without np.dot's __array_function__ dispatch (~0.15 us a call);
    # np.add.reduce is the pairwise sum err.mean() takes, without its wrapper.
    Xdot, XTdot = X.dot, X.T.dot
    subtract, add, multiply, divide, exp = np.subtract, np.add, np.multiply, np.divide, np.exp
    maximum, minimum, total = np.maximum, np.minimum, np.add.reduce
    with np.errstate(all="ignore"):
        for epoch in range(1, config.epochs + 1):
            Xdot(nw, t)
            add(t, bias, t)
            # sigmoid's clamp; np.maximum and np.minimum warn on a positional out.
            maximum(t, lo, out=t)
            minimum(t, hi, out=t)
            exp(t, t)
            add(t, ones, t)
            divide(ones, t, t)
            subtract(t, y, t)  # err
            XTdot(t, gw)
            total(t, 0, None, err_sum)
            divide(g, n_d, g)
            multiply(v, l2_d, r)  # -(l2 * w), and 0 for the bias
            subtract(g, r, g)
            multiply(g, lr_d, g)
            add(v, g, v)
            if not math.isfinite(v[0]):
                raise ValueError(
                    f"training diverged at epoch {epoch} of {config.epochs}: the bias is "
                    f"{-v[0]} (learning_rate={lr!r}, data shape n={n}, d={d}); "
                    "try a smaller learning rate"
                )
    # 0.0 - v, not -v: a weight or bias the plain loop leaves at zero is +0.0,
    # never -0.0, and v holds +0.0 for it.
    return LinearModel(weights=0.0 - v)

