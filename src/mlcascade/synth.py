"""Synthetic binary label nodes.

Three generators live here: a cascade of threshold linear units whose unit k
reads the features plus the outputs of units 1..k-1, a flat random projection
where every unit reads only the features, and label-subset indicator nodes
that fire when a chosen group of labels takes one specific bit pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .logistic import as_rows, at_least, with_bit_columns

WEIGHT_STD = 0.2          # scale of the random unit weights
KEEP_PROB = 0.9           # each weight survives masking with this probability
THRESHOLD_NOISE = 0.1     # threshold jitter as a fraction of the activation std


@dataclass
class _ThresholdUnits:
    """H random threshold units over D features: unit k fires when the dot
    product of its weight row with its input row strictly exceeds
    thresholds[k].  A subclass says how wide unit k's row is; the checks are
    shared.  The fields are declared in the order a model file saves them."""

    D: int
    H: int
    seed: int = 0
    # A model file gives the rows as a list of lists; __post_init__ makes arrays of them.
    weights: list = field(kw_only=True)
    thresholds: np.ndarray = field(kw_only=True)

    chained: ClassVar[bool]

    @classmethod
    def row_width(cls, D: int, k: int) -> int:
        """Width of unit k's input: the features, and the k earlier bits if chained."""
        return D + k if cls.chained else D

    def __post_init__(self) -> None:
        at_least("seed", self.seed, 0)
        rows = [np.asarray(w, dtype=float) for w in self.weights]
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        if len(rows) != self.H or self.thresholds.shape != (self.H,):
            raise ValueError("need one weight row and one threshold per unit")
        for k, w in enumerate(rows):
            if w.shape != (self.row_width(self.D, k),):
                raise ValueError(
                    f"unit {k} weight row must have length {self.row_width(self.D, k)}")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"unit {k} weight row must be finite")
        if not np.all(np.isfinite(self.thresholds)):
            raise ValueError("thresholds must be finite")
        self.weights = rows


class TLUCascade(_ThresholdUnits):
    """Random threshold units chained so unit k reads [x, z_1..z_{k-1}].

    weights[k] is unit k's masked weight row, of length D + k."""

    chained = True


class RandomProjection(_ThresholdUnits):
    """Flat random threshold units; every unit reads only the feature vector.

    weights[k] is unit k's masked weight row, of length D."""

    chained = False


@dataclass
class LabelIndicatorSet:
    """Indicator nodes over the label space: node k fires when the labels at
    the positions of entries[k]'s subset encode exactly its code.  The fields
    are declared in the order a model file saves them."""

    n_labels: int
    seed: int = 0
    # (subset, code) pairs; a model file gives each as a list [subset, code],
    # and __post_init__ makes a tuple of plain integers of each.
    entries: list = field(kw_only=True)

    def __post_init__(self) -> None:
        at_least("seed", self.seed, 0)
        self.entries = [_indicator_entry(k, e) for k, e in enumerate(self.entries)]
        for s, c in self.entries:
            if not s:
                raise ValueError("subsets must be nonempty")
            if list(s) != sorted(set(s)):
                raise ValueError("subset indices must be strictly increasing")
            if s[0] < 0 or s[-1] >= self.n_labels:
                raise ValueError(f"subset {s} out of range for {self.n_labels} labels")
            if not 0 <= c < 2 ** len(s):
                raise ValueError(f"code {c} out of range for subset of size {len(s)}")

    @property
    def n_nodes(self) -> int:
        return len(self.entries)


def _indicator_entry(k: int, entry) -> tuple[tuple[int, ...], int]:
    """Entry k of an indicator set as a (subset, code) pair of ints; raises
    ValueError naming the entry if it is not a pair of a list and a code, or
    if a subset item or the code is itself a list."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2
            and isinstance(entry[0], (list, tuple))):
        raise ValueError(f"entries[{k}] must be a pair [subset, code], got {entry!r}")
    subset, code = entry
    for at, v in [*((f"[0][{j}]", v) for j, v in enumerate(subset)), ("[1]", code)]:
        if isinstance(v, (list, tuple)):
            raise ValueError(f"entries[{k}]{at} must be an integer, got {v!r}")
    return tuple(int(i) for i in subset), int(code)


def _draw_units(cls: type, train_X: np.ndarray, H: int, seed: int):
    """Draw H random threshold units of class cls against a training matrix.

    Units are finalized one at a time.  Per unit, the draw order from the
    seeded generator is fixed: the weight row (normal, std 0.2), then the
    keep-mask (uniform per entry, kept below 0.9), then one standard normal
    for threshold jitter.  The threshold is the empirical mean of the unit's
    activations over the training rows plus jitter of 0.1 times their
    standard deviation.  A unit reads the first cls.row_width(D, k) columns
    of [x | bits], where each unit's training bits are written as it is
    finalized.
    """
    train_X = np.asarray(train_X, dtype=float)
    if train_X.ndim != 2 or train_X.shape[0] == 0:
        raise ValueError("train_X must be a nonempty 2-D matrix")
    at_least("H", H, 0)
    D = train_X.shape[1]
    rng = np.random.default_rng(seed)
    inputs = with_bit_columns(train_X, H)
    weights: list[np.ndarray] = []
    thresholds = np.zeros(H)
    for k in range(H):
        width = cls.row_width(D, k)
        row = rng.normal(0.0, WEIGHT_STD, size=width)
        row = row * (rng.random(width) < KEEP_PROB)
        a = inputs[:, :width] @ row
        t = float(a.mean()) + THRESHOLD_NOISE * float(a.std()) * float(rng.standard_normal())
        inputs[:, D + k] = a > t
        weights.append(row)
        thresholds[k] = t
    return cls(D=D, H=H, weights=weights, thresholds=thresholds, seed=seed)


def init_cascade(train_X: np.ndarray, H: int, seed: int) -> TLUCascade:
    """Build a cascade of H random threshold units against a training matrix;
    unit k's threshold is set on activations that include the training bits
    of units 1..k-1 (see _draw_units)."""
    return _draw_units(TLUCascade, train_X, H, seed)


def init_projection(train_X: np.ndarray, H: int, seed: int) -> RandomProjection:
    """Flat counterpart of init_cascade: the same per-unit draws, no chaining."""
    return _draw_units(RandomProjection, train_X, H, seed)


def _apply_units(units: _ThresholdUnits, x: np.ndarray) -> np.ndarray:
    """Evaluate threshold units on the rows of x: unit k reads the first
    row_width(D, k) columns of [x | bits] and fires on a > t, so a cascade's
    unit reads [x, z_1..z_{k-1}] and a projection's unit reads x alone.

    Each unit is one GEMV on its column prefix, as in _draw_units, not one
    matrix-matrix product over all units: this runs at prediction time on
    the default BLAS thread count, where OpenBLAS's threaded GEMM can stall
    for milliseconds on small shapes (see the README's kernel rule)."""
    D = units.D
    inputs = with_bit_columns(as_rows(x, D), units.H)
    for k, (row, t) in enumerate(zip(units.weights, units.thresholds)):
        inputs[:, D + k] = inputs[:, : units.row_width(D, k)] @ row > t
    return inputs[:, D:].astype(np.int64)


apply_cascade = apply_projection = _apply_units


def _subset_codes(Y: np.ndarray, subset) -> np.ndarray:
    """Each row's bits at the subset's positions, read as a binary number
    whose first position is the highest bit."""
    return Y[:, list(subset)] @ (1 << np.arange(len(subset) - 1, -1, -1))


def sample_indicators(
    train_Y: np.ndarray, n_nodes: int, subset_size: int, seed: int
) -> LabelIndicatorSet:
    """Draw n_nodes random label-subset indicators against a training label matrix.

    Each node's subset is drawn uniformly without replacement and stored
    sorted; its code is drawn uniformly from the bit-pattern codes actually
    observed on the training labels restricted to that subset, so every node
    has at least one positive training row.
    """
    train_Y = np.asarray(train_Y, dtype=np.int64)
    if train_Y.ndim != 2 or train_Y.shape[0] == 0:
        raise ValueError("train_Y must be a nonempty 2-D matrix")
    L = train_Y.shape[1]
    if not 1 <= subset_size <= L:
        raise ValueError(f"subset_size must be in 1..{L}, got {subset_size}")
    at_least("n_nodes", n_nodes, 0)
    rng = np.random.default_rng(seed)
    entries = []
    for _ in range(n_nodes):
        s = np.sort(rng.choice(L, size=subset_size, replace=False))
        # The sorted codes np.unique would give, without importing numpy.ma.
        observed = sorted(set(_subset_codes(train_Y, s).tolist()))
        entries.append((tuple(int(i) for i in s), int(rng.choice(observed))))
    return LabelIndicatorSet(n_labels=L, seed=seed, entries=entries)


def apply_indicators(indicators: LabelIndicatorSet, y: np.ndarray) -> np.ndarray:
    """Evaluate every indicator node on each row of a label matrix."""
    y = as_rows(y, indicators.n_labels, np.int64)
    out = np.zeros((y.shape[0], indicators.n_nodes), dtype=np.int64)
    for k, (s, c) in enumerate(indicators.entries):
        out[:, k] = _subset_codes(y, s) == c
    return out
