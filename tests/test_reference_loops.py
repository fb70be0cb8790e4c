"""The cascade, projection, greedy-chain and training loops against plain
per-unit loops.

init_cascade, init_projection, apply_cascade and apply_projection now share
one [x | bits] matrix per call, and CCModel.predict fills one preallocated
[x | chain bits] matrix, where the loops below built a fresh np.hstack copy
per unit or chain position, or read x itself.  The loops are kept here
verbatim as references: weights, thresholds and bits must be equal bit for
bit, over row counts, widths, memory layouts of the input, one-row matrices
and every prefix length.  A 1-D row is rejected, not read as one row.  The
cascade and projection units read one C-contiguous matrix whatever the
layout of x, so their references are given x in C order.

train_br and train_cc fit every unit through one fit_layer call over one
design matrix.  Their reference fits each unit on its own C-contiguous
[x | earlier labels in chain order]: the weights must be equal bit for bit
whatever the memory layout of x, and a diverging fit must fail with the
same message, naming the same unit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlcascade.data import Dataset
from mlcascade.logistic import LinearModel, TrainConfig, as_rows, train_logistic
from mlcascade.synth import (
    KEEP_PROB,
    THRESHOLD_NOISE,
    WEIGHT_STD,
    RandomProjection,
    TLUCascade,
    apply_cascade,
    apply_projection,
    init_cascade,
    init_projection,
)
from mlcascade.transforms import CCModel, train_br, train_cc


def reference_init_cascade(train_X: np.ndarray, H: int, seed: int) -> TLUCascade:
    train_X = np.asarray(train_X, dtype=float)
    if train_X.ndim != 2 or train_X.shape[0] == 0:
        raise ValueError("train_X must be a nonempty 2-D matrix")
    if H < 0:
        raise ValueError("H must be >= 0")
    D = train_X.shape[1]
    rng = np.random.default_rng(seed)
    inputs = train_X
    weights: list[np.ndarray] = []
    thresholds = np.zeros(H)
    for k in range(H):
        row = rng.normal(0.0, WEIGHT_STD, size=D + k)
        row = row * (rng.random(D + k) < KEEP_PROB)
        a = inputs @ row
        t = float(a.mean()) + THRESHOLD_NOISE * float(a.std()) * float(rng.standard_normal())
        z = (a > t).astype(float)
        weights.append(row)
        thresholds[k] = t
        inputs = np.hstack([inputs, z[:, None]])
    return TLUCascade(D=D, H=H, weights=weights, thresholds=thresholds, seed=seed)


def reference_apply_cascade(cascade: TLUCascade, x: np.ndarray) -> np.ndarray:
    X = as_rows(x, cascade.D)
    n = X.shape[0]
    Z = np.zeros((n, cascade.H), dtype=np.int64)
    inputs = X
    for k in range(cascade.H):
        a = inputs @ cascade.weights[k]
        Z[:, k] = a > cascade.thresholds[k]
        inputs = np.hstack([inputs, Z[:, k : k + 1].astype(float)])
    return Z


def reference_init_projection(train_X: np.ndarray, H: int, seed: int) -> RandomProjection:
    train_X = np.asarray(train_X, dtype=float)
    if train_X.ndim != 2 or train_X.shape[0] == 0:
        raise ValueError("train_X must be a nonempty 2-D matrix")
    if H < 0:
        raise ValueError("H must be >= 0")
    D = train_X.shape[1]
    rng = np.random.default_rng(seed)
    weights = np.zeros((H, D))
    thresholds = np.zeros(H)
    for k in range(H):
        row = rng.normal(0.0, WEIGHT_STD, size=D)
        row = row * (rng.random(D) < KEEP_PROB)
        a = train_X @ row
        weights[k] = row
        thresholds[k] = float(a.mean()) + THRESHOLD_NOISE * float(a.std()) * float(
            rng.standard_normal()
        )
    return RandomProjection(D=D, H=H, weights=weights, thresholds=thresholds, seed=seed)


def reference_apply_projection(proj: RandomProjection, x: np.ndarray) -> np.ndarray:
    X = as_rows(x, proj.D)
    Z = np.zeros((X.shape[0], proj.H), dtype=np.int64)
    for k in range(proj.H):
        a = X @ proj.weights[k]
        Z[:, k] = a > proj.thresholds[k]
    return Z


def reference_chain_predict(self: CCModel, x: np.ndarray,
                            prefix: np.ndarray | None = None) -> np.ndarray:
    X = as_rows(x, self.input_dim)
    n = X.shape[0]
    L = self.n_labels
    chain_bits = np.zeros((n, L))
    n_known = 0
    if prefix is not None:
        prefix = np.asarray(prefix, dtype=float)
        n_known = prefix.shape[1]
        if n_known > L or prefix.shape[0] != n:
            raise ValueError("prefix shape does not match the chain")
        chain_bits[:, :n_known] = prefix
    for j in range(L):
        if j < n_known:
            continue
        feats = np.hstack([X, chain_bits[:, :j]])
        chain_bits[:, j] = self.models[j].predict_bit(feats)
    out = np.zeros((n, L), dtype=np.int64)
    out[:, self.label_order] = chain_bits.astype(np.int64)
    return out


def reference_fit(where: str, X: np.ndarray, y: np.ndarray,
                  config: TrainConfig) -> LinearModel:
    try:
        return train_logistic(np.ascontiguousarray(X), y, config)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def reference_train_br(dataset: Dataset, config: TrainConfig) -> list[LinearModel]:
    return [reference_fit(f"label {name!r}", dataset.X, dataset.Y[:, j], config)
            for j, name in enumerate(dataset.label_names)]


def reference_train_cc(dataset: Dataset, order: np.ndarray,
                       config: TrainConfig) -> list[LinearModel]:
    models = []
    for j in range(dataset.n_labels):
        feats = np.hstack([dataset.X, dataset.Y[:, order[:j]].astype(float)])
        where = f"chain position {j} (target {dataset.label_names[order[j]]!r})"
        models.append(reference_fit(where, feats, dataset.Y[:, order[j]], config))
    return models


# GEMV sums in another order on C- and Fortran-ordered matrices, and on a
# column slice of a wider matrix it reads rows with another stride.
LAYOUTS = ("C", "F", "C-sliced", "F-sliced")


def _matrix(n: int, d: int, kind: str, seed: int, layout: str) -> np.ndarray:
    """An n x d matrix in the given memory layout.  Small integers make exact
    activation ties (a == t, a == 0) likely; normal values make rounding matter."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) if kind == "normal" else rng.integers(-2, 3, (n, d)) * 0.5
    if layout in ("C", "F"):
        return np.asarray(X, order=layout)
    if layout == "strided":
        wide = np.zeros((2 * n, 3 * d))
        wide[::2, 1::3] = X
        return wide[::2, 1::3]
    wide = np.zeros((n, d + 3), order=layout[0])
    wide[:, 2 : 2 + d] = X
    return wide[:, 2 : 2 + d]


def _c_ordered(X: np.ndarray, layout: str) -> np.ndarray:
    """X as the references are given it: a draw not in C order (or a column
    slice of C order) as a C-contiguous copy.  The units under test copy
    every layout into one C-contiguous [x | bits] matrix, where the
    references read X itself."""
    return X if layout.startswith("C") else np.ascontiguousarray(X)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


shapes = dict(
    n=st.integers(1, 60),
    d=st.integers(1, 6),
    kind=st.sampled_from(["normal", "integer"]),
    layout=st.sampled_from(LAYOUTS),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(h=st.integers(0, 12), probe_layout=st.sampled_from(LAYOUTS), **shapes)
def test_cascade_matches_reference(h, probe_layout, n, d, kind, layout, seed):
    X = _matrix(n, d, kind, seed, layout)
    ref_X = _c_ordered(X, layout)
    new, ref = init_cascade(X, h, seed), reference_init_cascade(ref_X, h, seed)
    assert len(new.weights) == h
    for a, b in zip(new.weights, ref.weights, strict=True):
        assert _same(a, b)
    assert _same(new.thresholds, ref.thresholds)
    assert _same(apply_cascade(new, X), reference_apply_cascade(ref, ref_X))
    probe = _matrix(n + 3, d, kind, seed + 1, probe_layout)
    ref_probe = _c_ordered(probe, probe_layout)
    assert _same(apply_cascade(new, probe), reference_apply_cascade(ref, ref_probe))
    assert _same(apply_cascade(new, probe[1:2]), reference_apply_cascade(ref, ref_probe[1:2]))


@settings(max_examples=200, deadline=None)
@given(h=st.integers(0, 12), probe_layout=st.sampled_from(LAYOUTS), **shapes)
@example(h=0, probe_layout="F", n=5, d=3, kind="normal", layout="C", seed=1)
def test_projection_matches_reference(h, probe_layout, n, d, kind, layout, seed):
    X = _matrix(n, d, kind, seed, layout)
    ref_X = _c_ordered(X, layout)
    new, ref = init_projection(X, h, seed), reference_init_projection(ref_X, h, seed)
    assert len(new.weights) == h
    for a, b in zip(new.weights, ref.weights, strict=True):
        assert _same(a, b)
    assert _same(new.thresholds, ref.thresholds)
    assert _same(apply_projection(new, X), reference_apply_projection(ref, ref_X))
    probe = _matrix(n + 3, d, kind, seed + 1, probe_layout)
    ref_probe = _c_ordered(probe, probe_layout)
    assert _same(apply_projection(new, probe), reference_apply_projection(ref, ref_probe))
    assert _same(apply_projection(new, probe[1:2]),
                 reference_apply_projection(ref, ref_probe[1:2]))


@settings(max_examples=300, deadline=None)
@given(L=st.integers(1, 8), data=st.data(), **shapes)
def test_chain_predict_matches_reference(L, data, n, d, kind, layout, seed):
    rng = np.random.default_rng(seed)
    # Random weights stand in for trained ones; integer weights on integer
    # features put activations exactly on the 0 -> 1 tie.
    models = [LinearModel(weights=rng.normal(size=d + j + 1) if kind == "normal"
                          else rng.integers(-2, 3, d + j + 1) * 0.5) for j in range(L)]
    chain = CCModel(models=models, label_order=rng.permutation(L), input_dim=d)
    X = _matrix(n, d, kind, seed + 1, layout)
    n_known = data.draw(st.integers(0, L))
    prefix = rng.integers(0, 2, size=(n, n_known))
    if data.draw(st.booleans()):
        prefix = prefix.astype(float)
    assert _same(chain.predict(X), reference_chain_predict(chain, X))
    assert _same(chain.predict(X, prefix=prefix), reference_chain_predict(chain, X, prefix))
    with pytest.raises(ValueError, match="2-D matrix"):
        chain.predict(X[0], prefix=prefix[0])


def _fits(train):
    """The weights of the models train() returns, or the message of the
    ValueError it raises."""
    try:
        return [m.weights for m in train()]
    except ValueError as e:
        return str(e)


@settings(max_examples=200, deadline=None)
@given(L=st.integers(1, 6), lr=st.sampled_from([0.5, 1e30]), epochs=st.integers(1, 30),
       n=st.integers(1, 40), d=st.integers(1, 6), kind=st.sampled_from(["normal", "integer"]),
       layout=st.sampled_from(LAYOUTS + ("strided",)), seed=st.integers(0, 2**32 - 1))
def test_training_matches_reference(L, lr, epochs, n, d, kind, layout, seed):
    X = _matrix(n, d, kind, seed, layout)
    rng = np.random.default_rng(seed + 1)
    dataset = Dataset(X, rng.integers(0, 2, size=(n, L)))
    order = rng.permutation(L)
    config = TrainConfig(learning_rate=lr, epochs=epochs)
    for new, ref in [
        (_fits(lambda: train_br(dataset, config).models),
         _fits(lambda: reference_train_br(dataset, config))),
        (_fits(lambda: train_cc(dataset, order, config).models),
         _fits(lambda: reference_train_cc(dataset, order, config))),
    ]:
        if isinstance(ref, str):
            # lr=1e30 makes a fit diverge by epoch 13; the message names
            # the unit and the epoch.
            assert new == ref
        else:
            assert not isinstance(new, str)
            assert all(_same(a, b) for a, b in zip(new, ref, strict=True))
