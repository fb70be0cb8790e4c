"""Property tests over small random shapes (N rows, D features, L labels, H
synthetic units) with few epochs: the save/load round trip of every method
and the degenerate equivalences between methods."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcascade.data import Dataset
from mlcascade.logistic import TrainConfig
from mlcascade.methods import (
    METHOD_NAMES,
    MethodConfig,
    load_model,
    save_model,
    train_ccasl,
    train_elm_br,
    train_method,
)
from mlcascade.transforms import train_br, train_cc

BASE = TrainConfig(epochs=5, learning_rate=0.5)


def _dataset(n: int, d: int, L: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, d)), rng.integers(0, 2, size=(n, L)))


def _probe(d: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed + 1).normal(size=(7, d))


shapes = dict(
    n=st.integers(1, 25),
    d=st.integers(1, 4),
    L=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(METHOD_NAMES), h=st.integers(0, 4), hp=st.integers(0, 4), **shapes)
def test_save_load_predicts_identically(name, h, hp, n, d, L, seed):
    ds = _dataset(n, d, L, seed)
    cfg = MethodConfig(synthetic_count=h, indicator_count=hp, base=BASE, seed=seed)
    model = train_method(name, ds, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path, ds.feature_names, ds.label_names)
        clone, meta = load_model(path)
    probe = _probe(d, seed)
    assert np.array_equal(model.predict(probe), clone.predict(probe))
    assert np.array_equal(model.predict(probe[0]), clone.predict(probe)[0])
    assert meta["label_names"] == ds.label_names


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_ccasl_without_synthetics_is_cc(n, d, L, seed):
    ds = _dataset(n, d, L, seed)
    ccasl = train_ccasl(ds, MethodConfig(synthetic_count=0, base=BASE, seed=seed))
    cc = train_cc(ds, None, BASE)
    for a, b in zip(ccasl.chain.models, cc.models, strict=True):
        assert np.array_equal(a.weights, b.weights)
    probe = _probe(d, seed)
    assert np.array_equal(ccasl.predict(probe), cc.predict(probe))


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_elm_without_projection_is_br(n, d, L, seed):
    ds = _dataset(n, d, L, seed)
    elm = train_elm_br(ds, MethodConfig(synthetic_count=0, base=BASE, seed=seed))
    br = train_br(ds, BASE)
    for a, b in zip(elm.br.models, br.models, strict=True):
        assert np.array_equal(a.weights, b.weights)
    probe = _probe(d, seed)
    assert np.array_equal(elm.predict(probe), br.predict(probe))


@settings(max_examples=40, deadline=None)
@given(**{**shapes, "L": st.just(1)})
def test_br_is_cc_for_one_label(n, d, L, seed):
    ds = _dataset(n, d, L, seed)
    br = train_br(ds, BASE)
    cc = train_cc(ds, None, BASE)
    assert np.array_equal(br.models[0].weights, cc.models[0].weights)
    probe = _probe(d, seed)
    assert np.array_equal(br.predict(probe), cc.predict(probe))
