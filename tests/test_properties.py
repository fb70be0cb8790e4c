"""Property tests over small random shapes (N rows, D features, L labels, H
synthetic units) with few epochs: the save/load round trip of every method,
the degenerate equivalences between methods, and what a chain does with
known earlier bits.  The equivalences, and the saved model of every
method, hold bit for bit whatever the memory layout of the features (C- or
Fortran-ordered, a column slice, strided)."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
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
    train_ccasl_aml,
    train_elm_br,
    train_method,
)
from mlcascade.synth import apply_cascade
from mlcascade.transforms import train_br, train_br_over, train_cc

BASE = TrainConfig(epochs=5, learning_rate=0.5)


LAYOUTS = ("C", "F", "sliced", "strided")


def _dataset(n: int, d: int, L: int, seed: int, layout: str = "C") -> Dataset:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "sliced":
        wide = np.zeros((n, d + 3))
        wide[:, 2 : 2 + d] = X
        X = wide[:, 2 : 2 + d]
    elif layout == "strided":
        wide = np.zeros((2 * n, 3 * d))
        wide[::2, 1::3] = X
        X = wide[::2, 1::3]
    return Dataset(X, rng.integers(0, 2, size=(n, L)))


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
    with pytest.raises(ValueError, match="2-D matrix"):
        clone.predict(probe[0])
    assert meta["label_names"] == ds.label_names


@pytest.mark.parametrize("name", METHOD_NAMES)
@settings(max_examples=15, deadline=None)
@given(h=st.integers(1, 4), hp=st.integers(0, 4), **shapes)
def test_saved_model_does_not_depend_on_the_feature_layout(name, h, hp, n, d, L, seed):
    cfg = MethodConfig(synthetic_count=h, indicator_count=hp, base=BASE, seed=seed)
    saved = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        for layout in LAYOUTS:
            ds = _dataset(n, d, L, seed, layout)
            save_model(train_method(name, ds, cfg), path, ds.feature_names, ds.label_names)
            saved.append(path.read_bytes())
    assert saved == [saved[0]] * len(LAYOUTS)


@settings(max_examples=40, deadline=None)
@given(layout=st.sampled_from(LAYOUTS), **shapes)
def test_ccasl_without_synthetics_is_cc(layout, n, d, L, seed):
    ds = _dataset(n, d, L, seed, layout)
    ccasl = train_ccasl(ds, MethodConfig(synthetic_count=0, base=BASE, seed=seed))
    cc = train_cc(ds, None, BASE)
    for a, b in zip(ccasl.chain.models, cc.models, strict=True):
        assert np.array_equal(a.weights, b.weights)
    probe = _probe(d, seed)
    assert np.array_equal(ccasl.predict(probe), cc.predict(probe))


@settings(max_examples=40, deadline=None)
@given(layout=st.sampled_from(LAYOUTS), **shapes)
def test_elm_without_projection_is_br(layout, n, d, L, seed):
    ds = _dataset(n, d, L, seed, layout)
    elm = train_elm_br(ds, MethodConfig(synthetic_count=0, base=BASE, seed=seed))
    br = train_br(ds, BASE)
    for a, b in zip(elm.br.models, br.models, strict=True):
        assert np.array_equal(a.weights, b.weights)
    probe = _probe(d, seed)
    assert np.array_equal(elm.predict(probe), br.predict(probe))


@settings(max_examples=40, deadline=None)
@given(layout=st.sampled_from(LAYOUTS), **{**shapes, "L": st.just(1)})
def test_br_is_cc_for_one_label(layout, n, d, L, seed):
    ds = _dataset(n, d, L, seed, layout)
    br = train_br(ds, BASE)
    cc = train_cc(ds, None, BASE)
    assert np.array_equal(br.models[0].weights, cc.models[0].weights)
    probe = _probe(d, seed)
    assert np.array_equal(br.predict(probe), cc.predict(probe))


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_chain_given_true_earlier_bits_is_teacher_forced(n, d, L, seed):
    ds = _dataset(n, d, L, seed)
    order = np.random.default_rng(seed).permutation(L)
    cc = train_cc(ds, order, BASE)
    for j in range(L):
        known = ds.Y[:, order[:j]]
        forced = cc.models[j].predict_bit(np.hstack([ds.X, known]))
        assert np.array_equal(cc.predict(ds.X, prefix=known)[:, order[j]], forced)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(0, 4), hp=st.integers(0, 4), **shapes)
def test_cascade_at_test_feeds_the_cascade_bits_to_the_chain(h, hp, n, d, L, seed):
    ds = _dataset(n, d, L, seed)
    cfg = MethodConfig(synthetic_count=h, indicator_count=hp, base=BASE, seed=seed,
                       cascade_at_test=True)
    probe = _probe(d, seed)
    ccasl = train_ccasl(ds, cfg)
    fed = ccasl.chain.predict(probe, prefix=apply_cascade(ccasl.cascade, probe))
    assert np.array_equal(ccasl.predict(probe), fed[:, h:])
    aml = train_ccasl_aml(ds, cfg)
    fed = aml.middle.predict(probe, prefix=apply_cascade(aml.cascade, probe))
    assert np.array_equal(aml.middle_bits(probe), fed)
    assert np.array_equal(aml.predict(probe), aml.output.predict(np.hstack([probe, fed])))
    # The output layer was fit on the bits the same rule gives on the training rows.
    train_bits = aml.middle.predict(ds.X, prefix=apply_cascade(aml.cascade, ds.X))
    for a, b in zip(aml.output.models, train_br_over(ds, train_bits, BASE).models, strict=True):
        assert np.array_equal(a.weights, b.weights)
