"""The generic model save/load against the per-kind serializers it replaced.

model_to_dict and model_from_dict now walk a model's dataclass fields and
look its class up in a kind table, where the functions below wrote and read
each kind by hand.  They are kept here verbatim (only the two public names
carry a reference_ prefix) as the definition of format version 1: over random
shapes, seeds and all six methods, plus stacks over every first layer and
the legacy "stack" kind, the new writer must give the same JSON bytes, and
the new reader must give back a model that the reference writes as its input.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcascade.data import Dataset
from mlcascade.logistic import LinearModel, TrainConfig
from mlcascade.methods import (
    METHOD_NAMES,
    CCASLAMLModel,
    CCASLModel,
    ELMBRModel,
    MethodConfig,
    _JsonObject,
    _with_paths,
    model_from_dict,
    model_to_dict,
    train_method,
)
from mlcascade.synth import LabelIndicatorSet, RandomProjection, TLUCascade
from mlcascade.transforms import BRModel, CCModel, StackedModel, train_stack


def _br_to_dict(m: BRModel) -> dict:
    return {
        "models": [lm.to_dict() for lm in m.models],
        "input_dim": m.input_dim,
    }


def _linear_models(d: dict) -> list[LinearModel]:
    models = d["models"]
    if not isinstance(models, list) or not all(isinstance(md, dict) for md in models):
        raise ValueError(f"field {d.path}.models must be a list of objects")
    return [LinearModel.from_dict(md) for md in models]


def _br_from_dict(d: dict) -> BRModel:
    return BRModel(
        models=_linear_models(d),
        input_dim=d["input_dim"],
    )


def _cc_to_dict(m: CCModel) -> dict:
    return {
        "models": [lm.to_dict() for lm in m.models],
        "label_order": m.label_order.tolist(),
        "input_dim": m.input_dim,
    }


def _cc_from_dict(d: dict) -> CCModel:
    return CCModel(
        models=_linear_models(d),
        label_order=np.asarray(d["label_order"], dtype=np.int64),
        input_dim=d["input_dim"],
    )


def reference_model_to_dict(model) -> dict:
    """JSON-ready description of any trained method, tagged with its kind."""
    kind = model.kind
    if kind == "br":
        body = _br_to_dict(model)
    elif kind == "cc":
        body = _cc_to_dict(model)
    elif kind == "ccasl":
        body = {
            "cascade": model.cascade.to_dict(),
            "chain": _cc_to_dict(model.chain),
            "n_labels": model.n_labels,
            "cascade_at_test": model.cascade_at_test,
        }
    elif isinstance(model, StackedModel):
        body = {
            "first_layer": reference_model_to_dict(model.first_layer),
            "meta": _br_to_dict(model.meta),
            "input_dim": model.input_dim,
        }
    elif kind == "ccasl+aml":
        body = {
            "cascade": model.cascade.to_dict(),
            "indicators": model.indicators.to_dict(),
            "middle": _cc_to_dict(model.middle),
            "output": _br_to_dict(model.output),
            "cascade_at_test": model.cascade_at_test,
        }
    elif kind == "elm":
        body = {
            "projection": model.projection.to_dict(),
            "br": _br_to_dict(model.br),
        }
    else:
        raise ValueError(f"cannot serialize model kind {kind!r}")
    return {"kind": kind, **body}


def reference_model_from_dict(d: dict):
    if not isinstance(d, _JsonObject):
        d = _with_paths(d)
    kind = d["kind"]
    if kind == "br":
        return _br_from_dict(d)
    if kind == "cc":
        return _cc_from_dict(d)
    if kind == "ccasl":
        return CCASLModel(
            cascade=TLUCascade.from_dict(d["cascade"]),
            chain=_cc_from_dict(d["chain"]),
            n_labels=d["n_labels"],
            cascade_at_test=d["cascade_at_test"],
        )
    if kind == "stack" or kind.endswith("+br"):
        first = reference_model_from_dict(d["first_layer"])
        if kind not in ("stack", first.kind + "+br"):
            raise ValueError(
                f"field {d.path}.kind {kind!r} does not fit first layer {first.kind!r}")
        return StackedModel(
            first_layer=first,
            meta=_br_from_dict(d["meta"]),
            input_dim=d["input_dim"],
        )
    if kind == "ccasl+aml":
        return CCASLAMLModel(
            cascade=TLUCascade.from_dict(d["cascade"]),
            indicators=LabelIndicatorSet.from_dict(d["indicators"]),
            middle=_cc_from_dict(d["middle"]),
            output=_br_from_dict(d["output"]),
            cascade_at_test=d["cascade_at_test"],
        )
    if kind == "elm":
        return ELMBRModel(
            projection=RandomProjection.from_dict(d["projection"]),
            br=_br_from_dict(d["br"]),
        )
    raise ValueError(f"cannot load model kind {kind!r}")


def _assert_same_format(model, probe: np.ndarray) -> None:
    """The new writer gives the reference's bytes, and the new reader turns the
    reference's document back into a model that writes and predicts the same."""
    expected = json.dumps(reference_model_to_dict(model))
    assert json.dumps(model_to_dict(model)) == expected
    doc = json.loads(expected)
    loaded = model_from_dict(doc)
    assert type(loaded) is type(model)
    assert json.dumps(reference_model_to_dict(loaded)) == expected
    assert np.array_equal(loaded.predict(probe), model.predict(probe))
    if isinstance(model, StackedModel):
        # Earlier versions saved a stack built outside train_method as "stack".
        legacy = model_from_dict({**doc, "kind": "stack"})
        assert json.dumps(reference_model_to_dict(legacy)) == expected
        assert json.dumps(reference_model_to_dict(reference_model_from_dict(
            {**doc, "kind": "stack"}))) == expected


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), d=st.integers(1, 4), n_labels=st.integers(1, 5),
       h=st.integers(0, 5), h_prime=st.integers(0, 5), seed=st.integers(0, 2**31 - 1),
       cascade_at_test=st.booleans(), stack_over=st.sampled_from(METHOD_NAMES))
def test_every_method_saves_and_loads_as_the_reference(n, d, n_labels, h, h_prime, seed,
                                                       cascade_at_test, stack_over):
    rng = np.random.default_rng(seed)
    data = Dataset(rng.normal(size=(n, d)), rng.integers(0, 2, size=(n, n_labels)))
    cfg = MethodConfig(synthetic_count=h, indicator_count=h_prime, seed=seed,
                       cascade_at_test=cascade_at_test, base=TrainConfig(epochs=3))
    probe = rng.normal(size=(7, d))
    for name in METHOD_NAMES:
        _assert_same_format(train_method(name, data, cfg), probe)
    stack = train_stack(data, lambda ds: train_method(stack_over, ds, cfg), cfg.base)
    assert stack.kind == stack_over + "+br"
    _assert_same_format(stack, probe)
