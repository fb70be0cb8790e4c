"""The generic model save/load against the hand-written serializers it replaced.

model_to_dict and model_from_dict now walk a model's dataclass fields and
look its class up in a kind table, where the functions below wrote and read
each kind by hand.  They are kept here verbatim as the definition of format
version 1: the per-kind functions with only the two public names prefixed
reference_, and the codecs that LinearModel, the threshold units (cascade and
projection) and LabelIndicatorSet once carried as their own to_dict and
from_dict methods, as functions of the model part (self) or of the class to
build (cls).  The reference reader reads the path-carrying copy of the
document that _with_paths makes of _JsonObjects, as the model file reader
once did before it built the model; that reader now checks each field and
builds the model in one walk.  Over random shapes, seeds and all six
methods, plus stacks over every first layer and the legacy "stack" kind, the
new writer must give the same JSON bytes, and the new reader must give back
a model that the reference writes as its input.  The standardizer next to
the model is written as the command line once wrote it by hand, as its mean
and std lists.

The model file reader once checked each field's JSON type in two passes: a
pass per level of nesting at C speed, then, only if that found a wrong
entry, a recursive search for its path.  That checker is kept verbatim as
reference_check_type; the one-walk _check_type must raise the same message,
or none, on any nested JSON value and every typed field.
"""

import json
from itertools import chain
from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcascade.data import Dataset, StandardizationParams, apply_standardizer, fit_standardizer
from mlcascade.logistic import LinearModel, TrainConfig
from mlcascade.methods import (
    METHOD_NAMES,
    CCASLAMLModel,
    CCASLModel,
    ELMBRModel,
    MethodConfig,
    _FIELD_TYPES,
    _check_type,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    train_method,
)
from mlcascade.synth import LabelIndicatorSet, RandomProjection, TLUCascade
from mlcascade.transforms import BRModel, CCModel, StackedModel, train_stack


def reference_check_type(node: Any, path: str, types: set, name: str) -> None:
    """Raise ValueError naming the path of node, or of the first entry of its
    nested lists, whose JSON type is not in types."""
    # One set(map(type, ...)) pass per level of nesting checks the entries at
    # C speed; the path of a wrong entry is searched for only when there is one.
    level = node if type(node) is list else [node]
    while level and (found := set(map(type, level))) <= types:
        level = [*chain.from_iterable(v for v in level if type(v) is list)] if list in found else []
    if not level and type(node) in types:
        return
    if type(node) not in types:
        raise ValueError(f"field {path} must be {name}, got {json.dumps(node)}")
    for i, v in enumerate(node):
        reference_check_type(v, f"{path}[{i}]", types, name)


# The fields next to the model in a model document; save_model writes null
# for those it is not given.
_META_FIELDS = ("feature_names", "label_names", "standardizer")


class _JsonObject(dict):
    """A JSON object that names its path in the document when a field is missing."""

    def __missing__(self, key):
        raise ValueError(f"missing field {self.path}.{key}")


def _with_paths(node: Any, path: str = "$") -> Any:
    """Copy of a parsed JSON document whose objects are _JsonObjects.

    Raises ValueError naming the path of a field or list entry of the wrong type."""
    if isinstance(node, dict):
        for k, v in node.items():
            if k in _FIELD_TYPES and not (v is None and k in _META_FIELDS):
                _check_type(v, f"{path}.{k}", *_FIELD_TYPES[k])
        obj = _JsonObject((k, _with_paths(v, f"{path}.{k}")) for k, v in node.items())
        obj.path = path
        return obj
    # Lists of numbers (the weights) are most of a model file: skip them.
    if isinstance(node, list) and node and isinstance(node[0], (dict, list)):
        return [_with_paths(v, f"{path}[{i}]") for i, v in enumerate(node)]
    return node


def _linear_to_dict(self) -> dict:
    return {"weights": self.weights.tolist()}


def _linear_from_dict(cls, d: dict) -> "LinearModel":
    return cls(weights=np.asarray(d["weights"], dtype=float))


def _units_to_dict(self) -> dict:
    return {
        "D": self.D,
        "H": self.H,
        "seed": self.seed,
        "weights": [w.tolist() for w in self.weights],
        "thresholds": self.thresholds.tolist(),
    }


def _units_from_dict(cls, d: dict):
    return cls(D=d["D"], H=d["H"], weights=d["weights"], thresholds=d["thresholds"],
               seed=d.get("seed", 0))


def _indicators_to_dict(self) -> dict:
    return {
        "n_labels": self.n_labels,
        "seed": self.seed,
        "entries": [[list(s), c] for s, c in self.entries],
    }


def _indicators_from_dict(cls, d: dict) -> "LabelIndicatorSet":
    entries = d["entries"]
    for i, e in enumerate(entries):
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], list)):
            raise ValueError(f"field {getattr(d, 'path', '$')}.entries[{i}] must be a "
                             f"pair [subset, code], got {json.dumps(e)}")
    return cls(
        n_labels=d["n_labels"],
        entries=[(tuple(e[0]), e[1]) for e in entries],
        seed=d.get("seed", 0),
    )


def _br_to_dict(m: BRModel) -> dict:
    return {
        "models": [_linear_to_dict(lm) for lm in m.models],
        "input_dim": m.input_dim,
    }


def _linear_models(d: dict) -> list[LinearModel]:
    models = d["models"]
    if not isinstance(models, list) or not all(isinstance(md, dict) for md in models):
        raise ValueError(f"field {d.path}.models must be a list of objects")
    return [_linear_from_dict(LinearModel, md) for md in models]


def _br_from_dict(d: dict) -> BRModel:
    return BRModel(
        models=_linear_models(d),
        input_dim=d["input_dim"],
    )


def _cc_to_dict(m: CCModel) -> dict:
    return {
        "models": [_linear_to_dict(lm) for lm in m.models],
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
            "cascade": _units_to_dict(model.cascade),
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
            "cascade": _units_to_dict(model.cascade),
            "indicators": _indicators_to_dict(model.indicators),
            "middle": _cc_to_dict(model.middle),
            "output": _br_to_dict(model.output),
            "cascade_at_test": model.cascade_at_test,
        }
    elif kind == "elm":
        body = {
            "projection": _units_to_dict(model.projection),
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
            cascade=_units_from_dict(TLUCascade, d["cascade"]),
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
            cascade=_units_from_dict(TLUCascade, d["cascade"]),
            indicators=_indicators_from_dict(LabelIndicatorSet, d["indicators"]),
            middle=_cc_from_dict(d["middle"]),
            output=_br_from_dict(d["output"]),
            cascade_at_test=d["cascade_at_test"],
        )
    if kind == "elm":
        return ELMBRModel(
            projection=_units_from_dict(RandomProjection, d["projection"]),
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


def test_standardizer_saves_and_loads_as_the_reference(tmp_path):
    """save_model writes a standardizer as the command line once wrote it by
    hand, {"mean": [...], "std": [...]}, and load_model reads it back as the
    StandardizationParams it was."""
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.normal(size=(9, 2)), np.full(9, 4.0)])  # one std at the floor
    data = Dataset(X, rng.integers(0, 2, size=(9, 2)))
    params = fit_standardizer(data)
    model = train_method("br", apply_standardizer(params, data),
                         MethodConfig(base=TrainConfig(epochs=3)))
    path = tmp_path / "model.json"
    save_model(model, path, data.feature_names, data.label_names, params)
    assert path.read_text(encoding="utf-8") == json.dumps({
        "format": "mlcascade-model",
        "version": 1,
        "feature_names": data.feature_names,
        "label_names": data.label_names,
        "standardizer": {"mean": params.mean.tolist(), "std": params.std.tolist()},
        "model": reference_model_to_dict(model),
    })
    _, meta = load_model(path)
    assert isinstance(meta["standardizer"], StandardizationParams)
    assert np.array_equal(meta["standardizer"].mean, params.mean)
    assert np.array_equal(meta["standardizer"].std, params.std)


def _nested(leaves, depth: int):
    """JSON values built from leaves in lists and objects nested up to depth."""
    if depth == 0:
        return leaves
    inner = _nested(leaves, depth - 1)
    return leaves | st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                   max_size=2)


# Any JSON value, and values of numbers alone, so that a wrong entry also
# turns up deep inside a list that the numeric fields otherwise accept.
_json_values = (_nested(st.none() | st.booleans() | st.integers() | st.floats()
                        | st.text(max_size=3), 5)
                | _nested(st.integers() | st.floats(), 5))


def _message(check, node, types, name):
    try:
        check(node, "$.f", types, name)
    except ValueError as e:
        return str(e)
    return None


@settings(max_examples=500, deadline=None)
@given(node=_json_values, field=st.sampled_from(sorted(_FIELD_TYPES)))
def test_one_walk_type_check_raises_as_the_reference(node, field):
    types, name = _FIELD_TYPES[field]
    assert (_message(_check_type, node, types, name)
            == _message(reference_check_type, node, types, name))
