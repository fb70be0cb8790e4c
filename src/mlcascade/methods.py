"""The six multi-label methods behind one train/predict contract.

br      independent binary relevance
cc      greedy classifier chain over the label columns in order
ccasl   chain trained over [synthetic cascade bits, labels]; the synthetic
        bits are predicted along the chain at test time
ccasl+br  ccasl plus a meta binary-relevance layer over [x, its predictions]
ccasl+aml chain over [cascade bits, label-subset indicator bits] feeding a
        binary-relevance output layer over [x, predicted middle bits]
elm     flat random projection appended to x, then binary relevance
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Any, ClassVar, get_args, get_origin, get_type_hints

import numpy as np

from .data import Dataset, StandardizationParams, check_utf8
from .logistic import TrainConfig, at_least
from .synth import (
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
from .transforms import (BRModel, CCModel, StackedModel, check_sizes, train_br, train_br_over,
                         train_cc, train_stack)


@dataclass(frozen=True)
class MethodConfig:
    """Method-level knobs on top of the base-learner TrainConfig.

    synthetic_count (H) and indicator_count (H') default per method when
    None, and each trainer states its default: H is the label count for the
    chain methods and twice the label count for elm, H' twice the label
    count.  cascade_at_test switches the chain methods to computing synthetic
    bits from the stored cascade at prediction time instead of predicting
    them greedily.
    """

    synthetic_count: int | None = None
    indicator_count: int | None = None
    subset_size: int = 3
    base: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    cascade_at_test: bool = False

    def __post_init__(self) -> None:
        for name, least in (("synthetic_count", 0), ("indicator_count", 0), ("subset_size", 1),
                            ("seed", 0)):
            if getattr(self, name) is not None:
                at_least(name, getattr(self, name), least)


@dataclass
class CCASLModel:
    """Chain over [synthetic bits, real labels]; prediction slices off the labels.

    The cascade that produced the synthetic training targets is kept so the
    bits can optionally be recomputed exactly at test time; by default they
    are predicted along the chain like any other label.
    """

    cascade: TLUCascade
    chain: CCModel
    n_labels: int
    cascade_at_test: bool = False

    kind: ClassVar[str] = "ccasl"

    def __post_init__(self) -> None:
        labels = self.chain.n_labels - self.cascade.H
        if self.n_labels != labels:
            raise ValueError(f"n_labels is {self.n_labels}, but the chain predicts {labels} "
                             f"labels after {self.cascade.H} synthetic bits")
        check_sizes(("cascade.D", self.cascade.D, "chain.input_dim", self.chain.input_dim))

    @property
    def input_dim(self) -> int:
        return self.chain.input_dim

    def predict(self, x: np.ndarray) -> np.ndarray:
        bits = _chain_bits(self.cascade, self.chain, self.cascade_at_test, x)
        return bits[:, self.cascade.H :]


@dataclass
class CCASLAMLModel:
    """Middle chain over [cascade bits, label-subset indicator bits], then an
    output layer of independent binary models over [x, predicted middle bits]."""

    cascade: TLUCascade
    indicators: LabelIndicatorSet
    middle: CCModel
    output: BRModel
    cascade_at_test: bool = False

    kind: ClassVar[str] = "ccasl+aml"

    def __post_init__(self) -> None:
        middle = self.middle
        check_sizes(
            ("cascade.D", self.cascade.D, "middle.input_dim", middle.input_dim),
            ("middle.n_labels", middle.n_labels, "cascade.H + indicators.n_nodes",
             self.cascade.H + self.indicators.n_nodes),
            ("indicators.n_labels", self.indicators.n_labels, "output.n_labels",
             self.output.n_labels),
            ("output.input_dim", self.output.input_dim, "middle.input_dim + middle.n_labels",
             middle.input_dim + middle.n_labels))

    @property
    def n_labels(self) -> int:
        return self.output.n_labels

    @property
    def input_dim(self) -> int:
        return self.middle.input_dim

    def middle_bits(self, X: np.ndarray) -> np.ndarray:
        return _chain_bits(self.cascade, self.middle, self.cascade_at_test, X)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.output.predict(np.hstack([x, self.middle_bits(x)]))


@dataclass
class ELMBRModel:
    """Binary relevance over the features extended with a fixed random projection."""

    projection: RandomProjection
    br: BRModel

    kind: ClassVar[str] = "elm"

    def __post_init__(self) -> None:
        check_sizes(("br.input_dim", self.br.input_dim, "projection.D + projection.H",
                     self.projection.D + self.projection.H))

    @property
    def n_labels(self) -> int:
        return self.br.n_labels

    @property
    def input_dim(self) -> int:
        return self.projection.D

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.br.predict(np.hstack([x, apply_projection(self.projection, x)]))


def _chain_bits(cascade: TLUCascade, chain: CCModel, cascade_at_test: bool,
                X: np.ndarray) -> np.ndarray:
    """The chain's bits on the rows X; its first cascade.H positions are the
    cascade's own bits when cascade_at_test, else predicted like the rest."""
    prefix = apply_cascade(cascade, X) if cascade_at_test else None
    return chain.predict(X, prefix=prefix)


def _train_cascade_chain(dataset: Dataset, cfg: MethodConfig, H: int, extra: np.ndarray,
                         extra_names: list[str]) -> tuple[TLUCascade, CCModel]:
    """Fit an H-unit cascade on the training features, compute its bits Z for
    every training row, and train a chain over the targets [Z, extra] in
    column order."""
    cascade = init_cascade(dataset.X, H, cfg.seed)
    Z = apply_cascade(cascade, dataset.X)
    targets = Dataset(dataset.X, np.hstack([Z, extra]), list(dataset.feature_names),
                      [f"z{k + 1}" for k in range(H)] + extra_names)
    return cascade, train_cc(targets, None, cfg.base)


def train_ccasl(dataset: Dataset, cfg: MethodConfig = MethodConfig()) -> CCASLModel:
    """Fit the synthetic cascade on the training features, compute its bits for
    every training row, and train a chain over [bits, labels] in column order."""
    H = dataset.n_labels if cfg.synthetic_count is None else cfg.synthetic_count
    cascade, chain = _train_cascade_chain(dataset, cfg, H, dataset.Y, dataset.label_names)
    return CCASLModel(
        cascade=cascade,
        chain=chain,
        n_labels=dataset.n_labels,
        cascade_at_test=cfg.cascade_at_test,
    )


def train_ccasl_br(dataset: Dataset, cfg: MethodConfig = MethodConfig()) -> StackedModel:
    """ccasl first, then a meta binary-relevance layer on [x, its training predictions]."""
    return train_stack(dataset, lambda ds: train_ccasl(ds, cfg), cfg.base)


def train_ccasl_aml(dataset: Dataset, cfg: MethodConfig = MethodConfig()) -> CCASLAMLModel:
    """Chain the cascade bits and label-subset indicator bits as a middle layer,
    then fit an independent output model per label on [x, predicted middle bits].

    Indicator targets come from the true training labels; the output layer is
    fit on the middle chain's own greedy training-set predictions so it sees
    the bits it will receive at test time.
    """
    L = dataset.n_labels
    H = L if cfg.synthetic_count is None else cfg.synthetic_count
    Hp = 2 * L if cfg.indicator_count is None else cfg.indicator_count
    indicators = sample_indicators(dataset.Y, Hp, min(cfg.subset_size, L), cfg.seed + 1)
    cascade, middle = _train_cascade_chain(dataset, cfg, H, apply_indicators(indicators, dataset.Y),
                                           [f"phi{k + 1}" for k in range(Hp)])
    middle_hat = _chain_bits(cascade, middle, cfg.cascade_at_test, dataset.X)
    return CCASLAMLModel(
        cascade=cascade,
        indicators=indicators,
        middle=middle,
        output=train_br_over(dataset, middle_hat, cfg.base),
        cascade_at_test=cfg.cascade_at_test,
    )


def train_elm_br(dataset: Dataset, cfg: MethodConfig = MethodConfig()) -> ELMBRModel:
    """Fixed random projection of the features, then binary relevance on [x, bits]."""
    H = 2 * dataset.n_labels if cfg.synthetic_count is None else cfg.synthetic_count
    projection = init_projection(dataset.X, H, cfg.seed)
    br = train_br_over(dataset, apply_projection(projection, dataset.X), cfg.base)
    return ELMBRModel(projection=projection, br=br)


_TRAINERS = {
    "br": lambda dataset, cfg: train_br(dataset, cfg.base),
    "cc": lambda dataset, cfg: train_cc(dataset, None, cfg.base),
    "ccasl": train_ccasl,
    "ccasl+br": train_ccasl_br,
    "ccasl+aml": train_ccasl_aml,
    "elm": train_elm_br,
}
METHOD_NAMES = tuple(_TRAINERS)


def train_method(name: str, dataset: Dataset, cfg: MethodConfig = MethodConfig()):
    """Train any method by name; see METHOD_NAMES for the valid names.

    Raises ValueError for an unknown name, and for a dataset with no label
    columns: every method learns its labels as nodes, so it has nothing to fit."""
    if name not in _TRAINERS:
        raise ValueError(f"unknown method {name!r}; expected one of {', '.join(METHOD_NAMES)}")
    if dataset.n_labels == 0:
        raise ValueError("training data has no label columns")
    return _TRAINERS[name](dataset, cfg)


# --- JSON serialization -----------------------------------------------------

MODEL_VERSION = 1


# The typed fields of a model document, wherever they occur: the JSON types
# a field may have and how an error names them.  A field whose types include
# list must be a list (_field checks this; _check_meta_lengths checks the
# metadata lists), and its entries, also in nested lists, must have one of
# those types too.  Types are tested exactly, so true and false are not
# integers here although Python's bool is a subclass of int.
_FIELD_TYPES = {
    "kind": ({str}, "a string"),
    "cascade_at_test": ({bool}, "true or false"),
    **dict.fromkeys(("input_dim", "n_labels", "D", "H", "seed"), ({int}, "an integer")),
    **dict.fromkeys(("weights", "thresholds", "mean", "std"), ({list, float, int}, "a number")),
    **dict.fromkeys(("label_order", "entries"), ({list, int}, "an integer")),
    **dict.fromkeys(("feature_names", "label_names"), ({list, str}, "a string")),
    "standardizer": ({dict}, "an object"),
}


def _check_type(node: Any, path: str, types: set, name: str) -> None:
    """Raise ValueError naming the path of node, or of the first entry of its
    nested lists in depth-first order, whose JSON type is not in types."""
    if type(node) not in types:
        raise ValueError(f"field {path} must be {name}, got {json.dumps(node)}")
    if type(node) is list:
        for i, v in enumerate(node):
            _check_type(v, f"{path}[{i}]", types, name)


def _field(d: dict, path: str, name: str) -> Any:
    """Field name of the JSON object d found at path, type-checked if it is in
    _FIELD_TYPES; raises ValueError naming the path of a missing field, or
    of d if it is not an object."""
    _check_type(d, path, {dict}, "an object")
    if name not in d:
        raise ValueError(f"missing field {path}.{name}")
    value = d[name]
    if name in _FIELD_TYPES:
        types, what = _FIELD_TYPES[name]
        if list in types and type(value) is not list:
            raise ValueError(f"field {path}.{name} must be a list, got {json.dumps(value)}")
        _check_type(value, f"{path}.{name}", types, what)
    return value


# The classes a model document's kind is read as.  A stacked model is saved
# as "<first layer's kind>+br", or as "stack" by earlier versions.
_KINDS = {cls.kind: cls for cls in (BRModel, CCModel, CCASLModel, CCASLAMLModel, ELMBRModel)}


@cache
def _field_types(cls: type) -> dict[str, Any]:
    """The resolved type of each dataclass field of cls, in declaration order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _encode(part: Any) -> Any:
    """The JSON form of a model part.  A dataclass is its fields in
    declaration order, where a field typed Any holds a whole model saved with
    its kind; an array or a tuple is a list."""
    if isinstance(part, np.ndarray):
        return part.tolist()
    if isinstance(part, (list, tuple)):
        return [_encode(v) for v in part]
    if not is_dataclass(part):
        return part
    return {name: (model_to_dict if tp is Any else _encode)(getattr(part, name))
            for name, tp in _field_types(type(part)).items()}


def _build(cls: type, d: dict, path: str = "$") -> Any:
    """The instance of cls that _encode wrote as d, found at path in the
    document, each field read by its type.  A ValueError from the
    constructor's own checks names path, and so does an OverflowError from
    an integer too large for the array it is read into."""
    values = {}
    for name, tp in _field_types(cls).items():
        value, at = _field(d, path, name), f"{path}.{name}"
        if tp is Any:
            value = model_from_dict(value, at)
        elif get_origin(tp) is list:
            if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
                raise ValueError(f"field {at} must be a list of objects")
            value = [_build(get_args(tp)[0], v, f"{at}[{i}]") for i, v in enumerate(value)]
        elif is_dataclass(tp):
            value = _build(tp, value, at)
        values[name] = value
    try:
        return cls(**values)
    except (ValueError, OverflowError) as e:
        raise ValueError(f"{path}: {e}") from None


def model_to_dict(model: Any) -> dict:
    """JSON-ready description of any trained method, tagged with its kind."""
    return {"kind": model.kind, **_encode(model)}


def model_from_dict(d: dict, path: str = "$") -> Any:
    """The model that model_to_dict wrote as d; errors name JSON paths under path."""
    kind = _field(d, path, "kind")
    stacked = kind == "stack" or kind.endswith("+br")
    if kind not in _KINDS and not stacked:
        raise ValueError(f"cannot load model kind {kind!r}")
    model = _build(StackedModel if stacked else _KINDS[kind], d, path)
    if stacked and kind not in ("stack", model.kind):
        raise ValueError(
            f"field {path}.kind {kind!r} does not fit first layer {model.first_layer.kind!r}")
    return model


def save_model(
    model: Any,
    path: str | Path,
    feature_names: list[str] | None = None,
    label_names: list[str] | None = None,
    standardizer: StandardizationParams | None = None,
) -> None:
    doc = {
        "format": "mlcascade-model",
        "version": MODEL_VERSION,
        "feature_names": feature_names,
        "label_names": label_names,
        "standardizer": _encode(standardizer),
        "model": model_to_dict(model),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _check_meta_lengths(meta: dict, model: Any) -> None:
    """Raise ValueError naming the metadata list that is not a flat list with
    one entry per model input (feature names, standardizer) or label."""
    lists = [("feature_names", meta["feature_names"], model.input_dim, "inputs"),
             ("label_names", meta["label_names"], model.n_labels, "labels")]
    if meta["standardizer"] is not None:
        lists += [(f"standardizer.{k}", _field(meta["standardizer"], "$.standardizer", k),
                   model.input_dim, "inputs") for k in ("mean", "std")]
    for name, value, count, unit in lists:
        if value is None:
            continue
        if type(value) is not list or list in map(type, value):
            raise ValueError(f"field $.{name} must be a flat list, got {json.dumps(value)}")
        if len(value) != count:
            raise ValueError(
                f"field $.{name} has length {len(value)}, but the model has {count} {unit}")


def load_model(path: str | Path) -> tuple[Any, dict]:
    """Load a saved model; returns (model, metadata) where metadata carries the
    optional feature/label names and feature standardizer stored at save time,
    the standardizer as a StandardizationParams.

    Raises ValueError naming the file for a file that is not JSON, or nested
    too deeply to read, or is not a version-1 model document, and names the
    JSON path of the first missing field, of a scalar field or a
    number-list entry of the wrong type, of a name that cannot be written as
    UTF-8, of a list field that is not a list, of a "models" field that is
    not a list of objects, of a model part that fails its own checks (its
    arrays do not fit together, or hold an integer too large for them), of a
    model that predicts no labels, and of a metadata list that is not as
    long as the model's inputs or labels.  The document is checked and built
    in one walk, so the first of these errors in walk order is the one
    raised: the metadata types and names, then the model, then the metadata
    lengths."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != "mlcascade-model":
            raise ValueError("not a saved model file")
        if doc.get("version") != MODEL_VERSION:
            raise ValueError(
                f"unsupported model version {doc.get('version')!r} "
                f"(this program reads version {MODEL_VERSION})"
            )
        # save_model writes null for the metadata it is not given.
        meta = {k: doc.get(k) for k in ("feature_names", "label_names", "standardizer")}
        for k, value in meta.items():
            if value is not None:
                _check_type(value, f"$.{k}", *_FIELD_TYPES[k])
        # predict writes the label names into its UTF-8 output and compares the
        # feature names with a UTF-8 CSV header.  A nested list is left to
        # _check_meta_lengths.
        for k in ("feature_names", "label_names"):
            for i, name in enumerate(meta[k] or ()):
                if type(name) is str:
                    check_utf8(name, f"field $.{k}[{i}]")
        model = model_from_dict(_field(doc, "$", "model"), "$.model")
        if model.n_labels < 1:
            raise ValueError("$.model: the model predicts no labels")
        _check_meta_lengths(meta, model)
        if meta["standardizer"] is not None:
            meta["standardizer"] = _build(StandardizationParams, meta["standardizer"],
                                          "$.standardizer")
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: not valid JSON: {e}") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    return model, meta
