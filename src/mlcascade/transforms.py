"""Problem transformations over the logistic base learner.

Binary relevance trains one independent model per label.  A classifier chain
feeds each label's model the true earlier labels at training time and its own
greedy predictions at test time.  Stacking re-learns every label from the
original features plus a first layer's predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar

import numpy as np

from .data import Dataset
from .logistic import LinearModel, TrainConfig, as_rows, train_logistic, with_bit_columns


@dataclass
class BRModel:
    """One independent binary model per label, all over the same feature space."""

    models: list[LinearModel]
    input_dim: int

    kind: ClassVar[str] = "br"

    def __post_init__(self) -> None:
        for m in self.models:
            if m.input_dim != self.input_dim:
                raise ValueError("all per-label models must share input_dim")

    @property
    def n_labels(self) -> int:
        return len(self.models)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._per_label(x, LinearModel.predict_bit)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self._per_label(x, LinearModel.predict_proba)

    def _per_label(self, x: np.ndarray, output: Callable) -> np.ndarray:
        """output(model, rows) of each label's model on x's rows, one column per label."""
        # A C-contiguous X makes the products, and so the outputs, independent of x's layout.
        X = np.ascontiguousarray(as_rows(x, self.input_dim))
        return np.column_stack([output(m, X) for m in self.models])


@dataclass
class CCModel:
    """Greedy classifier chain; model at position j consumes input_dim + j features.

    models are stored in chain order; label_order[j] names the original label
    column that position j predicts, and predictions are returned in original
    label indexing.
    """

    models: list[LinearModel]
    label_order: np.ndarray
    input_dim: int

    kind: ClassVar[str] = "cc"

    def __post_init__(self) -> None:
        self.label_order = np.asarray(self.label_order, dtype=np.int64)
        if sorted(self.label_order.tolist()) != list(range(len(self.models))):
            raise ValueError("label_order must be a permutation of the chain positions")
        for j, m in enumerate(self.models):
            if m.input_dim != self.input_dim + j:
                raise ValueError(
                    f"chain position {j} expects {self.input_dim + j} features, "
                    f"model has {m.input_dim}"
                )

    @property
    def n_labels(self) -> int:
        return len(self.models)

    def predict(self, x: np.ndarray, prefix: np.ndarray | None = None) -> np.ndarray:
        """Greedy chain prediction, vectorized over rows.

        When prefix is given, its columns replace the predictions of the
        first prefix.shape[1] chain positions (they are taken as known bits
        instead of being predicted).
        """
        X = as_rows(x, self.input_dim)
        n, D = X.shape
        # [x | chain bits]: position j reads the first D + j columns.
        inputs = with_bit_columns(X, self.n_labels)
        n_known = 0
        if prefix is not None:
            prefix = as_rows(prefix, np.shape(prefix)[-1])
            n_known = prefix.shape[1]
            if n_known > self.n_labels or prefix.shape[0] != n:
                raise ValueError("prefix shape does not match the chain")
            inputs[:, D : D + n_known] = prefix
        for j in range(n_known, self.n_labels):
            inputs[:, D + j] = self.models[j].predict_bit(inputs[:, : D + j])
        # Label column k is the bit of the chain position that predicts it.
        return inputs[:, D + np.argsort(self.label_order)].astype(np.int64)


@dataclass
class StackedModel:
    """A first layer plus a meta binary-relevance layer over [x, first-layer bits].

    Its kind, under which it is saved, is the first layer's plus "+br"."""

    first_layer: Any
    meta: BRModel
    input_dim: int

    def __post_init__(self) -> None:
        check_sizes(("first_layer.input_dim", self.first_layer.input_dim, "input_dim",
                     self.input_dim),
                    ("meta.input_dim", self.meta.input_dim, "input_dim + first_layer.n_labels",
                     self.input_dim + self.first_layer.n_labels))

    @property
    def kind(self) -> str:
        return self.first_layer.kind + "+br"

    @property
    def n_labels(self) -> int:
        return self.meta.n_labels

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.meta.predict(np.hstack([x, self.first_layer.predict(x).astype(float)]))


def check_sizes(*pairs: tuple[str, int, str, int]) -> None:
    """Raise ValueError naming the first pair of sizes of a model's parts that
    differ; each pair is (name, size, name, size)."""
    for name, size, other, other_size in pairs:
        if size != other_size:
            raise ValueError(f"{name} is {size}, but {other} is {other_size}")


def fit_layer(design: np.ndarray, targets: np.ndarray, widths: list[int], names: list[str],
              config: TrainConfig | None = None) -> list[LinearModel]:
    """Fit a layer of logistic units: unit j is train_logistic on the first
    widths[j] columns of design against targets[:, j].

    Every unit of every method is fit here.  The fit copies a unit's
    columns into a C-contiguous matrix unless design is C-contiguous and the
    unit reads all of it, so its weights do not depend on the memory layout
    of the design it was given.  A ValueError from unit j's fit is re-raised
    prefixed with names[j].
    """
    models = []
    for j, (width, name) in enumerate(zip(widths, names, strict=True)):
        try:
            models.append(train_logistic(design[:, :width], targets[:, j], config))
        except ValueError as e:
            raise ValueError(f"{name}: {e}") from None
    return models


def train_br(dataset: Dataset, config: TrainConfig | None = None) -> BRModel:
    """Train one logistic model per label column, each on (X, Y[:, j])."""
    D = dataset.n_features
    names = [f"label {name!r}" for name in dataset.label_names]
    return BRModel(models=fit_layer(dataset.X, dataset.Y, [D] * len(names), names, config),
                   input_dim=D)


def train_cc(
    dataset: Dataset,
    label_order: np.ndarray | list[int] | None = None,
    config: TrainConfig | None = None,
) -> CCModel:
    """Train a classifier chain in the given label order (default: column order).

    The model at chain position j is fit on [x, y_order[0..j-1]] using the
    true training labels as chain features; predicted bits are only fed
    forward at prediction time.
    """
    L = dataset.n_labels
    order = np.arange(L) if label_order is None else np.asarray(label_order, dtype=np.int64)
    if sorted(order.tolist()) != list(range(L)):
        raise ValueError(f"label_order must be a permutation of 0..{L - 1}")
    D = dataset.n_features
    # [x | y in chain order], cut to the last position's D + L - 1 columns.
    design = np.hstack([dataset.X, dataset.Y[:, order[:-1]].astype(float)])
    names = [f"chain position {j} (target {dataset.label_names[k]!r})"
             for j, k in enumerate(order)]
    models = fit_layer(design, dataset.Y[:, order], list(range(D, D + L)), names, config)
    return CCModel(models=models, label_order=order, input_dim=D)


def train_stack(
    dataset: Dataset,
    first_layer_trainer: Callable[[Dataset], Any],
    config: TrainConfig | None = None,
) -> StackedModel:
    """Train a first layer, then a meta BR on [x, its training-set predictions].

    The skip layer is always included: the meta layer sees the original
    features next to the first layer's bits.  No internal folds are used;
    the meta layer is fit on in-sample first-layer predictions.
    """
    first = first_layer_trainer(dataset)
    meta = train_br_over(dataset, first.predict(dataset.X), config)
    return StackedModel(first_layer=first, meta=meta, input_dim=dataset.n_features)


def train_br_over(dataset: Dataset, bits: np.ndarray, config: TrainConfig | None = None) -> BRModel:
    """Binary relevance over [x, bits], as in the layer that stacking, elm and
    the AML output put over extra bits."""
    wide = Dataset(np.hstack([dataset.X, bits.astype(float)]), dataset.Y,
                   label_names=list(dataset.label_names))
    return train_br(wide, config)
