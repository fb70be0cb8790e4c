"""Metrics, the multi-run benchmark protocol, and rank tables.

Exact match scores a row only when every bit agrees; Hamming score averages
per-bit agreement.  The experiment runner repeats, per dataset: shuffle the
label columns, shuffle and split the rows, standardize features on the
training side, train every requested method on the identical split, and
score both metrics on the test side.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import (Dataset, apply_standardizer, csv_line, fit_standardizer, shuffle_labels,
                   shuffle_split)
from .logistic import as_rows, at_least
from .methods import MethodConfig, train_method
from .transforms import BRModel

MAX_ENUMERATION_LABELS = 12


class MethodFailure(RuntimeError):
    """A method raised something other than a ValueError while training or
    predicting inside the experiment loop."""


def _check_pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.ndim != 2 or 0 in y_true.shape:
        raise ValueError("prediction sets must be nonempty 2-D matrices")
    return y_true, y_pred


def exact_match(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of rows whose predicted label vector matches the truth exactly."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.all(y_true == y_pred, axis=1).mean())


def hamming_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean per-bit agreement between the two label matrices."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float((y_true == y_pred).mean())


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks with 1 for the largest value; tied values share the mean rank."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(len(values))
    ranks[order] = np.arange(1, len(values) + 1)
    # A set, not np.unique, which imports numpy.ma (~1.3 MB).
    for v in set(values.tolist()):
        tied = values == v
        if tied.sum() > 1:
            ranks[tied] = ranks[tied].mean()
    return ranks


def equivalence_oracle(br_model: BRModel, test_X: np.ndarray) -> bool:
    """Check that joint-mode and per-label decisions agree for a BR model.

    For every row, enumerates all 2^L label vectors, scores each by the
    product of per-label probabilities, and compares the maximizer against
    independent per-label thresholding.  Ties (which arise at probability
    exactly 0.5) are resolved toward 1 on both sides.
    """
    L = br_model.n_labels
    if L > MAX_ENUMERATION_LABELS:
        raise ValueError(f"enumeration over 2^{L} vectors refused (limit 2^{MAX_ENUMERATION_LABELS})")
    test_X = as_rows(test_X, br_model.input_dim)
    probs = br_model.predict_proba(test_X)
    marginal = br_model.predict(test_X)
    codes = (np.arange(2**L)[:, None] >> np.arange(L - 1, -1, -1)) & 1
    for i in range(test_X.shape[0]):
        p = probs[i]
        scores = np.prod(np.where(codes == 1, p, 1.0 - p), axis=1)
        # Scanning from the top code downward makes the first maximum the one
        # with 1s at every tied position, matching the 0.5 -> 1 rule.
        best = 2**L - 1 - int(np.argmax(scores[::-1]))
        if not np.array_equal(codes[best], marginal[i]):
            return False
    return True


@dataclass
class ExperimentReport:
    """Per-iteration metric values plus means and per-dataset ranks.

    exact and hamming have shape (n_datasets, n_methods, iterations); the
    rank arrays hold average ranks per dataset computed on the means, rank 1
    being the best method.
    """

    dataset_names: list[str]
    method_names: list[str]
    iterations: int
    split_fraction: float
    master_seed: int
    exact: np.ndarray
    hamming: np.ndarray
    exact_mean: np.ndarray = field(init=False)
    hamming_mean: np.ndarray = field(init=False)
    exact_rank: np.ndarray = field(init=False)
    hamming_rank: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.exact_mean = self.exact.mean(axis=2)
        self.hamming_mean = self.hamming.mean(axis=2)
        self.exact_rank = np.vstack([average_ranks(row) for row in self.exact_mean])
        self.hamming_rank = np.vstack([average_ranks(row) for row in self.hamming_mean])

    def _tables(self, metric: str) -> tuple[np.ndarray, np.ndarray]:
        if metric == "exact":
            return self.exact_mean, self.exact_rank
        if metric == "hamming":
            return self.hamming_mean, self.hamming_rank
        raise ValueError(f"metric must be 'exact' or 'hamming', got {metric!r}")

    def mean(self, metric: str, dataset: str, method: str) -> float:
        d = self.dataset_names.index(dataset)
        m = self.method_names.index(method)
        return float(self._tables(metric)[0][d, m])

    def metric_csv(self, metric: str) -> str:
        """Wide CSV for one metric: one dataset per row, mean and rank per method."""
        means, ranks = self._tables(metric)
        cols = ["dataset"]
        for m in self.method_names:
            cols += [m, f"{m}_rank"]
        lines = [csv_line(cols)]
        for d, name in enumerate(self.dataset_names):
            cells = [name]
            for m in range(len(self.method_names)):
                cells += [f"{means[d, m]:.6f}", f"{ranks[d, m]:.1f}"]
            lines.append(csv_line(cells))
        return "".join(lines)

    def table_text(self) -> str:
        """Aligned table, one section per metric, cells showing mean (rank)."""
        lines = []
        width = max(12, max((len(m) for m in self.method_names), default=0) + 2)
        name_w = max(10, max((len(d) for d in self.dataset_names), default=0) + 2)
        for metric, title in (("exact", "exact match"), ("hamming", "hamming score")):
            means, ranks = self._tables(metric)
            lines.append(title)
            header = "dataset".ljust(name_w) + "".join(m.rjust(width) for m in self.method_names)
            lines.append(header)
            for d, name in enumerate(self.dataset_names):
                row = name.ljust(name_w)
                for m in range(len(self.method_names)):
                    row += f"{means[d, m]:.3f} ({ranks[d, m]:g})".rjust(width)
                lines.append(row)
            lines.append("")
        lines.append(
            f"iterations={self.iterations} split={self.split_fraction:g} "
            f"seed={self.master_seed}"
        )
        return "\n".join(lines) + "\n"


def derive_seed(master_seed: int, dataset_index: int, iteration: int, stream: int) -> int:
    """Reproducible child seed for one (dataset, iteration, purpose) triple.

    Streams: 0 shuffles the label columns, 1 shuffles and splits the rows,
    2 + k seeds method number k.
    """
    ss = np.random.SeedSequence([master_seed, dataset_index, iteration, stream])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_experiment(
    datasets: dict[str, Dataset] | list[tuple[str, Dataset]],
    methods: list[str | tuple[str, MethodConfig]],
    iterations: int,
    split_fraction: float,
    master_seed: int,
) -> ExperimentReport:
    """Run the shuffled multi-iteration benchmark protocol.

    Per dataset and iteration: shuffle the label columns, shuffle the rows
    into a train/test split, standardize features with training statistics,
    train every method on the identical split, and score exact match and
    Hamming score on the test rows.  Everything is derived from master_seed
    (see derive_seed), so two runs with the same seed agree bitwise.

    A method that rejects its data (a ValueError, such as a diverging fit)
    raises a ValueError; any other exception it raises becomes a
    MethodFailure.  Either message names the method, the dataset and the
    iteration.  Both keep their class and message through pickling, so a
    caller, in this process or another, tells a data error from any other
    fault by its class alone.
    """
    at_least("iterations", iterations, 1)
    pairs = list(datasets.items()) if isinstance(datasets, dict) else list(datasets)
    if not pairs:
        raise ValueError("need at least one dataset")
    specs: list[tuple[str, MethodConfig]] = []
    for m in methods:
        if isinstance(m, str):
            specs.append((m, MethodConfig()))
        else:
            specs.append((m[0], m[1]))
    if not specs:
        raise ValueError("need at least one method")
    exact = np.zeros((len(pairs), len(specs), iterations))
    hamming = np.zeros((len(pairs), len(specs), iterations))
    for d, (ds_name, ds) in enumerate(pairs):
        for it in range(iterations):
            shuffled, _ = shuffle_labels(ds, derive_seed(master_seed, d, it, 0))
            train, test = shuffle_split(
                shuffled, split_fraction, derive_seed(master_seed, d, it, 1)
            )
            scaler = fit_standardizer(train)
            train_s = apply_standardizer(scaler, train)
            test_s = apply_standardizer(scaler, test)
            for k, (name, cfg) in enumerate(specs):
                cfg_k = replace(cfg, seed=derive_seed(master_seed, d, it, 2 + k))
                try:
                    model = train_method(name, train_s, cfg_k)
                    pred = model.predict(test_s.X)
                except Exception as e:
                    kind = ValueError if isinstance(e, ValueError) else MethodFailure
                    raise kind(f"method {name!r} failed on dataset {ds_name!r}, "
                               f"iteration {it}: {e}") from e
                exact[d, k, it] = exact_match(test_s.Y, pred)
                hamming[d, k, it] = hamming_score(test_s.Y, pred)
    return ExperimentReport(
        dataset_names=[name for name, _ in pairs],
        method_names=[name for name, _ in specs],
        iterations=iterations,
        split_fraction=split_fraction,
        master_seed=master_seed,
        exact=exact,
        hamming=hamming,
    )
