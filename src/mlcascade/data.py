"""Datasets: in-memory representation, CSV I/O, standardization, splits, generators."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .logistic import at_least, one_blas_thread


class CsvFormatError(ValueError):
    """Malformed CSV input (ragged rows, unparsable cells, labels other than
    0 or 1, empty body)."""


@dataclass
class Dataset:
    """Feature matrix X (N x D, real) paired with a binary label matrix Y (N x L)."""

    X: np.ndarray
    Y: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    label_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        raw_Y = np.asarray(self.Y)
        if raw_Y.size and not np.all((raw_Y == 0) | (raw_Y == 1)):
            raise ValueError("label entries must be 0 or 1")
        self.Y = raw_Y.astype(np.int64)
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ValueError("X and Y must be 2-D matrices")
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError(
                f"X has {self.X.shape[0]} rows but Y has {self.Y.shape[0]}"
            )
        if self.X.shape[0] < 1:
            raise ValueError("a dataset needs at least one row")
        if self.X.shape[1] < 1:
            raise ValueError("a dataset needs at least one feature column")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("features must be finite")
        if not self.feature_names:
            self.feature_names = [f"x{i + 1}" for i in range(self.X.shape[1])]
        if not self.label_names:
            self.label_names = [f"y{j + 1}" for j in range(self.Y.shape[1])]
        if len(self.feature_names) != self.X.shape[1]:
            raise ValueError("feature_names length does not match X columns")
        if len(self.label_names) != self.Y.shape[1]:
            raise ValueError("label_names length does not match Y columns")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_labels(self) -> int:
        return self.Y.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.X[idx], self.Y[idx], list(self.feature_names), list(self.label_names))


@dataclass
class StandardizationParams:
    """Per-feature mean and standard deviation fitted on a training split.

    mean and std are 1-D and of one length.  Every mean must be finite and
    every std finite and at least STD_FLOOR, the floor fit_standardizer puts
    under a constant column's zero std."""

    mean: np.ndarray
    std: np.ndarray

    STD_FLOOR = 1e-9

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float)
        self.std = np.asarray(self.std, dtype=float)
        if self.mean.ndim != 1 or self.mean.shape != self.std.shape:
            raise ValueError(f"mean and std must be 1-D and of one length, got shapes "
                             f"{self.mean.shape} and {self.std.shape}")
        for j, (m, s) in enumerate(zip(self.mean.flat, self.std.flat)):
            if not np.isfinite(m):
                raise ValueError(f"mean[{j}] must be finite, got {m}")
            if not self.STD_FLOOR <= s < np.inf:
                raise ValueError(f"std[{j}] must be finite and >= {self.STD_FLOOR}, got {s}")


@dataclass(frozen=True)
class SynthNetSpec:
    """Shape of a randomly generated dataset; hidden_units 0 gives the linear variant."""

    D: int
    L: int
    N: int
    hidden_units: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("D", 1), ("L", 1), ("N", 1), ("hidden_units", 0), ("seed", 0)):
            at_least(name, getattr(self, name), low)


# Input rows cycle through these in order: (x1, x2) with labels (or, and, xor).
_LOGICAL_COMBOS = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])


def gen_logical(n_rows: int) -> Dataset:
    """Noise-free dataset over two binary inputs with OR, AND and XOR as labels.

    Rows cycle through the four input combinations, so the label cardinality
    is exactly 1.5 whenever n_rows is a multiple of 4.
    """
    if n_rows < 4:
        raise ValueError(f"n_rows must be >= 4 to cover all input combinations, got {n_rows}")
    X = _LOGICAL_COMBOS[np.arange(n_rows) % 4]
    a = X[:, 0].astype(np.int64)
    b = X[:, 1].astype(np.int64)
    Y = np.column_stack([a | b, a & b, a ^ b])
    return Dataset(X, Y, ["x1", "x2"], ["or", "and", "xor"])


# Rows per block of gen_synthetic's hidden layer.  On a 2-vCPU VM, blocks of
# 256 to 2048 rows drew the benchmark's specs and N=100000 draws within ~15%
# of each other's time.  With 1024, benchmark `predict` runs peaked ~0.5 MB
# lower than with 512 and took fewer page faults per op: glibc's malloc
# raises its mmap threshold to the largest block freed, so more of the
# arrays made later reuse heap pages.
GEN_BLOCK_ROWS = 1024


def gen_synthetic(spec: SynthNetSpec) -> Dataset:
    """Random dataset whose labels come from threshold units over the features.

    Features are i.i.d. standard normal.  With hidden_units > 0 each label
    thresholds a random linear readout of a random ReLU layer; without it the
    readout acts on the features directly, making each label linearly
    separable by construction.  Thresholds sit at the sample median of each
    readout so label prevalences stay near one half.

    Draw order (fixed contract): features, then the hidden-layer weights if
    any, then the readout weights.

    The readout scores are computed GEN_BLOCK_ROWS rows at a time, so the
    hidden layer is never held whole: the memory is O(N * (D + L)) for the
    features, scores and labels plus O(GEN_BLOCK_ROWS * hidden_units) for
    one block of the hidden layer, not O(N * hidden_units).  The products
    run on one BLAS thread (one_blas_thread), so the data are the same on
    every core count, and a threaded GEMM neither stalls nor touches the
    memory of a second thread.

    What stays the same as with one product over all rows is the output:
    X and Y, byte for byte, on every spec tried (the benchmark's, the block
    edges, wide hidden layers and wide features).  The scores need not:
    BLAS picks its edge kernels by the shape of a block, so a score can
    differ in its last bit (88 of 122880 at D=50, L=30, N=4096,
    hidden_units=300).  A label changes only if such a bit moves a score
    across its column's median, which none of those specs showed.
    """
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.N, spec.D))
    # (0, D) for the linear variant: an empty draw leaves rng as it is.
    V = rng.standard_normal((spec.hidden_units, spec.D))
    U = rng.standard_normal((spec.L, spec.hidden_units or spec.D))
    scores = np.empty((spec.N, spec.L))
    with one_blas_thread():
        for lo in range(0, spec.N, GEN_BLOCK_ROWS):
            blk = slice(lo, lo + GEN_BLOCK_ROWS)
            hidden = X[blk]
            if spec.hidden_units:
                hidden = hidden @ V.T
                np.maximum(hidden, 0.0, out=hidden)
            np.matmul(hidden, U.T, out=scores[blk])
    # The median of each column, (lo + hi) / 2 of its two middle values (one
    # value twice for odd N), as np.median takes it but without importing
    # numpy.ma; at most the sign of a zero threshold differs, so the labels
    # do not.
    N = scores.shape[0]
    middle = np.partition(scores, [(N - 1) // 2, N // 2], axis=0)
    tau = (middle[(N - 1) // 2] + middle[N // 2]) / 2
    Y = (scores > tau).astype(np.int64)
    return Dataset(X, Y)


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV: header row, features first, labels in the trailing columns.

    Rows are converted to Python numbers one at a time, so the memory this
    takes does not grow with the row count."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.feature_names + dataset.label_names)
        writer.writerows(
            [*map(repr, xi.tolist()), *map(str, yi.tolist())]
            for xi, yi in zip(dataset.X, dataset.Y)
        )


def csv_line(cells: list[str]) -> str:
    """cells as one CSV line that ends in a line feed, where a cell that holds
    a comma, a quote, CR or LF is quoted as csv.reader reads it back."""
    buf = io.StringIO()
    # csv.writer quotes a cell that holds a character of its line terminator;
    # with the default "\r\n", cut off here, that covers CR and LF both.
    csv.writer(buf).writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def check_utf8(text: str, what: str) -> None:
    """Raise ValueError naming what if text cannot be written as UTF-8: it
    holds a lone surrogate, as a JSON "\\ud800" escape or a command-line byte
    that is not UTF-8 gives."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{what} {text!r} cannot be written as UTF-8") from None


def load_csv(path: str | Path, label_count: int, labels_last: bool = True) -> Dataset:
    """Read a numeric CSV with a header row into a Dataset.

    The trailing label_count columns are the labels (leading columns when
    labels_last is False) and must parse to exactly 0 or 1.  Every cell is
    read as Python's float() reads it; feature cells must be finite, and at
    least one column must be a feature.  A leading UTF-8 byte-order mark is
    not part of the first column's name.

    A file of plain ASCII is first parsed in C by _load_plain_csv; a file
    that it raises on, every file with an error included, goes through
    csv.reader and float().  Both parsers end in one table builder, _table,
    which splits their float table into feature and label columns.  A file
    that is not UTF-8, or that csv.reader rejects (a cell over its field
    size limit), is a CsvFormatError naming the line.
    """
    at_least("label_count", label_count, 0)
    with open(path, "rb") as fh:
        raw = fh.read()
    # The mark is cut from the bytes, not decoded away with utf-8-sig, whose
    # error offsets do not count it: every offset below counts in raw.
    raw = raw.removeprefix(b"\xef\xbb\xbf")
    try:
        return _load_plain_csv(raw, label_count, labels_last)
    except Exception:
        # Whatever stops the C parse, the path below gives the result or the
        # error (its class and message) that this file has always had.
        pass
    try:
        # newline="" splits lines as open(path, newline="") does for csv.reader.
        reader = csv.reader(io.StringIO(raw.decode("utf-8"), newline=""))
        header = next(reader)
        rows = list(reader)
    except StopIteration:
        raise CsvFormatError(f"{path}: empty file") from None
    except UnicodeDecodeError as e:
        # The line of the first byte that is not UTF-8, counted as csv.reader counts.
        raise CsvFormatError(f"{path}: line {len(raw[: e.start + 1].splitlines())}: {e}") from None
    except csv.Error as e:
        raise CsvFormatError(f"{path}: line {reader.line_num}: {e}") from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    width = len(header)
    if label_count >= width:
        left = "exceeds" if label_count > width else "leaves no feature column in"
        raise CsvFormatError(f"{path}: label_count {label_count} {left} {width} columns")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CsvFormatError(
                f"{path}: row {i + 2} has {len(row)} cells, expected {width}"
            )
    feat_idx, lab_idx = _column_ranges(width, label_count, labels_last)
    # One pass, row by row and features before labels within a row: the
    # first cell float() rejects, or the first label other than 0 or 1, is
    # the error.  The checked cells are appended in that order to one list,
    # which becomes a table of the features and then the labels: appending
    # is faster here than writing the cells into an array.
    cells = []
    for i, row in enumerate(rows):
        for j in feat_idx:
            try:
                cells.append(float(row[j]))
            except ValueError:
                raise CsvFormatError(f"{path}: row {i + 2}, column {header[j]!r}: "
                                     f"cannot parse {row[j]!r} as a number") from None
        for j in lab_idx:
            try:
                v = float(row[j])
            except ValueError:
                raise CsvFormatError(f"{path}: row {i + 2}, label {header[j]!r}: "
                                     f"cannot parse {row[j]!r}") from None
            if v not in (0.0, 1.0):
                raise CsvFormatError(f"{path}: row {i + 2}, label {header[j]!r}: "
                                     f"value {row[j]!r} is not 0 or 1")
            cells.append(v)
    table = np.array(cells, dtype=float).reshape(len(rows), width)
    bad = np.argwhere(~np.isfinite(table[:, : len(feat_idx)]))
    if len(bad):
        i, j = int(bad[0, 0]), feat_idx[bad[0, 1]]
        raise CsvFormatError(
            f"{path}: row {i + 2}, column {header[j]!r}: value {rows[i][j]!r} is not finite"
        )
    return _table([header[j] for j in (*feat_idx, *lab_idx)], table, label_count, True)


def _column_ranges(width: int, label_count: int, labels_last: bool) -> tuple[range, range]:
    """The feature and the label column indices of a table width columns wide."""
    if labels_last:
        return range(width - label_count), range(width - label_count, width)
    return range(label_count, width), range(label_count)


# The bytes of a plain CSV file: printable ASCII but the quote, tab and the
# line ends.  In such a file csv.reader ends a row at every line end and a
# cell at every comma, as np.loadtxt does, and the only whitespace around a
# cell, spaces and tabs, is stripped by float() and numpy alike.
_PLAIN_BYTES = bytes([9, 10, 13, *range(32, 127)]).replace(b'"', b"")


def _load_plain_csv(raw: bytes, label_count: int, labels_last: bool) -> Dataset:
    """What load_csv's csv.reader and float() path gives for the file bytes
    raw, parsed in C by np.loadtxt; an exception for a file that the
    csv.reader path must read.

    np.loadtxt converts each cell with PyOS_string_to_double, the routine
    float() calls; on plain ASCII they differ only in float()'s underscores,
    which np.loadtxt rejects.  So a file of _PLAIN_BYTES with a data row, no
    empty line, no line over csv's field size limit and width numbers in
    every row gives the same cells either way.  They go to _table, as the
    csv.reader path's do, and the Dataset it builds judges them as that path
    does: it raises for a label other than 0 or 1, a feature that is not
    finite and a table with no feature column, which a label_count of the
    width or more leaves, unless take has raised IndexError first for a
    label column past the table.
    """
    if raw.translate(None, _PLAIN_BYTES):
        raise ValueError("not plain ASCII")
    # On these bytes splitlines ends lines at \r\n, \r and \n only, as csv.reader does.
    lines = raw.decode("ascii").splitlines()
    # np.loadtxt skips an empty line, and warns on a file with no data row.
    if len(lines) < 2 or not all(lines) or max(map(len, lines)) > csv.field_size_limit():
        raise ValueError("not a plain CSV table")
    names = lines[0].split(",")
    cells = np.loadtxt(lines[1:], delimiter=",", comments=None, quotechar=None, ndmin=2,
                       dtype=float)
    if cells.shape != (len(lines) - 1, len(names)):
        raise ValueError(f"cells of shape {cells.shape}")
    return _table(names, cells, label_count, labels_last)


def _table(names: list[str], cells: np.ndarray, label_count: int, labels_last: bool) -> Dataset:
    """The Dataset of the float table cells, whose columns are named names:
    the trailing label_count columns are its labels (the leading ones when
    labels_last is False), and the others its features."""
    feat_idx, lab_idx = _column_ranges(len(names), label_count, labels_last)
    return Dataset(cells.take(feat_idx, axis=1), cells.take(lab_idx, axis=1),
                   [names[j] for j in feat_idx], [names[j] for j in lab_idx])


def fit_standardizer(train: Dataset) -> StandardizationParams:
    """Per-feature mean and std from a training split; fit on training data only."""
    std = np.maximum(train.X.std(axis=0), StandardizationParams.STD_FLOOR)
    return StandardizationParams(train.X.mean(axis=0), std)


def apply_standardizer(params: StandardizationParams, dataset: Dataset) -> Dataset:
    if dataset.n_features != len(params.mean):
        raise ValueError(f"the standardizer has {len(params.mean)} features but the dataset "
                         f"has {dataset.n_features}")
    X = (dataset.X - params.mean) / params.std
    return Dataset(X, dataset.Y, list(dataset.feature_names), list(dataset.label_names))


def shuffle_split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Shuffle rows and split; train side gets floor(N * train_fraction) rows."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = dataset.n_rows
    # The epsilon guards floor against float artifacts like 20 * 0.6 -> 11.999....
    n_train = int(n * train_fraction + 1e-9)
    if n_train == 0 or n_train == n:
        raise ValueError(
            f"split of {n} rows at fraction {train_fraction} leaves an empty side"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.take(perm[:n_train]), dataset.take(perm[n_train:])


def shuffle_labels(dataset: Dataset, seed: int) -> tuple[Dataset, np.ndarray]:
    """Permute label columns; returns the permutation for un-shuffling predictions.

    New column j is old column perm[j], so given predictions P in shuffled
    order, P[:, argsort(perm)] restores the original ordering.
    """
    perm = np.random.default_rng(seed).permutation(dataset.n_labels)
    shuffled = Dataset(
        dataset.X,
        dataset.Y[:, perm],
        list(dataset.feature_names),
        [dataset.label_names[j] for j in perm],
    )
    return shuffled, perm
