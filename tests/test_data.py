import csv
import io
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlcascade.data import (
    GEN_BLOCK_ROWS,
    CsvFormatError,
    Dataset,
    StandardizationParams,
    SynthNetSpec,
    apply_standardizer,
    csv_line,
    fit_standardizer,
    gen_logical,
    gen_synthetic,
    load_csv,
    save_csv,
    shuffle_labels,
    shuffle_split,
)
from mlcascade.logistic import TrainConfig
from mlcascade.transforms import train_br


def reference_save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV: header row, features first, labels in the trailing columns."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.feature_names + dataset.label_names)
        for xi, yi in zip(dataset.X, dataset.Y):
            writer.writerow([repr(float(v)) for v in xi] + [str(int(v)) for v in yi])


def reference_save_csv_whole_matrix(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV: header row, features first, labels in the trailing columns."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.feature_names + dataset.label_names)
        writer.writerows(
            [*map(repr, xi), *map(str, yi)]
            for xi, yi in zip(dataset.X.tolist(), dataset.Y.tolist())
        )


def reference_gen_synthetic(spec: SynthNetSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.N, spec.D))
    if spec.hidden_units > 0:
        V = rng.standard_normal((spec.hidden_units, spec.D))
        hidden = np.maximum(X @ V.T, 0.0)
    else:
        hidden = X
    U = rng.standard_normal((spec.L, hidden.shape[1]))
    scores = hidden @ U.T
    tau = np.median(scores, axis=0)
    Y = (scores > tau).astype(np.int64)
    return Dataset(X, Y)


def traced_peak(fn) -> int:
    """Bytes that fn() allocated at its peak, over what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def reference_load_csv(path: str | Path, label_count: int, labels_last: bool = True) -> Dataset:
    """Read a numeric CSV with a header row into a Dataset.

    The trailing label_count columns are the labels (leading columns when
    labels_last is False) and must parse to exactly 0 or 1.
    """
    if label_count < 0:
        raise ValueError("label_count must be >= 0")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        rows = list(reader)
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
    if labels_last:
        feat_idx = range(width - label_count)
        lab_idx = range(width - label_count, width)
    else:
        feat_idx = range(label_count, width)
        lab_idx = range(label_count)
    X = np.empty((len(rows), len(feat_idx)))
    Y = np.empty((len(rows), label_count), dtype=np.int64)
    for i, row in enumerate(rows):
        for out_j, j in enumerate(feat_idx):
            try:
                X[i, out_j] = float(row[j])
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {i + 2}, column {header[j]!r}: "
                    f"cannot parse {row[j]!r} as a number"
                ) from None
        for out_j, j in enumerate(lab_idx):
            try:
                v = float(row[j])
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {i + 2}, label {header[j]!r}: "
                    f"cannot parse {row[j]!r}"
                ) from None
            if v not in (0.0, 1.0):
                raise CsvFormatError(
                    f"{path}: row {i + 2}, label {header[j]!r}: value {row[j]!r} is not 0 or 1"
                )
            Y[i, out_j] = int(v)
    return Dataset(
        X,
        Y,
        [header[j] for j in feat_idx],
        [header[j] for j in lab_idx],
    )


# Besides plain oddities: cells numpy's loadtxt accepts and float() rejects
# ("\x1c1.5", "1.5\x1f"), cells float() accepts and loadtxt rejects ("1_0",
# the Arabic-Indic digit one), a comment sign and an overflow to inf.
AWKWARD_CELLS = [" 1.5", "1_0", "+1e3", "-0", "nan", "inf", "", "abc", "2", "1.0",
                 "\x1c1.5", "1.5\x1f", "\u0661", "  1.5", "#1", "1e999"]


@st.composite
def csv_tables(draw):
    """A header and rows of cells: valid floats and 0/1 labels, with up to four
    cells overwritten by awkward strings or by the repr of any float."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(0, 4))
    n_labels = draw(st.integers(0, 3))
    labels_last = draw(st.booleans())
    any_float = st.floats(allow_nan=True, allow_infinity=True).map(repr)
    feats = [[draw(st.floats(allow_nan=False, allow_infinity=False).map(repr))
              for _ in range(d)] for _ in range(n)]
    labs = [[draw(st.sampled_from(["0", "1"])) for _ in range(n_labels)] for _ in range(n)]
    rows = [y + x if not labels_last else x + y for x, y in zip(feats, labs)]
    names = [f"x{j + 1}" for j in range(d)]
    label_names = [f"y{j + 1}" for j in range(n_labels)]
    header = names + label_names if labels_last else label_names + names
    if d + n_labels:
        # Overwrites favour one row, so a row often holds a bad feature and a bad label.
        bad_row = draw(st.integers(0, n - 1))
        for _ in range(draw(st.integers(0, 4))):
            i = draw(st.just(bad_row) | st.integers(0, n - 1))
            j = draw(st.integers(0, d + n_labels - 1))
            rows[i][j] = draw(st.sampled_from(AWKWARD_CELLS) | any_float)
    return header, rows, n_labels, labels_last


@st.composite
def raw_csv_texts(draw):
    """A csv_tables table written as raw text rather than by csv.writer: with
    \n, \r, \r\n or mixed line ends, and perhaps a blank line, a
    whitespace-only row, a blank line before the end of the file, a trailing
    delimiter or quoted cells."""
    header, rows, label_count, labels_last = draw(csv_tables())
    cells = [list(header), *map(list, rows)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(cells) - 1))
        if cells[i]:
            j = draw(st.integers(0, len(cells[i]) - 1))
            cells[i][j] = f'"{cells[i][j]}"'
    lines = [",".join(row) for row in cells]
    if draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] += ","
    for extra in ("", draw(st.sampled_from([" ", "\t", "  "]))):
        if draw(st.booleans()):
            lines.insert(draw(st.integers(1, len(lines))), extra)
    if draw(st.booleans()):
        lines.append("")
    ends = draw(st.sampled_from(["\n", "\r", "\r\n", None]))
    line_ends = [ends or draw(st.sampled_from(["\n", "\r", "\r\n"])) for _ in lines]
    if not draw(st.booleans()):
        line_ends[-1] = ""
    return "".join(map(str.__add__, lines, line_ends)), label_count, labels_last


def _outcome(load, path, label_count, labels_last):
    try:
        return load(path, label_count, labels_last=labels_last)
    except ValueError as e:
        return e


def _assert_loads_like_reference(path, label_count, labels_last):
    got = _outcome(load_csv, path, label_count, labels_last)
    want = _outcome(reference_load_csv, path, label_count, labels_last)
    if isinstance(want, Dataset):
        assert isinstance(got, Dataset)
        assert got.X.tobytes() == want.X.tobytes() and got.X.shape == want.X.shape
        assert got.X.flags.c_contiguous
        assert got.Y.dtype == want.Y.dtype and np.array_equal(got.Y, want.Y)
        assert got.feature_names == want.feature_names
        assert got.label_names == want.label_names
    elif str(want) == "features must be finite":
        # The one message that changed: the first non-finite feature is named.
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        i, j = _first_non_finite(header, rows, label_count, labels_last)
        assert type(got) is CsvFormatError
        assert str(got) == (f"{path}: row {i + 2}, column {header[j]!r}: "
                            f"value {rows[i][j]!r} is not finite")
    else:
        assert type(got) is type(want) and str(got) == str(want)


def _first_non_finite(header, rows, label_count, labels_last):
    width = len(header)
    feat_idx = range(width - label_count) if labels_last else range(label_count, width)
    for i, row in enumerate(rows):
        for j in feat_idx:
            if not math.isfinite(float(row[j])):
                return i, j
    return None


class TestDataset:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros((4, 1), dtype=int))

    def test_non_binary_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([[0], [2]]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([[0.0], [0.5]]))

    def test_default_names(self):
        ds = Dataset(np.zeros((2, 2)), np.zeros((2, 3), dtype=int))
        assert ds.feature_names == ["x1", "x2"]
        assert ds.label_names == ["y1", "y2", "y3"]

    @pytest.mark.parametrize("X, Y, names, message", [
        (np.zeros(2), np.zeros((2, 1)), {}, "X and Y must be 2-D matrices"),
        (np.zeros((2, 2)), np.zeros(2), {}, "X and Y must be 2-D matrices"),
        (np.zeros((0, 2)), np.zeros((0, 1)), {}, "a dataset needs at least one row"),
        (np.zeros((2, 2)), np.zeros((2, 1)), {"feature_names": ["a"]},
         "feature_names length does not match X columns"),
        (np.zeros((2, 2)), np.zeros((2, 1)), {"label_names": ["p", "q"]},
         "label_names length does not match Y columns"),
    ])
    def test_malformed_dataset_is_rejected(self, X, Y, names, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset(X, Y, **names)


class TestGenLogical:
    def test_cardinality_is_three_halves(self):
        assert gen_logical(20).Y.sum(axis=1).mean() == 1.5

    def test_truth_table_rows(self):
        ds = gen_logical(8)
        both = np.flatnonzero((ds.X == [1.0, 1.0]).all(axis=1))[0]
        neither = np.flatnonzero((ds.X == [0.0, 0.0]).all(axis=1))[0]
        assert np.array_equal(ds.Y[both], [1, 1, 0])
        assert np.array_equal(ds.Y[neither], [0, 0, 0])

    def test_labels_satisfy_boolean_definitions(self):
        ds = gen_logical(37)
        a = ds.X[:, 0].astype(int)
        b = ds.X[:, 1].astype(int)
        assert np.array_equal(ds.Y[:, 0], a | b)
        assert np.array_equal(ds.Y[:, 1], a & b)
        assert np.array_equal(ds.Y[:, 2], a ^ b)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gen_logical(3)


class TestGenSynthetic:
    def test_deterministic(self):
        spec = SynthNetSpec(D=3, L=4, N=100, hidden_units=10, seed=5)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_label_prevalence_near_half(self):
        for hidden in (0, 50):
            ds = gen_synthetic(SynthNetSpec(D=4, L=6, N=500, hidden_units=hidden, seed=2))
            prevalence = ds.Y.mean(axis=0)
            assert np.all(prevalence >= 0.35) and np.all(prevalence <= 0.65)

    def test_linear_variant_is_separable_by_generating_weights(self):
        spec = SynthNetSpec(D=5, L=3, N=200, hidden_units=0, seed=9)
        ds = gen_synthetic(spec)
        # Replay the documented draw order: features first, then the readout.
        rng = np.random.default_rng(spec.seed)
        X = rng.standard_normal((spec.N, spec.D))
        U = rng.standard_normal((spec.L, spec.D))
        scores = X @ U.T
        tau = np.median(scores, axis=0)
        assert np.array_equal(ds.X, X)
        assert np.array_equal(ds.Y, (scores > tau).astype(int))

    def test_linear_variant_learnable_by_br(self):
        ds = gen_synthetic(SynthNetSpec(D=4, L=3, N=200, hidden_units=0, seed=4))
        br = train_br(ds, TrainConfig(epochs=5000, l2_penalty=0.0))
        acc = (br.predict(ds.X) == ds.Y).mean()
        assert acc >= 0.99

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 5), st.integers(1, 80), st.integers(0, 40),
           st.integers(0, 2**32 - 1))
    @example(3, 2, 1, 5, 0)
    @example(1, 1, 1, 0, 7)
    @example(4, 1, 200, 64, 3)
    @example(2, 10, 2000, 100, 1)  # the benchmark's three draws
    @example(2, 10, 2000, 0, 1)
    @example(10, 10, 7000, 100, 1)
    # The block edges: one row short of a block, one block, one row over (a
    # 1-row product after a full block) and two blocks and a row.
    @example(2, 10, GEN_BLOCK_ROWS - 1, 100, 1)
    @example(2, 10, GEN_BLOCK_ROWS, 100, 1)
    @example(2, 10, GEN_BLOCK_ROWS + 1, 100, 1)
    @example(2, 10, 2 * GEN_BLOCK_ROWS + 1, 100, 1)
    @example(3, 5, GEN_BLOCK_ROWS + 7, 2000, 2)  # a wide hidden layer
    @example(300, 4, 2 * GEN_BLOCK_ROWS + 3, 40, 3)  # wide features
    @example(7, 6, 3 * GEN_BLOCK_ROWS + 5, 0, 4)  # the linear variant over several blocks
    # Block scores differ from the whole product in the last bit of some
    # cells here (BLAS picks edge kernels by block shape); the labels must not.
    @example(50, 30, 4096, 300, 1)
    def test_matches_reference(self, D, L, N, hidden, seed):
        spec = SynthNetSpec(D=D, L=L, N=N, hidden_units=hidden, seed=seed)
        got, want = gen_synthetic(spec), reference_gen_synthetic(spec)
        for a, b in ((got.X, want.X), (got.Y, want.Y)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got.feature_names == want.feature_names
        assert got.label_names == want.label_names

    def test_holds_one_hidden_matrix(self):
        # The reference holds X @ V.T and its ReLU at once: 2.1 hidden matrices.
        spec = SynthNetSpec(D=10, L=10, N=20000, hidden_units=100, seed=1)
        hidden_bytes = spec.N * spec.hidden_units * 8
        assert traced_peak(lambda: gen_synthetic(spec)) < 1.5 * hidden_bytes

    @pytest.mark.parametrize("N", [8000, 32000])
    def test_memory_does_not_grow_with_the_hidden_layer(self, N):
        # The outputs and the scores take ~0.04 of one N x hidden matrix here,
        # and one block of the hidden layer is a fixed number of bytes.
        spec = SynthNetSpec(D=4, L=4, N=N, hidden_units=400, seed=1)
        hidden_bytes = spec.N * spec.hidden_units * 8
        assert traced_peak(lambda: gen_synthetic(spec)) < 0.25 * hidden_bytes

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SynthNetSpec(D=0, L=1, N=10)
        with pytest.raises(ValueError):
            SynthNetSpec(D=1, L=1, N=10, hidden_units=-1)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            SynthNetSpec(D=1, L=1, N=10, seed=-1)


class TestCsv:
    def test_three_columns_one_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,c\n0.5,1.5,1\n-0.25,0.0,0\n")
        ds = load_csv(p, label_count=1)
        assert ds.n_features == 2 and ds.n_labels == 1
        assert ds.feature_names == ["a", "b"] and ds.label_names == ["c"]

    def test_labels_first(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("c,a,b\n1,0.5,1.5\n0,-0.25,0.0\n")
        ds = load_csv(p, label_count=1, labels_last=False)
        assert ds.label_names == ["c"]
        assert np.array_equal(ds.Y[:, 0], [1, 0])

    def test_non_binary_label_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n0.5,2\n")
        with pytest.raises(CsvFormatError, match="is not 0 or 1"):
            load_csv(p, label_count=1)

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n0.5,1\n0.5\n")
        with pytest.raises(CsvFormatError):
            load_csv(p, label_count=1)

    def test_unparsable_feature(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\nhello,1\n")
        with pytest.raises(CsvFormatError):
            load_csv(p, label_count=1)

    def test_empty_body(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n")
        with pytest.raises(CsvFormatError):
            load_csv(p, label_count=1)

    @pytest.mark.parametrize("text, label_count, message", [
        ("a,b\n0.5,1\n", -1, "label_count must be >= 0"),
        # np.loadtxt reads the rows as a 2 x 2 matrix, so the C parse hands
        # the file to csv.reader, which names the first short row.
        ("a,b,c\n0.5,1\n-1,0\n", 1, "row 2 has 2 cells, expected 3"),
        # Dataset would refuse the table too, but without the file's name.
        ("a,b\n0.5,1\n", 2, r"d\.csv: label_count 2 leaves no feature column in 2 columns$"),
    ])
    def test_bad_label_count_or_header_width_is_named(self, tmp_path, text, label_count,
                                                       message):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_csv(p, label_count=label_count)

    @settings(max_examples=300, deadline=None)
    @given(csv_tables())
    def test_matches_reference_loader(self, table):
        header, rows, label_count, labels_last = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header, *rows])
            _assert_loads_like_reference(path, label_count, labels_last)

    @settings(max_examples=200, deadline=None)
    @given(raw_csv_texts())
    @example(('"x1",y1\r\n0.5,1\r\n', 1, True))
    @example(('x1,y1\n0.5,"1"\n', 1, True))
    @example(("x1,y1\r0.5,1\r-1e3,0", 1, True))
    @example(("x1,y1\r\n0.5,1\n-1e3,0\r", 1, True))
    @example(("x1,y1\n0.5,1\r\n\n-2,0\n", 1, True))
    @example(("x1,y1\n0.5,1\n\n", 1, True))
    @example(("x1,y1\n0.5,1\n \t\n", 1, True))
    @example(("x1,y1\n0.5,1,\n", 1, True))
    # Plain files that Dataset or numpy's take hands to the csv.reader path:
    # labels other than 0 or 1, features that are not finite, and a
    # label_count that leaves no feature column or reaches past the table.
    @example(("x1,y1\n0.5,2\n", 1, True))
    @example(("x1,y1\n0.5,0.5\n", 1, True))
    @example(("x1,x2,y1\n0.5,nan,1\n", 1, True))
    @example(("x1,x2,y1\ninf,0.5,1\n", 1, True))
    @example(("y1,y2\n0,1\n", 2, True))
    @example(("a,b\n1,0\n", 3, True))
    @example(("a,b\n1,0\n", 4, True))
    @example(("a,b\n1,0\n", 3, False))
    @example(("a,b\n1,0\n", 4, False))
    def test_raw_text_matches_reference_loader(self, table):
        text, label_count, labels_last = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            _assert_loads_like_reference(path, label_count, labels_last)

    @pytest.mark.parametrize("line_end", ["\r\n", "\n"])
    def test_plain_file_loads_without_csv_reader(self, tmp_path, monkeypatch, line_end):
        # save_csv ends lines with \r\n (csv.writer's default): a plain-ASCII
        # gate that refused either line end would fall back to csv.reader here.
        ds = gen_synthetic(SynthNetSpec(D=3, L=2, N=40, seed=5))
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        assert b"\r\n" in path.read_bytes()
        path.write_bytes(path.read_bytes().replace(b"\r\n", line_end.encode()))

        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader called on a plain file")

        monkeypatch.setattr("mlcascade.data.csv.reader", no_reader)
        loaded = load_csv(path, label_count=2)
        assert loaded.X.tobytes() == ds.X.tobytes()
        assert np.array_equal(loaded.Y, ds.Y)
        assert loaded.feature_names == ds.feature_names
        assert loaded.label_names == ds.label_names

    def test_line_longer_than_csv_field_limit_takes_the_reference_path(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n" + "0" * csv.field_size_limit() + "1,1\n")
        with pytest.raises(csv.Error, match="field larger than field limit"):
            reference_load_csv(p, label_count=1)
        with pytest.raises(CsvFormatError) as caught:
            load_csv(p, label_count=1)
        assert str(caught.value) == (f"{p}: line 2: field larger than field limit "
                                     f"({csv.field_size_limit()})")

    @pytest.mark.parametrize("line_end", [b"\n", b"\r", b"\r\n"])
    def test_file_that_is_not_utf8_names_the_line(self, tmp_path, line_end):
        p = tmp_path / "d.csv"
        p.write_bytes(line_end.join([b"a,b", b"0.5,1", b"\xe9,0", b""]))
        with pytest.raises(CsvFormatError) as caught:
            load_csv(p, label_count=1)
        at = 8 + 2 * len(line_end)
        assert str(caught.value) == (f"{p}: line 3: 'utf-8' codec can't decode byte 0xe9 "
                                     f"in position {at}: invalid continuation byte")

    @pytest.mark.parametrize("text", ["x1,x2,y1\r\n0.5,-1,1\r\n2,3,0\r\n",
                                      '"x1",x2,y1\n0.5,-1,1\n2,3,0\n'],
                             ids=["plain", "quoted"])
    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, monkeypatch, text):
        bare, marked = tmp_path / "bare.csv", tmp_path / "marked.csv"
        bare.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = load_csv(bare, label_count=1)
        if text.startswith("x1"):
            # A marked file that is otherwise plain ASCII takes the C parse.
            monkeypatch.setattr("mlcascade.data.csv.reader", None)
        got = load_csv(marked, label_count=1)
        assert got.feature_names == want.feature_names == ["x1", "x2"]
        assert got.label_names == want.label_names
        assert got.X.tobytes() == want.X.tobytes() and np.array_equal(got.Y, want.Y)

    def test_byte_order_mark_before_a_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbf" + b"\n".join([b"a,b", b"0.5,1", b"\xe9,0", b""]))
        with pytest.raises(CsvFormatError) as caught:
            load_csv(p, label_count=1)
        # The offset counts from the first byte after the mark.
        assert str(caught.value) == (f"{p}: line 3: 'utf-8' codec can't decode byte 0xe9 "
                                     f"in position 10: invalid continuation byte")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 5), st.integers(0, 3),
           st.sampled_from(["C", "F", "sliced"]), st.data())
    def test_save_load_round_trip_is_bit_exact(self, n, d, n_labels, layout, data):
        # -0.0, the subnormals and the largest finite magnitudes are written
        # as repr writes them, whatever the memory layout of X.
        finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e-300])
        X = np.array(data.draw(st.lists(st.lists(finite, min_size=d, max_size=d),
                                        min_size=n, max_size=n)))
        if layout == "F":
            X = np.asfortranarray(X)
        elif layout == "sliced":
            X = np.hstack([X, X])[:, :d]
        Y = np.array(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n_labels,
                                                 max_size=n_labels), min_size=n, max_size=n)),
                     dtype=np.int64).reshape(n, n_labels)
        ds = Dataset(X, Y)
        with tempfile.TemporaryDirectory() as tmp:
            path, ref, whole = (Path(tmp) / name for name in ("d.csv", "ref.csv", "whole.csv"))
            save_csv(ds, path)
            reference_save_csv(ds, ref)
            reference_save_csv_whole_matrix(ds, whole)
            assert path.read_bytes() == ref.read_bytes() == whole.read_bytes()
            loaded = load_csv(path, label_count=n_labels)
        assert loaded.X.tobytes() == np.ascontiguousarray(ds.X).tobytes()
        assert np.array_equal(loaded.Y, ds.Y)

    def test_writes_one_row_at_a_time(self, tmp_path):
        # The whole-matrix reference holds every cell as a Python object: 10 MB here.
        ds = gen_synthetic(SynthNetSpec(D=10, L=10, N=20000, seed=1))
        assert traced_peak(lambda: save_csv(ds, tmp_path / "d.csv")) < 1_000_000

    @pytest.mark.parametrize("text, labels_last", [
        ("a,b,c\n0.5,1.5,1\n2,abc,7\n", True),
        ("c,a,b\n1,0.5,1.5\n2,0.5,abc\n", False),
    ])
    def test_first_bad_cell_is_a_feature_before_a_label(self, tmp_path, text, labels_last):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(CsvFormatError) as want:
            reference_load_csv(p, label_count=1, labels_last=labels_last)
        with pytest.raises(CsvFormatError) as got:
            load_csv(p, label_count=1, labels_last=labels_last)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
        assert "column 'b': cannot parse 'abc'" in str(got.value)

    def test_non_finite_feature_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,c\n0.5,1.5,1\n-0.25,inf,0\nnan,1.0,1\n")
        with pytest.raises(CsvFormatError, match=r"row 3, column 'b': value 'inf' is not finite"):
            load_csv(p, label_count=1)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(
            rng.normal(size=(12, 3)) * np.array([1e-8, 1.0, 1e6]),
            rng.integers(0, 2, size=(12, 2)),
        )
        p = tmp_path / "d.csv"
        save_csv(ds, p)
        loaded = load_csv(p, label_count=2)
        assert np.array_equal(ds.X, loaded.X)
        assert np.array_equal(ds.Y, loaded.Y)


class TestCsvLine:
    @pytest.mark.parametrize("cells", [
        ["a", "b"], ["a,b", 'a"b', "a\rb", "a\nb", "a\r\nb"], [""], ["", ""], [" a ", "é"],
    ])
    def test_reads_back_as_the_cells(self, cells):
        line = csv_line(cells)
        assert line.endswith("\n") and not line.endswith("\r\n")
        assert list(csv.reader(io.StringIO(line, newline=""))) == [cells]

class TestStandardizer:
    def test_training_columns_centered_and_scaled(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(3.0, 5.0, size=(40, 3)), rng.integers(0, 2, size=(40, 1)))
        params = fit_standardizer(ds)
        out = apply_standardizer(params, ds)
        assert np.all(np.abs(out.X.mean(axis=0)) <= 1e-9)
        assert np.allclose(out.X.std(axis=0), 1.0, atol=1e-6)

    def test_constant_column_maps_to_zeros(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        ds = Dataset(X, np.zeros((10, 1), dtype=int))
        out = apply_standardizer(fit_standardizer(ds), ds)
        assert not out.X[:, 0].any()

    def test_test_split_uses_train_statistics(self):
        rng = np.random.default_rng(5)
        train = Dataset(rng.normal(size=(30, 2)), rng.integers(0, 2, size=(30, 1)))
        test = Dataset(rng.normal(2.0, 1.0, size=(30, 2)), rng.integers(0, 2, size=(30, 1)))
        params = fit_standardizer(train)
        out = apply_standardizer(params, test)
        expected = (test.X - train.X.mean(axis=0)) / train.X.std(axis=0)
        assert np.array_equal(out.X, expected)
        assert abs(out.X[:, 0].mean()) > 0.5  # test columns need not be centered

    @pytest.mark.parametrize("mean, std, shapes", [
        ([0.5], [1.0, 2.0], "(1,) and (2,)"),
        ([0.5, 0.5], [1.0], "(2,) and (1,)"),
        ([[0.5, 0.5]], [1.0, 2.0], "(1, 2) and (2,)"),
        ([[0.5, 0.5]], [[1.0, 2.0]], "(1, 2) and (1, 2)"),
        (0.5, 1.0, "() and ()"),
    ])
    def test_mean_and_std_of_other_shapes_are_rejected(self, mean, std, shapes):
        with pytest.raises(ValueError, match=rf"got shapes {re.escape(shapes)}$"):
            StandardizationParams(mean, std)

    @pytest.mark.parametrize("features", [1, 3])
    def test_dataset_of_another_width_is_rejected(self, features):
        params = StandardizationParams(np.zeros(features), np.ones(features))
        with pytest.raises(ValueError, match=f"the standardizer has {features} features "
                                             "but the dataset has 2"):
            apply_standardizer(params, gen_logical(4))


class TestSplits:
    def test_sixty_forty_on_twenty_rows(self):
        train, test = shuffle_split(gen_logical(20), 0.6, seed=0)
        assert train.n_rows == 12 and test.n_rows == 8

    def test_deterministic(self):
        a_tr, a_te = shuffle_split(gen_logical(20), 0.6, seed=3)
        b_tr, b_te = shuffle_split(gen_logical(20), 0.6, seed=3)
        assert np.array_equal(a_tr.X, b_tr.X) and np.array_equal(a_te.Y, b_te.Y)

    def test_union_of_rows_preserved(self):
        ds = gen_logical(16)
        train, test = shuffle_split(ds, 0.5, seed=1)
        merged = np.vstack([np.hstack([train.X, train.Y]), np.hstack([test.X, test.Y])])
        original = np.hstack([ds.X, ds.Y])
        order = lambda rows: rows[np.lexsort(rows.T)]
        assert np.array_equal(order(merged), order(original))

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            shuffle_split(gen_logical(4), 0.1, seed=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            shuffle_split(gen_logical(8), 1.0, seed=0)

    def test_label_shuffle_round_trip(self):
        ds = gen_logical(20)
        shuffled, perm = shuffle_labels(ds, seed=6)
        assert sorted(perm.tolist()) == [0, 1, 2]
        inverse = np.argsort(perm)
        assert np.array_equal(shuffled.Y[:, inverse], ds.Y)
        assert [shuffled.label_names[j] for j in inverse] == ds.label_names

    def test_label_shuffle_deterministic(self):
        ds = gen_logical(20)
        _, p1 = shuffle_labels(ds, seed=2)
        _, p2 = shuffle_labels(ds, seed=2)
        assert np.array_equal(p1, p2)
