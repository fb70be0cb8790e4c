"""The benchmark's workloads: inputs made from the seed, one op, and its checks.

Each workload builds its inputs in ``setup`` (the program receives only
those inputs and the seed on its command line), runs one op through the
program's public entry points in ``op``, and validates what the op wrote
in ``check``, outside the timed region.  ``check`` returns an ``Outcome``
whose artifacts are the op's output files; ops with the same key must write
identical artifacts, and at the golden seed the artifacts must equal the
frozen files under ``golden/``.
"""

from __future__ import annotations

import contextlib
import gzip
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mlcascade.cli as cli
import mlcascade.data as data
import mlcascade.evaluate as evaluate
from mlcascade.methods import METHOD_NAMES

METHODS = list(METHOD_NAMES)
FILE_NAMES = {m: m.replace("+", "_") for m in METHODS}  # method names as file-name parts
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SEED = 1
# Seed-1 logical exact-match means of the README table, in METHODS order.
README_LOGICAL_EXACT = [0.5, 0.75, 0.925, 1.0, 1.0, 0.75]

# Every method clears this mean Hamming score on every workload; a program
# that writes well-formed but wrong bits falls far below it.
HAMMING_FLOOR = 0.6


class OpFailed(Exception):
    """An op exited non-zero or wrote output that fails validation."""


@dataclass
class Outcome:
    key: str
    exact: float
    hamming: float
    artifacts: dict[str, str]


def _quiet_cli(argv: list[str]) -> int:
    """Run the command line in-process with its progress lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _report_means(text: str, datasets: list[str]) -> list[float]:
    """Means from a bench report CSV, after checking its shape, ranks and floor."""
    lines = text.splitlines()
    header = ["dataset"] + [c for m in METHODS for c in (m, f"{m}_rank")]
    if not lines or lines[0].split(",") != header:
        raise OpFailed(f"report header is not {','.join(header)}")
    if [line.split(",")[0] for line in lines[1:]] != datasets:
        raise OpFailed(f"report rows are not {datasets}")
    means = []
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")[1:]]
        row_means, ranks = cells[0::2], cells[1::2]
        if not all(0.0 <= v <= 1.0 for v in row_means):
            raise OpFailed(f"report mean outside [0, 1]: {line}")
        if not all(1.0 <= r <= len(METHODS) for r in ranks):
            raise OpFailed(f"report rank outside [1, {len(METHODS)}]: {line}")
        means += row_means
    return means


def _report_outcome(key: str, exact_text: str, hamming_text: str,
                    datasets: list[str]) -> Outcome:
    exact = _report_means(exact_text, datasets)
    hamming = _report_means(hamming_text, datasets)
    if min(hamming) < HAMMING_FLOOR:
        raise OpFailed(f"a method scored Hamming {min(hamming):.3f} < {HAMMING_FLOOR}")
    return Outcome(
        key, float(np.mean(exact)), float(np.mean(hamming)),
        {f"{key}-exactmatch.csv": exact_text, f"{key}-hamming.csv": hamming_text},
    )


class Logical:
    """README protocol: ``mlcascade bench`` on the 20-row logical set, all methods."""

    name = "logical"
    setup_reps = 11
    slots = 1                   # every op runs the same command
    cells_per_op = 60           # 6 methods x 10 iterations
    rows_per_op = 60 * 8        # 8 test rows per 60/40 split of 20 rows
    fits_per_op = 360

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        self.out = workdir / "reports"

    def op(self, slot: int) -> int:
        return _quiet_cli(["bench", "--dataset", "logical", "--methods", ",".join(METHODS),
                           "--iters", "10", "--split", "0.6", "--seed", str(self.seed),
                           "--out", str(self.out)])

    def check(self, slot: int, rc: int) -> Outcome:
        if rc != 0:
            raise OpFailed(f"bench exited with code {rc}")
        return _report_outcome(
            "logical",
            (self.out / "logical-exactmatch.csv").read_text(encoding="utf-8"),
            (self.out / "logical-hamming.csv").read_text(encoding="utf-8"),
            ["logical"],
        )


class Synthetic:
    """Gate-3 contrast shape: one complex and one linear draw, all methods, one split."""

    name = "synthetic"
    setup_reps = 11
    slots = 1
    cells_per_op = 2 * 6        # 2 draws x 6 methods x 1 iteration
    rows_per_op = 2 * 6 * 1000  # 1000 test rows per 50/50 split of 2000 rows
    fits_per_op = 240
    datasets = ["complex", "linear"]

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        self.draws = [
            (variant, data.gen_synthetic(data.SynthNetSpec(
                D=2, L=10, N=2000, hidden_units=hidden, seed=self.seed)))
            for variant, hidden in zip(self.datasets, (100, 0))
        ]

    def op(self, slot: int):
        return evaluate.run_experiment(self.draws, METHODS, iterations=1,
                                       split_fraction=0.5, master_seed=self.seed)

    def check(self, slot: int, report) -> Outcome:
        return _report_outcome("synthetic", report.metric_csv("exact"),
                               report.metric_csv("hamming"), self.datasets)


class Predict:
    """CLI read path: ``mlcascade predict`` with each saved method on 5000 held-out rows."""

    name = "predict"
    setup_reps = 3
    slots = len(METHODS)        # op k predicts with method k mod 6
    cells_per_op = 1            # one method on one test split
    rows_per_op = 5000
    fits_per_op = 0
    n_train = 2000
    # One fixed generating network, as `logical` has one fixed dataset; the
    # workload seed shuffles which rows train and which are predicted, and
    # seeds the methods.  Exact match differs by ~12% of its value (standard
    # deviation) between networks but by ~2% between splits of one network.
    # Train and test rows must share the network: rows of another one follow
    # a different labelling and score near zero.
    draw_seed = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        draw = data.gen_synthetic(data.SynthNetSpec(
            D=10, L=10, N=self.n_train + self.rows_per_op, hidden_units=100,
            seed=self.draw_seed))
        rows = np.random.default_rng(self.seed).permutation(draw.n_rows)
        train = draw.take(rows[:self.n_train])
        test = draw.take(rows[self.n_train:])
        self.train_csv = workdir / "train.csv"
        self.test_csv = workdir / "test.csv"
        data.save_csv(train, self.train_csv)
        data.save_csv(test, self.test_csv)
        self.test_Y = test.Y
        self.label_names = test.label_names
        self.models = {m: workdir / f"model-{FILE_NAMES[m]}.json" for m in METHODS}
        self.preds = {m: workdir / f"predict-{FILE_NAMES[m]}.csv" for m in METHODS}
        for m in METHODS:
            rc = _quiet_cli(["train", "--dataset", str(self.train_csv), "--label-count",
                             str(train.n_labels), "--method", m, "--seed", str(self.seed),
                             "--out", str(self.models[m])])
            if rc != 0:
                raise RuntimeError(f"set-up: train {m} exited with code {rc}")

    def op(self, slot: int) -> int:
        m = METHODS[slot % len(METHODS)]
        return _quiet_cli(["predict", "--model", str(self.models[m]), "--data",
                           str(self.test_csv), "--label-count", str(self.test_Y.shape[1]),
                           "--out", str(self.preds[m])])

    def check(self, slot: int, rc: int) -> Outcome:
        m = METHODS[slot % len(METHODS)]
        if rc != 0:
            raise OpFailed(f"predict {m} exited with code {rc}")
        text = self.preds[m].read_text(encoding="utf-8")
        lines = text.splitlines()
        if not lines or lines[0] != ",".join(self.label_names):
            raise OpFailed(f"predict {m}: header is not {','.join(self.label_names)}")
        cells = np.array([line.split(",") for line in lines[1:]])
        if cells.shape != self.test_Y.shape or not np.isin(cells, ("0", "1")).all():
            raise OpFailed(f"predict {m}: expected {self.test_Y.shape} cells of 0 or 1")
        agree = cells.astype(np.int64) == self.test_Y
        hamming = float(agree.mean())
        if hamming < HAMMING_FLOOR:
            raise OpFailed(f"predict {m}: Hamming {hamming:.3f} < {HAMMING_FLOOR}")
        return Outcome(m, float(agree.all(axis=1).mean()), hamming,
                       {f"predict-{FILE_NAMES[m]}.csv": text})


WORKLOADS = {w.name: w for w in (Logical, Synthetic, Predict)}


def _golden_path(name: str) -> Path:
    """Large goldens are stored gzip-compressed next to the plain ones."""
    plain = GOLDEN_DIR / name
    return plain if plain.exists() else GOLDEN_DIR / (name + ".gz")


def read_golden(name: str) -> str | None:
    path = _golden_path(name)
    if not path.exists():
        return None
    raw = path.read_bytes()
    return (gzip.decompress(raw) if path.suffix == ".gz" else raw).decode("utf-8")


def write_golden(name: str, text: str, compress: bool) -> Path:
    GOLDEN_DIR.mkdir(exist_ok=True)
    raw = text.encode("utf-8")
    path = GOLDEN_DIR / (name + ".gz" if compress else name)
    path.write_bytes(gzip.compress(raw, mtime=0) if compress else raw)
    return path


def golden_diff(artifacts: dict[str, str]) -> tuple[int, list[str]]:
    """Compare output CSVs with the golden ones cell by cell.

    Returns the number of cells compared and the names of the differing
    cells as ``file:row:column`` (row 1 is the header).
    """
    compared = 0
    differ: list[str] = []
    for name, text in sorted(artifacts.items()):
        golden = read_golden(name)
        if golden is None:
            differ.append(f"{name}: no golden file")
            continue
        got = [line.split(",") for line in text.splitlines()]
        want = [line.split(",") for line in golden.splitlines()]
        header = want[0] if want else []
        for r in range(max(len(got), len(want))):
            a = got[r] if r < len(got) else []
            b = want[r] if r < len(want) else []
            for c in range(max(len(a), len(b))):
                compared += 1
                if c >= len(a) or c >= len(b) or a[c] != b[c]:
                    column = header[c] if c < len(header) else str(c + 1)
                    differ.append(f"{name}:{r + 1}:{column}")
    return compared, differ
