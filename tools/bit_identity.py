#!/usr/bin/env python3
"""Check that two checkouts of this repository give the same bytes on a fixed grid.

    python3 tools/bit_identity.py --parent DIR --change DIR

Each checkout runs the grid below in its own Python subprocess, with
PYTHONPATH set to its src directory, and prints one SHA-256 hash per
artifact.  The tool prints every artifact whose hash differs between the two
sides (or that one side lacks), with its grid point, and a summary line.

The change runs the grid a second time with OPENBLAS_NUM_THREADS=1 in its
subprocess's environment, and the tool prints every artifact whose hash
differs from the change's run on the default thread count, and a second
summary line: every fit and every generated dataset is meant to be the
one-thread result on any core count.

It exits 0 when no artifact differs in either comparison, 1 when one does
and 2 when a run fails.  The grid is fixed here: a change may add points but
must not remove any.  The three runs take about 2 minutes in all on a 2-vCPU VM.

The grid:
  - gen_logical(20);
  - gen_synthetic on the benchmark's three specs (the complex and linear
    draws of its synthetic workload and the draw of its predict workload) at
    seeds 1-20; a dataset's artifact is its arrays' dtypes, shapes and raw
    bytes and its column names;
  - run_experiment report bytes (both metric CSVs and the table) for all six
    methods on the logical set (the README protocol: 10 iterations, split
    0.6) and on a small synthetic spec, at master seeds 1-10;
  - for each method, the bytes of the model file that `mlcascade train`
    writes and of the predictions file that `mlcascade predict` writes with
    it, on the logical set and on the small synthetic spec;
  - gen_synthetic on a spec of 3073 rows (three blocks of 1024 rows and a
    1-row remainder) with 1000 hidden units, at seeds 1-3;
  - the `train` and `predict` bytes of br on a 5000 x 100 draw, a shape
    where a fit's threaded gradient product sums in another order than one
    thread does, so the one-thread run tells a pinned fit from an unpinned
    one.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
METHODS = ("br", "cc", "ccasl", "ccasl+br", "ccasl+aml", "elm")
# SynthNetSpec fields (D, L, N, hidden_units) of each generated dataset.
SPECS = {"complex": (2, 10, 2000, 100), "linear": (2, 10, 2000, 0),
         "predict": (10, 10, 7000, 100), "small": (3, 4, 120, 10),
         "blocks": (5, 8, 3073, 1000), "wide": (100, 3, 5000, 200)}
# run_experiment's (iterations, split_fraction) per dataset.
PROTOCOLS = {"logical": (10, 0.6), "small": (2, 0.5)}

GRID = [
    ["gen_logical", 20],
    *(["gen_synthetic", spec, seed] for spec in ("complex", "linear", "predict")
      for seed in range(1, 21)),
    *(["run_experiment", dataset, seed] for dataset in PROTOCOLS for seed in range(1, 11)),
    *(["train_predict", method, dataset] for method in METHODS for dataset in PROTOCOLS),
    *(["gen_synthetic", "blocks", seed] for seed in range(1, 4)),
    ["train_predict", "br", "wide"],
]


# --- the side that runs in a checkout's subprocess ---------------------------
# mlcascade is imported inside these functions, so that only the subprocess,
# with the checkout's src on its path, imports it.

def _dataset_bytes(ds) -> dict[str, bytes]:
    names = json.dumps([ds.feature_names, ds.label_names]).encode()
    return {"dataset": b"".join([str((a.dtype.str, a.shape)).encode() + a.tobytes()
                                 for a in (ds.X, ds.Y)] + [names])}


def _synthetic(spec: str, seed: int):
    from mlcascade.data import SynthNetSpec, gen_synthetic
    D, L, N, hidden = SPECS[spec]
    return gen_synthetic(SynthNetSpec(D=D, L=L, N=N, hidden_units=hidden, seed=seed))


def _dataset(name: str):
    """The logical set, or the named synthetic spec drawn at seed 1."""
    from mlcascade.data import gen_logical
    return gen_logical(20) if name == "logical" else _synthetic(name, 1)


def _gen_logical(n: int) -> dict[str, bytes]:
    from mlcascade.data import gen_logical
    return _dataset_bytes(gen_logical(n))


def _gen_synthetic(spec: str, seed: int) -> dict[str, bytes]:
    return _dataset_bytes(_synthetic(spec, seed))


def _run_experiment(dataset: str, seed: int) -> dict[str, bytes]:
    from mlcascade.evaluate import run_experiment
    iterations, split = PROTOCOLS[dataset]
    report = run_experiment([(dataset, _dataset(dataset))], list(METHODS),
                            iterations=iterations, split_fraction=split, master_seed=seed)
    return {"exact.csv": report.metric_csv("exact").encode(),
            "hamming.csv": report.metric_csv("hamming").encode(),
            "report.txt": report.table_text().encode()}


def _train_predict(method: str, dataset: str) -> dict[str, bytes]:
    from mlcascade.cli import main
    from mlcascade.data import save_csv
    ds = _dataset(dataset)
    with tempfile.TemporaryDirectory() as tmp:
        data, model, preds = (Path(tmp) / f for f in ("data.csv", "model.json", "preds.csv"))
        save_csv(ds, data)
        label_count = str(ds.n_labels)
        for argv in (["train", "--dataset", str(data), "--label-count", label_count,
                      "--method", method, "--seed", "1", "--out", str(model)],
                     ["predict", "--model", str(model), "--data", str(data),
                      "--label-count", label_count, "--out", str(preds)]):
            with redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"mlcascade {' '.join(argv)} exited {code}")
        return {"model.json": model.read_bytes(), "predictions.csv": preds.read_bytes()}


_ARTIFACTS = {"gen_logical": _gen_logical, "gen_synthetic": _gen_synthetic,
              "run_experiment": _run_experiment, "train_predict": _train_predict}


def hash_grid() -> None:
    """Read a grid as JSON from standard input and print one line per artifact:
    its SHA-256 hash, two spaces and its label, the grid point and the
    artifact's name.  Runs in a checkout's subprocess; the mlcascade it
    imports must be that checkout's."""
    import mlcascade
    src = Path(os.environ["PYTHONPATH"]).resolve()
    if not Path(mlcascade.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported {mlcascade.__file__}, not the package under {src}")
    for point in json.load(sys.stdin):
        for name, data in _ARTIFACTS[point[0]](*point[1:]).items():
            print(f"{hashlib.sha256(data).hexdigest()}  {' '.join(map(str, point))}: {name}",
                  flush=True)


# --- the comparing side --------------------------------------------------------

def run_side(checkout: Path, grid: list, one_thread: bool = False) -> dict[str, str]:
    """The hash of each artifact of grid, by label, computed by checkout's
    code; with one_thread, on one OpenBLAS thread."""
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import bit_identity; " \
           "bit_identity.hash_grid()"
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    if one_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(grid), env=env,
                              cwd=tmp, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"bit_identity: the grid run in {checkout} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        raise SystemExit(2)
    hashes = {}
    for line in proc.stdout.splitlines():
        digest, name = line.split("  ", 1)
        hashes[name] = digest
    return hashes


def _differing(tag: str, sides: dict[str, dict[str, str]]) -> tuple[int, int]:
    """Print a line for every label whose hash differs between the two sides
    (named by sides' keys); return the counts of differing and of all labels."""
    (a, left), (b, right) = sides.items()
    labels = list(dict.fromkeys([*left, *right]))
    differ = [k for k in labels if left.get(k) != right.get(k)]
    for k in differ:
        print(f"{tag}  {k}  {a} {left.get(k, 'missing')}  {b} {right.get(k, 'missing')}")
    return len(differ), len(labels)


def report(parent: Path, change: Path, grid: list) -> int:
    """Print every artifact of grid whose hash differs between the parent and
    the change, then a summary; then every artifact whose hash the change
    gives otherwise on one BLAS thread, then a summary; return the exit code."""
    hashes = {"parent": run_side(parent, grid), "change": run_side(change, grid)}
    differ, total = _differing("DIFFERS", hashes)
    print(f"{differ} of {total} artifacts differ over {len(grid)} grid points")
    one_differ, total = _differing("THREADS", {"default": hashes["change"],
                                               "one-thread": run_side(change, grid, True)})
    print(f"{one_differ} of {total} artifacts of the change differ on one BLAS thread")
    return 1 if differ or one_differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="the changed checkout")
    args = parser.parse_args(argv)
    return report(args.parent, args.change, GRID)


if __name__ == "__main__":
    sys.exit(main())
