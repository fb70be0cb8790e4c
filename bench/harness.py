"""Measurement loop: repeated set-up, a closed loop of ops, checks and metrics.

Load comes from this one process as a closed loop with one client: the
next op starts when the previous one has returned, because the program is
a batch tool with no independent arrivals.  An untraced run reports the
end-to-end metrics.  A traced run alternates untraced and traced ops on the
same inputs, reports the per-layer metrics from the traced ones and checks
that both kinds write identical outputs.  Op times are rescaled to a fixed
machine speed measured around and inside them (see speed.py).
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mlcascade.evaluate as evaluate
from speed import Speed
from tracer import Tracer
from workloads import GOLDEN_SEED, WORKLOADS, golden_diff

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_tmp"
SPANS_DIR = ROOT / ".bench_out"


@dataclass
class OpsRun:
    times: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    traced_times: list[float] = field(default_factory=list)
    traced_starts: list[float] = field(default_factory=list)
    traced_ends: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outcomes: dict = field(default_factory=dict)  # key -> first Outcome with that key
    problems: list[str] = field(default_factory=list)


def blas_info() -> tuple[str, int | None]:
    """OpenBLAS version from numpy's build record and its live thread count."""
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        version = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return version, fn()
    return version, None


def environment(workload: str, seed: int, traced: bool) -> dict:
    version, threads = blas_info()
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": version,
        "blas_threads": threads,
    }


def start_program() -> None:
    """Start a fresh interpreter that imports the command line, as each CLI run does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-c", "import mlcascade.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120)


class Setups:
    """The set-ups of one run, each building the workload's inputs afresh.

    One set-up is starting the program plus building the inputs.  Every
    set-up builds identical inputs; the ops use the latest one's.
    """

    def __init__(self, workload, reps: int, workdir: Path, tracer: Tracer | None = None):
        self.workload = workload
        self.reps = reps
        self.workdir = workdir
        self.tracer = tracer
        self.times: list[float] = []
        self._dir: Path | None = None
        start_program()  # fills the bytecode cache, which users also keep between runs

    def run_one(self) -> None:
        rep_dir = self.workdir / f"setup{len(self.times)}"
        rep_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        start_program()
        with self.tracer.recording("setup") if self.tracer else contextlib.nullcontext():
            self.workload.setup(rep_dir)
        self.times.append(time.perf_counter() - t0)
        if self._dir is not None:
            shutil.rmtree(self._dir)
        self._dir = rep_dir

    def catch_up(self, fraction: float) -> None:
        """Run the set-ups due once ``fraction`` of the op time is spent.

        Set-up k of n is due at fraction k / n.  The machine's speed drifts
        over tens of seconds, so set-ups spread over the run, and ops spread
        between them, sample it over a longer span than back-to-back blocks.
        """
        while len(self.times) < self.reps and len(self.times) <= fraction * self.reps:
            self.run_one()


def run_ops(workload, seconds: float, tracer: Tracer | None = None,
            setups: Setups | None = None, speed: Speed | None = None) -> OpsRun:
    """Run ops back to back for about ``seconds`` of op time; a failed op is counted.

    With a tracer, even ops run untraced and odd ops traced, and op 2k and
    2k + 1 use the same slot so each traced op has an untraced twin.  Given
    ``setups``, its set-ups run between ops, spread over the op time.
    Given ``speed``, the reference loop is sampled between ops, after the
    last one and inside untraced ops.
    """
    run = OpsRun()
    min_ops = max(2, workload.slots * (2 if tracer else 1))
    op_time = 0.0  # time spent on ops and their checks, set-ups and samples excluded
    i = 0
    while i < min_ops or op_time + op_time / i <= seconds:
        if setups is not None:
            if speed is not None:
                speed.maybe_sample()
            setups.catch_up(op_time / seconds if seconds > 0 else 1.0)
        if speed is not None:
            speed.maybe_sample()
        t0 = time.perf_counter()
        sampled_s = speed.sampled_s if speed is not None else 0.0
        _run_op(workload, i, tracer, run, speed)
        op_time += time.perf_counter() - t0
        if speed is not None:
            op_time -= speed.sampled_s - sampled_s  # samples taken inside the op
        i += 1
    if speed is not None:
        speed.sample()
    if setups is not None:
        setups.catch_up(1.0)
    return run


def _run_op(workload, i: int, tracer: Tracer | None, run: OpsRun,
            speed: Speed | None = None) -> None:
    traced = tracer is not None and i % 2 == 1
    slot = i // 2 if tracer is not None else i
    run.attempted += 1
    first_span = len(tracer.spans) if traced else 0
    # Untraced training ops sample the reference loop between method fits.
    hooked = (speed.hooked(evaluate, "train_method") if speed is not None and not traced
              else contextlib.nullcontext())
    sampled_s = speed.sampled_s if speed is not None else 0.0
    try:
        with tracer.recording("op") if traced else contextlib.nullcontext(), hooked:
            t0 = time.perf_counter()
            raw = workload.op(slot)
            t1 = time.perf_counter()
        dt = t1 - t0 - ((speed.sampled_s - sampled_s) if speed is not None else 0.0)
        outcome = workload.check(slot, raw)
    except Exception as e:  # the loop must survive any failing op and count it
        run.failed += 1
        run.problems.append(f"op {i} failed: {type(e).__name__}: {e}")
        return
    (run.traced_times if traced else run.times).append(dt)
    (run.traced_starts if traced else run.starts).append(t0)
    (run.traced_ends if traced else run.ends).append(t1)
    first = run.outcomes.setdefault(outcome.key, outcome)
    if first.artifacts != outcome.artifacts:
        run.problems.append(f"op {i} ({'traced' if traced else 'untraced'}): output for "
                            f"{outcome.key} differs from the first op with that key")
    if traced:
        fits = sum(1 for s in tracer.spans[first_span:] if s.name == "logistic.fit")
        if fits != workload.fits_per_op:
            run.problems.append(f"op {i}: {fits} logistic fits traced, expected "
                                f"{workload.fits_per_op}")


def check_golden(run: OpsRun) -> str:
    compared = 0
    differ: list[str] = []
    for outcome in run.outcomes.values():
        n, d = golden_diff(outcome.artifacts)
        compared += n
        differ += d
    if differ:
        shown = ", ".join(differ[:20]) + (" ..." if len(differ) > 20 else "")
        run.problems.append(f"golden check: {len(differ)} cells differ: {shown}")
    return f"golden check (seed {GOLDEN_SEED}): {len(differ)} of {compared} cells differ"


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(workload, setup_times: list[float], times: list[float],
               run: OpsRun) -> dict[str, float]:
    """End-to-end metrics from set-up times, op times (rescaled or not) and outcomes."""
    total = sum(times)
    outcomes = list(run.outcomes.values())
    return {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": statistics.median(times) if times else 0.0,
        "op_s.p90": _p90(times) if times else 0.0,
        "cells_per_s": workload.cells_per_op * len(times) / total if total else 0.0,
        "rows_per_s": workload.rows_per_op * len(times) / total if total else 0.0,
        "exact_match": float(np.mean([o.exact for o in outcomes])) if outcomes else 0.0,
        "hamming": float(np.mean([o.hamming for o in outcomes])) if outcomes else 0.0,
        "success_rate": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, run: OpsRun, n_setups: int, times: list[float],
              traced_times: list[float]) -> dict[str, float]:
    metrics = tracer.layer_metrics(run.attempted // 2, n_setups)
    if times and traced_times:
        untraced = statistics.median(times)
        metrics["trace.overhead_ratio"] = (statistics.median(traced_times)
                                           - untraced) / untraced
    else:
        metrics["trace.overhead_ratio"] = 0.0
    return metrics


def metric_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    units = metric_units("per_layer" if trace else "end_to_end")
    workload = WORKLOADS[workload_name](seed)
    print(json.dumps({"env": environment(workload_name, seed, trace)}), flush=True)
    workdir = SCRATCH / f"{workload_name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    speed = Speed()
    try:
        setups = Setups(workload, workload.setup_reps, workdir, tracer)
        run = run_ops(workload, seconds, tracer, setups, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    if seed == GOLDEN_SEED:
        print(check_golden(run))
    if not run.outcomes:
        run.problems.append("no op succeeded")
    op_times = speed.rescale(run.starts, run.ends, run.times)
    if tracer is not None:
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(SPANS_DIR / f"spans-{workload_name}-seed{seed}.jsonl")
        values = per_layer(tracer, run, len(setups.times), op_times,
                           speed.rescale(run.traced_starts, run.traced_ends, run.traced_times))
    else:
        values = end_to_end(workload, setups.times, op_times, run)
        wall = end_to_end(workload, setups.times, run.times, run)
        print(json.dumps({"wall_clock": {
            **{k: wall[k] for k in ("op_s.p50", "op_s.p90", "cells_per_s")},
            "reference_s.p50": speed.median_reference(),
            "reference_samples": len(speed.samples)}}))
    for problem in run.problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0
