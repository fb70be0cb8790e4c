"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

About a minute: each workload runs once traced at the golden
seed with one set-up and the fewest ops, and one untraced run goes through
the command line.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402
from tracer import METHOD_METRIC_NAMES, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN_SEED, METHODS, README_LOGICAL_EXACT, WORKLOADS, Outcome, read_golden)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

_TRAINING = [
    "logistic.fit.calls", "logistic.fit.self_s", "logistic.fit.ms.p50",
    "logistic.fit.row_epochs", "logistic.fit.gflop", "logistic.fit.gflop_per_s",
    "transforms.train_br.calls", "transforms.train_br.self_s",
    "transforms.train_cc.calls", "transforms.train_cc.self_s",
    "transforms.chain_predict.calls", "transforms.chain_predict.self_s",
    "transforms.chain_predict.row_positions", "transforms.br_predict.self_s",
    "synth.init_cascade.self_s", "synth.apply_cascade.self_s",
    "synth.init_projection.self_s", "synth.apply_projection.self_s",
    "synth.indicators.self_s",
    *[f"methods.train.{name}.s" for name in METHOD_METRIC_NAMES.values()],
    "methods.train.self_s", "methods.predict.self_s",
    "evaluate.run_experiment.self_s", "evaluate.score.s",
    "data.split.s", "data.standardize.s",
]
# Layers that do work on each workload.  A zero here means a wrapper missed
# the binding the program calls that layer through.
MUST_RUN = {
    "logical": _TRAINING + ["cli.bench.self_s"],
    "synthetic": _TRAINING + ["data.gen.s"],
    "predict": [
        "logistic.fit.setup_s", "transforms.chain_predict.calls",
        "transforms.chain_predict.self_s", "transforms.chain_predict.row_positions",
        "transforms.br_predict.self_s", "synth.apply_projection.self_s",
        "methods.predict.self_s", "methods.save_model.s", "methods.load_model.s",
        "methods.model_bytes", "data.load_csv.s", "data.load_csv.cells", "data.save_csv.s", "data.gen.s",
        "data.standardize.s", "cli.train.self_s", "cli.predict.self_s",
    ],
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run per workload at the golden seed."""
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls(GOLDEN_SEED)
        tracer = Tracer()
        setups = harness.Setups(workload, 1, tmp_path_factory.mktemp(name), tracer)
        run = harness.run_ops(workload, 0, tracer, setups)
        golden = harness.check_golden(run)
        out[name] = (workload, run, golden, harness.per_layer(
            tracer, run, len(setups.times), run.times, run.traced_times))
    return out


def test_golden_logical_matches_readme_table():
    cells = read_golden("logical-exactmatch.csv").splitlines()[1].split(",")
    assert [float(c) for c in cells[1::2]] == README_LOGICAL_EXACT


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_repeats_counts_and_outputs(traced, name):
    workload, run, golden, metrics = traced[name]
    # problems collects traced/untraced output mismatches, fit-count
    # mismatches and golden differences.
    assert run.problems == []
    assert run.failed == 0
    assert run.times and run.traced_times
    assert golden.startswith(f"golden check (seed {GOLDEN_SEED}): 0 of ")
    assert metrics["logistic.fit.calls"] == workload.fits_per_op


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_per_layer_metric_is_reported(traced, name):
    assert set(traced[name][3]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layers_that_work_record_work(traced, name):
    metrics = traced[name][3]
    assert [m for m in MUST_RUN[name] if not metrics[m] > 0] == []


class _RaisesOnSlot1:
    slots = 1
    fits_per_op = 0

    def op(self, slot):
        if slot == 1:
            raise RuntimeError("op raised")
        return slot

    def check(self, slot, raw):
        return Outcome("k", 1.0, 1.0, {})


class _Recorder:
    slots = 1
    fits_per_op = 0

    def __init__(self):
        self.events = []

    def setup(self, workdir):
        self.events.append("setup")

    def op(self, slot):
        time.sleep(0.02)
        self.events.append("op")
        return slot

    def check(self, slot, raw):
        return Outcome("k", 1.0, 1.0, {})


def test_setups_are_spread_over_the_op_time(tmp_path):
    workload = _Recorder()
    setups = harness.Setups(workload, 3, tmp_path)
    harness.run_ops(workload, 0.6, setups=setups)
    at = [i for i, event in enumerate(workload.events) if event == "setup"]
    assert len(setups.times) == 3 and at[0] == 0
    # ops run before the second set-up, between the second and third, and after the third
    assert 1 < at[1] < at[2] - 1 < len(workload.events) - 2


class _FitsTwice:
    """An op that calls the program's method training twice, as a training op does."""

    slots = 1
    fits_per_op = 0

    def op(self, slot):
        for _ in range(2):
            harness.evaluate.train_method("br", None, None)
        return slot

    def check(self, slot, raw):
        return Outcome("k", 1.0, 1.0, {})


def test_samples_inside_an_op_are_not_op_time(monkeypatch):
    monkeypatch.setattr(harness.evaluate, "train_method", lambda *a: time.sleep(0.02))
    original = harness.evaluate.train_method
    speed = Speed(every=0.0, min_s=0.05)
    run = harness.run_ops(_FitsTwice(), 0, speed=speed)
    assert harness.evaluate.train_method is original
    # before, inside (one per fit) and after each of the two ops
    assert len(speed.samples) == 2 * 3 + 1
    for t0, t1, dt in zip(run.starts, run.ends, run.times):
        assert 0.04 <= dt < 0.1 and t1 - t0 >= dt + 0.1


def test_rescale_uses_samples_inside_and_nearest_outside():
    speed = Speed()
    speed.samples = [(0.0, 1.0, 0.02), (5.0, 6.0, 0.04), (20.0, 21.0, 0.03), (30.0, 31.0, 0.09)]
    # samples 1, 2 and 3 for the first op; 2 and 3 for the second
    assert speed.rescale([2.0, 7.0], [12.0, 19.0], [8.0, 10.0]) == pytest.approx(
        [8.0 * REFERENCE_S / 0.03, 10.0 * REFERENCE_S / 0.035])


def test_raising_op_counts_once_and_run_continues():
    run = harness.run_ops(_RaisesOnSlot1(), 0)
    assert (run.attempted, run.failed, len(run.times)) == (2, 1, 1)
    assert run.problems == ["op 1 failed: RuntimeError: op raised"]


def test_nonzero_exit_counts_once_and_run_continues(traced):
    workload = traced["predict"][0]
    model = workload.models[METHODS[1]]
    hidden = model.with_name(model.name + ".hidden")
    model.rename(hidden)
    try:
        run = harness.run_ops(workload, 0)
    finally:
        hidden.rename(model)
    assert (run.attempted, run.failed) == (len(METHODS), 1)
    assert run.problems == [f"op 1 failed: OpFailed: predict {METHODS[1]} exited with code 2"]
    assert harness.end_to_end(workload, [1.0], run.times, run)["success_rate"] == 5 / 6


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_every_end_to_end_metric():
    proc = _bench(ROOT, "--workload", "logical", "--seed", "2", "--seconds", "0",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "logical", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
