"""tools/ab_bench.py's summary of parent/change benchmark pairs, on canned
results: no benchmark is run."""

import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

METRICS = [
    {"name": "op_s.p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "success_rate", "unit": "ratio", "better": "higher", "bound": 0.01},
]
METRIC_NAMES = [m["name"] for m in METRICS]


def _result(op_s, cells, failed=0, attempted=10):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"op_s.p50": {"value": op_s, "unit": "s"},
                        "cells_per_s": {"value": cells, "unit": "1/s"},
                        "success_rate": {"value": 1 - failed / attempted, "unit": "ratio"}}}


def _row(lines, name):
    return next(line for line in lines if line.startswith(name + " "))


def test_summary_counts_wins_and_flags_a_regression_past_the_bound():
    # The change is 50% slower per op in every pair, and ties on cells_per_s
    # in the last pair.
    pairs = [{"parent": _result(1.0, 100.0), "change": _result(1.5, 90.0)},
             {"parent": _result(2.0, 110.0), "change": _result(3.0, 120.0)},
             {"parent": _result(3.0, 120.0), "change": _result(4.5, 120.0)}]
    lines = ab_bench.summarize(pairs, METRICS)
    op = _row(lines, "op_s.p50")
    assert "1.5 / 2 / 2.5" in op and "2.25 / 3 / 3.75" in op
    assert "3:0" in op.split()
    assert op.endswith("WORSE by 50.0% > 25%")
    cells = _row(lines, "cells_per_s")
    assert "1:1" in cells.split() and cells.endswith("within bound")
    assert _row(lines, "success_rate").endswith("within bound")
    assert "parent: 0/30 ops failed, 3/3 runs correct" in lines
    assert "change: 0/30 ops failed, 3/3 runs correct" in lines


def test_summary_reports_failed_ops_and_a_lower_success_rate():
    pairs = [{"parent": _result(1.0, 100.0), "change": _result(1.0, 100.0, failed=2)}]
    lines = ab_bench.summarize(pairs, METRICS)
    op = _row(lines, "op_s.p50")
    assert "0:0" in op.split() and op.endswith("within bound")
    assert _row(lines, "success_rate").endswith("WORSE by 20.0% > 1%")
    assert "change: 2/10 ops failed, 0/1 runs correct" in lines


def test_summary_covers_every_end_to_end_metric_of_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in metrics}}
    lines = ab_bench.summarize([{"parent": result, "change": result}], metrics)
    assert [line.split()[0] for line in lines[1:1 + len(metrics)]] == [m["name"] for m in metrics]
    assert all(line.endswith("within bound") for line in lines[1:1 + len(metrics)])


def _claim(lines, name):
    """The claim column of a metric's row: the token after the wins p:c."""
    tokens = _row(lines, name).split()
    return tokens[next(i for i, t in enumerate(tokens) if ":" in t) + 1]


def test_claim_needs_nine_tenths_of_the_pairs_and_a_margin_over_the_parent_iqr():
    # Parent op_s over ten pairs: quartiles 1.225 / 1.45 / 1.675, IQR 0.45.
    parent = [1.0 + 0.1 * k for k in range(10)]
    cases = [
        # Faster by 0.5 in every pair: the median gap 0.5 exceeds the IQR.
        ([p - 0.5 for p in parent], "GAIN"),
        # Faster by 0.5 in nine pairs, slower in one: 9 of 10 still claims.
        ([p - 0.5 for p in parent[:9]] + [parent[9] + 0.1], "GAIN"),
        # Faster by 0.5 in eight pairs, tied in two: 8 of 10 does not.
        ([p - 0.5 for p in parent[:8]] + parent[8:], "-"),
        # Faster in every pair, by 0.4: within the parent's own spread.
        ([p - 0.4 for p in parent], "-"),
    ]
    for change, claim in cases:
        pairs = [{"parent": _result(p, 100.0 * p), "change": _result(c, 100.0 * c)}
                 for p, c in zip(parent, change)]
        lines = ab_bench.summarize(pairs, METRICS)
        assert lines[0].split()[-2:] == ["claim", "verdict"]
        assert _claim(lines, "op_s.p50") == claim
        # cells_per_s is better higher: the same values are a loss there.
        assert _claim(lines, "cells_per_s") == "-"
    # Higher is better: ten wins by 50 cells/s over an IQR of 45.
    pairs = [{"parent": _result(p, 100.0 * p), "change": _result(p, 100.0 * p + 50.0)}
             for p in parent]
    assert _claim(ab_bench.summarize(pairs, METRICS), "cells_per_s") == "GAIN"


def test_fewer_than_ten_pairs_never_claim_a_gain():
    # Five pairs, each won by the change by far more than the parent's IQR:
    # every rule but the pair count is met.
    parent = [1.0 + 0.1 * k for k in range(5)]
    pairs = [{"parent": _result(p, 100.0), "change": _result(p - 0.5, 200.0)} for p in parent]
    lines = ab_bench.summarize(pairs, METRICS)
    assert "0:5" in _row(lines, "op_s.p50").split() and "0:5" in _row(lines, "cells_per_s").split()
    assert _claim(lines, "op_s.p50") == "-"
    assert _claim(lines, "cells_per_s") == "-"
    # The same margin over ten pairs claims.
    parent = [1.0 + 0.1 * k for k in range(10)]
    pairs = [{"parent": _result(p, 100.0), "change": _result(p - 0.5, 200.0)} for p in parent]
    assert _claim(ab_bench.summarize(pairs, METRICS), "op_s.p50") == "GAIN"


def test_verdict_is_unresolved_where_the_parent_spreads_wider_than_the_bound():
    # Parent op_s over four pairs: quartiles 1.1 / 1.5 / 1.9, an IQR of 53%
    # of the median, wider than the 25% bound.
    parent = [0.8, 1.2, 1.8, 2.2]
    cases = [
        # The same runs: not worse, but the spread cannot tell.
        (parent, "unresolved"),
        # Every change run beats every parent run: within bound after all.
        ([0.5, 0.6, 0.7, 0.75], "within bound"),
        # Faster in the median but not in every run: still unresolved.
        ([0.5, 0.6, 0.7, 2.5], "unresolved"),
        # Worse by more than the bound: WORSE takes precedence.
        ([p * 2 for p in parent], "WORSE by 100.0% > 25%"),
    ]
    for change, verdict in cases:
        pairs = [{"parent": _result(p, 100.0), "change": _result(c, 100.0)}
                 for p, c in zip(parent, change)]
        lines = ab_bench.summarize(pairs, METRICS)
        assert _row(lines, "op_s.p50").endswith(verdict), (change, verdict)
        # cells_per_s is the same in every run, so its spread is zero.
        assert _row(lines, "cells_per_s").endswith("within bound")


def test_a_larger_failed_share_is_worse_and_voids_a_gain():
    parent = [1.0 + 0.1 * k for k in range(10)]
    # Faster by 0.5 in every pair, which alone would claim a gain (see above).
    for failed, claim, verdict in [(0, "GAIN", "not worse"), (1, "-", "WORSE")]:
        pairs = [{"parent": _result(p, 100.0), "change": _result(p - 0.5, 100.0, failed=failed)}
                 for p in parent]
        lines = ab_bench.summarize(pairs, METRICS)
        assert _claim(lines, "op_s.p50") == claim
        assert lines[-1].startswith("failed ops: parent 0.00%, change ")
        assert lines[-1].endswith(verdict)
    # The same failed share on both sides is not worse.
    pairs = [{"parent": _result(p, 100.0, failed=2), "change": _result(p - 0.5, 100.0, failed=2)}
             for p in parent]
    lines = ab_bench.summarize(pairs, METRICS)
    assert _claim(lines, "op_s.p50") == "GAIN"
    assert lines[-1] == "failed ops: parent 20.00%, change 20.00%  not worse"


def test_worse_by_follows_the_metric_direction():
    assert ab_bench.worse_by(2.0, 3.0, "lower") == 0.5
    assert ab_bench.worse_by(2.0, 1.0, "lower") == -0.5
    assert ab_bench.worse_by(2.0, 1.0, "higher") == 0.5
    assert ab_bench.worse_by(0.0, 1.0, "lower") == float("inf")
    assert ab_bench.worse_by(0.0, 0.0, "lower") == 0.0


def _with_wall_clock(result, op_s, reference_s):
    return {**result, "wall_clock": {"op_s.p50": op_s, "op_s.p90": op_s, "cells_per_s": 1.0,
                                     "reference_s.p50": reference_s, "reference_samples": 5}}


def test_wall_clock_rows_give_each_sides_quartiles_without_a_claim():
    walls = [(1.0, 0.02, 0.8, 0.021), (2.0, 0.03, 1.8, 0.031), (3.0, 0.04, 2.8, 0.041)]
    pairs = [{"parent": _with_wall_clock(_result(1.0, 100.0), p_op, p_ref),
              "change": _with_wall_clock(_result(0.5, 100.0), c_op, c_ref)}
             for p_op, p_ref, c_op, c_ref in walls]
    lines = ab_bench.summarize(pairs, METRICS)
    op = _row(lines, "wall op_s.p50")
    assert "1.5 / 2 / 2.5" in op and "1.3 / 1.8 / 2.3" in op
    ref = _row(lines, "wall reference_s.p50")
    assert "0.025 / 0.03 / 0.035" in ref and "0.026 / 0.031 / 0.036" in ref
    for row in (op, ref):
        assert row.endswith("(wall clock, not rescaled; no claim)")
        assert not any(t in row.split() for t in ("GAIN", "-", "WORSE", "unresolved"))
    # They follow the metric rows, and the failed-ops line stays last.
    assert lines.index(op) == 1 + len(METRICS) and lines.index(ref) == 2 + len(METRICS)
    assert lines[-1].startswith("failed ops:")
    # A run without them (a traced run, or an older benchmark) drops both rows.
    del pairs[1]["change"]["wall_clock"]
    assert not any(line.startswith("wall ") for line in ab_bench.summarize(pairs, METRICS))


def test_run_bench_reads_the_wall_clock_line_before_the_result(tmp_path):
    result = _result(1.0, 100.0)
    wall = {"op_s.p50": 0.9, "reference_s.p50": 0.02}
    env = {"workload": "logical", "seed": 1}
    golden = "golden check (seed 1): 0 of 52 cells differ"
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json\n"
        f"print(json.dumps({{'env': {env!r}}}))\n"
        f"print({golden!r})\n"
        f"print(json.dumps({{'wall_clock': {wall!r}}}))\n"
        f"print(json.dumps({result!r}))\n", encoding="utf-8")
    assert ab_bench.run_bench(tmp_path, "logical", 1, 1.0) == {
        **result, "wall_clock": wall, "env": env, "golden": [golden]}


def _run(op_s, seed, golden=None):
    """A canned run as run_bench returns it, with its env line, wall clock
    and, for seed 1, its golden-check line."""
    run = _with_wall_clock(_result(op_s, 100.0), op_s * 0.9, 0.02)
    run["env"] = {"workload": "logical", "seed": seed, "nproc": 2}
    if golden:
        run["golden"] = [golden]
    return run


def _traced_run(fit_calls, correct=True):
    """A canned --trace 1 run as run_bench returns it."""
    return {"correct": correct, "attempted": 4, "failed": 0, "env": {"seed": 1},
            "metrics": {"logistic.fit.calls": {"value": fit_calls, "unit": "count"},
                        "logistic.fit.self_s": {"value": 0.5, "unit": "s"}}}


def test_record_holds_the_summary_as_data(tmp_path, monkeypatch, capsys):
    golden = "golden check (seed 1): 0 of 52 cells differ"
    runs = {("parent", 1, 0): _run(2.0, 1, golden), ("change", 1, 0): _run(1.0, 1, golden),
            ("parent", 2, 0): _run(3.0, 2), ("change", 2, 0): _run(1.5, 2),
            ("parent", 1, 1): _traced_run(360.0), ("change", 1, 1): _traced_run(360.0)}
    monkeypatch.setattr(ab_bench, "run_bench",
                        lambda checkout, workload, seed, seconds, trace=0:
                        runs[checkout.name, seed, trace])
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    path = tmp_path / "BENCH_logical.json"
    assert ab_bench.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--workload", "logical", "--pairs", "2",
                          "--seconds", "5", "--record", str(path)]) == 0
    entry = json.loads(path.read_text(encoding="utf-8"))
    # Neither side is a git checkout.
    assert entry["commits"] == {"parent": None, "change": None}
    assert (entry["workload"], entry["pairs"], entry["seconds"], entry["seeds"]) == (
        "logical", 2, 5.0, [1, 2])
    assert [env["seed"] for env in entry["env"]["parent"]] == [1, 2]
    assert entry["golden"] == {"parent": [golden], "change": [golden]}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in entry["metrics"]] == [
        m["name"] for m in spec["end_to_end"] if m["name"] in METRIC_NAMES]
    op = entry["metrics"][0]
    assert op["name"] == "op_s.p50" and op["better"] == "lower" and op["bound"] == 0.25
    assert op["quartiles"] == {"parent": [2.25, 2.5, 2.75], "change": [1.125, 1.25, 1.375]}
    assert op["wins"] == {"parent": 0, "change": 2}
    # Two pairs won by the change are too few to claim a gain.
    assert (op["claim"], op["verdict"]) == ("-", "within bound")
    assert entry["wall_clock"]["op_s.p50"]["change"] == [1.0125, 1.125, 1.2375]
    assert entry["ops"] == {side: {"failed": 0, "attempted": 20, "correct_runs": 2}
                            for side in ("parent", "change")}
    assert entry["failed_ops"] == "not worse"
    assert entry["per_layer"] == {"seed": 1, "seconds": 5.0, **{
        side: {"correct": True, "logistic.fit.calls": 360.0,
               "metrics": {"logistic.fit.calls": 360.0, "logistic.fit.self_s": 0.5},
               "golden": []}
        for side in ("parent", "change")}}
    # The printed summary is the entry's comparison, line for line: the traced
    # runs add no line to it.
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ab_bench.summarize([{"parent": runs["parent", k, 0],
                                           "change": runs["change", k, 0]}
                                          for k in (1, 2)], spec["end_to_end"])


STUB_RUN = """\
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed, trace = int(args["--seed"]), int(args["--trace"])
with open(Path(__file__).parent / "calls.txt", "a") as calls:
    calls.write(f"{seed} {trace}\\n")
print(json.dumps({"env": {"seed": seed, "traced": bool(trace)}}))
if seed == 1:
    print("golden check (seed 1): 0 of 52 cells differ")
if trace:
    metrics = {"logistic.fit.calls": FIT_CALLS, "logistic.fit.self_s": 0.25}
else:
    print(json.dumps({"wall_clock": {"op_s.p50": OP_S, "reference_s.p50": 0.02}}))
    metrics = {"op_s.p50": OP_S, "cells_per_s": 10.0 / OP_S, "success_rate": 1.0}
print(json.dumps({"correct": CORRECT or not trace, "attempted": 4, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}))
"""


def test_record_adds_one_traced_run_per_side_after_the_pairs(tmp_path):
    # Stub benchmarks that log each run's seed and trace flag: the change's
    # traced run fails its correctness check and makes more fits.
    sides = {"parent": (2.0, 360, True), "change": (1.0, 400, False)}
    for side, (op_s, fit_calls, correct) in sides.items():
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(
            STUB_RUN.replace("FIT_CALLS", str(fit_calls)).replace("OP_S", str(op_s))
            .replace("CORRECT", str(correct)), encoding="utf-8")
    path = tmp_path / "BENCH_logical.json"
    assert ab_bench.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--workload", "logical", "--pairs", "3",
                          "--seconds", "2", "--seed", "1", "--record", str(path)]) == 0
    for side in sides:
        calls = (tmp_path / side / "bench" / "calls.txt").read_text().split("\n")
        # Three untraced pairs at seeds 1-3, then one traced run at pair 1's seed.
        assert calls == ["1 0", "2 0", "3 0", "1 1", ""]
    entry = json.loads(path.read_text(encoding="utf-8"))
    golden = ["golden check (seed 1): 0 of 52 cells differ"]
    assert entry["per_layer"] == {
        "seed": 1, "seconds": 2.0,
        "parent": {"correct": True, "logistic.fit.calls": 360,
                   "metrics": {"logistic.fit.calls": 360, "logistic.fit.self_s": 0.25},
                   "golden": golden},
        "change": {"correct": False, "logistic.fit.calls": 400,
                   "metrics": {"logistic.fit.calls": 400, "logistic.fit.self_s": 0.25},
                   "golden": golden}}
    # The traced runs stay out of the pairs: their golden lines and env lines
    # are not the pairs', and every pair counts as correct.
    assert [env["traced"] for env in entry["env"]["change"]] == [False] * 3
    assert entry["golden"]["change"] == golden
    assert entry["ops"]["change"]["correct_runs"] == 3


def test_commit_id_marks_changed_files_and_ignores_a_subdirectory(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c",
                        "user.email=t@t", *args], check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "a.txt").write_text("a")
    (tmp_path / "sub").mkdir()
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    head = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    assert ab_bench.commit_id(tmp_path) == head
    assert ab_bench.commit_id(tmp_path / "sub") is None
    (tmp_path / "a.txt").write_text("b")
    assert ab_bench.commit_id(tmp_path) == head + "-dirty"
