"""tools/ab_bench.py's summary of parent/change benchmark pairs, on canned
results: no benchmark is run."""

import importlib.util
import json
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


def test_worse_by_follows_the_metric_direction():
    assert ab_bench.worse_by(2.0, 3.0, "lower") == 0.5
    assert ab_bench.worse_by(2.0, 1.0, "lower") == -0.5
    assert ab_bench.worse_by(2.0, 1.0, "higher") == 0.5
    assert ab_bench.worse_by(0.0, 1.0, "lower") == float("inf")
    assert ab_bench.worse_by(0.0, 0.0, "lower") == 0.0
