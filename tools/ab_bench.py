#!/usr/bin/env python3
"""Compare two checkouts of this repository with its benchmark, in alternating pairs.

    python3 tools/ab_bench.py --parent DIR --change DIR --workload logical \\
        --pairs 10 --seconds 30 --seed 1

Pair k runs ``python3 bench/run.py --workload W --seed K+k --seconds S
--trace 0`` in the parent checkout and in the changed one.  The side that
runs first alternates from pair to pair, so a drift in machine speed falls
on both sides alike.  Each run's result line is echoed to standard error as
it arrives.

For every end-to-end metric that BENCHMARK.json (next to this tool's
directory) declares, the summary gives each side's median and quartiles over
the pairs, the pairs each side won (ties count for neither), a claim column
and whether the change's median is worse than the parent's by more than the
metric's bound, as a fraction of the parent's median.  A metric that is not
worse reads "unresolved" when the parent's interquartile range is wider than
the bound, as a fraction of its median, so its runs spread too widely to tell
a change within the bound from none, unless every run of the change is
better than every run of the parent; else it reads "within bound".  The
claim column reads GAIN when at least ten pairs were run, the change won at
least nine tenths of them and its median is better than the parent's by
more than the parent's interquartile range, and the change failed no larger
a share of its ops than the parent, the rule a claimed gain must meet; else
it reads "-".
It also gives each side's failed and attempted op counts, and a failed-ops
line that reads WORSE when the change failed a larger share of its ops than
the parent.  Under the metric rows, two informational rows give each side's
quartiles of the wall-clock op_s.p50 and reference_s.p50 that bench/run.py
prints before its result on untraced runs, so a gain in the rescaled op time
can be read against wall time.  Nothing is written to either checkout beyond
what the benchmark itself writes.

With --record PATH the tool also writes the comparison to PATH as one JSON
entry (see record): each side's commit id (null outside a git checkout) and
env lines, each metric's quartiles, wins, claim and verdict, the wall-clock
quartiles, the op counts and the seed-1 golden-check lines.  After the pairs
it then runs each side once more with --trace 1, at pair 1's seed and for
the same seconds, and stores that run's per-layer metrics under
"per_layer", with its correct flag, logistic.fit.calls and golden-check
lines: a record of where each side's time went, with no wins, claim or
verdict.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WALL_CLOCK = ("op_s.p50", "reference_s.p50")
# The fewest pairs a claimed gain may rest on.
CLAIM_PAIRS = 10


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The result object that bench/run.py prints last, run in checkout, with
    the env and wall-clock objects and the golden-check lines it prints
    before it."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_bench: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith(('{"env"', '{"wall_clock"')):
            result.update(json.loads(line))
        elif line.startswith("golden check"):
            result.setdefault("golden", []).append(line)
    return result


def loss(parent: float, change: float, better: str) -> float:
    """How much worse change is than parent, in the metric's unit (<= 0 if it
    is not worse)."""
    return change - parent if better == "lower" else parent - change


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse change is than parent, as a fraction of parent (<= 0 if
    it is not worse)."""
    lost = loss(parent, change, better)
    if parent == 0:
        return float("inf") if lost > 0 else 0.0
    return lost / abs(parent)


def compare(pairs: list[dict], metrics: list[dict]) -> dict:
    """The comparison of pairs of results ({"parent": result, "change": result})
    over the end-to-end metrics declared in BENCHMARK.json, as data: each
    metric's quartiles per side, wins, claim and verdict; the wall-clock
    quartiles; each side's failed and attempted ops and correct runs; and
    whether the change failed a larger share of its ops."""
    ops = {side: {k: sum(p[side][k] for p in pairs) for k in ("failed", "attempted")}
           for side in SIDES}
    share = {side: o["failed"] / max(o["attempted"], 1) for side, o in ops.items()}
    more_failed = share["change"] > share["parent"]
    rows = []
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs
                         if name in p[side]["metrics"]] for side in SIDES}
        if not all(values.values()):
            continue
        quartiles = {side: np.percentile(v, [25, 50, 75]).tolist() for side, v in values.items()}
        wins = dict.fromkeys(SIDES, 0)
        for a, b in zip(values["parent"], values["change"]):
            if a != b:
                wins["change" if (b < a) == (better == "lower") else "parent"] += 1
        medians = quartiles["parent"][1], quartiles["change"][1]
        parent_iqr = quartiles["parent"][2] - quartiles["parent"][0]
        gain = (len(pairs) >= CLAIM_PAIRS and wins["change"] >= 0.9 * len(pairs)
                and -loss(*medians, better) > parent_iqr and not more_failed)
        worse = worse_by(*medians, better)
        beats_all = all(loss(a, b, better) < 0 for a in values["parent"] for b in values["change"])
        if worse > bound:
            verdict = f"WORSE by {worse:.1%} > {bound:.0%}"
        elif parent_iqr > bound * abs(medians[0]) and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        rows.append({"name": name, "unit": m["unit"], "better": better, "bound": bound,
                     "quartiles": quartiles, "wins": wins, "claim": "GAIN" if gain else "-",
                     "verdict": verdict})
    for side in SIDES:
        ops[side]["correct_runs"] = sum(bool(p[side]["correct"]) for p in pairs)
    return {"metrics": rows, "wall_clock": wall_clock(pairs), "ops": ops,
            "failed_share": share, "failed_ops": "WORSE" if more_failed else "not worse"}


def summarize(pairs: list[dict], metrics: list[dict]) -> list[str]:
    """Summary lines for pairs of results ({"parent": result, "change": result})
    over the end-to-end metrics declared in BENCHMARK.json."""
    c = compare(pairs, metrics)
    lines = [f"{'metric':<14} {'parent q1 / median / q3':>34} {'change q1 / median / q3':>34} "
             f"{'wins p:c':>8}  claim  verdict"]
    for row in c["metrics"]:
        shown = _shown(row["quartiles"])
        lines.append(f"{row['name']:<14} {shown['parent']:>34} {shown['change']:>34} "
                     f"{row['wins']['parent']:>4}:{row['wins']['change']:<3}  "
                     f"{row['claim']:<5}  {row['verdict']}")
    for key, quartiles in c["wall_clock"].items():
        shown = _shown(quartiles)
        lines.append(f"{'wall ' + key:<14} {shown['parent']:>34} {shown['change']:>34}"
                     "  (wall clock, not rescaled; no claim)")
    for side, o in c["ops"].items():
        lines.append(f"{side}: {o['failed']}/{o['attempted']} ops failed, "
                     f"{o['correct_runs']}/{len(pairs)} runs correct")
    share = c["failed_share"]
    lines.append(f"failed ops: parent {share['parent']:.2%}, change {share['change']:.2%}  "
                 f"{c['failed_ops']}")
    return lines


def _shown(quartiles: dict) -> dict:
    return {side: " / ".join(f"{v:.4g}" for v in q) for side, q in quartiles.items()}


def wall_clock(pairs: list[dict]) -> dict:
    """Each side's quartiles of the wall-clock times that bench/run.py prints
    beside its result on untraced runs: the op time before rescaling by the
    reference loop, and the reference loop's own time.  They are for reading
    a rescaled gain against wall time, so they carry no claim or verdict;
    none is given unless every run has them."""
    if not all("wall_clock" in p[side] for p in pairs for side in SIDES):
        return {}
    return {key: {side: np.percentile([p[side]["wall_clock"][key] for p in pairs],
                                      [25, 50, 75]).tolist() for side in SIDES}
            for key in WALL_CLOCK}


def commit_id(checkout: Path) -> str | None:
    """The commit checked out at the root of checkout, with "-dirty" appended
    when its files differ from that commit (as git describe --dirty marks
    it); None when checkout is not the root of a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True)
    try:
        top, head = git("rev-parse", "--show-toplevel", "--verify", "HEAD").stdout.split()
    except (OSError, ValueError):
        return None
    if Path(top).resolve() != checkout.resolve():
        return None
    return head + ("-dirty" if git("status", "--porcelain").stdout else "")


def traced(run: dict) -> dict:
    """What an entry keeps of a side's --trace 1 run: its correct flag, its
    logistic.fit.calls, every per-layer metric's value by name, and its
    golden-check lines."""
    values = {name: m["value"] for name, m in run["metrics"].items()}
    return {"correct": run["correct"], "logistic.fit.calls": values.get("logistic.fit.calls"),
            "metrics": values, "golden": run.get("golden", [])}


def record(pairs: list[dict], metrics: list[dict], workload: str, seconds: float, seed: int,
           commits: dict, traced_runs: dict) -> dict:
    """The entry --record writes: the runs' settings, each side's commit id
    and the {"env": ...} line of each of its runs in pair order, the
    comparison that summarize prints, the golden-check lines of the seed-1
    runs, and each side's traced run (traced_runs, by side) under
    "per_layer"."""
    return {
        "workload": workload,
        "pairs": len(pairs),
        "seconds": seconds,
        "seeds": [seed, seed + len(pairs) - 1],
        "commits": commits,
        "env": {side: [p[side].get("env") for p in pairs] for side in SIDES},
        **compare(pairs, metrics),
        "golden": {side: [line for p in pairs for line in p[side].get("golden", [])]
                   for side in SIDES},
        "per_layer": {"seed": seed, "seconds": seconds,
                      **{side: traced(traced_runs[side]) for side in SIDES}},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=1, help="pair k runs seed + k")
    p.add_argument("--record", type=Path, help="also write the comparison as one JSON entry")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            pair[side] = run_bench(checkouts[side], args.workload, args.seed + k, args.seconds)
            print(json.dumps({"pair": k, "side": side, **pair[side]}), file=sys.stderr,
                  flush=True)
        pairs.append(pair)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}")
    print("\n".join(summarize(pairs, spec["end_to_end"])))
    if args.record:
        traced_runs = {}
        for side in SIDES:
            traced_runs[side] = run_bench(checkouts[side], args.workload, args.seed, args.seconds,
                                          trace=1)
            print(json.dumps({"traced": side, **traced_runs[side]}), file=sys.stderr, flush=True)
        commits = {side: commit_id(checkouts[side]) for side in SIDES}
        entry = record(pairs, spec["end_to_end"], args.workload, args.seconds, args.seed, commits,
                       traced_runs)
        args.record.write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
