#!/usr/bin/env python3
"""Report the lines of the mlcascade package that a run never executes.

    python3 tools/line_trace.py tests            # the tier-1 suite, in this process
    python3 tools/line_trace.py bench logical    # bench/run.py --seed 1 --seconds 2

Standard library only: sys.settrace and threading.settrace record every
line run in a frame whose file lies under src/mlcascade; frames of other
files are not traced line by line.  The executable lines of a file are the
lines its compiled code objects, nested ones included, map instructions to
(co_lines()).  For each src/mlcascade/*.py file it prints those never run.
A line run only in a child process (a test that starts the command line as
a subprocess, the benchmark's program start) counts as never run.

The bench mode loads bench/run.py and calls its main in this process; the
benchmark files are read, not changed.  Tracing slows a run about threefold.
Exit code: the suite's or the benchmark's own, 1 for bad arguments.
"""

import functools
import os
import runpy
import sys
import threading
import types
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mlcascade"


def executable_lines(path: Path) -> set[int]:
    """The lines of the Python file path that its code objects map instructions to."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(package: Path, run: Callable[[], object]) -> tuple[object, dict[str, set[int]]]:
    """run()'s result and the lines it ran in each file under package, keyed
    by the file's resolved path."""
    prefix = os.path.realpath(package) + os.sep
    ran: dict[str, set[int]] = {}
    # co_filename -> its set in ran, or None for a file outside package.
    files: dict[str, set[int] | None] = {}

    def on_line(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.realpath(name)
            files[name] = ran.setdefault(path, set()) if path.startswith(prefix) else None
        return on_line if files[name] is not None else None

    # The trace functions in place before are put back, so a traced run may
    # itself call run_traced (the tool's own test does, under the tool).
    before = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    return result, ran


def unrun_lines(package: Path, ran: dict[str, set[int]]) -> dict[str, list[int]]:
    """For each *.py file directly in package, its executable lines not in ran."""
    return {path.name: sorted(executable_lines(path) - ran.get(os.path.realpath(path), set()))
            for path in sorted(package.glob("*.py"))}


def _spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, e.g. "3, 7-9"."""
    runs: list[list[int]] = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(package: Path, ran: dict[str, set[int]]) -> str:
    return "\n".join(f"{name}: {len(lines)} never run: {_spans(lines)}" if lines
                     else f"{name}: every line run"
                     for name, lines in unrun_lines(package, ran).items())


def _run_tests() -> int:
    import pytest

    return int(pytest.main(["-q", "--continue-on-collection-errors"]))


def _run_bench(workload: str) -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    bench = runpy.run_path(str(ROOT / "bench" / "run.py"))
    return bench["main"](["--workload", workload, "--seed", "1", "--seconds", "2"])


def main(argv: list[str]) -> int:
    if argv == ["tests"]:
        run = _run_tests
    elif len(argv) == 2 and argv[0] == "bench":
        run = functools.partial(_run_bench, argv[1])
    else:
        print("usage: python3 tools/line_trace.py tests | bench WORKLOAD", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    code, ran = run_traced(PACKAGE, run)
    print(report(PACKAGE, ran))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
