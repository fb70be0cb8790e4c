"""tools/line_trace.py on a toy module: the lines a call never reaches are
reported, and nothing else."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("line_trace", ROOT / "tools" / "line_trace.py")
line_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_trace)

TOY = '''"""A toy module."""


def sign(x):
    if x >= 0:
        return 1
    return -1


def unused():
    return [i for i in range(3)]


class Box:
    """A class body runs at import."""

    size = 2
'''


def test_reports_the_lines_a_run_never_reaches(tmp_path):
    (tmp_path / "toy.py").write_text(TOY)
    (tmp_path / "notes.txt").write_text("not Python")
    spec = importlib.util.spec_from_file_location("toy", tmp_path / "toy.py")
    module = importlib.util.module_from_spec(spec)

    def run():
        spec.loader.exec_module(module)
        return module.sign(2)

    outer = sys.gettrace()
    result, ran = line_trace.run_traced(tmp_path, run)
    assert sys.gettrace() is outer
    assert result == 1
    assert line_trace.unrun_lines(tmp_path, ran) == {"toy.py": [7, 11]}
    assert line_trace.report(tmp_path, ran) == "toy.py: 2 never run: 7, 11"
    assert line_trace.report(tmp_path, {}) == "toy.py: 10 never run: 1, 4-7, 10-11, 14-15, 17"
