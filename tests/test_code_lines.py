"""tools/code_lines.py, the counter ROADMAP's code-line target is measured
with, on a fixture module whose code lines are known."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 14 code lines: the import, the class, its field, the method and its
# return, the three lines of TEMPLATE, f's four lines (the string that is
# not f's first statement counts) and g's two.
FIXTURE = '''"""Module docstring,
over two lines."""

# A comment line.
import os  # a trailing comment does not make the line a comment


class Point:
    """One-line class docstring."""

    x: int = 0

    def norm(self):
        """Method docstring
        over three
        lines."""
        # Another comment.
        return abs(self.x)


TEMPLATE = """not a docstring:
    each of its lines
    is code"""


def f():
    value = 1
    """A string that is not the first statement is code."""
    return value


async def g():
    """Async function docstring."""
    return None
'''


def test_fixture_module_has_its_known_count(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert code_lines.code_lines(path) == 14


def test_main_prints_each_file_and_the_total(tmp_path, monkeypatch, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    monkeypatch.setattr(code_lines, "PACKAGE", tmp_path)
    assert code_lines.main() == 0
    assert capsys.readouterr().out == "    14  a.py\n     1  b.py\n    15  total\n"
