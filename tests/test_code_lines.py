"""tools/code_lines.py on a synthetic module."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 7 code lines: the import, the class and def lines, both lines of the string
# value x and both lines of the return; the docstrings, the comment line and
# the blank lines do not count
SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line

# a comment line


class A:
    """Class docstring."""

    x = """a string value,
    not a docstring"""

    def f(self):
        """Function docstring."""
        return (os.sep +
                "")
'''


def test_counts_code_lines_only():
    assert code_lines.code_lines(SOURCE) == 7


def test_empty_and_docstring_only_modules():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_totals_a_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path / "pkg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert out[-1].split()[0] == "8"
