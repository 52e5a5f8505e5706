"""tools/codelines.py counts the lines that hold code, on small sources."""

import ast
import importlib.util
from pathlib import Path

import pytest

CODELINES = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts

# a comment line does not


class A:
    """Class docstring."""

    x = """a string that is not a docstring
    spans two lines"""

    def f(self):
        """Function docstring."""
        "a later string statement is code"
        return (1,
                2)
'''


@pytest.fixture(scope="module")
def codelines():
    spec = importlib.util.spec_from_file_location("codelines", CODELINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(codelines):
    # import, class, x's two lines, def, the later string, return's two lines
    assert codelines.code_lines(SOURCE) == 8
    assert codelines.docstring_lines(ast.parse(SOURCE)) == {1, 2, 10, 16}


def test_empty_and_docstring_only_sources(codelines):
    assert codelines.code_lines("") == 0
    assert codelines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_prints_each_module_and_the_total(codelines, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert codelines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "2", "10"]
    assert lines[0].endswith("a.py") and lines[1].endswith("b.py") and lines[2].endswith("total")
