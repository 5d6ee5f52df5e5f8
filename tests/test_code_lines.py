"""tools/code_lines.py, the code-line count the design notes cite, runs
and counts only lines that hold code."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_blanks_comments_and_docstrings(tool):
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
class A:
    """Class docstring."""

    x = """a string that is not a docstring,
    over two lines"""

    def f(self):
        """Function docstring."""
        return os.sep
'''
    assert tool.code_lines(source) == 6


def test_code_lines_tool_prints_each_module_then_the_total(tool, capsys):
    tool.main()
    lines = capsys.readouterr().out.splitlines()
    counts = dict(line.split() for line in lines)
    assert lines[-1].startswith("total ")
    names = [line.split()[0] for line in lines[:-1]]
    assert names == sorted(p.name for p in tool.PACKAGE.glob("*.py")) and "config.py" in names
    assert int(counts.pop("total")) == sum(int(n) for n in counts.values())
