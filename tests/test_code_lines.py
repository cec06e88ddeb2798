"""The code-line counter of ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import math


class Shape:
    """Class docstring."""

    sides = 4  # a trailing comment keeps its line

    def area(self):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return math.pi, text
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_only(tmp_path, capsys):
    # import, class, sides, def, the two lines of the string, return
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    tool = _tool()
    assert tool.code_lines(SOURCE) == 7
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["7", str(path), "7", "total"]
