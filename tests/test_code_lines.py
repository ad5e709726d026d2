"""``tools/code_lines.py``, the line counter that size comparisons of ``src/`` quote."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Each line that counts ends in "# 1"; the 11 of them are the only ones.
SOURCE = '''"""A module docstring
over two lines."""

import os  # 1


# a comment-only line
class A:  # 1
    """A class docstring."""

    def f(self, x):  # 1
        """A function
        docstring."""
        y = [  # 1
            x,  # 1
        ]  # 1
        text = """a string that is  # 1
        not a docstring"""  # 1
        return os.path.join(  # 1
            y, text)  # 1


async def g():  # 1
    """An async function's docstring."""
'''


def test_counts_code_not_docstrings_comments_or_blanks():
    assert code_lines.code_lines(SOURCE) == SOURCE.count("# 1") == 11


def test_docstring_lines_are_module_class_and_function_docstrings():
    lines = SOURCE.splitlines()
    found = sorted(code_lines.docstring_lines(SOURCE))
    assert [lines[i - 1].strip() for i in found] == [
        '"""A module docstring', 'over two lines."""', '"""A class docstring."""',
        '"""A function', 'docstring."""', '"""An async function\'s docstring."""']


def test_main_prints_each_count_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    paths = [str(tmp_path / "a.py"), str(tmp_path / "b.py")]
    assert code_lines.main(paths) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"    11  {paths[0]}", f"     1  {paths[1]}", "    12  total", ""]
    assert code_lines.main([]) == 2
