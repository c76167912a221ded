"""The code-line count of `tests/code_lines.py` on a synthetic source."""

import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
def f(x):
    """Function docstring."""
    y = """a string literal
    over two lines"""
    return (x +
            1)


class C:
    \'\'\'Class docstring.\'\'\'

    async def g(self):
        "Docstring of a nested function."
        "a string statement after it"
'''


def test_code_lines_are_those_with_a_token_outside_comments_and_docstrings():
    # import, def f, the two lines of y, the two of the return, class C,
    # async def g and the string statement after its docstring
    assert code_lines.code_lines(SOURCE) == 9
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_the_script_prints_each_file_and_the_total(tmp_path, capsys):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(SOURCE, encoding="utf-8")
    second.write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    assert code_lines.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     9  first.py", "     2  second.py", "    11  total"]
