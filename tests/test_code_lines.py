from code_lines import code_lines, count

SOURCE = '''"""A module docstring,
over two lines."""

# a comment alone on its line

import os  # a comment after code


class Record:
    """A class docstring."""

    size = 1


def total(values):
    """A function docstring,
    over two lines."""
    text = """a string that is
    not a docstring"""
    return sum(
        values,
    )
'''


def test_code_lines_counts_code_alone():
    """Docstrings, comments and blank lines do not count; a string that is
    not a docstring and each line of a multi-line expression do."""
    # import, class, size, def, the two string lines and the three of return
    assert code_lines(SOURCE) == 9


def test_code_lines_of_a_docstring_alone():
    assert code_lines('"""Only a docstring."""\n') == 0
    assert code_lines('"""Not a docstring."""[0]\n') == 1


def test_count_names_each_module(tmp_path):
    (tmp_path / "one.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "two.py").write_text("x = 1\n", encoding="utf-8")
    assert count(tmp_path) == {"one": 9, "two": 1}
