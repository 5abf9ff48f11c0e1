"""The code-line counter of ``tests/code_lines.py``."""

from code_lines import code_lines

SNIPPET = '''"""A module docstring
on two lines."""

import os  # a comment after code
# a comment line


def f(x):
    """A docstring."""
    return max(x,
               len("a string inside an expression"),
               0)


"""A bare string statement."""
query = """a string
inside an expression"""
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, def, the three lines of the call and the two of the string
    assert code_lines(SNIPPET) == 7
