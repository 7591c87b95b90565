"""tools/srcsize.py: what counts as a code line, and its report."""

import importlib.util
import os

_SPEC = importlib.util.spec_from_file_location(
    "srcsize", os.path.join(os.path.dirname(__file__), "..", "tools", "srcsize.py"))
srcsize = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(srcsize)

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a comment after code


# a comment alone
class Point:
    """Class docstring."""

    x = 1

    def norm(self):
        """Function docstring
        over two lines.
        """
        text = """a string that is
not a docstring"""
        return math.hypot(self.x,
                          0.0)
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # import, class, x = 1, def, text = (2 lines) and return (2 lines)
    assert srcsize.count(SAMPLE) == (20, 8)


def test_a_blank_line_inside_a_string_is_not_code():
    assert srcsize.count('x = """a\n\nb"""\n') == (3, 2)


def test_report_per_file_and_net():
    before = {"a.py": (10, 6), "gone.py": (3, 1)}
    after = {"a.py": (8, 5), "new.py": (4, 2)}
    assert srcsize.report(before, after) == [
        "a.py: lines 10 -> 8, code lines 6 -> 5",
        "gone.py: lines 3 -> 0, code lines 1 -> 0",
        "new.py: lines 0 -> 4, code lines 0 -> 2",
        "net: lines -1, code lines +0"]
