"""The line count of ``scripts/design_size.py``."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "design_size.py"


def design_size():
    spec = importlib.util.spec_from_file_location("design_size", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring
over two lines."""

# A comment.
x = {  # a code line with a trailing comment
    "a": 1,
}


def f():
    """A one-line function docstring."""
    return "a string that is not a docstring"
'''


def test_counts_lines_code_lines_and_docstring_lines():
    # 12 lines: 3 blank, 1 comment, 3 docstring and 5 code.
    assert design_size().count(SOURCE) == (12, 5, 3)
