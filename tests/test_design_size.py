"""The line count of ``scripts/design_size.py``, and the rules that keep each
invariant of ``src/atlas`` stated once: a line ``Invariant <name>:`` in a
module docstring defines it, and ``(invariant <name>)`` in a docstring or
comment cites it."""

import ast
import importlib.util
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "design_size.py"


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
    assert design_size().count(SOURCE) == (12, 5, 3, 1)


def test_table_has_a_row_per_file_and_their_total(tmp_path):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n# A comment.\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert design_size().table(tmp_path) == [
        ("a.py", 3, 1, 0, 1),
        ("b.py", 12, 5, 3, 1),
        ("total", 15, 6, 3, 2),
    ]


def test_main_prints_the_tests_total(monkeypatch, capsys):
    module = design_size()
    monkeypatch.setattr(module, "seed0_bundle", lambda: (0, 0))
    assert module.main() == 0
    lines = capsys.readouterr().out.splitlines()
    tests_total = module.table(ROOT / "tests")[-1]
    assert tests_total[1] == sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "tests").glob("*.py"))
    assert lines[-2].split() == ["tests/", "total", *(f"{n:,}" for n in tests_total[1:])]


DEFINITION = re.compile(r"^Invariant ([a-z-]+):", re.MULTILINE)
CITATION = re.compile(r"\(invariant\s+([a-z-]+)\)")


def prose(source: str) -> tuple[str, list[str]]:
    """The module docstring of ``source``, and its other docstrings and its
    comments, each run of comment lines joined into one text."""
    tree = ast.parse(source)
    texts = [
        ast.get_docstring(node) or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    last = None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            text = tok.string.lstrip("#").strip()
            if last == tok.start[0] - 1:
                texts[-1] += " " + text
            else:
                texts.append(text)
            last = tok.start[0]
    return ast.get_docstring(tree) or "", texts


def citations(source: str) -> set[str]:
    """The invariants the docstrings and comments of ``source`` cite."""
    module_doc, others = prose(source)
    return {name for text in [module_doc, *others] for name in CITATION.findall(text)}


def invariant_problems(modules: dict[str, str], tests: dict[str, str]) -> list[str]:
    """What breaks the rules, given the source of each module and of each test
    file by name: each cited invariant is defined exactly once, in a module
    docstring, and each defined one is cited by some test."""
    defined, problems = Counter(), []
    for name, source in modules.items():
        module_doc, others = prose(source)
        defined.update(DEFINITION.findall(module_doc))
        problems += [f"{name}: invariant {n} defined outside a module docstring" for t in others for n in DEFINITION.findall(t)]
    cited = set().union(*map(citations, modules.values()))
    by_tests = set().union(*map(citations, tests.values()))
    problems += [f"invariant {n} defined {k} times" for n, k in sorted(defined.items()) if k > 1]
    problems += [f"invariant {n} cited but not defined" for n in sorted(cited - set(defined))]
    problems += [f"invariant {n} cited by no test" for n in sorted(set(defined) - by_tests)]
    return problems


def sources(directory: Path, pattern: str) -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(directory.glob(pattern))}


def test_each_invariant_is_defined_once_and_cited_by_a_test():
    modules = sources(ROOT / "src" / "atlas", "*.py")
    assert invariant_problems(modules, sources(ROOT / "tests", "*.py")) == []
    # The rule has something to check.
    assert sum(len(DEFINITION.findall(prose(s)[0])) for s in modules.values()) >= 10


MODULE = '''"""A module.

Invariant one: a claim, and its proof.
"""


def f():
    """Relies on it (invariant one)."""
'''


@pytest.mark.parametrize(
    "modules, test, problem",
    [
        ({"a.py": MODULE}, "# (invariant one)", None),
        ({"a.py": MODULE + "# (invariant two)\n"}, "# (invariant one)", "invariant two cited but not defined"),
        ({"a.py": MODULE, "b.py": MODULE}, "# (invariant one)", "invariant one defined 2 times"),
        ({"a.py": MODULE}, "# (invariant two)", "invariant one cited by no test"),
        ({"a.py": MODULE + '\n\ndef g():\n    """x\n\nInvariant one: again."""\n'}, "# (invariant one)", "a.py: invariant one defined outside a module docstring"),
    ],
)
def test_invariant_rules(modules, test, problem):
    assert invariant_problems(modules, {"test_a.py": test}) == ([] if problem is None else [problem])
