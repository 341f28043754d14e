"""Print the size of the design: the lines, code lines, docstring lines
and comment-only lines of each module in ``src/atlas`` and of the test
files in ``tests/`` together, and the bytes and table entries of the
seed-0 bundle trained in-process on the corpus tasks e1-e3.

A code line holds a token other than a comment or a docstring; a
docstring line is a line of a module, class or function docstring; a
comment-only line holds a comment and neither code nor docstring.  The
bundle is the one ``atlas train`` writes for those tasks at seed 0.

    python scripts/design_size.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tokens that hold no code: with docstrings, the rest of a token stream.
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count(source: str) -> tuple[int, int, int, int]:
    """``(lines, code lines, docstring lines, comment-only lines)`` of the
    Python ``source``."""
    docs: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs), len(docs), len(comments - code - docs)


def seed0_bundle() -> tuple[int, int]:
    """The bytes and table entries of the seed-0 bundle trained on e1-e3."""
    sys.path.insert(0, str(ROOT / "src"))
    from atlas.cli import bundle_obj, canonical_json, load_task
    from atlas.corpus import corpus_dir
    from atlas.driver import TrainConfig, learn_abstractions

    # ``atlas train``'s defaults: AST size 14, 200,000 candidates, 60 s.
    problems = [load_task(corpus_dir() / f"{name}.json", 14, 200_000, 60_000) for name in ("e1", "e2", "e3")]
    run = learn_abstractions(problems, TrainConfig(seed=0))
    data = canonical_json(bundle_obj(run.templates, run.table, 0, [name for name, _ in problems])).encode()
    return len(data), len(run.table)


def table(directory: Path) -> list[tuple[str, int, int, int, int]]:
    """A ``count`` row for each Python file of ``directory``, by name, and
    their total."""
    rows = [(path.name, *count(path.read_text(encoding="utf-8"))) for path in sorted(directory.glob("*.py"))]
    rows.append(("total", *map(sum, zip(*(row[1:] for row in rows)))))
    return rows


def main() -> int:
    rows = table(ROOT / "src" / "atlas")
    rows.append(("tests/ total", *table(ROOT / "tests")[-1][1:]))
    print(f"{'src/atlas':<18} {'lines':>6} {'code':>6} {'docstring':>9} {'comment':>7}")
    for name, lines, code, docs, comments in rows:
        print(f"{name:<18} {lines:>6,} {code:>6,} {docs:>9,} {comments:>7,}")
    size, entries = seed0_bundle()
    print(f"seed-0 bundle: {size:,} bytes, {entries} table entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
