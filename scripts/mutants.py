"""Check that tier-1 catches each known fault of the synthesizer and its tools.

Each mutation is a list of exact ``(file, old, new)`` edits that puts back a
fault the tests are meant to catch, taken from the scratch mutations of
earlier changes (see CHANGES.md).  For each one the tree is copied into a
temporary directory, the edits are made there (each old text must occur
exactly once in its file), and tier-1 runs there with ``-x``, apart from
``tests/test_mutants.py``: it checks that each old text occurs in the
tree, so it would fail on every mutated copy.  A mutation is caught when
pytest fails.  Tier-1 runs first on an unmutated copy, so that a failure
there is not read as a catch.  It prints caught, with the first failing
test, or MISSED per mutation, with the time taken, and exits 1 if any is
missed, or 2 without running any if one is stale or the unmutated copy
fails.  Run from anywhere; names select the mutations whose name contains
one of them:

    python scripts/mutants.py
    python scripts/mutants.py "memo"
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SYNTH = "src/atlas/synthesizer.py"
CLI = "src/atlas/cli.py"
TRANSFORMERS = "src/atlas/transformers.py"
DOMAIN = "src/atlas/domain.py"
TIMEOUT_S = 1800

MUTANTS = {
    "no run taken in bulk (PR 33)": [
        (SYNTH, "if sids is None or None not in sids:", "if False:"),
        (SYNTH, "rest = keys, sids, kids, rows or repeat(None)", "rest = keys, sids or [None] * len(keys), kids, rows or repeat(None)"),
    ],
    "exact runs pruned past the patchable exact_embeds (PRs 33, 36)": [
        (SYNTH, "live = exact_embeds(rows[: len(keys)], live, outputs)", "live = [i for i in live if all(map(str.__contains__, outputs, rows[i]))]"),
    ],
    "no leaf run taken in bulk (PR 33)": [
        (SYNTH, "exact = max(map(len, chain.from_iterable(rows))) <= exact_len", "exact = False"),
    ],
    "exact runs deduped without their in-run repeats (PRs 33, 35, 36)": [
        (
            SYNTH,
            "live = [i for i, k in enumerate(keys) if not (k in seen or seen.add(k))]",
            "live = [i for i, k in enumerate(keys) if k not in seen]; seen.update(keys)",
        ),
    ],
    "an all-cached run taken whole, with no cut at the outputs (PR 33)": [
        (
            SYNTH,
            "if (sids is None or all(map(str.startswith, outputs, left[0]))) and target in keys:",
            "if sids is None and target in keys:",
        ),
    ],
    "the PR 32 startswith condition on bulk runs (PR 33)": [
        (
            SYNTH,
            "if sids is None or None not in sids:",
            "if sids is None or None not in sids and not all(map(str.startswith, outputs, left[0])):",
        ),
    ],
    "apply_transformer's two-str branch raises (PR 33)": [
        (SYNTH, "return left + right", "raise AssertionError('two exact states')"),
    ],
    "apply_transformer's widen branches raise (PR 33)": [
        (SYNTH, "left = widen(left)", "raise AssertionError('widen')"),
        (SYNTH, "right = widen(right)", "raise AssertionError('widen')"),
    ],
    "slice memo keyed without len(concats) (PR 35)": [
        (SYNTH, "if looked_up != (a_sid, len(concats)):", "if looked_up != (a_sid, 0):"),
        (SYNTH, "s[4] = a_sid, len(concats)", "s[4] = a_sid, 0"),
    ],
    "slice memo keyed without the left id (PR 35)": [
        (SYNTH, "if looked_up != (a_sid, len(concats)):", "if looked_up != (0, len(concats)):"),
        (SYNTH, "s[4] = a_sid, len(concats)", "s[4] = 0, len(concats)"),
    ],
    "endswith for startswith in the prefix test (PR 35)": [
        (SYNTH, "all(map(str.startswith, outputs, left[0]))", "all(map(str.endswith, outputs, left[0]))"),
    ],
    "exact_embeds tests only column 0 (PR 36)": [
        (SYNTH, "for k, out in enumerate(outputs):", "for k, out in enumerate(outputs[:1]):"),
    ],
    "no vectors.extend for an exact run's new candidates (PR 36)": [
        (SYNTH, "vectors.extend(map(rows.__getitem__, live))", "pass"),
    ],
    "a key separator chosen without the literals": [
        (SYNTH, "chars = set(chain.from_iterable((*self.inputs, *self.outputs, *task.literals)))", "chars = set(chain.from_iterable((*self.inputs, *self.outputs)))"),
    ],
    "an exact run's tail cut after the outputs' candidate": [
        (SYNTH, "chain([register(outputs)], repeat(None))", "[register(outputs)]"),
    ],
    "rights pooled without compress(..., fresh)": [
        (SYNTH, "kept_rights.extend(compress(kids, fresh))", "kept_rights.extend(kids)"),
    ],
    "a slice's exact flag taken per pool instead of per slice": [
        (SYNTH, "vecs[i : i + RUN] == rows[i : i + RUN]", "vecs == rows"),
    ],
    "a vector judged again after it was refused": [
        (SYNTH, "refused.add(sid)", "pass"),
    ],
    "a key separator that may occur in values": [
        (SYNTH, "self._sep = next(c for c in map(chr, count()) if c not in chars)", 'self._sep = "\\x00"'),
    ],
    "a level pooled on one size's concatenations too few": [
        (SYNTH, "lengths[size - 1 : 0 : -1]", "lengths[size - 2 : 0 : -1]"),
    ],
    "bench's enumeration ratio over at least 2 bundle candidates": [
        (CLI, 'base["enumerated"] / max(1, bundle["enumerated"])', 'base["enumerated"] / max(2, bundle["enumerated"])'),
    ],
    "a slot's seed from 9 digest bytes": [
        (TRANSFORMERS, 'int.from_bytes(digest[:8], "big")', 'int.from_bytes(digest[:9], "big")'),
    ],
    "sampled rows deduped under the name of the sampled strings": [
        (TRANSFORMERS, "constants = (sel[0].args, sel[1].args, p0.args)", "args = (sel[0].args, sel[1].args, p0.args)"),
        (TRANSFORMERS, "if constants in seen_rows:", "if args in seen_rows:"),
        (TRANSFORMERS, "seen_rows.add(constants)", "seen_rows.add(args)"),
    ],
    "a leaf's len != facts in the pool's order": [
        (DOMAIN, "for m in sorted(set(pool.lengths))", "for m in pool.lengths"),
    ],
    "state_embeds's shortcut blind to char != facts below the length": [
        (SYNTH, "if not segments and not (char_neqs and char_neqs[0][0] < n):", "if not segments:"),
    ],
}


def stale(tree: Path = ROOT) -> list[str]:
    """``file: old text`` for each edit whose old text does not occur
    exactly once in its file under ``tree``, or that changes nothing."""
    return [
        f"{path}: {old!r}"
        for edits in MUTANTS.values()
        for path, old, new in edits
        if old == new or (tree / path).read_text(encoding="utf-8").count(old) != 1
    ]


def failing(edits: list[tuple[str, str, str]]) -> Optional[str]:
    """The first test tier-1 fails on a copy of the tree with ``edits``
    made, or pytest's last line when it names none; None if tier-1 passes."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        for path, old, new in edits:
            (tree / path).write_text((tree / path).read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        args = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
        done = subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode == 0:
        return None
    lines = done.stdout.splitlines() or [f"pytest exited {done.returncode}"]
    return next((line.split(" - ")[0].split(" ", 1)[1] for line in lines if line.startswith(("FAILED ", "ERROR "))), lines[-1])


def main(argv: list[str]) -> int:
    if stale():
        print("stale mutations:", *stale(), sep="\n  ", file=sys.stderr)
        return 2
    start = time.perf_counter()
    clean = failing([])
    if clean is not None:
        print(f"the unmutated copy fails {clean}; no mutation run", file=sys.stderr)
        return 2
    print(f"clean   {time.perf_counter() - start:6.1f} s  the unmutated copy passes", flush=True)
    chosen = {name: edits for name, edits in MUTANTS.items() if not argv or any(a in name for a in argv)}
    missed = 0
    for name, edits in chosen.items():
        start = time.perf_counter()
        test = failing(edits)
        missed += test is None
        print(f"{'MISSED' if test is None else 'caught'}  {time.perf_counter() - start:6.1f} s  {name}" + ("" if test is None else f"  by {test}"), flush=True)
    print(f"{len(chosen) - missed} of {len(chosen)} caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
