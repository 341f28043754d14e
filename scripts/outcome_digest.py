"""Print sha256 digests of what training and synthesis produce, so that two
versions of the code can be compared outcome for outcome.

Training on e1-e3 at seeds 0, 1 and 705 gives, per seed, its history (the
problem, iteration, returned program, whether it was correct, the templates
added and the candidates enumerated, per iteration) and the sha256 of the
bundle ``atlas train`` writes.  Each corpus task is then synthesized under
five tables, in both modes (``require_correct`` on and off), at each
candidate budget, with the CLI's size limit and no timeout; a run gives its
program, ``correct``, ``reason`` and enumerated / pruned / deduped counts.
The tables are the all-top table, the three trained ones and the length
table, which ``learn_transformers`` builds over top, ``len =`` and ``len !=``
with the seed-0 oracle and pool of e1-e3.

One line is printed per part, ``<part> <sha256>``, and then one for all of
them, ``overall <sha256>``.  Run from the repository root:

    python scripts/outcome_digest.py
    python scripts/outcome_digest.py --task eval_backup --budget 256 --budget 257

``--task`` and ``--budget`` narrow the synthesis runs to the given corpus
tasks and budgets; training always runs in full.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from atlas.cli import bundle_obj, canonical_json, load_task  # noqa: E402
from atlas.corpus import corpus_dir, training_task_paths  # noqa: E402
from atlas.domain import LEN_EQ, LEN_NEQ, TOP, ConstantPool  # noqa: E402
from atlas.driver import TrainConfig, corpus_alphabet, learn_abstractions  # noqa: E402
from atlas.synthesizer import SynthesisTask, Synthesizer  # noqa: E402
from atlas.transformers import SamplingOracle, TransformerTable, learn_transformers  # noqa: E402

SEEDS = (0, 1, 705)
BUDGETS = (1, 255, 256, 257, 4_097, 20_000, 200_000)


def load(path: Path, budget: int = SynthesisTask.max_candidates) -> tuple[str, SynthesisTask]:
    # Without a timeout, so that no outcome depends on speed.
    return load_task(path, SynthesisTask.max_ast_size, budget, None)


def sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def train(seed: int, problems: list[tuple[str, SynthesisTask]]):
    """The training run at ``seed``, and its history and bundle digest as a part."""
    run = learn_abstractions(problems, TrainConfig(seed=seed))
    history = [
        [h.problem, h.iteration, str(h.program), h.correct, [str(t) for t in h.templates_added], h.enumerated]
        for h in run.history
    ]
    bundle = canonical_json(bundle_obj(run.templates, run.table, seed, [name for name, _ in problems])).encode()
    return run, {"history": history, "bundle_sha256": hashlib.sha256(bundle).hexdigest()}


def length_table(problems: list[tuple[str, SynthesisTask]]) -> TransformerTable:
    oracle = SamplingOracle(0, corpus_alphabet(problems))
    pool = ConstantPool.default([s for _, t in problems for s in t.inputs + t.outputs])
    return learn_transformers([TOP, LEN_EQ, LEN_NEQ], oracle, pool, {})


def outcomes(templates, table: TransformerTable, paths: list[Path], budgets) -> list:
    rows = []
    for path in paths:
        for budget in budgets:
            name, task = load(path, budget)
            for require_correct in (True, False):
                r = Synthesizer(task, templates, table).run(require_correct=require_correct)
                program = str(r.program) if r.program else None
                rows.append([name, budget, require_correct, program, r.correct, r.reason, r.enumerated, r.pruned_abstract, r.deduped])
    return rows


def digest_lines(tasks=None, budgets=BUDGETS) -> list[str]:
    """The printed lines: the digest of each part, then the overall one."""
    problems = [load(p) for p in training_task_paths()]
    paths = sorted(corpus_dir().glob("*.json"))
    if tasks:
        paths = [corpus_dir() / f"{name}.json" for name in tasks]
    parts, tables = {}, {"top": ([TOP], TransformerTable())}
    for seed in SEEDS:
        run, parts[f"train-{seed}"] = train(seed, problems)
        tables[f"seed-{seed}"] = (run.templates, run.table)
    tables["length"] = ([TOP, LEN_EQ, LEN_NEQ], length_table(problems))
    for name, (templates, table) in tables.items():
        parts[f"synth-{name}"] = outcomes(templates, table, paths, budgets)
    lines = [f"{name} {sha256(rows)}" for name, rows in parts.items()]
    return [*lines, f"overall {sha256(lines)}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--task", action="append", help="a corpus task name, such as eval_backup (repeatable)")
    parser.add_argument("--budget", action="append", type=int, help="a candidate budget (repeatable)")
    args = parser.parse_args(argv)
    for line in digest_lines(args.task, args.budget or BUDGETS):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
