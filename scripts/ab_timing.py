"""Time two versions of ``src/atlas`` against each other, in one process.

Each side is a ``src/atlas`` tree, copied into a temporary directory under
its own package name (``atlas_a``, ``atlas_b``); the package imports its
own modules relatively, so each copy runs its own code.  Both sides run
the same workload in interleaved rounds, taking turns at going first, so
that a drift in the host's speed falls on both:

- ``top``: the 15 ``eval_*`` corpus tasks under the all-top table;
- ``bundle``: the same tasks under the bundle given with ``--bundle``;
- ``train``: ``learn_abstractions`` over e1-e3 at seed 0, plus the
  bundle's serialization, as perfbench's train workload times it.

Synthesis runs with ``require_correct``, the side's default size limit
and budget (``SynthesisTask``) and no timeout.  Per side it prints the
median time of a round and its quartiles, and the median number of
collections of the cyclic collector's youngest generation in a round
(from ``gc.get_stats()``); then the median of the paired ratios B/A and
the rounds B won.  Both sides must give the same outcomes
(programs and counts, or history and bundle bytes); when they do not, it
says so and exits 1.  Run from the repository root, with the parent's
tree checked out elsewhere:

    python scripts/ab_timing.py ../parent/src/atlas src/atlas --rounds 10
    python scripts/ab_timing.py ../parent/src/atlas src/atlas --workload bundle --bundle b.json --rounds 200
    python scripts/ab_timing.py ../parent/src/atlas src/atlas --workload train --rounds 200
"""

from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

MODULES = ("cli", "corpus", "domain", "driver", "synthesizer", "transformers")


def load_side(tree: Path, name: str, into: Path):
    """The modules of the ``src/atlas`` copy of ``tree`` named ``name``."""
    shutil.copytree(tree, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


def workload(side, name: str, bundle: Path | None):
    """A function that runs one pass of ``name`` on ``side`` and returns
    its outcome."""
    cli, corpus = side["cli"], side["corpus"]
    task = side["synthesizer"].SynthesisTask
    limits = task.max_ast_size, task.max_candidates, None
    if name == "train":
        driver = side["driver"]
        problems = [cli.load_task(p, *limits) for p in corpus.training_task_paths()]

        def train():
            run = driver.learn_abstractions(problems, driver.TrainConfig(seed=0))
            data = cli.canonical_json(cli.bundle_obj(run.templates, run.table, 0, [n for n, _ in problems])).encode()
            return [(h.problem, h.iteration, str(h.program), h.correct, h.enumerated) for h in run.history], data

        return train
    tasks = [cli.load_task(p, *limits)[1] for p in corpus.eval_task_paths()]
    if name == "bundle":
        templates, table, _ = cli.load_bundle(bundle)
    else:
        templates, table = [side["domain"].TOP], side["transformers"].TransformerTable()
    synthesizer = side["synthesizer"].Synthesizer

    def synth():
        results = [synthesizer(task, templates, table).run(require_correct=True) for task in tasks]
        return [(str(r.program), r.correct, r.reason, r.enumerated, r.pruned_abstract, r.deduped) for r in results]

    return synth


def timed(run) -> tuple[float, int, object]:
    """The time ``run`` takes, the gen-0 collections made meanwhile, and its outcome."""
    gc.collect()
    collections = gc.get_stats()[0]["collections"]
    start = time.perf_counter()
    outcome = run()
    return time.perf_counter() - start, gc.get_stats()[0]["collections"] - collections, outcome


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="side A: a src/atlas tree (the parent)")
    parser.add_argument("b", type=Path, help="side B: a src/atlas tree (the change)")
    parser.add_argument("--workload", choices=("top", "bundle", "train"), default="top")
    parser.add_argument("--bundle", type=Path, help="the bundle file of the bundle workload")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if (args.workload == "bundle") != (args.bundle is not None):
        parser.error("--bundle goes with, and only with, --workload bundle")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            runs = [workload(load_side(tree, name, Path(tmp)), args.workload, args.bundle) for tree, name in ((args.a, "atlas_a"), (args.b, "atlas_b"))]
        finally:
            sys.path.remove(tmp)
        # One warm-up pass per side, whose outcomes must agree.
        outcomes = [run() for run in runs]
        times: list[list[float]] = [[], []]
        collections: list[list[int]] = [[], []]
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for i in order:
                t, n, outcome = timed(runs[i])
                times[i].append(t)
                collections[i].append(n)
                if outcome != outcomes[i]:
                    print(f"side {'AB'[i]} gave another outcome in round {r + 1}")
                    return 1

    print(f"workload {args.workload}, {args.rounds} interleaved rounds")
    for label, tree, ts, ns in zip("AB", (args.a, args.b), times, collections):
        q1, q3 = quartiles(ts)
        print(f"{label} {tree}: median {statistics.median(ts):.5f} s (quartiles {q1:.5f}-{q3:.5f}), {statistics.median(ns):g} gen-0 collections per round")
    ratios = [b / a for a, b in zip(*times)]
    wins = sum(b < a for a, b in zip(*times))
    print(f"B/A: median paired ratio {statistics.median(ratios):.3f}, B faster in {wins}/{args.rounds} rounds")
    if outcomes[0] != outcomes[1]:
        print("outcomes differ between A and B")
        return 1
    print("outcomes identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
