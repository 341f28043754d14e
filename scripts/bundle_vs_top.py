"""Time each corpus task under a bundle against the all-top table, in one process.

TREE is a ``src/atlas`` tree, loaded under its own package name as
``scripts/ab_timing.py`` loads a side.  Each round runs every corpus task
(e1-e3, then the ``eval_*`` tasks) once under the bundle given with
``--bundle`` and once under the all-top table, back to back, the bundle
going first in odd rounds and top in even ones, so that a drift in the
host's speed falls on both.  Synthesis runs with ``require_correct``, the
tree's default size limit and budget (``SynthesisTask``) and no timeout.

Per task it prints the median of the per-round ratios bundle/top and the
rounds in which the bundle was slower.  Every run must give the outcome
(program and counts) of its warm-up run; when one does not, it says so
and exits 1.  Run from the repository root:

    python scripts/bundle_vs_top.py src/atlas --bundle b.json --rounds 300
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ab_timing import load_side, timed  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="a src/atlas tree")
    parser.add_argument("--bundle", type=Path, required=True, help="the bundle file")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            side = load_side(args.tree, "atlas_t", Path(tmp))
        finally:
            sys.path.remove(tmp)
        cli, corpus, synthesizer = side["cli"], side["corpus"], side["synthesizer"]
        limits = synthesizer.SynthesisTask.max_ast_size, synthesizer.SynthesisTask.max_candidates, None
        tasks = [cli.load_task(p, *limits) for p in corpus.training_task_paths() + corpus.eval_task_paths()]
        domains = cli.load_bundle(args.bundle)[:2], ([side["domain"].TOP], side["transformers"].TransformerTable())

        def runner(task, templates, table):
            def run():
                r = synthesizer.Synthesizer(task, templates, table).run(require_correct=True)
                return str(r.program), r.correct, r.reason, r.enumerated, r.pruned_abstract, r.deduped

            return run

        # Per task, its bundle and top runs, each with its warm-up outcome.
        runs = [[(run, run()) for run in (runner(task, *domain) for domain in domains)] for _, task in tasks]
        times = [([], []) for _ in tasks]
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for (name, _), pair, ts in zip(tasks, runs, times):
                for i in order:
                    run, outcome = pair[i]
                    t, _, got = timed(run)
                    if got != outcome:
                        print(f"{name} under {('the bundle', 'top')[i]} gave another outcome in round {r + 1}")
                        return 1
                    ts[i].append(t)

    print(f"{len(tasks)} tasks, {args.rounds} interleaved rounds: bundle/top")
    for (name, _), (bundle, top) in zip(tasks, times):
        ratio = statistics.median(b / t for b, t in zip(bundle, top))
        slower = sum(b > t for b, t in zip(bundle, top))
        print(f"{name}: median paired ratio {ratio:.3f}, bundle slower in {slower}/{args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
