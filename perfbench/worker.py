"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD --seed N [--bundle FILE]
                                [--write-bundle FILE] [--setup-only] [--trace]

Run from the root of the repository.  Prints one JSON object: the set-up
time (import, task and bundle loading), the wall time of the workload, the
mean time of a reference loop sampled while it ran (and just before the
set-up), the peak RSS, per-task rows with the returned program text, the
fingerprint, and with ``--trace`` the per-layer span statistics.  The
workload drives the library through the calls ``atlas train`` and
``atlas bench`` make.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from spans import Tracer

ROOT = Path.cwd()
CORPUS = ROOT / "src" / "atlas" / "corpus"
TRAIN_TASKS = ("e1", "e2", "e3")
# The CLI defaults.  No per-task timeout: results must not depend on speed.
MAX_AST_SIZE = 14
MAX_CANDIDATES = 200_000

TARGETS = [
    ("atlas.driver", "learn_abstractions", "driver.learn_abstractions"),
    (
        "atlas.synthesizer",
        "Synthesizer.run",
        "synthesizer.run",
        lambda r: {"enumerated": r.enumerated, "pruned": r.pruned_abstract, "deduped": r.deduped},
    ),
    ("atlas.synthesizer", "apply_transformer", "synthesizer.apply_transformer"),
    ("atlas.synthesizer", "state_embeds", "synthesizer.state_embeds"),
    ("atlas.transformers", "learn_transformers", "transformers.learn_transformers"),
    ("atlas.transformers", "generate_examples", "transformers.generate_examples"),
    ("atlas.transformers", "row_valid", "transformers.row_valid"),
    ("atlas.transformers", "column_rank", "transformers.column_rank"),
    ("atlas.transformers", "solve_linear", "transformers.solve_linear"),
    ("atlas.transformers", "check_valid", "transformers.check_valid"),
    ("atlas.transformers", "apply_affine", "transformers.apply_affine"),
    ("atlas.interpolation", "learn_abstract_domain", "interpolation.learn_abstract_domain"),
    ("atlas.domain", "best_abstraction", "domain.best_abstraction", lambda s: {"conjuncts": len(s.conjuncts)}),
    ("atlas.domain", "meet", "domain.meet"),
    ("atlas.domain", "gamma_contains", "domain.gamma_contains"),
    ("atlas.dsl", "eval_node", "dsl.eval_node"),
    ("atlas.cli", "load_task", "cli.load_task"),
    ("atlas.cli", "load_bundle", "cli.load_bundle"),
]


def reference_loop():
    """Fixed pure-Python work: tuples, frozensets, dict updates and str()."""
    table = {}
    for i in range(2000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + len(frozenset((key, i % 5))) + len(str(i))
    return table


def time_reference_loop() -> float:
    """One timed reference loop, with the cyclic collector held off.

    A collection started by the loop's allocations would scan the workload's
    heap (255 MB on synth-top) and be charged to the loop.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times the reference loop every ``interval`` seconds on a background thread.

    The mean sample says how fast the host ran Python while the workload ran.
    Each sample holds the interpreter lock for about a millisecond, so the
    workload runs about 1 % slower while sampled.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.interval):
            self.samples.append(time_reference_loop())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def task_paths(workload: str) -> list[Path]:
    if workload == "train":
        return [CORPUS / f"{name}.json" for name in TRAIN_TASKS]
    return sorted(CORPUS.glob("eval_*.json"))


def table_shape(atlas, templates, table) -> dict:
    learnable = len(set(templates) - {atlas.domain.TOP})
    return {
        "templates": [atlas.domain.template_to_text(t) for t in sorted(set(templates))],
        "table_entries": len(table),
        "slots_attempted": len(table) * learnable,
        "slots_filled": sum(len(t.outputs) for t in table.all()),
    }


def train(atlas, args, tracer, start):
    cli, driver = atlas.cli, atlas.driver
    problems = [cli.load_task(p, MAX_AST_SIZE, MAX_CANDIDATES, None) for p in task_paths("train")]
    setup_s = time.perf_counter() - start
    if args.setup_only:
        return {"setup_s": setup_s}

    t0 = time.perf_counter()
    run = driver.learn_abstractions(problems, driver.TrainConfig(seed=args.seed))
    data = cli.canonical_json(cli.bundle_obj(run.templates, run.table, args.seed, [n for n, _ in problems])).encode()
    wall_s = time.perf_counter() - t0

    result = {"setup_s": setup_s, "wall_s": wall_s, "bundle_bytes": len(data), "diagnostics": run.diagnostics}
    if args.write_bundle:
        # Round trip: the written bundle must load back to the same bytes.
        path = Path(args.write_bundle)
        path.write_bytes(data)
        templates, table, provenance = cli.load_bundle(path)
        again = cli.bundle_obj(templates, table, provenance["seed"], provenance["training_tasks"])
        result["round_trip"] = cli.canonical_json(again).encode() == data

    rows = []
    for report in run.reports:
        records = [h for h in run.history if h.problem == report.problem]
        solved = records[-1] if records and records[-1].correct else None
        rows.append({
            "task": report.problem,
            "wall_s": (report.t_ags_ms + report.t_domain_ms + report.t_transformers_ms) / 1000,
            "enumerated": sum(h.enumerated for h in records),
            "iterations": report.iterations,
            "program": str(solved.program) if solved else None,
        })
    result.update(rows=rows, **table_shape(atlas, run.templates, run.table))
    result["bundle_sha256"] = hashlib.sha256(data).hexdigest()
    result["iterations"] = sum(r.iterations for r in run.reports)
    if tracer:
        stats = tracer.stats
        result["driver"] = {
            "T_AGS_s": stats["synthesizer.run"].total_s,
            "T_A_s": stats["interpolation.learn_abstract_domain"].total_s,
            "T_T_s": stats["transformers.learn_transformers"].total_s,
        }
    return result


def synth(atlas, args, tracer, start):
    cli, domain, transformers = atlas.cli, atlas.domain, atlas.transformers
    tasks = [cli.load_task(p, MAX_AST_SIZE, MAX_CANDIDATES, None) for p in task_paths(args.workload)]
    if args.bundle:
        templates, table, _ = cli.load_bundle(Path(args.bundle))
    else:
        templates, table = [domain.TOP], transformers.top_table([transformers.concat_construct()])
    setup_s = time.perf_counter() - start
    if args.setup_only:
        return {"setup_s": setup_s}

    rows = []
    t0 = time.perf_counter()
    for name, task in tasks:
        t = time.perf_counter()
        res = atlas.synthesizer.Synthesizer(task, templates, table).run(require_correct=True)
        program = str(res.program) if res.program is not None else None
        rows.append({
            "task": name,
            "wall_s": time.perf_counter() - t,
            "enumerated": res.enumerated,
            "pruned": res.pruned_abstract,
            "deduped": res.deduped,
            "reason": res.reason,
            "program": program,
        })
    wall_s = time.perf_counter() - t0

    if args.bundle:
        data = Path(args.bundle).read_bytes()
    else:
        data = cli.canonical_json(cli.bundle_obj(templates, table, 0, [])).encode()
    result = {"setup_s": setup_s, "wall_s": wall_s, "bundle_bytes": len(data), "rows": rows}
    result.update(table_shape(atlas, templates, table))
    result["bundle_sha256"] = hashlib.sha256(data).hexdigest()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("train", "synth-bundle", "synth-top"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bundle", help="bundle file for synth-bundle")
    parser.add_argument("--write-bundle", help="train: write the learned bundle here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    # A set-up is too short to sample during; sample just before it.
    before = [time_reference_loop() for _ in range(15)]
    start = time.perf_counter()
    import atlas.cli  # imports every module of the package

    tracer = Tracer("atlas") if args.trace else None
    with tracer.installed(TARGETS) if tracer else nullcontext(), SpeedSampler() as sampler:
        workload = train if args.workload == "train" else synth
        result = workload(atlas, args, tracer, start)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["reference_s"] = statistics.mean(sampler.samples or before)
    result["setup_reference_s"] = statistics.median(before)
    if tracer:
        result["spans"] = {
            name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s, "observed": s.observed}
            for name, s in tracer.stats.items()
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
