"""Benchmark of the ATLAS reproduction: training cost and synthesis cost.

    python3 perfbench/run.py --workload train|synth-bundle|synth-top
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of the repository.  Every pass of a workload runs in a
fresh interpreter (``worker.py``), one task after another in sorted order.
The run times ``SETUP_REPEATS`` set-ups, half before and half after a
series of passes that lasts ``--seconds`` (at least one pass).  Times are
reported at a reference host speed (see ``at_reference_speed``).  With
``--trace 1`` it makes one plain pass and one traced pass instead, and
reports the per-layer metrics and the tracing overhead.

Every returned program is checked against the task file by the
independent interpreter in ``check.py``.  Every pass must give the same
fingerprint (bundle hash, templates, table size, programs and candidate
counts), and so must every later run of the same code at the same seed.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from worker import task_paths

HERE = Path(__file__).resolve().parent
STATE = HERE / ".state"
WORKLOADS = ("train", "synth-bundle", "synth-top")
SETUP_REPEATS = 11
# Times are reported at the host speed at which worker.reference_loop takes 1 ms.
REFERENCE_LOOP_S = 0.001
# A run must end within 180 s; leave room to report.
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "bundle_bytes": "bytes",
    "solved": "count",
    "enumerated": "count",
    "us_per_candidate": "us",
}

SPANS = (
    "synthesizer.run",
    "synthesizer.apply_transformer",
    "synthesizer.state_embeds",
    "transformers.generate_examples",
    "transformers.row_valid",
    "transformers.column_rank",
    "transformers.solve_linear",
    "transformers.check_valid",
    "transformers.apply_affine",
    "interpolation.learn_abstract_domain",
    "domain.best_abstraction",
    "domain.meet",
    "domain.gamma_contains",
    "dsl.eval_node",
    "cli.load_task",
    "cli.load_bundle",
)

PER_LAYER = {
    "driver.T_AGS_s": "s",
    "driver.T_A_s": "s",
    "driver.T_T_s": "s",
    "driver.iterations": "count",
    **{f"{span}.{kind}": unit for span in SPANS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "transformers.table_entries": "count",
    "transformers.slots_attempted": "count",
    "transformers.slots_filled": "count",
    "synthesizer.enumerated": "count",
    "synthesizer.pruned": "count",
    "synthesizer.deduped": "count",
    "synthesizer.prune_ratio": "ratio",
    "domain.best_abstraction.conjuncts_mean": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.key = source_key(root)

    def worker(self, *flags: str, workload: str = "") -> dict:
        workload = workload or self.workload
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(self.seed), *flags]
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} pass did not finish within {DEADLINE_S} s of the run") from None
        if proc.returncode != 0:
            raise BenchError(f"{workload} pass failed:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.splitlines()[-1])

    def state_file(self, kind: str, workload: str = "") -> Path:
        path = STATE / kind / f"{self.key}-{workload or self.workload}-seed{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def bundle_flags(self) -> list[str]:
        """synth-bundle runs under the bundle this code learns at the seed, trained once."""
        if self.workload != "synth-bundle":
            return []
        path = self.state_file("bundles", "train")
        if not path.exists():
            self.learn(path, workload="train")
        return ["--bundle", str(path)]

    def learn(self, path: Path, *flags: str, workload: str = "") -> dict:
        """A train pass that leaves its bundle at ``path``."""
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        result = self.worker("--write-bundle", str(tmp), *flags, workload=workload)
        os.replace(tmp, path)
        return result

    def run_pass(self, flags: list[str], *extra: str) -> dict:
        """One pass; a train pass also keeps its bundle for synth-bundle at the same seed."""
        if self.workload == "train":
            return self.learn(self.state_file("bundles"), *extra)
        return self.worker(*flags, *extra)


def source_key(root: Path) -> str:
    """Hash of the program and the benchmark: state is only reused for identical code."""
    digest = hashlib.sha256()
    for base in (root / "src" / "atlas", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts and STATE not in path.parents:
                digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def task_examples(workload: str) -> dict[str, list[tuple[str, str]]]:
    """Examples per task, read from the task files without the library."""
    examples = {}
    for path in task_paths(workload):
        obj = json.loads(path.read_text(encoding="utf-8"))
        examples[obj.get("name", path.stem)] = [(e["input"], e["output"]) for e in obj["examples"]]
    return examples


def fingerprint(result: dict) -> dict:
    return {
        "bundle_sha256": result["bundle_sha256"],
        "templates": result["templates"],
        "table_entries": result["table_entries"],
        "tasks": [{k: v for k, v in row.items() if k not in ("wall_s", "solved")} for row in result["rows"]],
    }


def verify(passes: list[dict], examples: dict, runner: Runner) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over all passes; marks each row ``solved``."""
    problems = []
    attempted = failed = 0
    for result in passes:
        for row in result["rows"]:
            attempted += 1
            program = row["program"]
            row["solved"] = program is not None and check.satisfies(program, examples[row["task"]])
            if program is not None and not row["solved"]:
                problems.append(f"{row['task']}: program {program} does not match the task's outputs")
                failed += 1
        failed += len(result.get("diagnostics", ()))
        if result.get("round_trip") is False:
            problems.append("the written bundle does not load back to the same bytes")
    prints = [fingerprint(r) for r in passes]
    if any(p != prints[0] for p in prints):
        problems.append("passes of the same code gave different fingerprints")
    stored = runner.state_file("fingerprints")
    if stored.exists():
        if json.loads(stored.read_text()) != prints[0]:
            problems.append(f"fingerprint differs from an earlier run of the same code ({stored})")
    else:
        write_atomic(stored, json.dumps(prints[0], indent=1, sort_keys=True))
    reference = HERE / "reference-seed0.json"
    if runner.seed == 0 and reference.exists():
        same = json.loads(reference.read_text()).get(runner.workload) == prints[0]
        print(f"fingerprint {'matches' if same else 'differs from'} {reference.name} (informational)")
    return not problems, attempted, failed, problems


def write_atomic(path: Path, text: str):
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """A measured time scaled to a host that runs the reference loop in REFERENCE_LOOP_S.

    The host's speed drifts by tens of percent over seconds and minutes; the
    reference loop, timed while the work ran, slows down with it.
    """
    return seconds * REFERENCE_LOOP_S / reference_s


def end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    first = passes[0]
    wall_s = statistics.median(at_reference_speed(p["wall_s"], p["reference_s"]) for p in passes)
    enumerated = sum(row["enumerated"] for row in first["rows"])
    return {
        "setup_s": statistics.median(at_reference_speed(s["setup_s"], s["setup_reference_s"]) for s in setups),
        "wall_s": wall_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "bundle_bytes": first["bundle_bytes"],
        "solved": sum(row["solved"] for row in first["rows"]),
        "enumerated": enumerated,
        "us_per_candidate": wall_s / enumerated * 1e6,
    }


def per_layer(plain: dict, traced: dict) -> dict:
    spans = traced["spans"]
    metrics = {f"driver.{k}": v for k, v in traced.get("driver", {}).items()}
    metrics["driver.iterations"] = traced.get("iterations", 0)
    for span in SPANS:
        stat = spans.get(span, {"calls": 0, "self_s": 0.0})
        metrics[f"{span}.calls"] = stat["calls"]
        metrics[f"{span}.self_s"] = stat["self_s"]
    for key in ("table_entries", "slots_attempted", "slots_filled"):
        metrics[f"transformers.{key}"] = traced[key]
    runs = spans["synthesizer.run"]["observed"]
    for key in ("enumerated", "pruned", "deduped"):
        metrics[f"synthesizer.{key}"] = runs.get(key, 0)
    metrics["synthesizer.prune_ratio"] = runs.get("pruned", 0) / max(runs.get("enumerated", 0), 1)
    best = spans["domain.best_abstraction"]
    metrics["domain.best_abstraction.conjuncts_mean"] = best["observed"].get("conjuncts", 0) / max(best["calls"], 1)
    plain_s, traced_s = (at_reference_speed(p["wall_s"], p["reference_s"]) for p in (plain, traced))
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_pct"] = 100 * (traced_s - plain_s) / plain_s
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)
    return metrics


def print_rows(runner: Runner, passes: list[dict]):
    """Per-task rows (informational), saved for the bundle-vs-top comparison."""
    rows = []
    for i, row in enumerate(passes[0]["rows"]):
        rows.append({
            "task": row["task"],
            "wall_s": statistics.median(at_reference_speed(p["rows"][i]["wall_s"], p["reference_s"]) for p in passes),
            "enumerated": row["enumerated"],
            "solved": row["solved"],
        })
    print(f"{runner.workload}, seed {runner.seed}, median of {len(passes)} pass(es), at reference speed:")
    print(f"  {'task':18} {'wall_s':>9} {'enumerated':>11} solved")
    for r in rows:
        print(f"  {r['task']:18} {r['wall_s']:9.4f} {r['enumerated']:11d} {'yes' if r['solved'] else 'no'}")
    print(f"  median task wall: {statistics.median(r['wall_s'] for r in rows):.4f} s over {len(rows)} tasks")
    measured = statistics.median(p["wall_s"] for p in passes)
    reference = statistics.median(p["reference_s"] for p in passes)
    print(f"  as measured: wall {measured:.4f} s, reference loop {reference * 1000:.4f} ms")
    write_atomic(runner.state_file("rows"), json.dumps(rows))
    if runner.workload.startswith("synth-"):
        print_comparison(runner)


def print_comparison(runner: Runner):
    sides = {}
    for workload in ("synth-bundle", "synth-top"):
        path = runner.state_file("rows", workload)
        if not path.exists():
            return
        sides[workload] = {r["task"]: r for r in json.loads(path.read_text())}
    bundle, top = sides["synth-bundle"], sides["synth-top"]
    print("bundle vs top, ratio = top / bundle (base: the bundle run):")
    print(f"  {'task':18} {'wall ratio':>10} {'enum ratio':>10}")
    wall_ratios, enum_ratios = [], []
    for task in sorted(bundle):
        b, t = bundle[task], top[task]
        if b["solved"] and t["solved"]:
            wall_ratios.append(t["wall_s"] / b["wall_s"])
            enum_ratios.append(t["enumerated"] / b["enumerated"])
            print(f"  {task:18} {wall_ratios[-1]:9.3g}x {enum_ratios[-1]:9.1f}x")
        else:
            print(f"  {task:18} {'-':>10} {'-':>10}  (solved: bundle {b['solved']}, top {t['solved']})")
    if wall_ratios:
        print(
            f"  median over {len(wall_ratios)} commonly solved tasks: wall {statistics.median(wall_ratios):.1f}x, "
            f"enumerated {statistics.median(enum_ratios):.1f}x"
        )


def print_spans(traced: dict):
    print("traced pass, spans by self time:")
    print(f"  {'span':40} {'calls':>10} {'self_s':>9} {'total_s':>9}")
    for name, s in sorted(traced["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:40} {s['calls']:10d} {s['self_s']:9.4f} {s['total_s']:9.4f}")


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    examples = task_examples(runner.workload)
    flags = runner.bundle_flags()
    if trace:
        passes = [runner.run_pass(flags)]
        traced = runner.run_pass(flags, "--trace")
        all_passes = passes + [traced]
    else:
        # Half the set-ups before the passes and half after, so that their
        # median spans the run rather than one moment of the host's speed.
        setups = [runner.worker(*flags, "--setup-only") for _ in range(SETUP_REPEATS // 2)]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(runner.run_pass(flags))
        setups += [runner.worker(*flags, "--setup-only") for _ in range(SETUP_REPEATS - len(setups))]
        all_passes = passes
    correct, attempted, failed, problems = verify(all_passes, examples, runner)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    print_rows(runner, passes)
    if trace:
        print_spans(traced)
        metrics, units = per_layer(passes[0], traced), PER_LAYER
    else:
        metrics, units = end_to_end(passes, setups), END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "atlas" / "__init__.py").is_file():
        print(f"error: {root} holds no src/atlas package; run from the repository root", file=sys.stderr)
        return 2
    try:
        report = measure(Runner(root, args.workload, args.seed), args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
