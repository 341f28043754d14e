"""Command-line entry points: train, synth, bench, dump-itp.

Exit codes: 0 success, 1 no program found, 2 training diagnostic,
3 usage error, 4 I/O or format error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .domain import CHAR_NEQ, TOP, TemplateKind, template_from_text, template_to_text
from .driver import TrainConfig, learn_abstractions
from .dsl import EvalError, ParseError, parse_program, print_program
from .interpolation import NotSpurious, construct_tree, dump_tree, find_tree_itp
from .synthesizer import SynthesisTask, Synthesizer
from .transformers import TransformerTable, check_valid, inputs_text, json_array, transformer_from_obj, transformer_to_obj

USAGE_ERROR = 3
IO_ERROR = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = IO_ERROR):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message, USAGE_ERROR)


# ---------------------------------------------------------------------------
# File formats


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def write_text(path: Path, text: str, mode: str = "w"):
    """Write (mode "w") or append (mode "a") ``text``; an OSError exits 4."""
    try:
        with open(path, mode, encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"{path}: {exc}") from exc


def write_json(path: Path, obj):
    write_text(path, canonical_json(obj))


def output_dir(path: str) -> Path:
    """Make the output directory ``path`` with its missing parents; an
    OSError exits 4.  Commands call it before their work, so an unusable
    output fails at once."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"{out}: {exc}") from exc
    return out


def read_json(path: Path):
    """The JSON value in ``path``.  A file that cannot be read, is not
    UTF-8, is not JSON, holds an integer too long to convert or nests too
    deeply to decode exits 4."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise CliError(f"{path}: {exc}") from exc


def load_task(path: Path, max_ast_size: int, max_candidates: int, timeout_ms: Optional[int]) -> tuple[str, SynthesisTask]:
    obj = read_json(path)
    try:
        examples = tuple((e["input"], e["output"]) for e in obj["examples"])
        name = obj.get("name", path.stem)
        literals = obj.get("literals", [])
    except (KeyError, TypeError) as exc:
        raise CliError(f"{path}: malformed task file ({exc})") from exc
    if not examples:
        raise CliError(f"{path}: task has no examples")
    if not isinstance(name, str):
        raise CliError(f"{path}: task name must be a string")
    if not isinstance(literals, list):
        raise CliError(f"{path}: task literals must be a list of strings")
    strings = [s for e in examples for s in e] + literals
    if not all(isinstance(s, str) for s in strings):
        raise CliError(f"{path}: example inputs, outputs and literals must be strings")
    try:
        # A lone surrogate such as "\ud800" is valid JSON, but no output can print or write it.
        "".join([name, *strings]).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CliError(f"{path}: task strings must be valid Unicode ({exc})") from exc
    task = SynthesisTask(
        examples=examples,
        max_ast_size=max_ast_size,
        max_candidates=max_candidates,
        literals=tuple(literals),
        timeout_ms=timeout_ms,
    )
    return name, task


def bundle_obj(templates, table: TransformerTable, seed: int, task_names: list[str]) -> dict:
    return {
        "templates": [template_to_text(t) for t in sorted(set(templates))],
        "transformers": [transformer_to_obj(t) for t in table.all()],
        "provenance": {
            "seed": seed,
            "tool_version": __version__,
            "training_tasks": sorted(task_names),
        },
    }


def load_bundle(path: Path) -> tuple[list[TemplateKind], TransformerTable, dict]:
    obj = read_json(path)
    try:
        templates = [template_from_text(t) for t in json_array(obj["templates"], "templates")]
        for i, t in enumerate(templates):
            if t in templates[:i]:
                raise ValueError(f"template {template_to_text(t)} is listed twice")
        # Every entry is checked, with or without outputs, before the table
        # drops the empty ones and normalization the redundant outputs that
        # a hand-edited bundle may hold.
        entries = [transformer_from_obj(t) for t in json_array(obj["transformers"], "transformers")]
        known = {TOP, *templates}
        for t in entries:
            outputs = [chi for chi, _ in t.outputs]
            # The synthesizer abstracts leaves with the bundle's templates,
            # so an entry that reads or derives another template is not of
            # its domain; a top output derives nothing.
            if not known.issuperset([*t.inputs, *outputs]):
                raise ValueError(f"transformer {inputs_text(t.inputs)} names a template the bundle does not have")
            if TOP in outputs:
                raise ValueError(f"transformer {inputs_text(t.inputs)} has a top output")
            # ``check_valid``'s box passes unsound ones: (char i = c),top -> (char i != c), [[1, 0, 0], [0, 0, 0]].
            if CHAR_NEQ in outputs:
                raise ValueError(f"transformer {inputs_text(t.inputs)} has a {CHAR_NEQ} output")
        # The table rejects a second entry for the same inputs.
        table = TransformerTable(entries).normalized()
        provenance = obj.get("provenance", {})
        training_tasks = provenance.get("training_tasks", [])
        if not isinstance(training_tasks, list) or not all(isinstance(n, str) for n in training_tasks):
            raise ValueError("provenance training_tasks must be a list of strings")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: malformed bundle ({exc})") from exc
    # A hand-edited matrix would prune correct programs silently.
    for t in table.all():
        for chi, matrix in t.outputs:
            if not check_valid(t.inputs, chi, matrix):
                inputs = inputs_text(t.inputs)
                rows = [list(row) for row in matrix]
                raise CliError(f"{path}: refuted transformer {inputs} -> {template_to_text(chi)} with matrix {rows}")
    return templates, table, provenance


def run_log_entry(name: str, result, program_text: Optional[str]) -> dict:
    return {
        "task": name,
        "enumerated": result.enumerated,
        "pruned_abstract": result.pruned_abstract,
        "deduped": result.deduped,
        "result_program": program_text,
        "correct": bool(result.correct) if result.program is not None else False,
        "wall_us": result.wall_us,
    }


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args) -> int:
    problems = [load_task(Path(p), args.max_size, args.max_candidates, args.timeout_ms) for p in args.tasks]
    out_dir = output_dir(args.output)
    run = learn_abstractions(problems, TrainConfig(seed=args.seed))

    write_json(out_dir / "bundle.json", bundle_obj(run.templates, run.table, args.seed, [n for n, _ in problems]))
    report = {
        "seed": args.seed,
        "templates": [template_to_text(t) for t in sorted(set(run.templates))],
        "problems": [
            {
                "problem": r.problem,
                "iterations": r.iterations,
                "templates_added": r.templates_added,
                "table_size": r.table_size,
                "diagnostic": r.diagnostic,
            }
            for r in run.reports
        ],
        "diagnostics": run.diagnostics,
    }
    write_json(out_dir / "report.json", report)
    timings = {
        "problems": [
            {
                "problem": r.problem,
                "T_AGS_us": r.t_ags_us,
                "T_A_us": r.t_domain_us,
                "T_T_us": r.t_transformers_us,
            }
            for r in run.reports
        ]
    }
    write_json(out_dir / "timings.json", timings)
    for line in run.diagnostics:
        print(f"warning: {line}", file=sys.stderr)
    print(f"trained {len(problems)} problem(s); {len(run.templates)} templates -> {out_dir}/bundle.json")
    return 0 if run.ok else 2


def _load_bundle_or_top(args) -> tuple[list[TemplateKind], TransformerTable]:
    if args.baseline_top:
        return [TOP], TransformerTable()
    return load_bundle(Path(args.bundle))[:2]


def cmd_synth(args) -> int:
    name, task = load_task(Path(args.task), args.max_size, args.max_candidates, args.timeout_ms)
    templates, table = _load_bundle_or_top(args)
    if args.log:
        # Opened for append before the search, so that an unusable log fails at once.
        write_text(Path(args.log), "", "a")
    result = Synthesizer(task, templates, table).run(require_correct=True)
    text = print_program(result.program) if result.program else None
    entry = run_log_entry(name, result, text)
    log_line = json.dumps(entry, sort_keys=True)
    if args.log:
        write_text(Path(args.log), log_line + "\n", "a")
    else:
        print(log_line, file=sys.stderr)
    if result.program is None or not result.correct:
        print(f"no program found ({result.reason})", file=sys.stderr)
        return 1
    print(text)
    return 0


def _print_bench_row(r: dict):
    if "error" in r:
        print(f"{r['task']:24} error: {r['error']}")
        return
    b = r["bundle"]["enumerated"] if r["bundle"]["correct"] else "-"
    t = r["baseline"]["enumerated"] if r["baseline"]["correct"] else "-"
    ratio = f"{r['ratio']:.1f}x" if r["ratio"] else "-"
    print(f"{r['task']:24} {b!s:>9} {t!s:>9} {ratio:>8}")


def cmd_bench(args) -> int:
    """Compare the bundle with the top table on every task of the corpus.

    A row is marked ``training`` when its task is one the bundle was trained
    on (``provenance.training_tasks``); the aggregate covers the other,
    held-out rows only, and the training rows are printed apart.
    """
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise CliError(f"{corpus}: not a directory")
    task_files = sorted(corpus.glob("*.json"))
    templates, table, provenance = load_bundle(Path(args.bundle))
    training_tasks = set(provenance.get("training_tasks", []))
    baseline = TransformerTable()
    out_dir = output_dir(args.output)

    rows = []
    log_lines = []
    for path in task_files:
        try:
            name, task = load_task(path, args.max_size, args.max_candidates, args.timeout_ms)
        except CliError as exc:
            rows.append({"task": path.stem, "error": str(exc)})
            continue
        per_mode = {}
        for mode, (tpl, tbl) in {"bundle": (templates, table), "baseline": ([TOP], baseline)}.items():
            result = Synthesizer(task, tpl, tbl).run(require_correct=True)
            text = print_program(result.program) if result.program else None
            entry = run_log_entry(name, result, text)
            entry["mode"] = mode
            log_lines.append(entry)
            per_mode[mode] = entry
        ratio = wall_ratio = None
        bundle, base = per_mode["bundle"], per_mode["baseline"]
        if bundle["correct"] and base["correct"]:
            ratio = base["enumerated"] / max(1, bundle["enumerated"])
            wall_ratio = base["wall_us"] / max(1, bundle["wall_us"])
        rows.append({"task": name, "bundle": bundle, "baseline": base, "ratio": ratio, "wall_ratio": wall_ratio})
    for r in rows:
        r["training"] = r["task"] in training_tasks

    held_out = [r for r in rows if not r["training"]]
    solved_bundle = sum(1 for r in held_out if r.get("bundle", {}).get("correct"))
    solved_baseline = sum(1 for r in held_out if r.get("baseline", {}).get("correct"))
    ratios = [r["ratio"] for r in held_out if r.get("ratio") is not None]
    wall_ratios = [r["wall_ratio"] for r in held_out if r.get("wall_ratio") is not None]
    aggregate = {
        "tasks": len(held_out),
        "solved_bundle": solved_bundle,
        "solved_baseline": solved_baseline,
        "commonly_solved": len(ratios),
        "median_enumeration_ratio": statistics.median(ratios) if ratios else None,
        "median_wall_ratio": statistics.median(wall_ratios) if wall_ratios else None,
    }
    report = {"aggregate": aggregate, "tasks": rows}
    write_json(out_dir / "bench_report.json", report)
    write_text(out_dir / "bench_log.jsonl", "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in log_lines))

    header = f"{'task':24} {'bundle':>9} {'baseline':>9} {'ratio':>8}"
    print(header)
    print("-" * len(header))
    for r in held_out:
        _print_bench_row(r)
    med, med_wall = aggregate["median_enumeration_ratio"], aggregate["median_wall_ratio"]
    summary = f"solved: bundle {solved_bundle}/{len(held_out)}, baseline {solved_baseline}/{len(held_out)}"
    if med is not None:
        summary += f"; median ratio {med:.1f}x, median wall ratio {med_wall:.2f}x"
    else:
        summary += "; no commonly solved tasks"
    print(summary)
    training = [r for r in rows if r["training"]]
    if training:
        print("the bundle's training tasks, not in the aggregate:")
        for r in training:
            _print_bench_row(r)
    return 0


def cmd_dump_itp(args) -> int:
    # Only the examples are read; no search runs, so the bounds are the defaults.
    _, task = load_task(Path(args.task), SynthesisTask.max_ast_size, SynthesisTask.max_candidates, None)
    try:
        program = parse_program(args.program)
    except ParseError as exc:
        raise CliError(f"bad program: {exc}", USAGE_ERROR) from exc
    for e_in, e_out in task.examples:
        try:
            tree = construct_tree(program, e_in, e_out)
        except (NotSpurious, EvalError):
            continue  # satisfied, or fails to run: no fact-level proof to dump
        itp = find_tree_itp(tree)
        print(dump_tree(tree, itp))
        return 0
    print("program satisfies or fails on every example; nothing to refute", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="atlas", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-size", type=_positive_int, default=14, help="maximum AST size")
        p.add_argument("--max-candidates", type=_positive_int, default=200_000)
        p.add_argument("--timeout-ms", type=_positive_int, default=60_000)

    p_train = sub.add_parser("train", help="learn an abstraction bundle from task files")
    p_train.add_argument("tasks", nargs="+")
    p_train.add_argument("-o", "--output", required=True)
    p_train.add_argument("--seed", type=int, default=0)
    common(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_synth = sub.add_parser("synth", help="synthesize a program for one task")
    p_synth.add_argument("task")
    abstraction = p_synth.add_mutually_exclusive_group(required=True)
    abstraction.add_argument("--bundle")
    abstraction.add_argument("--baseline-top", action="store_true")
    p_synth.add_argument("--log")
    common(p_synth)
    p_synth.set_defaults(fn=cmd_synth)

    p_bench = sub.add_parser("bench", help="compare bundle vs top baseline over a corpus")
    p_bench.add_argument("corpus")
    p_bench.add_argument("--bundle", required=True)
    p_bench.add_argument("-o", "--output", default="bench_out")
    common(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_dump = sub.add_parser("dump-itp", help="dump the interpolation tree for a spurious program")
    p_dump.add_argument("task")
    p_dump.add_argument("--program", required=True)
    p_dump.set_defaults(fn=cmd_dump_itp)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
