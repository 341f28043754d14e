"""Top-level training loop.

Starting from the trivial domain, each training problem is attempted with
the current abstraction; a spurious result is interpolated into new
predicate templates, the transformer table for concat (the only construct
whose abstract semantics the synthesizer looks up) is rebuilt, and the
problem is retried.  The loop per problem ends on a correct program (or a
null result from the synthesizer), with an iteration cap guarding against
non-progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Optional

from .domain import TOP, ConstantPool, TemplateKind
from .dsl import Program
from .interpolation import learn_abstract_domain
from .synthesizer import SynthesisTask, Synthesizer, satisfies
from .transformers import SamplingOracle, TransformerTable, learn_transformers

# Refinements of one problem before it is given up as ``NonProgress``.
MAX_ITERATIONS_PER_PROBLEM = 25


@dataclass
class TrainConfig:
    seed: int = 0


@dataclass
class IterationRecord:
    problem: str
    iteration: int
    program: Program
    correct: bool
    violated_example: Optional[tuple[str, str]]
    templates_added: list[TemplateKind]
    table_size: int
    enumerated: int
    # Abstraction state after this iteration's refinement (for the spurious
    # case this is the abstraction that must reject the program).
    templates_after: list[TemplateKind] = field(default_factory=list)
    table_after: Optional[TransformerTable] = None


@dataclass
class ProblemReport:
    problem: str
    iterations: int
    templates_added: list[str]
    table_size: int
    # Phase times in whole ms, which the benchmark's worker
    # (``perfbench/worker.py``) reads; timings.json has the µs below.
    t_ags_ms: int = 0
    t_domain_ms: int = 0
    t_transformers_ms: int = 0
    t_ags_us: int = 0
    t_domain_us: int = 0
    t_transformers_us: int = 0
    diagnostic: Optional[str] = None


@dataclass
class TrainingRun:
    templates: list[TemplateKind]
    table: TransformerTable
    history: list[IterationRecord]
    reports: list[ProblemReport]
    diagnostics: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def corpus_alphabet(tasks: list[tuple[str, SynthesisTask]]) -> str:
    chars = set()
    for _, task in tasks:
        for s in list(task.inputs) + list(task.outputs):
            chars.update(s)
    return "".join(sorted(chars))


def learn_abstractions(
    problems: list[tuple[str, SynthesisTask]],
    cfg: TrainConfig,
) -> TrainingRun:
    """Run the full training loop over the given problems in order."""
    alphabet = corpus_alphabet(problems)
    oracle = SamplingOracle(cfg.seed, alphabet)
    learn_pool = ConstantPool.default(
        [s for _, t in problems for s in list(t.inputs) + list(t.outputs)]
    )
    slot_cache: dict = {}

    templates: list[TemplateKind] = [TOP]
    table = TransformerTable()
    history: list[IterationRecord] = []
    reports: list[ProblemReport] = []
    diagnostics: list[str] = []

    for name, task in problems:
        report = ProblemReport(problem=name, iterations=0, templates_added=[], table_size=len(table))
        # Phase times in ns, rounded to ms once per problem: per-iteration
        # truncation would count every sub-millisecond phase as 0.
        t_ags = t_domain = t_transformers = 0
        iteration = 0
        while True:
            iteration += 1
            if iteration > MAX_ITERATIONS_PER_PROBLEM:
                report.diagnostic = "NonProgress"
                diagnostics.append(f"NonProgress on {name}: iteration cap {MAX_ITERATIONS_PER_PROBLEM} hit")
                break
            t0 = perf_counter_ns()
            synth = Synthesizer(task, templates, table)
            result = synth.run(require_correct=False)
            t_ags += perf_counter_ns() - t0

            if result.program is None:
                report.diagnostic = "InfeasibleProblem"
                diagnostics.append(f"InfeasibleProblem on {name}: synthesizer returned null ({result.reason})")
                break

            violated = next((ex for ex in task.examples if not satisfies(result.program, ex)), None)
            if violated is None:
                history.append(
                    IterationRecord(
                        name, iteration, result.program, True, None, [], len(table),
                        result.enumerated, list(templates), table,
                    )
                )
                break

            t0 = perf_counter_ns()
            new_templates = learn_abstract_domain(result.program, list(task.examples))
            t_domain += perf_counter_ns() - t0
            added = sorted(t for t in new_templates if t not in templates)
            templates = sorted(set(templates) | new_templates)

            t0 = perf_counter_ns()
            table = learn_transformers(templates, oracle, learn_pool, slot_cache)
            t_transformers += perf_counter_ns() - t0

            history.append(
                IterationRecord(
                    name, iteration, result.program, False, violated, added, len(table),
                    result.enumerated, list(templates), table,
                )
            )
            report.templates_added.extend(str(t) for t in added)
        report.iterations = iteration
        report.table_size = len(table)
        report.t_ags_ms = round(t_ags / 1_000_000)
        report.t_domain_ms = round(t_domain / 1_000_000)
        report.t_transformers_ms = round(t_transformers / 1_000_000)
        report.t_ags_us = round(t_ags / 1_000)
        report.t_domain_us = round(t_domain / 1_000)
        report.t_transformers_us = round(t_transformers / 1_000)
        reports.append(report)

    return TrainingRun(templates=templates, table=table, history=history, reports=reports, diagnostics=diagnostics)

