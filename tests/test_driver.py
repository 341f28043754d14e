import itertools

import pytest

from atlas import driver
from atlas.domain import (
    CHAR_EQ,
    CHAR_NEQ,
    ConstantPool,
    LEN_EQ,
    LEN_NEQ,
    TOP,
    gamma_contains,
)
from atlas.driver import TrainConfig, learn_abstractions
from atlas.dsl import concat, const, input_, print_program
from atlas.synthesizer import SynthesisTask, SynthResult, Synthesizer
from atlas.transformers import TransformerTable

from conftest import E1, E2, E3
from oracles import abstract_eval, is_correct


FULL_DOMAIN = {TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ}


class TestLearnAbstractions:
    def test_full_walkthrough_domain(self, trained):
        assert set(trained.templates) == FULL_DOMAIN
        assert trained.ok

    def test_e3_adds_no_templates(self, trained):
        e3_records = [h for h in trained.history if h.problem == "e3"]
        assert all(not h.templates_added for h in e3_records)
        assert all(h.correct for h in e3_records)

    def test_iteration_counts_bounded(self, trained):
        for r in trained.reports:
            assert r.iterations <= 10

    def test_e1_alone_learns_length_domain(self):
        run = learn_abstractions([("e1", E1)], TrainConfig(seed=0))
        assert {LEN_EQ, LEN_NEQ, TOP} <= set(run.templates)
        assert run.ok
        final = run.history[-1]
        assert final.correct and is_correct(final.program, E1)

    def test_empty_problem_list(self):
        run = learn_abstractions([], TrainConfig(seed=0))
        assert run.templates == [TOP]
        assert run.ok and run.history == []

    def test_spurious_programs_pairwise_distinct(self, trained):
        for name in ("e1", "e2", "e3"):
            spurious = [h.program for h in trained.history if h.problem == name and not h.correct]
            assert len({print_program(p) for p in spurious}) == len(spurious)


class TestProgress:
    def test_every_spurious_program_rejected_next_iteration(self, trained, training_problems):
        tasks = dict(training_problems)
        checked = 0
        for h in trained.history:
            if h.correct:
                continue
            task = tasks[h.problem]
            pool = ConstantPool.default(list(task.inputs) + list(task.outputs))
            e_in, e_out = h.violated_example
            state = abstract_eval(h.program, e_in, h.templates_after, h.table_after, pool)
            assert not gamma_contains(state, e_out), (
                f"{h.problem} iteration {h.iteration}: {print_program(h.program)} survived refinement"
            )
            checked += 1
        assert checked >= 3


class TestMonotonicity:
    def test_domain_grows_monotonically(self, trained):
        seen: set = set()
        for h in trained.history:
            current = set(h.templates_after)
            assert seen <= current
            seen = current


class TestIdempotence:
    def test_retraining_with_final_abstraction_takes_one_iteration(self, trained, training_problems):
        # Solve every training problem directly under the final abstraction:
        # the first synthesized program must already be correct.
        for name, task in training_problems:
            synth = Synthesizer(task, list(trained.templates), trained.table)
            result = synth.run(require_correct=False)
            assert result.program is not None
            assert is_correct(result.program, task), name


class TestReproducibility:
    def test_fixed_seed_identical_history(self, training_problems, trained):
        rerun = learn_abstractions(training_problems, TrainConfig(seed=0))
        first = [
            (h.problem, h.iteration, print_program(h.program), h.correct, [str(t) for t in h.templates_added])
            for h in trained.history
        ]
        second = [
            (h.problem, h.iteration, print_program(h.program), h.correct, [str(t) for t in h.templates_added])
            for h in rerun.history
        ]
        assert first == second

    def test_different_seed_still_converges(self, training_problems):
        run = learn_abstractions(training_problems, TrainConfig(seed=42))
        assert set(run.templates) == FULL_DOMAIN
        assert run.ok


class TestDiagnostics:
    def test_infeasible_problem_recorded_and_run_continues(self):
        impossible = SynthesisTask(examples=(("ab", "QRSTUVWXYZ123"),), max_ast_size=3, max_candidates=5000)
        run = learn_abstractions(
            [("impossible", impossible), ("e1", E1)], TrainConfig(seed=0)
        )
        assert any("impossible" in d for d in run.diagnostics)
        assert not run.ok
        # The remaining problem still trains.
        assert any(h.problem == "e1" and h.correct for h in run.history)


class TestTimings:
    def test_sub_millisecond_phases_are_summed_before_rounding(self, monkeypatch):
        # Every clock read advances 0.6 ms, so every phase lasts 0.6 ms.  The
        # synthesizer returns the spurious (input) three times, then a correct
        # program: four search phases and three domain and transformer phases.
        ticks = itertools.count(step=600_000)
        monkeypatch.setattr(driver, "perf_counter_ns", lambda: next(ticks))
        spurious, correct = input_(), concat(input_(), const("2018"))
        answers = iter([spurious] * 3 + [correct])

        class ScriptedSynthesizer:
            def __init__(self, task, templates, table):
                pass

            def run(self, require_correct):
                return SynthResult(program=next(answers), correct=None)

        monkeypatch.setattr(driver, "Synthesizer", ScriptedSynthesizer)
        monkeypatch.setattr(driver, "learn_abstract_domain", lambda program, examples: set())
        monkeypatch.setattr(driver, "learn_transformers", lambda *args: TransformerTable())
        (report,) = learn_abstractions([("e1", E1)], TrainConfig(seed=0)).reports
        assert report.iterations == 4
        assert report.t_domain_ms == 2  # 1.8 ms; per-phase truncation gave 0
        assert report.t_transformers_ms == 2
        assert report.t_ags_ms == 2  # 2.4 ms
        # The µs fields round the same ns sums.
        assert (report.t_domain_us, report.t_transformers_us, report.t_ags_us) == (1800, 1800, 2400)
