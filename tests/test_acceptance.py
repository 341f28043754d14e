"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from atlas.cli import main
from atlas.corpus import corpus_dir, eval_task_paths, training_task_paths
from atlas.domain import (
    CHAR_EQ,
    CHAR_NEQ,
    ConstantPool,
    LEN_EQ,
    LEN_NEQ,
    TOP,
    TemplateKind,
    gamma_contains,
)
from atlas.driver import TrainConfig, learn_abstractions
from atlas.dsl import Program, concat, const, input_, print_program
from atlas.interpolation import construct_tree, find_tree_itp
from atlas.transformers import solve_linear

from conftest import E1, E2, E3
from oracles import abstract_eval, as_matrix, check_interpolant


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def walkthrough():
    problems = [("e1", E1), ("e2", E2), ("e3", E3)]
    start = time.monotonic()
    run = learn_abstractions(problems, TrainConfig(seed=0))
    return run, time.monotonic() - start


def test_criterion_1_walkthrough_reproduction(walkthrough):
    run, elapsed = walkthrough
    expected = {TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ}
    ok = set(run.templates) == expected and run.ok
    e3_added = [t for h in run.history if h.problem == "e3" for t in h.templates_added]
    ok = ok and not e3_added
    ok = ok and all(r.iterations <= 10 for r in run.reports)
    ok = ok and elapsed < 60.0
    report(
        "criterion 1: walkthrough training yields the five-template domain",
        ok,
        f"templates={sorted(str(t) for t in run.templates)}, "
        f"iters={[r.iterations for r in run.reports]}, {elapsed:.1f}s",
    )


def test_criterion_2_concat_table(walkthrough):
    run, _ = walkthrough
    table = run.table
    one_one_zero = as_matrix([[1, 1, 0]])

    def outputs(k1, k2):
        entry = table.lookup((k1, k2))
        return set(entry.outputs) if entry else set()  # a missing entry has no outputs

    K = TemplateKind
    checks = [
        outputs(K.LEN_EQ, K.LEN_EQ) == {(K.LEN_EQ, one_one_zero)},
        outputs(K.LEN_EQ, K.LEN_NEQ) == {(K.LEN_NEQ, one_one_zero)},
        outputs(K.LEN_NEQ, K.LEN_EQ) == {(K.LEN_NEQ, one_one_zero)},
        outputs(K.LEN_NEQ, K.LEN_NEQ) == set(),
        outputs(K.TOP, K.LEN_EQ) == set() and outputs(K.TOP, K.LEN_NEQ) == set(),
        outputs(K.LEN_EQ, K.TOP) == set() and outputs(K.LEN_NEQ, K.TOP) == set(),
        outputs(K.TOP, K.TOP) == set(),
    ]
    report(
        "criterion 2: learned concat transformers match the six length-domain rows",
        all(checks),
        f"equality row exact P=[1,1,0]: {checks[0]}",
    )


def test_criterion_3_linear_solve_golden():
    p = solve_linear(as_matrix([[3, 2, 1], [1, 4, 1], [6, 4, 1]]), as_matrix([[5], [5], [10]]))
    ok = p == ((Fraction(1), Fraction(1), Fraction(0)),)
    report("criterion 3: rational solve of the worked system gives P=[1,1,0]", ok, f"P={p}")


def test_criterion_4_interpolation_golden():
    program = Program(concat(input_(), const("18")))
    tree = construct_tree(program, "CAV", "CAV2018")
    itp = find_tree_itp(tree)
    top_ann = itp.at(tree.child_of_root().uid)
    ok = (
        itp.at(tree.root) is False
        and str(top_ann) == "(len != 7)"
        and check_interpolant(tree, itp)
    )
    report("criterion 4: tree interpolant for the suffix program", ok, f"root child: {top_ann}")


def _fuzz_transformer(entry, rng, pool, trials):
    """Independent implication check: inputs & concrete run => outputs."""
    alphabet = "abz019.-\\"

    for _ in range(trials):
        args = []
        constants = []
        ok = True
        for t in entry.inputs:
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
            if t is LEN_EQ:
                constants.append(len(s))
            elif t is LEN_NEQ:
                k = rng.randint(0, 16)
                if k == len(s):
                    k += 1
                constants.append(k)
            elif t is CHAR_EQ:
                if not s:
                    ok = False
                    break
                i = rng.randrange(len(s))
                constants.extend([i, ord(s[i])])
            elif t is CHAR_NEQ:
                i = rng.randrange(16)
                c = ord(rng.choice(alphabet))
                if i < len(s) and ord(s[i]) == c:
                    c = c + 1
                constants.extend([i, c])
            args.append(s)
        if not ok:
            continue
        out_val = args[0] + args[1]
        vec = constants + [1]
        for chi, matrix in entry.outputs:
            predicted = tuple(sum(f * v for f, v in zip(row, vec)) for row in matrix)
            pred = chi.instantiate(predicted)
            if not gamma_contains(pred, out_val):
                return f"concat{tuple(t.value for t in entry.inputs)} -> {pred} on {args!r}"
    return None


def test_criterion_5_transformer_soundness_fuzz(walkthrough):
    run, _ = walkthrough
    rng = random.Random(0xACCE55)
    pool = ConstantPool.default(["CAV2018", "510-220-5586"])
    failures = []
    checked = 0
    for entry in run.table.all():
        checked += 1
        failure = _fuzz_transformer(entry, rng, pool, trials=10_000)
        if failure:
            failures.append(failure)
    report(
        "criterion 5: 10,000-sample soundness fuzz over the trained table",
        not failures,
        f"{checked} transformers checked" + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_6_progress_property(walkthrough):
    run, _ = walkthrough
    tasks = {"e1": E1, "e2": E2, "e3": E3}
    total = rejected = 0
    for h in run.history:
        if h.correct:
            continue
        total += 1
        task = tasks[h.problem]
        pool = ConstantPool.default(list(task.inputs) + list(task.outputs))
        e_in, e_out = h.violated_example
        state = abstract_eval(h.program.root, e_in, h.templates_after, h.table_after, pool)
        if not gamma_contains(state, e_out):
            rejected += 1
    report(
        "criterion 6: every recorded spurious program is rejected after refinement",
        total > 0 and rejected == total,
        f"{rejected}/{total} rejected",
    )


def test_criterion_7_pruning_benefit(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for p in eval_task_paths():
        (corpus / p.name).write_text(p.read_text())
    bundle_dir = tmp_path / "bundle"
    tasks = [str(p) for p in training_task_paths()]
    assert main(["train", *tasks, "-o", str(bundle_dir), "--seed", "0"]) == 0

    out = tmp_path / "bench"
    start = time.monotonic()
    assert main(["bench", str(corpus), "--bundle", str(bundle_dir / "bundle.json"), "-o", str(out)]) == 0
    elapsed = time.monotonic() - start

    agg = json.loads((out / "bench_report.json").read_text())["aggregate"]
    ok = (
        agg["tasks"] >= 12
        and agg["solved_bundle"] >= agg["solved_baseline"]
        and agg["commonly_solved"] > 0
        and agg["median_enumeration_ratio"] is not None
        and agg["median_enumeration_ratio"] >= 5.0
        and elapsed < 300.0
    )
    report(
        "criterion 7: bundle beats the top baseline on the held-out corpus",
        ok,
        f"solved {agg['solved_bundle']} vs {agg['solved_baseline']}, "
        f"median ratio {agg['median_enumeration_ratio']:.1f}x, sweep {elapsed:.0f}s",
    )


def test_criterion_8_deterministic_training(tmp_path):
    tasks = [str(p) for p in training_task_paths()]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", *tasks, "-o", str(a), "--seed", "11"]) == 0
    assert main(["train", *tasks, "-o", str(b), "--seed", "11"]) == 0
    same_bundle = (a / "bundle.json").read_bytes() == (b / "bundle.json").read_bytes()
    same_report = (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    report(
        "criterion 8: identical seeds give byte-identical bundles and reports",
        same_bundle and same_report,
        f"bundle={same_bundle}, report={same_report}",
    )
