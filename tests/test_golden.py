"""Golden results at seed 0.

Training on e1-e3 with seed 0 and synthesizing the held-out tasks must give
the program and the enumerated / pruned / deduped counts recorded in
``perfbench/reference-seed0.json``: all tasks under the learned bundle, and
under the all-top table the tasks it solves within the candidate budget.
The top table's other tasks must exhaust the budget with the recorded
counts.  A change to the abstract hot path that alters pruning or dedup
shows here.
"""

import json
from pathlib import Path

import pytest

from atlas.cli import load_task
from atlas.corpus import eval_task_paths, training_task_paths
from atlas.domain import TOP
from atlas.driver import TrainConfig, learn_abstractions
from atlas.synthesizer import Synthesizer
from atlas.transformers import TransformerTable

REFERENCE = json.loads((Path(__file__).parent.parent / "perfbench" / "reference-seed0.json").read_text())


def load(path: Path):
    # The CLI defaults, without a timeout: results must not depend on speed.
    return load_task(path, 14, 200_000, None)


def expected(workload: str) -> dict:
    return {
        t["task"]: (t["program"], t["enumerated"], t["pruned"], t["deduped"])
        for t in REFERENCE[workload]["tasks"]
        if t["reason"] == "found"
    }


def budget_exits(workload: str) -> dict:
    return {
        t["task"]: (t["reason"], t["enumerated"], t["pruned"], t["deduped"])
        for t in REFERENCE[workload]["tasks"]
        if t["reason"] != "found"
    }


def found_row(r) -> tuple:
    return (str(r.program) if r.program else None, r.enumerated, r.pruned_abstract, r.deduped)


def exit_row(r) -> tuple:
    return (r.reason, r.enumerated, r.pruned_abstract, r.deduped)


def synthesize_all(templates, table, names, row=found_row) -> dict:
    got = {}
    for name, task in map(load, eval_task_paths()):
        if name in names:
            r = Synthesizer(task, templates, table).run(require_correct=True)
            got[name] = row(r)
    return got


@pytest.fixture(scope="module")
def trained():
    return learn_abstractions([load(p) for p in training_task_paths()], TrainConfig(seed=0))


def test_bundle_programs_and_counts(trained):
    want = expected("synth-bundle")
    assert len(want) == len(eval_task_paths()) == 15
    assert [str(t) for t in sorted(trained.templates)] == REFERENCE["synth-bundle"]["templates"]
    assert synthesize_all(trained.templates, trained.table, want) == want


def test_top_table_programs_and_counts():
    want = expected("synth-top")
    assert len(want) == 10
    assert synthesize_all([TOP], TransformerTable(), want) == want


def test_top_table_budget_exits():
    want = budget_exits("synth-top")
    assert len(want) == 5
    assert synthesize_all([TOP], TransformerTable(), want, exit_row) == want
