"""The library calls that the benchmark's worker (``perfbench/worker.py``) makes.

The worker is imported as it is, with its directory on ``sys.path``, and
driven through the calls it makes, so a rename or deletion in ``src/atlas``
that would break the benchmark fails here.
"""

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

import pytest

import atlas
import atlas.cli
from atlas.corpus import corpus_dir

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bench_module(name: str):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def worker():
    module = bench_module("worker")
    module.CORPUS = corpus_dir()
    return module


def worker_args(workload, **kwargs):
    defaults = dict(seed=0, bundle=None, write_bundle=None, setup_only=False, trace=False)
    return argparse.Namespace(workload=workload, **{**defaults, **kwargs})


def test_every_traced_target_resolves(worker):
    from spans import Tracer

    for module_name, attribute, *_ in worker.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attribute)
    with Tracer("atlas").installed(worker.TARGETS) as tracer:
        assert len(tracer.stats) == len(worker.TARGETS)
    assert not hasattr(atlas.domain.meet, "__wrapped__")


def test_top_table_and_train_config_calls(worker):
    transformers = atlas.transformers
    table = transformers.top_table([transformers.concat_construct()])
    shape = worker.table_shape(atlas, [atlas.domain.TOP], table)
    # The all-top table is empty.
    assert shape == {"templates": ["top"], "table_entries": 0, "slots_attempted": 0, "slots_filled": 0}
    assert atlas.driver.TrainConfig(seed=0).seed == 0


def test_train_pass_and_bundle_set_up(worker, tmp_path):
    bundle = tmp_path / "bundle.json"
    result = worker.train(atlas, worker_args("train", write_bundle=str(bundle)), None, time.perf_counter())
    assert result["round_trip"] and result["diagnostics"] == []
    assert result["bundle_bytes"] == bundle.stat().st_size
    assert [row["task"] for row in result["rows"]] == ["e1", "e2", "e3"]
    for workload, path in (("synth-bundle", str(bundle)), ("synth-top", None)):
        setup = worker.synth(atlas, worker_args(workload, bundle=path, setup_only=True), None, time.perf_counter())
        assert set(setup) == {"setup_s"}


def check_traced_synth_pass(worker, monkeypatch, workload, bundle=None):
    """Drive one traced ``worker.synth`` pass over two quick eval tasks and
    check its programs and its hot spans.

    A refactor that moved a hot call out of the tracer's reach would leave
    its span empty here.
    """
    from spans import Tracer

    satisfies = bench_module("check").satisfies
    paths = [corpus_dir() / f"{name}.json" for name in ("eval_backup", "eval_quote")]
    monkeypatch.setattr(worker, "task_paths", lambda workload: paths)
    with Tracer("atlas").installed(worker.TARGETS) as tracer:
        result = worker.synth(atlas, worker_args(workload, bundle=bundle, trace=True), tracer, time.perf_counter())
    assert [row["task"] for row in result["rows"]] == ["eval_backup", "eval_quote"]
    for row, path in zip(result["rows"], paths):
        examples = [(e["input"], e["output"]) for e in json.loads(path.read_text())["examples"]]
        assert row["program"] is not None and satisfies(row["program"], examples), row
    for name in ("synthesizer.run", "synthesizer.apply_transformer", "synthesizer.state_embeds", "domain.gamma_contains"):
        assert tracer.stats[name].calls > 0, name


def test_traced_synth_pass_under_the_top_table(worker, monkeypatch):
    check_traced_synth_pass(worker, monkeypatch, "synth-top")


def test_traced_synth_pass_under_a_trained_bundle(worker, monkeypatch, tmp_path):
    # Under the bundle, the states reach the compiled rules and the embed test.
    bundle = tmp_path / "bundle.json"
    worker.train(atlas, worker_args("train", write_bundle=str(bundle)), None, time.perf_counter())
    check_traced_synth_pass(worker, monkeypatch, "synth-bundle", str(bundle))
