"""The library calls that the benchmark's worker (``perfbench/worker.py``) makes.

The worker is imported as it is, with its directory on ``sys.path``, and
driven through the calls it makes, so a rename or deletion in ``src/atlas``
that would break the benchmark fails here.
"""

import argparse
import importlib
import sys
import time
from pathlib import Path

import pytest

import atlas
import atlas.cli
from atlas.corpus import corpus_dir

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, str(BENCH))
    try:
        module = importlib.import_module("worker")
    finally:
        sys.path.remove(str(BENCH))
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
    assert shape == {"templates": ["top"], "table_entries": 1, "slots_attempted": 0, "slots_filled": 0}
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
