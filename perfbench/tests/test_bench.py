"""Tests for the benchmark's own code: output checker, span tracer, speed sampler.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

import json
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# Independent interpreter


@pytest.mark.parametrize(
    "text, x, expected",
    [
        ("(input)", "abc", "abc"),
        ('(const "a\\"b\\\\c")', "", 'a"b\\c'),
        ('(concat (input) (const ".bak"))', "notes", "notes.bak"),
        ("(substr (input) (abspos 1) (abspos -1))", "[x]", "x]"),
        ("(substr (input) (abspos 0) (abspos -2))", "[x]", "[x"),
        ("(substr (input) (cpos 44 -1) (abspos -1))", "a,b,c", "c"),
        ("(substr (input) (abspos 0) (cpos 46 1))", "a.b.c", "a."),
        ("(substr (input) (cpos 46 2) (abspos -1))", "a.b.c", "c"),
        ("(substr (substr (input) (cpos 47 1) (abspos -1)) (abspos 0) (cpos 47 1))", "x/yy/z", "yy/"),
    ],
)
def test_interpreter_runs_hand_written_programs(text, x, expected):
    assert check.run(check.parse(text), x) == expected


@pytest.mark.parametrize(
    "text, x",
    [
        ("(substr (input) (cpos 44 1) (abspos -1))", "no commas"),  # cpos: missing occurrence
        ("(substr (input) (cpos 46 -3) (abspos -1))", "a.b"),  # cpos: too few from the right
        ("(substr (input) (abspos 5) (abspos -1))", "abc"),  # start past the end
        ("(substr (input) (abspos 2) (abspos 1))", "abc"),  # start after stop
        ("(substr (input) (abspos -5) (abspos -1))", "abc"),  # before the start
    ],
)
def test_interpreter_reports_evaluation_errors(text, x):
    with pytest.raises(check.ProgramError):
        check.run(check.parse(text), x)
    assert not check.satisfies(text, [(x, "")])


@pytest.mark.parametrize("text", ["(input", "(frob)", '(const "open)', "(abspos x)", "(input) (input)"])
def test_interpreter_rejects_malformed_text(text):
    with pytest.raises(check.ProgramError):
        check.parse(text)
    assert not check.satisfies(text, [("a", "a")])


def test_satisfies_needs_every_example():
    program = '(concat (input) (const "!"))'
    assert check.satisfies(program, [("a", "a!"), ("b", "b!")])
    assert not check.satisfies(program, [("a", "a!"), ("b", "b?")])


# ---------------------------------------------------------------------------
# Span tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def toy():
    """A package ``toy`` with ``toy.mod.outer`` calling ``inner`` twice and
    ``toy.user`` holding its own reference to ``inner``."""
    clock = FakeClock()
    pkg = types.ModuleType("toy")
    mod = types.ModuleType("toy.mod")
    user = types.ModuleType("toy.user")
    mod.clock = clock
    exec(
        "def inner(n):\n"
        "    clock.now += n\n"
        "    return n\n"
        "def outer():\n"
        "    clock.now += 1.0\n"
        "    total = inner(2.0) + inner(3.0)\n"
        "    clock.now += 0.5\n"
        "    return total\n",
        mod.__dict__,
    )
    user.inner = mod.inner
    sys.modules.update({"toy": pkg, "toy.mod": mod, "toy.user": user})
    yield types.SimpleNamespace(clock=clock, mod=mod, user=user)
    for name in ("toy", "toy.mod", "toy.user"):
        del sys.modules[name]


def test_self_time_excludes_timed_children(toy):
    tracer = Tracer("toy", clock=toy.clock)
    targets = [("toy.mod", "outer", "outer"), ("toy.mod", "inner", "inner", lambda r: {"sum": int(r)})]
    with tracer.installed(targets):
        assert toy.mod.outer() == 5.0
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 6.5, 1.5)
    assert (inner.calls, inner.total_s, inner.self_s) == (2, 5.0, 5.0)
    assert inner.observed == {"sum": 5}


def test_every_reference_is_wrapped_and_restored(toy):
    original = toy.mod.inner
    tracer = Tracer("toy", clock=toy.clock)
    with tracer.installed([("toy.mod", "inner", "inner")]):
        assert toy.user.inner is not original and toy.mod.inner is toy.user.inner
        toy.user.inner(1.0)
    assert toy.mod.inner is original and toy.user.inner is original
    assert tracer.stats["inner"].calls == 1


def test_wrappers_restored_after_an_exception(toy):
    tracer = Tracer("toy", clock=toy.clock)
    with pytest.raises(RuntimeError):
        with tracer.installed([("toy.mod", "outer", "outer")]):
            raise RuntimeError
    assert not hasattr(toy.mod.outer, "__wrapped__")


def test_library_untraced_after_traced_run():
    import atlas.cli  # noqa: F401  (loads every module of the package)

    def snapshot():
        return {
            (name, attr): value
            for name, module in sys.modules.items()
            if name == "atlas" or name.startswith("atlas.")
            for attr, value in vars(module).items()
            if callable(value)
        } | {("Synthesizer", "run"): atlas.synthesizer.Synthesizer.run}

    before = snapshot()
    tracer = Tracer("atlas")
    with tracer.installed(worker.TARGETS):
        assert atlas.synthesizer.Synthesizer.run is not before[("Synthesizer", "run")]
        assert atlas.synthesizer.apply_affine is not before[("atlas.transformers", "apply_affine")]
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "__qualname__", "") == "Tracer.wrap.<locals>.timed" for v in after.values())
    assert set(tracer.stats) == {name for _, _, name, *_ in worker.TARGETS}


def test_speed_sampler_samples_and_stops():
    with worker.SpeedSampler(interval=0.01) as sampler:
        deadline = time.monotonic() + 5
        while len(sampler.samples) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
    assert len(sampler.samples) >= 3 and all(t > 0 for t in sampler.samples)
    assert not sampler._thread.is_alive()
    assert run.at_reference_speed(2.0, run.REFERENCE_LOOP_S / 2) == 4.0


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what a run reports


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.SPANS) <= {name for _, _, name, *_ in worker.TARGETS}
