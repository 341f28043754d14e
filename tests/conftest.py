import sys
from collections import Counter
from operator import add
from types import SimpleNamespace

import pytest

from atlas.domain import ConstantPool, TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ, TemplateKind
from atlas.driver import TrainConfig, learn_abstractions, corpus_alphabet
from atlas import synthesizer
from atlas.synthesizer import SynthesisTask, Synthesizer
from atlas.transformers import SamplingOracle, Transformer, TransformerTable, learn_transformers

from oracles import term_node

# The code of ``Synthesizer.run``, whose ``_node`` call makes the returned program.
RUN_CODE = Synthesizer.run.__code__


E1 = SynthesisTask(examples=(("CAV", "CAV2018"), ("SAS", "SAS2018"), ("FSE", "FSE2018")))
E2 = SynthesisTask(examples=(("510.220.5586", "510-220-5586"),))
E3 = SynthesisTask(
    examples=(
        ("\\Company\\Code\\index.html", "\\Company\\Code\\"),
        ("\\Company\\Docs\\Spec\\specs.html", "\\Company\\Docs\\Spec\\"),
    )
)


@pytest.fixture(scope="session")
def training_problems():
    return [("e1", E1), ("e2", E2), ("e3", E3)]


@pytest.fixture(scope="session")
def trained(training_problems):
    """One full training run shared by the suite."""
    return learn_abstractions(training_problems, TrainConfig(seed=0))


@pytest.fixture(scope="session")
def trained_at(trained, training_problems):
    """The training runs at seeds 0, 1 and 705, by seed."""
    runs = {0: trained}
    runs.update((seed, learn_abstractions(training_problems, TrainConfig(seed=seed))) for seed in (1, 705))
    return runs


@pytest.fixture(scope="session")
def learn_env(training_problems):
    oracle = SamplingOracle(0, corpus_alphabet(training_problems))
    pool = ConstantPool.default(
        [s for _, t in training_problems for s in list(t.inputs) + list(t.outputs)]
    )
    return oracle, pool


@pytest.fixture(scope="session")
def table_a1(learn_env):
    oracle, pool = learn_env
    return learn_transformers([TOP, LEN_EQ, LEN_NEQ], oracle, pool, {})


@pytest.fixture(scope="session")
def table_a2(learn_env):
    oracle, pool = learn_env
    return learn_transformers([TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ], oracle, pool, {})


@pytest.fixture(scope="session")
def open_table(table_a1):
    """table_a1 without ``(len =, len =) -> len =``.  It keeps the ``len !=``
    outputs of ``(len !=, len =)`` and ``(len =, len !=)``, which reduced
    leaves do not read: they derive less under it than full leaves."""
    return with_outputs(table_a1, lambda entry, output: entry.inputs != (LEN_EQ, LEN_EQ))


def with_outputs(table, keep):
    """A table of the outputs of ``table`` that ``keep(entry, output)`` accepts."""
    return TransformerTable(outputs_kept(table.all(), keep))


def outputs_kept(entries, keep) -> list:
    """``entries`` with the outputs ``keep(entry, output)`` accepts; an entry
    left without outputs is dropped."""
    kept = (Transformer(t.inputs, tuple(o for o in t.outputs if keep(t, o))) for t in entries)
    return [t for t in kept if t.outputs]


def entries_with_top_copies(table) -> list:
    """The entries of ``table`` as learned before tables were normalized, in
    sorted key order: every ``(char =, X)`` entry with X not top, empty or
    not, also has the outputs of ``(char =, top)``, with zero columns for
    the right argument.  No table holds them: ``TransformerTable`` drops the
    copies again."""
    at_top = table.entries.get((CHAR_EQ, TOP)).outputs
    entries = dict(table.entries)
    for x in TemplateKind:
        if x is not TOP:
            entry = table.entries.get((CHAR_EQ, x))
            zeros = (0,) * x.holes
            copies = tuple((chi, tuple(row[:-1] + zeros + row[-1:] for row in m)) for chi, m in at_top)
            entries[CHAR_EQ, x] = Transformer((CHAR_EQ, x), (entry.outputs if entry else ()) + copies)
    return [entries[k] for k in sorted(entries)]


def table_outputs(table) -> list:
    """Every ``(inputs, output)`` pair of ``table``."""
    return entry_outputs(table.all())


def entry_outputs(entries) -> list:
    """Every ``(inputs, output)`` pair of ``entries``."""
    return [(t.inputs, o) for t in entries for o in t.outputs]


class WatchedOutput(str):
    """An output that logs each ``in`` test made against it as ``(k, value)``,
    ``k`` its example."""

    def __new__(cls, out, k, log):
        self = super().__new__(cls, out)
        self.k, self.log = k, log
        return self

    def __contains__(self, value):
        self.log.append((self.k, value))
        return str.__contains__(self, value)


class Recording:
    """What the runs of a synthesizer did, as ``record`` saw them.

    ``log`` holds, in order, ``("run", n)`` for each run ``_batch`` yielded,
    ``runs[n]``, then ``("derive", n, record, states, embeds)``, ``("embeds",
    n, values, live, kept)``, ``("judge", n, state, verdict)`` and
    ``("clock", n)`` for each derivation, ``exact_embeds`` call,
    ``gamma_contains`` call and clock read of run ``n``.  ``pools``,
    ``concats`` and ``vectors`` are the last search's (invariant registry),
    ``accepted`` the record it returned, ``calls`` the calls of each module
    global wrapped, ``given`` each sids list checked with a copy made then,
    and ``late`` the run at which the clock passed the deadline, after
    ``counted`` records."""

    def __init__(self):
        self.log, self.runs, self.given, self.pools, self.concats, self.vectors = [], [], [], {}, None, None
        self.accepted, self.calls, self.late, self.counted = None, Counter(), None, 0

    def derived(self) -> list:
        """``(record, states, embeds)`` for each record derived, in order."""
        return [entry[2:] for entry in self.log if entry[0] == "derive"]

    def tested(self) -> list:
        """``(record, embeds)`` for each candidate tested in bulk, in order:
        the new candidates of the exact runs (invariant bulk-runs)."""
        tested = []
        for kind, n, *call in self.log:
            if kind == "embeds":
                (values, live, kept), (_, _, left, kids, _) = call, self.runs[n]
                kept = set(kept)
                tested += [((values[i], None, left, kids[i]), i in kept) for i in live]
        return tested

    def judged(self) -> list:
        """The run of each candidate judged, by index: ``run`` calls
        ``gamma_contains`` on a candidate's examples in order up to the first
        that fails, so a call starts a judgement unless the entry before it
        is a call that passed."""
        return [e[1] for e, before in zip(self.log, [("run",), *self.log]) if e[0] == "judge" and not (before[0] == "judge" and before[3])]

    def judged_states(self) -> list:
        """The state of each ``gamma_contains`` call, in order."""
        return [entry[2] for entry in self.log if entry[0] == "judge"]

    def pooled(self) -> list:
        """Every pooled record."""
        return [rec for pool in self.pools.values() for rec in pool]


def record(monkeypatch, synth, derivations=True, check=False, late=None) -> Recording:
    """Wrap each seam of ``synth.run`` once, so that its later runs leave in
    the returned ``Recording`` what they did: ``_batch``, ``_derive`` and
    ``_node`` on ``synth``; ``exact_embeds``, ``gamma_contains`` and
    ``apply_transformer`` in the synthesizer module, one wrapper each for
    every recording of a test, which logs to the one whose ``_batch`` is
    going on; without ``derivations`` neither ``_derive`` nor
    ``apply_transformer``, whose log and calls grow with the run; and with
    ``late``, the clock, which passes the deadline at the first run that
    ``late(run, counted)`` accepts.

    With ``check``, each call is checked as it is made.  A run's keys are
    ``str`` that split back at the separator to its records' values, its
    rows or, when it has none, the concatenations of its left values with
    each right record's (invariant keys).  A cached run (sids not None,
    none of them None) is a concatenation run with distinct keys (invariant
    bulk-runs); a concatenation run's sids are a fresh lookup of its
    child-id pairs in the concat cache (invariant registry).  An
    ``exact_embeds`` call is on the rows of the run yielded last, which is
    exact and was not tested before, as ``run`` cut them, with the indexes
    of those whose key no earlier candidate had; it tests each example,
    ``in`` the output, a column at a time on the candidates that passed the
    examples before, and returns those that pass all."""
    got = Recording()
    log, runs = got.log, got.runs
    batch, derive, node = (getattr(type(synth), name).__get__(synth) for name in ("_batch", "_derive", "_node"))
    # The keys of this search's runs before ``runs[upto]``, for the checks.
    known = SimpleNamespace(keys=set(), upto=0)

    def batching(size, pools, concats, vectors):
        got.pools, got.concats, got.vectors = pools, concats, vectors
        if size == 1:
            got.accepted, known.keys, known.upto = None, set(), len(runs)
        seams.active = got, hooks
        try:
            for run in batch(size, pools, concats, vectors):
                log.append(("run", len(runs)))
                runs.append(run)
                keys, sids, left, kids, rows = run
                if check:
                    values = rows if rows is not None else [tuple(map(add, left[0], b[0])) for b in kids]
                    assert all(k.__class__ is str for k in keys) and [tuple(k.split(synth._sep)) for k in keys] == values
                if check and sids is not None and None not in sids:
                    assert left is not None and len(set(keys)) == len(keys)
                if check and sids is not None and left is not None:
                    assert sids == [concats.get((left[1], b[1])) for b in kids]
                    got.given.append((sids, list(sids)))
                if late is not None and got.late is None:
                    if late(run, got.counted):
                        got.late = len(runs) - 1
                    else:
                        got.counted += len(keys)
                yield run
        finally:
            seams.active = None

    def deriving(rec, vectors):
        states, embeds = derive(rec, vectors)
        log.append(("derive", len(runs) - 1, rec, states, embeds))
        return states, embeds

    def making(rec):
        # ``run`` makes the node of the record it returns only; ``_node``
        # makes the children's nodes through this wrapper too.
        if sys._getframe(1).f_code is RUN_CODE:
            got.accepted = rec
        return node(rec)

    def embedding(exact_embeds, values, live, outputs):
        n = len(runs) - 1
        if check:
            assert outputs == synth.outputs and n >= known.upto
            for run in runs[known.upto : n]:
                known.keys.update(run[0])
            known.upto = n + 1
            keys, sids, _, _, rows = runs[n]
            assert sids is None and values == rows[: len(values)]
            assert live == [i for i, k in enumerate(keys[: len(values)]) if not (k in known.keys or known.keys.add(k))]
            tests = []
            kept = exact_embeds(values, live, tuple(WatchedOutput(out, k, tests) for k, out in enumerate(outputs)))
            expected, passed = [], live
            for k, out in enumerate(outputs):
                expected += [(k, values[i][k]) for i in passed]
                passed = [i for i in passed if values[i][k] in out]
            assert tests == expected and kept == passed
        else:
            kept = exact_embeds(values, live, outputs)
        log.append(("embeds", n, values, live, kept))
        return kept

    def judging(gamma_contains, state, out):
        verdict = gamma_contains(state, out)
        log.append(("judge", len(runs) - 1, state, verdict))
        return verdict

    hooks = {"exact_embeds": embedding, "gamma_contains": judging}
    seams = getattr(synthesizer.exact_embeds, "seams", None) or SimpleNamespace(active=None)
    # ``apply_transformer`` is only counted, and only with the derivations
    # that call it.
    for name in (*hooks, "apply_transformer") if derivations else hooks:
        if not hasattr(getattr(synthesizer, name), "seams"):

            def wrapper(*args, name=name, inner=getattr(synthesizer, name)):
                if seams.active is None:
                    return inner(*args)
                recording, hooked = seams.active
                recording.calls[name] += 1
                hook = hooked.get(name)
                return inner(*args) if hook is None else hook(inner, *args)

            wrapper.seams = seams
            monkeypatch.setattr(synthesizer, name, wrapper)
    synth._batch, synth._derive, synth._node = batching, deriving if derivations else derive, making
    if late is not None:

        def clock():
            log.append(("clock", len(runs) - 1))
            return 0 if got.late is None else 10**18

        monkeypatch.setattr(synthesizer, "time", SimpleNamespace(perf_counter_ns=clock))
    return got


def assert_pools_match(synth, seen, found):
    """Each level's pool in the run ``seen`` recorded holds, in order, the
    values and programs of the candidates ``reference_search`` kept at that
    size (``found.kept``).  A level the run left unpooled, which is one of
    the last two it reached, holds none instead."""
    last = max(seen.pools)
    for size, pool in seen.pools.items():
        got = [(rec[0], synth._node(rec)) for rec in pool]
        want = [(rec[0], term_node(rec)) for rec in found.kept[size]]
        assert got == want or (got == [] and size >= last - 1), size
