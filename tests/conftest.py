import sys
from collections import Counter
from operator import add, itemgetter
from types import SimpleNamespace
from typing import NamedTuple, Optional

import pytest

from atlas.domain import ConstantPool, TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ, TemplateKind
from atlas.dsl import eval_node, print_program
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


class Record(NamedTuple):
    """A candidate as the tests read it: its values, its vector's id (None
    when it was derived or tested in bulk), its left child's record (None
    for a leaf), its right child's record (a leaf's index for a leaf), its
    AST size, and the ``(left, right)`` that ``Synthesizer._node`` takes
    after the pools and the size (invariant records)."""

    values: tuple
    sid: Optional[int]
    left: Optional["Record"]
    right: object
    size: int
    raw: tuple


class Recording:
    """What the runs of a synthesizer did, as ``record`` saw them.

    ``log`` holds, in order, ``("run", n)`` for each run ``_batch`` yielded,
    ``runs[n]``, of AST size ``sizes[n]``, then ``("derive", n, record,
    states, embeds)``, ``("embeds", n, values, live, kept)``, ``("judge",
    n, state, verdict, sid)`` and ``("clock", n)`` for each derivation,
    ``exact_embeds`` call, ``gamma_contains`` call and clock read of run
    ``n``.  ``pools``, ``reads``, ``concats`` and ``vectors`` are the last
    search's (invariants records and registry), ``accepted`` the record it
    returned, ``calls`` the calls of each module global wrapped, ``given``
    each sids list checked with a copy made then, and ``late`` the run at
    which the clock passed the deadline, after ``counted`` records.
    ``records`` holds the pooled records made so far, by size and index,
    ``counts`` the candidates ``run`` had counted, deduped and pruned
    before each run, and ``singly``, by run, how many of its candidates
    ``run`` took one at a time, for each run but the last of a search."""

    def __init__(self, sep):
        self.log, self.runs, self.sizes, self.given, self.pools, self.reads, self.concats, self.vectors = [], [], [], [], {}, None, None, None
        self.accepted, self.calls, self.late, self.counted = None, Counter(), None, 0
        self.sep, self.records, self.counts, self.singly = sep, {}, [], {}

    def values(self, key: str) -> tuple:
        """The values a key splits back to (invariant keys)."""
        return tuple(key.split(self.sep))

    def candidate(self, size, values, sid, left, right) -> Record:
        """The record of a candidate of AST size ``size`` with the left
        record and right index, or leaf index, that ``run`` has for it."""
        if left is None:
            return Record(values, sid, None, right, size, (None, right))
        return Record(values, sid, self.pooled_at(left[2], left[3]), self.pooled_at(size - 1 - left[2], right), size, (left, right))

    def pooled_at(self, size, i) -> Record:
        """The record of ``pools[size]`` at index ``i``."""
        rec = self.records.get((size, i))
        if rec is None:
            keys, sids, lefts, rights = self.pools[size]
            rec = self.records[size, i] = self.candidate(size, self.values(keys[i]), sids[i], lefts[i], rights[i])
        return rec

    def pool(self, size) -> list:
        """The records of ``pools[size]``, in order."""
        return [self.pooled_at(size, i) for i in range(len(self.pools[size][0]))]

    def pooled(self) -> list:
        """Every pooled record."""
        return [rec for size in self.pools for rec in self.pool(size)]

    def node(self, synth, rec: Record):
        """The AST node ``synth._node`` rebuilds for ``rec``."""
        return synth._node(self.pools, rec.size, *rec.raw)

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
                tested += [(self.candidate(self.sizes[n], values[i], None, left, kids[i]), i in kept) for i in live]
        return tested

    def judgements(self) -> list:
        """The ``("judge", ...)`` entry that starts each judgement: ``run``
        calls ``gamma_contains`` on a candidate's examples in order up to
        the first that fails, so a call starts a judgement unless the entry
        before it is a call that passed."""
        return [e for e, before in zip(self.log, [("run",), *self.log]) if e[0] == "judge" and not (before[0] == "judge" and before[3])]

    def judged(self) -> list:
        """The run of each candidate judged, by index."""
        return [e[1] for e in self.judgements()]

    def judged_states(self) -> list:
        """The state of each ``gamma_contains`` call, in order."""
        return [entry[2] for entry in self.log if entry[0] == "judge"]

    def check_pools(self, synth):
        """Check the pools of the last search: each pool's columns have one
        length; a pooled concatenation's key splits back to its left
        child's values concatenated with its right child's, and its left
        record is that child's; and ``_node`` of each pooled record is a
        program of its size that evaluates to its values (invariant
        records)."""
        for size, (keys, sids, lefts, rights) in self.pools.items():
            assert len(keys) == len(sids) == len(lefts) == len(rights), size
            for rec in self.pool(size):
                left, right = rec.raw
                if left is not None:
                    assert rec.values == tuple(map(add, rec.left.values, rec.right.values)), (size, rec.values)
                    assert left == (rec.left.values, rec.left.sid, rec.left.size, left[3]), (size, rec.values)
                node = self.node(synth, rec)
                assert node.size == size and tuple(eval_node(node, x) for x in synth.inputs) == rec.values, print_program(node)


def record(monkeypatch, synth, derivations=True, check=False, late=None) -> Recording:
    """Wrap each seam of ``synth.run`` once, so that its later runs leave in
    the returned ``Recording`` what they did: ``_batch``, ``_derive`` and
    ``_node`` on ``synth``; ``exact_embeds``, ``gamma_contains`` and
    ``apply_transformer`` in the synthesizer module, one wrapper each for
    every recording of a test, which logs to the one whose ``_batch`` is
    going on; without ``derivations`` neither ``_derive`` nor
    ``apply_transformer``, whose log and calls grow with the run; and with
    ``late``, the clock, which passes the deadline at the first run that
    ``late(run, counted)`` accepts.  The candidate of a derivation, of the
    returned program and of a judgement, the counts before each run and
    the candidates of a run taken one at a time are read off ``run``'s
    locals.

    With ``check``, each call is checked as it is made, and the pools after
    each search (``Recording.check_pools``).  A run's keys are ``str`` that
    split back at the separator to its candidates' values, its rows or the
    concatenations of its left values with each right record's (invariant
    keys), and its left record is its pool's.  A cached run (sids not None,
    none of them None) is a concatenation run with distinct keys (invariant
    bulk-runs); a concatenation run's sids are a fresh lookup of its
    child-id pairs in the concat cache (invariant registry), and it is
    exact (sids None) iff its left record and each right record are.  An
    ``exact_embeds`` call is on the rows of the run yielded last, which is
    exact and was not tested before, as ``run`` cut them, with the indexes
    of those whose key no earlier candidate had; it tests each example,
    ``in`` the output, a column at a time on the candidates that passed the
    examples before, and returns those that pass all."""
    got = Recording(synth._sep)
    log, runs = got.log, got.runs
    batch, derive, node, run = (getattr(type(synth), name).__get__(synth) for name in ("_batch", "_derive", "_node", "run"))
    # The keys of this search's runs before ``runs[upto]``, for the checks.
    known = SimpleNamespace(keys=set(), upto=0, start=0)

    def exact(sid, values) -> bool:
        return got.vectors[sid] == values

    def batching(size, pools, reads, concats, vectors):
        got.pools, got.reads, got.concats, got.vectors = pools, reads, concats, vectors
        if size == 1:
            got.accepted, got.records, known.keys, known.upto, known.start = None, {}, set(), len(runs), len(runs)
        seams.active = got, hooks
        try:
            for run in batch(size, pools, reads, concats, vectors):
                log.append(("run", len(runs)))
                runs.append(run)
                got.sizes.append(size)
                caller = sys._getframe(1)
                if caller.f_code is RUN_CODE:
                    at = caller.f_locals
                    got.counts.append(itemgetter("enumerated", "deduped", "pruned")(at))
                    if len(runs) - 1 > known.start:
                        got.singly[len(runs) - 2] = len(at["rest"][0]) if at["rest"] else 0
                keys, sids, left, kids, rows = run
                if check and left is None:
                    values = rows
                elif check:
                    right = pools[size - 1 - left[2]]
                    assert left == (got.values(pools[left[2]][0][left[3]]), pools[left[2]][1][left[3]], left[2], left[3])
                    values = [tuple(map(add, left[0], got.values(right[0][k]))) for k in kids]
                    assert rows is None or rows == values
                    assert (sids is None) == (exact(left[1], left[0]) and all(exact(right[1][k], got.values(right[0][k])) for k in kids))
                if check:
                    assert all(k.__class__ is str for k in keys) and list(map(got.values, keys)) == values
                if check and sids is not None and None not in sids:
                    assert left is not None and len(set(keys)) == len(keys)
                if check and sids is not None and left is not None:
                    assert sids == [concats.get((left[1], right[1][k])) for k in kids]
                    got.given.append((sids, list(sids)))
                if late is not None and got.late is None:
                    if late(run, got.counted):
                        got.late = len(runs) - 1
                    else:
                        got.counted += len(keys)
                yield run
        finally:
            seams.active = None

    def deriving(values, pair, vectors):
        states, embeds = derive(values, pair, vectors)
        at = sys._getframe(1).f_locals
        rec = got.candidate(at["size"], got.values(at["key"]), None, at["left"], at["right"])
        log.append(("derive", len(runs) - 1, rec, states, embeds))
        return states, embeds

    def making(pools, size, left, right):
        # ``run`` makes the node of the candidate it returns only; ``_node``
        # makes the children's nodes through this wrapper too.
        caller = sys._getframe(1)
        if caller.f_code is RUN_CODE:
            got.accepted = got.candidate(size, got.values(caller.f_locals["key"]), caller.f_locals["sid"], left, right)
        return node(pools, size, left, right)

    def running(*args, **kwargs):
        result = run(*args, **kwargs)
        if check:
            got.check_pools(synth)
        return result

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
        # Called from ``run`` through the module global's wrapper.
        caller = sys._getframe(2)
        log.append(("judge", len(runs) - 1, state, verdict, caller.f_locals["sid"] if caller.f_code is RUN_CODE else None))
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
    synth._batch, synth._derive, synth._node, synth.run = batching, deriving if derivations else derive, making, running
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
    for size in seen.pools:
        got = [(rec.values, seen.node(synth, rec)) for rec in seen.pool(size)]
        want = [(rec[0], term_node(rec)) for rec in found.kept[size]]
        assert got == want or (got == [] and size >= last - 1), size
