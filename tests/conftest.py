from types import SimpleNamespace

import pytest

from atlas.domain import ConstantPool, TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ, TemplateKind
from atlas.driver import TrainConfig, learn_abstractions, corpus_alphabet
from atlas.synthesizer import SynthesisTask
from atlas.transformers import SamplingOracle, Transformer, TransformerTable, learn_transformers

from oracles import term_node


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


def watch_run(synth) -> SimpleNamespace:
    """Wrap ``synth._batch`` and ``synth._derive`` so that a later
    ``synth.run()`` leaves in the returned namespace what it passed them and
    got from them: ``pools``, the run's pools by size; ``concats`` and
    ``vectors``, its registry's concat cache and vectors by id; ``runs``,
    every run ``_batch`` yielded, in order; ``derived``, ``(record, states,
    embeds)`` for each record it derived, in order."""
    seen = SimpleNamespace(pools={}, concats=None, vectors=None, runs=[], derived=[])
    batch, derive = synth._batch, synth._derive

    def batching(size, pools, concats, vectors):
        seen.pools, seen.concats, seen.vectors = pools, concats, vectors
        for run in batch(size, pools, concats, vectors):
            seen.runs.append(run)
            yield run

    def deriving(rec, vectors):
        states, embeds = derive(rec, vectors)
        seen.derived.append((rec, states, embeds))
        return states, embeds

    synth._batch, synth._derive = batching, deriving
    return seen


def assert_pools_match(synth, seen, found):
    """Each level's pool in the run ``seen`` watched holds, in order, the
    values and programs of the candidates ``reference_search`` kept at that
    size (``found.kept``).  A level the run left unpooled, which is one of
    the last two it reached, holds none instead."""
    last = max(seen.pools)
    for size, pool in seen.pools.items():
        got = [(rec[0], synth._node(rec)) for rec in pool]
        want = [(rec[0], term_node(rec)) for rec in found.kept[size]]
        assert got == want or (got == [] and size >= last - 1), size
