import pytest

from atlas.domain import ConstantPool, TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ, TemplateKind
from atlas.driver import TrainConfig, learn_abstractions, corpus_alphabet
from atlas.synthesizer import SynthesisTask
from atlas.transformers import SamplingOracle, Transformer, TransformerTable, learn_transformers

from oracles import batch_records


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
    """A copy of ``table`` with the outputs ``keep(entry, output)`` accepts;
    an entry left without outputs is not stored."""
    return TransformerTable(Transformer(t.inputs, tuple(o for o in t.outputs if keep(t, o))) for t in table.all())


def with_top_copies(table):
    """``table`` as learned before tables were normalized: every ``(char =, X)``
    entry with X not top, empty or not, also has the outputs of
    ``(char =, top)``, with zero columns for the right argument."""
    at_top = table.lookup((CHAR_EQ, TOP)).outputs
    copied = {}
    for x in TemplateKind:
        if x is not TOP:
            entry = table.lookup((CHAR_EQ, x))
            zeros = (0,) * x.holes
            copies = tuple((chi, tuple(row[:-1] + zeros + row[-1:] for row in m)) for chi, m in at_top)
            copied[CHAR_EQ, x] = Transformer((CHAR_EQ, x), (entry.outputs if entry else ()) + copies)
    return TransformerTable([*(t for t in table.all() if t.inputs not in copied), *copied.values()])


def table_outputs(table) -> list:
    """Every ``(inputs, output)`` pair of ``table``."""
    return [(t.inputs, o) for t in table.all() for o in t.outputs]


def record_stream(synth) -> list:
    """Wrap ``synth._batch``, ``synth._derive`` and ``synth.run`` so that a
    later ``synth.run()`` leaves in the list the stream it enumerated, in
    order: ``[size, record, derived]`` for each candidate, with its AST size
    and the states ``run`` derived for it (None if it derived none).

    A record is logged as ``_batch`` made it, so its sid is its registry id
    then.  Each candidate of a bulk run is logged as its record,
    ``(a + b values, concats[a_sid, b_sid], a, b)``; after the run, one that
    ``run`` pooled is replaced by the pooled record, which must equal it.
    The stream is cut to the candidates the run counted."""
    stream, bulk = [], set()
    batch, derive, run = synth._batch, synth._derive, synth.run
    run_pools = {}  # the pools ``run`` passes to ``_batch``, by size

    def recording(size, pools):
        run_pools.update(pools)
        for item in batch(size, pools):
            records = batch_records(synth, item)
            if records[0] is not item:
                bulk.update(range(len(stream), len(stream) + len(records)))
            stream.extend([size, rec, None] for rec in records)
            yield item

    def deriving(rec):
        states, embeds = derive(rec)
        assert stream[-1][1] is rec, "run derives the record it was last given"
        stream[-1][2] = states
        return states, embeds

    def running(*args, **kwargs):
        result = run(*args, **kwargs)
        del stream[result.enumerated :]
        # Over the budget or the deadline, the last candidate is counted only.
        judged = stream if result.reason in ("found", "exhausted") else stream[:-1]
        pooled = {rec[0]: rec for pool in run_pools.values() for rec in pool}
        seen = set()
        for i, (size, rec, _) in enumerate(judged):
            # An unpooled level's pool is empty; in any other, each new value
            # of a bulk run is pooled.
            if i in bulk and rec[0] not in seen and run_pools[size]:
                assert pooled[rec[0]] == rec
                stream[i][1] = pooled[rec[0]]
            seen.add(rec[0])
        bulk.clear()
        return result

    synth._batch, synth._derive, synth.run = recording, deriving, running
    return stream


def held_states(synth, rec, derived) -> tuple:
    """The states ``run`` held for a logged record: those it derived, else
    the registered vector it was made with, else none."""
    if derived is not None:
        return derived
    return synth._vectors[rec[1]] if rec[1] is not None else ()
