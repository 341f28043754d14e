import pytest

from atlas.domain import ConstantPool, TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ
from atlas.driver import TrainConfig, learn_abstractions, corpus_alphabet
from atlas.synthesizer import SynthesisTask
from atlas.transformers import SamplingOracle, Transformer, TransformerTable, learn_transformers


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
    """A copy of ``table`` with the outputs ``keep(entry, output)`` accepts; every entry stays."""
    return TransformerTable(
        Transformer(t.op, t.inputs, tuple(o for o in t.outputs if keep(t, o))) for t in table.all()
    )


def with_top_copies(table):
    """``table`` as learned before tables were normalized: every ``(char =, X)``
    entry with X not top also has the outputs of ``(char =, top)``, with zero
    columns for the right argument."""
    at_top = table.lookup((CHAR_EQ.kind, TOP.kind)).outputs
    entries = []
    for t in table.all():
        if t.inputs[0] == CHAR_EQ and t.inputs[1] != TOP:
            zeros = (0,) * t.inputs[1].holes
            copies = tuple((chi, tuple(row[:-1] + zeros + row[-1:] for row in m)) for chi, m in at_top)
            t = Transformer(t.op, t.inputs, t.outputs + copies)
        entries.append(t)
    return TransformerTable(entries)


def table_outputs(table) -> list:
    """Every ``(inputs, output)`` pair of ``table``."""
    return [(t.inputs, o) for t in table.all() for o in t.outputs]


def record_stream(synth) -> list:
    """Wrap ``synth._batch`` so that each candidate it yields is logged as
    ``(size, sid, candidate)``: its AST size, its registry id when it was
    made, and the candidate.  A later ``synth.run()`` then leaves in the list
    the stream it enumerated, in order."""
    stream = []
    batch = synth._batch

    def recording(size, pools):
        for cand in batch(size, pools):
            stream.append((size, cand.sid, cand))
            yield cand

    synth._batch = recording
    return stream
