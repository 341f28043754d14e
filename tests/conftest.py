import pytest

from atlas.domain import ConstantPool, TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ
from atlas.driver import TrainConfig, learn_abstractions, corpus_alphabet
from atlas.synthesizer import SynthesisTask
from atlas.transformers import LearnConfig, SamplingOracle, concat_construct, learn_transformers


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
def learn_env(training_problems):
    constructs = [concat_construct()]
    oracle = SamplingOracle(0, corpus_alphabet(training_problems))
    pool = ConstantPool.default(
        [s for _, t in training_problems for s in list(t.inputs) + list(t.outputs)]
    )
    return constructs, oracle, pool


@pytest.fixture(scope="session")
def table_a1(learn_env):
    constructs, oracle, pool = learn_env
    return learn_transformers(constructs, [TOP, LEN_EQ, LEN_NEQ], oracle, LearnConfig(), pool)


@pytest.fixture(scope="session")
def table_a2(learn_env):
    constructs, oracle, pool = learn_env
    return learn_transformers(
        constructs, [TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ], oracle, LearnConfig(), pool
    )
