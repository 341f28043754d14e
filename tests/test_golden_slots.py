"""Golden transformer slots.

``learn_transformers`` over all five templates, with an empty cache and the
oracle and constant pool that training on e1-e3 builds, must learn the same
thing in every one of its 100 slots at seeds 0, 1 and 705: the same stalls
and refusals (``None``) and the same kept output kinds and matrices.  The
sha256 of the canonical slot map is pinned, so a change to sampling, row
validity, rank, solving or the validity check that alters any slot shows
here, even where normalization would hide it from the bundle.
"""

import hashlib
import json

import pytest

from atlas.cli import load_task
from atlas.corpus import training_task_paths
from atlas.domain import ConstantPool, TemplateKind
from atlas.driver import corpus_alphabet
from atlas.transformers import SamplingOracle, learn_transformers

# seed -> (sha256 of the slot map, slots that learned an output).  The map
# is the same at all three seeds.
SLOTS = {
    0: ("0fa2dee0cda11d785c7dafcc2798e40faf6e66e7b1cbc7783ef96ac87bb9b3bd", 9),
    1: ("0fa2dee0cda11d785c7dafcc2798e40faf6e66e7b1cbc7783ef96ac87bb9b3bd", 9),
    705: ("0fa2dee0cda11d785c7dafcc2798e40faf6e66e7b1cbc7783ef96ac87bb9b3bd", 9),
}


def slot_map(seed: int) -> dict:
    problems = [load_task(p, 14, 200_000, None) for p in training_task_paths()]
    oracle = SamplingOracle(seed, corpus_alphabet(problems))
    pool = ConstantPool.default([s for _, t in problems for s in list(t.inputs) + list(t.outputs)])
    cache: dict = {}
    learn_transformers(list(TemplateKind), oracle, pool, cache)
    return {
        slot: None if learned is None else [learned[0].value, [list(row) for row in learned[1]]]
        for slot, learned in cache.items()
    }


@pytest.mark.parametrize("seed", sorted(SLOTS))
def test_learned_slots(seed):
    slots = slot_map(seed)
    assert len(slots) == 100
    digest = hashlib.sha256(json.dumps(slots, sort_keys=True).encode()).hexdigest()
    assert (digest, sum(v is not None for v in slots.values())) == SLOTS[seed]
