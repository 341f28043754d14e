"""Reference checks that only the tests read."""

from atlas.dsl import Program
from atlas.synthesizer import SynthesisTask, satisfies


def is_correct(p: Program, task: SynthesisTask) -> bool:
    """True iff ``p`` maps every example input of ``task`` to its output."""
    return all(satisfies(p, ex) for ex in task.examples)
