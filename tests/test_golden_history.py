"""Golden training history at seed 0.

Training on e1-e3 at seed 0 must go through the same iterations: for each,
the problem, the iteration number, the program the synthesizer returned,
whether it was correct, the templates the refinement added and the number
of candidates enumerated.  Training runs the synthesizer with
``require_correct=False``, so a change to how it accepts a candidate that
is not correct shows here.
"""

from atlas.domain import CHAR_EQ, CHAR_NEQ, LEN_EQ, LEN_NEQ

HISTORY = [
    ("e1", 1, "(input)", False, [LEN_NEQ], 1),
    ("e1", 2, "(concat (input) (input))", False, [LEN_EQ], 60),
    ("e1", 3, '(concat (input) (const "2018"))', True, [], 69),
    ("e2", 1, "(input)", False, [CHAR_NEQ], 1),
    ("e2", 2, '(concat (const "-220-5") (const "-220-5"))', False, [CHAR_EQ], 313),
    ("e2", 3, '(concat (const "510-22") (const "0-5586"))', True, [], 2214),
    ("e3", 1, "(substr (input) (abspos 0) (cpos 92 -1))", True, [], 1662),
]


def test_seed0_training_history(trained):
    got = [(h.problem, h.iteration, str(h.program), h.correct, h.templates_added, h.enumerated) for h in trained.history]
    assert got == HISTORY
