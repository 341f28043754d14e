"""Data-driven synthesis of sound affine abstract transformers for ``concat``.

For each slot, a pair of input templates and an output template, we
sample concrete runs of concat, abstract the values into concrete
predicate rows, keep the rows that are valid implications (``row_valid``
decides one exactly), solve the linear system relating input constants to
output constants exactly, and keep an integral solution only if
``check_valid`` proves it.  Concat is the only construct learned: the
synthesizer abstracts every closed subterm straight from its value.

The linear algebra is on integer rows, with one fraction-free reduction
(``_reduce``).  Each slot has one echelon basis of its rows ``[A | B]``
(input constants plus 1, then output constants), with pivots on A's
columns; ``solve_linear`` back-substitutes in it, in integers.

The proofs below use what an instantiation of input templates admits: its
inputs are always satisfiable; ``len = n`` admits only the length n,
``len != n`` all but n, ``char i = c`` every length above i, and ``top``
and ``char i != c`` every length; every character is free but the one a
``char i = c`` input pins at index i of its own string (``row_valid``
assumes an unbounded alphabet).  A character code is in
``0..sys.maxunicode``, and every other constant a nonnegative integer.

Invariant exact-check: ``check_valid`` accepts a matrix iff, at every
instantiation of the input templates, the output it maps the constants to
holds of a + b for all strings a and b of the inputs; ``counterexample``
names an instantiation where an unsound one fails.  The instantiations
hold 0 and every unit vector of constants, and two affine maps that agree
there are equal.  A ``char =`` output is sound iff it is the copy or the
shift (invariant copy-or-shift).  A ``len =`` output is sound iff the
inputs are ``(len =, len =)`` and the matrix ``[[1, 1, 0]]``: any other
input admits two lengths, and the only affine map equal to n + m on N² is
that one.  So an unsound ``char =`` or ``len =`` matrix fails at 0 or a
unit vector, where ``row_valid`` finds it.  A ``len !=`` output,
``len(a + b) != e`` with e affine in the constants, is unsound iff some
instantiation admits lengths la and lb with la + lb = e.  An input admits
one interval of lengths, or two for ``len != n`` ([0, n - 1] when n >= 1,
and [n + 1, ∞)), with bounds affine in its constants, and the sums of two
nonempty intervals are the interval of the sums of their bounds.  So it is
unsound iff, for one of at most four choices of pieces, ``lo1 + lo2 <= e
<= hi1 + hi2`` has a solution in integer constants, an exact problem in
at most 4 unknowns (``_len_neq_refutation``).  A ``top`` output is sound;
no ``char !=`` output is learned (invariant fillable) or decided.

Invariant copy-or-shift: a ``char =`` output is sound iff it is the copy
(first input ``char =``, matrix ``[[1, 0, 0...], [0, 1, 0...]]``) or the
shift (``(len =, char =)``, ``[[1, 1, 0, 0], [0, 0, 1, 0]]``), so a table
refuses every other shape (``char_eq_rule``).  A character of a + b is
pinned only at index i under a first input ``char i = c``, to c, or at n
+ j under ``(len = n),(char j = d)``, to d: anywhere else it is free, or
the index may lie past the end as the length of a is not fixed.  A sound
matrix maps every instantiation to that pinned fact, and only the copy
or the shift does.

Invariant fillable: a slot that cannot reach full rank is refused before
it derives its oracle (``FILLABLE``).  A ``len = c`` output needs both
inputs ``len = c``; a ``len != c`` output one ``len = c`` and one ``len
!= c`` input, in either order; a ``char i = c`` output a first input
``char i = c``, or a first input ``len = c`` and a second ``char i = c``;
no ``char i != c`` output is learned.  The rule is exact: an equality
output is valid only where the inputs fix it, its length only when both
lengths are fixed, its character only when the first input pins it or
the first length is fixed and the second input pins it.  A ``len !=`` row
of the counterfactual pairing (``generate_examples``) is never valid
without a ``len !=`` input, since the sampled pair is a counterexample;
in the other refused pairs every valid row has the ``len !=`` constant 0,
so that column stays zero.  Each slot draws from its own child oracle,
which ``child`` derives without a draw, so a refused slot changes no other.

Invariant normalized-table: a table never changes and stores only
entries with outputs, and it drops an output that the entry with ``top``
in place of an argument it does not read also has (less that argument's
zero columns).  No derived state changes: every state has the top kind,
so both entries are read together, and the other entry has fewer non-top
inputs, so a chain of such matches ends at a kept output.  The drops are
decided on the given entries together, so building a table from
another's entries changes nothing; a missing entry derives nothing, so
the empty table is the all-top table.

Invariant reduced-leaves: the synthesizer abstracts leaves without the
inequality facts their equality facts imply (``best_abstraction``), which
is sound under any table: a subset of the true input facts maps to a
subset of the derived facts.  It loses nothing when no entry with a
``char !=`` input has an output, and each output of an entry with a
``len !=`` input is a ``len !=`` output, injective in that constant, whose
matrix the entry with ``len =`` in its place has as a ``len =`` output: a
fact derived from an implied ``len != k`` is then implied by the one
derived from ``len = n``.  Learned tables have that form; a hand-edited
table that does not can lose precision but not soundness.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Callable, Iterable, Optional, Sequence

from .domain import CHAR_EQ, CHAR_NEQ, LEN_EQ, LEN_NEQ, TOP, ConcretePredicate, ConstantPool, TemplateKind
from .domain import abstract, len_neq, template_from_text, template_to_text


class EmptySlot(Exception):
    """Sampling leaves a slot without a full-rank consistent system: the slot
    is refused, sampling stalls or runs out of budget, or a row contradicts
    the others."""


# ---------------------------------------------------------------------------
# Linear algebra.  Rows are integer rows, reduced one at a time against an
# echelon basis without fractions; a learned transformer matrix is a tuple
# of integer rows.

Matrix = tuple[tuple[int, ...], ...]


def _reduce(basis: dict[int, list[int]], row: Sequence[int], n_cols: int) -> tuple[list[int], Optional[int]]:
    """Reduce the integer ``row`` against ``basis`` on its first ``n_cols`` columns.

    ``basis`` maps a pivot column to the basis row whose first nonzero entry
    is there.  Returns the reduced row and its pivot, the first nonzero
    column of the ``n_cols``; the pivot is None when the row reduces to zero
    there.  A row with a pivot is divided by the gcd of its entries, which
    keeps the entries small; it can join ``basis`` under that pivot.
    """
    row = list(row)
    for c in range(n_cols):
        if row[c] == 0:
            continue
        b = basis.get(c)
        if b is None:
            g = gcd(*row)
            return [v // g for v in row], c
        g = gcd(row[c], b[c])
        f, p = row[c] // g, b[c] // g
        row = [p * x - f * y for x, y in zip(row, b)]
    return row, None


def column_rank(rows: Sequence[Sequence[int]]) -> int:
    basis: dict[int, list[int]] = {}
    for row in rows:
        reduced, pivot = _reduce(basis, row, len(row))
        if pivot is not None:
            basis[pivot] = reduced
    return len(basis)


def solve_linear(basis: dict[int, list[int]]) -> Optional[Matrix]:
    """The integer P with A P^T = B, from a full-rank echelon basis of ``[A | B]``.

    ``basis`` holds one row per column of A, keyed by its pivot, as
    ``generate_examples`` returns it.  The solution is unique, so it is
    None as soon as a back-substitution step does not divide exactly.
    """
    n = len(basis)
    solution = []
    for j in range(len(basis[0]) - n):
        x = [0] * n
        for c in range(n - 1, -1, -1):
            row = basis[c]
            q, r = divmod(row[n + j] - sum(row[k] * x[k] for k in range(c + 1, n)), row[c])
            if r:
                return None
            x[c] = q
        solution.append(tuple(x))
    return tuple(solution)


def apply_affine(p: Matrix, vec: Sequence[int]) -> tuple[int, ...]:
    """Map the integer constants ``vec`` (ending in 1) through ``p``; only
    ``counterexample`` calls it."""
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in p)


# ---------------------------------------------------------------------------
# Constructs.  Concat, ``a + b``, is the only construct, and the learner
# applies it directly.  The class stays only while the benchmark's worker
# (``perfbench/worker.py``) builds the top table through
# ``top_table([concat_construct()])``.


@dataclass(frozen=True)
class Construct:
    op_id: str
    arity: int
    fn: Callable[..., str]


def concat_construct() -> Construct:
    return Construct("concat", 2, lambda a, b: a + b)


# ---------------------------------------------------------------------------
# Sampling oracle: seeded, finite-support distribution over strings, from
# which example rows are drawn.


class SamplingOracle:
    """Deterministic pseudo-random string source.

    Lengths follow a geometric distribution capped at ``MAX_LEN``; characters
    are drawn uniformly from a finite alphabet, so the support is finite.
    """

    MAX_LEN = 12

    def __init__(self, seed: int, alphabet: str = ""):
        base = "abcdefghijklmnopqrstuvwxyz0123456789"
        merged = sorted(set(alphabet) | set(base))
        self.alphabet = "".join(merged)
        self.seed = seed
        self.rng = random.Random(seed)

    def child(self, tag: str) -> "SamplingOracle":
        digest = hashlib.sha256(f"{self.seed}:{tag}".encode()).digest()
        derived = int.from_bytes(digest[:8], "big")
        return SamplingOracle(derived, self.alphabet)

    def draw_length(self) -> int:
        n = 0
        while n < self.MAX_LEN and self.rng.random() < 0.72:
            n += 1
        return n

    def draw_char(self) -> str:
        return self.rng.choice(self.alphabet)

    def draw_string(self) -> str:
        return "".join(self.draw_char() for _ in range(self.draw_length()))


# Sampling budget per slot: samples in all, samples without rank progress,
# and how many of the input and output abstractions of a sample are paired.
MAX_SAMPLES = 5000
STALL_SAMPLES = 25
INPUT_CAP = 3
OUTPUT_CAP = 4


# ---------------------------------------------------------------------------
# Row validity.  ``P1(a) & P2(b) => Q(a + b)`` is decided exactly, by a
# search for a counterexample.  Once the lengths of a and b are fixed, each
# of P1, P2 and not-Q reduces to true, to false, or to one constraint on
# the character at a position of y = a + b.  A length pair is a
# counterexample iff nothing reduces to false and the character
# constraints agree.  Over an unbounded alphabet they disagree only when
# one position must equal two characters, or equal and differ from one.
# Every length atom compares len(a), len(b) or their sum with a constant,
# so it suffices to try len(a) within one of 0, a constant, or an output
# constant minus a constant of b, and len(b) within one of 0, a constant
# of b, or an output constant minus len(a).


def _demand(p: ConcretePredicate, start: int, length: int, holds: bool):
    """What ``p`` (``holds``) or its negation asks of the segment of y that
    starts at ``start`` and has ``length`` characters: True, False, or one
    constraint ``(position in y, code point, equal)``."""
    k = p.kind
    if k is TOP:
        return holds
    if k is LEN_EQ:
        return (length == p.args[0]) == holds
    if k is LEN_NEQ:
        return (length != p.args[0]) == holds
    i, c = p.args
    if i >= length:
        return (k is CHAR_NEQ) == holds
    return (start + i, c, (k is CHAR_EQ) == holds)


def _agree(x: tuple[int, int, bool], y: tuple[int, int, bool]) -> bool:
    """Whether two character constraints can hold at once."""
    (pos_x, c_x, eq_x), (pos_y, c_y, eq_y) = x, y
    if pos_x != pos_y or not (eq_x or eq_y):
        return True
    return (c_x == c_y) == (eq_x and eq_y)


def _near(constants) -> set[int]:
    """0 and the nonnegative integers within one of ``constants``."""
    return {0} | {v + d for v in constants for d in (-1, 0, 1) if v + d >= 0}


def row_valid(inputs: tuple[ConcretePredicate, ConcretePredicate], output: ConcretePredicate) -> bool:
    """Decide ``inputs[0](a) & inputs[1](b) => output(a + b)`` for all strings."""
    p1, p2 = inputs
    k1, k2, k0 = (p.args[:1] for p in (p1, p2, output))
    for la in _near(k1 + k0 + tuple(o - b for o in k0 for b in k2)):
        d1 = _demand(p1, 0, la, True)
        if d1 is False:
            continue
        for lb in _near(k2 + tuple(o - la for o in k0)):
            demands = [d1, _demand(p2, la, lb, True), _demand(output, 0, la + lb, False)]
            if False in demands:
                continue
            lits = [d for d in demands if d is not True]
            if all(_agree(x, y) for i, x in enumerate(lits) for y in lits[i + 1 :]):
                return False
    return True


# ---------------------------------------------------------------------------
# Example generation


def _a_row(inputs: tuple[ConcretePredicate, ...]) -> list[int]:
    """The input constants of ``inputs``, plus 1: a row of A."""
    return [v for p in inputs for v in p.args] + [1]


def _rotated(items: list, cap: int, turn: int) -> list:
    """``cap`` of ``items``, evenly spaced from a start that moves with ``turn``."""
    n = len(items)
    if n <= cap:
        return items
    step = n // cap
    return [items[(turn + t * step) % n] for t in range(cap)]


# The input template pairs from which each output template can reach full
# rank (invariant fillable).
FILLABLE: dict[TemplateKind, frozenset[tuple[TemplateKind, TemplateKind]]] = {
    LEN_EQ: frozenset({(LEN_EQ, LEN_EQ)}),
    LEN_NEQ: frozenset({(LEN_EQ, LEN_NEQ), (LEN_NEQ, LEN_EQ)}),
    CHAR_EQ: frozenset({(CHAR_EQ, k) for k in TemplateKind} | {(LEN_EQ, CHAR_EQ)}),
}


def generate_examples(
    chi0: TemplateKind,
    chis: tuple[TemplateKind, ...],
    oracle: SamplingOracle,
    pool: ConstantPool,
    slot_id: str,
) -> dict[int, list[int]]:
    """Sample valid concat rows from ``oracle.child(slot_id)`` until their
    input constants have full column rank, and return their echelon basis
    for ``solve_linear``.  Raises EmptySlot when the slot is refused
    (invariant fillable), sampling stalls or the budget runs out, or a row
    reducing to zero on A but not on B contradicts the rows before it.

    Rows for equality outputs pair the strongest abstractions of the
    sampled values.  Rows for a ``len !=`` output use a counterfactual
    pairing: the forbidden output length is the one the inputs' forbidden
    values would have produced, the forbidden length of a ``len !=`` input
    and the length of any other.  A row is seen once: rows are keyed by
    their constants alone, as each slot fixes the kinds of its predicates.
    """
    if chis not in FILLABLE.get(chi0, ()):
        raise EmptySlot(f"{inputs_text(chis)} -> {template_to_text(chi0)} cannot reach full rank")
    oracle = oracle.child(slot_id)
    seen_rows: set = set()
    n_cols = sum(t.holes for t in chis) + 1
    basis: dict[int, list[int]] = {}
    stall = 0
    neq_output = chi0 is LEN_NEQ

    for turn in range(MAX_SAMPLES):
        if len(basis) >= n_cols:
            break
        if stall >= STALL_SAMPLES:
            raise EmptySlot(f"no rank progress after {stall} samples")
        args = (oracle.draw_string(), oracle.draw_string())
        out_val = args[0] + args[1]
        input_choices = [_rotated(abstract(s, t, pool), INPUT_CAP, turn) for t, s in zip(chis, args)]

        progressed = False
        for sel in product(*input_choices):
            if neq_output:
                outputs = [len_neq(sum(p.args[0] if p.kind is LEN_NEQ else len(s) for s, p in zip(args, sel)))]
            else:
                outputs = _rotated(abstract(out_val, chi0, pool), OUTPUT_CAP, turn)
            for p0 in outputs:
                constants = (sel[0].args, sel[1].args, p0.args)
                if constants in seen_rows:
                    continue
                seen_rows.add(constants)
                if not row_valid(sel, p0):
                    continue
                reduced, pivot = _reduce(basis, [*_a_row(sel), *p0.args], n_cols)
                if pivot is not None:
                    basis[pivot] = reduced
                    progressed = True
                elif any(reduced[n_cols:]):
                    raise EmptySlot("inconsistent system")
        stall = 0 if progressed else stall + 1

    if len(basis) < n_cols:
        raise EmptySlot(f"rank {len(basis)} < {n_cols} after sampling budget")
    return basis


# ---------------------------------------------------------------------------
# Candidate validity, the soundness gate for a learned affine map (invariant
# exact-check).

# An instantiation at which a transformer fails: its input predicates and
# the output constants its matrix maps them to.
Counterexample = tuple[tuple[ConcretePredicate, ...], tuple[int, ...]]


def char_eq_rule(inputs: tuple[TemplateKind, ...], m: Matrix) -> Optional[str]:
    """The rule that the ``char =`` output with matrix ``m`` over ``inputs``
    is, "copy" or "shift", or None for any other shape (invariant
    copy-or-shift)."""
    zeros = (0,) * (len(m[0]) - 2)
    if inputs[0] is CHAR_EQ and m == ((1, 0, *zeros), (0, 1, *zeros)):
        return "copy"
    if (*inputs, m) == (LEN_EQ, CHAR_EQ, ((1, 1, 0, 0), (0, 0, 1, 0))):
        return "shift"
    return None


def check_valid(
    chis: tuple[TemplateKind, ...],
    chi0: TemplateKind,
    p_matrix: Matrix,
) -> bool:
    """Whether the concat transformer ``chis -> chi0`` with matrix ``p_matrix``
    is sound at every instantiation of its input templates (invariant
    exact-check).  Raises ValueError on a ``char !=`` output."""
    return counterexample(chis, chi0, p_matrix) is None


def counterexample(chis: tuple[TemplateKind, ...], chi0: TemplateKind, p_matrix: Matrix) -> Optional[Counterexample]:
    """An instantiation at which the transformer fails, or None when it is
    sound (invariant exact-check)."""
    if chi0 is TOP:
        return None
    if chi0 is LEN_NEQ:
        x = _len_neq_refutation(chis, p_matrix[0])
        return None if x is None else _instance(chis, p_matrix, x)
    if chi0 is LEN_EQ:
        sound = chis == (LEN_EQ, LEN_EQ) and p_matrix == ((1, 1, 0),)
    elif chi0 is CHAR_EQ:
        sound = char_eq_rule(chis, p_matrix) is not None
    else:
        raise ValueError(f"a {chi0} output is not decided")
    if sound:
        return None
    n = sum(t.holes for t in chis)
    for k in range(-1, n):  # 0, then each unit vector
        inputs, args = _instance(chis, p_matrix, [int(j == k) for j in range(n)])
        # A ``char =`` output that names a negative index derives nothing.
        if (chi0 is CHAR_EQ and args[0] < 0) or not row_valid(inputs, chi0.instantiate(args)):
            return inputs, args
    raise AssertionError(f"{inputs_text(chis)} -> {chi0} with matrix {p_matrix} holds at 0 and every unit vector")


def _instance(chis: tuple[TemplateKind, ...], p_matrix: Matrix, x: Sequence[int]) -> Counterexample:
    """The input predicates with the constants ``x``, and the output constants."""
    inputs, col = [], 0
    for t in chis:
        inputs.append(t.instantiate(tuple(x[col : col + t.holes])))
        col += t.holes
    return tuple(inputs), apply_affine(p_matrix, (*x, 1))


# The lengths each template admits, as intervals (lo, hi, least): lo and hi
# are (coefficient of its first constant, constant term), hi None when
# unbounded, and the interval is nonempty when that constant is >= least.
_LENGTHS = {
    TOP: [((0, 0), None, 0)],
    LEN_EQ: [((1, 0), (1, 0), 0)],
    LEN_NEQ: [((0, 0), (1, -1), 1), ((1, 1), None, 0)],
    CHAR_EQ: [((1, 1), None, 0)],
    CHAR_NEQ: [((0, 0), None, 0)],
}


def _len_neq_refutation(chis: tuple[TemplateKind, ...], e: Sequence[int]) -> Optional[list[int]]:
    """Constants at which the inputs ``chis`` admit a + b with ``len(a + b)``
    equal to the affine row ``e`` over them, or None (invariant exact-check)."""
    cols = (0, chis[0].holes)
    most = [None] * (len(e) - 1)
    for col, kind in zip(cols, chis):
        if kind.holes == 2:
            most[col + 1] = sys.maxunicode
    for pieces in product(*(_LENGTHS[kind] for kind in chis)):
        # e - lo1 - lo2 >= 0, hi1 + hi2 - e >= 0, and each piece nonempty.
        above, below, low = list(e), [-v for v in e], [0] * len(most)
        for col, (lo, hi, least) in zip(cols, pieces):
            above[col] -= lo[0]
            above[-1] -= lo[1]
            if hi is None:
                below = None
            elif below is not None:
                below[col] += hi[0]
                below[-1] += hi[1]
            if least:
                low[col] = least
        # With both bounded, both inputs are ``len =`` or ``len !=``: two constants.
        x = _maximize(above, low, most) if below is None else _solve_pair(low, above, below)
        if x is not None:
            return x
    return None


def _maximize(g: Sequence[int], low: Sequence[int], most: Sequence[Optional[int]]) -> Optional[list[int]]:
    """Integers x with ``low <= x <= most`` (no bound where ``most`` is None)
    at which the affine row ``g`` is at least 0, or None.  Each unknown
    takes the end of its range that ``g`` favours; an unbounded one that
    ``g`` rises with is then raised as far as ``g`` needs."""
    x = [hi if a > 0 and hi is not None else lo for a, lo, hi in zip(g, low, most)]
    value = sum(a * v for a, v in zip(g, x)) + g[-1]
    if value < 0:
        j = next((j for j, (a, hi) in enumerate(zip(g, most)) if a > 0 and hi is None), None)
        if j is None:
            return None
        x[j] -= value // g[j]
    return x


def _solve_pair(low: Sequence[int], g1: Sequence[int], g2: Sequence[int]) -> Optional[list[int]]:
    """Integers (n, m) >= ``low`` with ``a n + b m + c >= 0`` for both rows
    ``(a, b, c)``, ``g1`` and ``g2``, or None.

    For a fixed m, n lies between bounds ``n >= -(b m + c) / a`` (a > 0,
    and n >= low[0]) and ``n <= (b m + c) / -a`` (a < 0).  The rows with a =
    0, and each lower bound paired with each upper one (Fourier–Motzkin),
    leave an interval of m where the bounds meet over the reals; as n >=
    low[0] is an integer bound, they meet over the integers too unless g1
    and g2 bound n from opposite sides.  Then the number of n at m is a sum
    of two floors, and the least m where it is nonzero is found by bisection
    on its prefix sums (``_floor_sum``).  The gap between the two bounds is
    periodic in m, with period the product of their coefficients of n, or
    grows with m and is at least 1 from some m on.  No step counts to a
    bound: the work grows with the number of digits of the coefficients.
    """
    span = [low[1], None]

    def narrow(b: int, c: int) -> bool:
        """Narrow ``span`` to the m with ``b m + c >= 0``; False if there is none."""
        if b > 0:
            span[0] = max(span[0], -(c // b))
        elif b < 0:
            span[1] = c // -b if span[1] is None else min(span[1], c // -b)
        return b != 0 or c >= 0

    rows = [(1, 0, -low[0]), g1, g2]
    lowers = [r for r in rows if r[0] > 0]
    uppers = [(-a, b, c) for a, b, c in rows if a < 0]  # -a n <= b m + c
    if not all(narrow(b, c) for a, b, c in rows if a == 0):
        return None
    if not all(narrow(a1 * b2 + a2 * b1, a1 * c2 + a2 * c1) for a1, b1, c1 in lowers for a2, b2, c2 in uppers):
        return None
    lo, hi = span
    if uppers and len(lowers) == 2:
        (a1, b1, c1), (a2, b2, c2) = lowers[1], uppers[0]
        slope = a1 * b2 + a2 * b1
        if hi is None:
            # The upper bound less the lower is (slope m + k) / (a1 a2), k = a1 c2 + a2 c1.
            hi = max(lo, -((a1 * c2 + a2 * c1 - a1 * a2) // slope)) if slope > 0 else lo + a1 * a2 - 1

        def count(t: int) -> int:
            """The n between the two bounds, summed over m in [lo, lo + t)."""
            return _floor_sum(t, a2, b2, b2 * lo + c2) + _floor_sum(t, a1, b1, b1 * lo + c1) + t

        if hi < lo or not count(hi - lo + 1):
            return None
        first, last = 1, hi - lo + 1
        while first < last:
            mid = (first + last) // 2
            first, last = (first, mid) if count(mid) else (mid + 1, last)
        lo += first - 1
    elif hi is not None and hi < lo:
        return None
    return [max(-((b * lo + c) // a) for a, b, c in lowers), lo]


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of ``floor((a i + b) / m)`` over i in [0, n), for m > 0, by
    Euclid-like reduction in O(log) steps."""
    total = 0
    while n:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            break
        n, b, m, a = top // m, top % m, a, m
    return total


# ---------------------------------------------------------------------------
# The transformer table


@dataclass(frozen=True)
class Transformer:
    """A concat transformer: its two input templates and each output
    template with its matrix."""

    inputs: tuple[TemplateKind, ...]
    outputs: tuple[tuple[TemplateKind, Matrix], ...]


def inputs_text(kinds: Iterable[TemplateKind]) -> str:
    """Input templates as ``(len = c),(char i = c)``."""
    return ",".join(map(template_to_text, kinds))


class TransformerTable:
    """Concat transformers keyed by their pair of input templates, built once
    and normalized (invariant normalized-table).

    Raises ValueError unless each entry has two input templates, its
    matrices map their constants (plus 1) to the output holes, no output is
    ``top`` or ``char !=``, no two entries have the same inputs, and each
    ``char =`` output is the copy or the shift (invariant copy-or-shift).  A
    ``top`` output derives nothing, and a ``char !=`` one is easy to write
    unsound, such as ``(char i = c),top -> (char i != c)`` with ``[[1, 0,
    0], [0, 0, 0]]``, which says a[i] is not U+0000.  ``copies`` lists the
    second inputs of the copies, ``shift`` says whether the shift is there,
    ``affine`` holds the other outputs, and ``keeps_exact`` says whether it
    has the ``len =`` sum, the top copy and the shift (invariant
    exact-states).
    """

    def __init__(self, transformers: Iterable[Transformer] = ()):
        given: dict[tuple[TemplateKind, TemplateKind], Transformer] = {}
        for t in transformers:
            if len(t.inputs) != 2:
                raise ValueError(f"a concat transformer takes 2 input templates, not {len(t.inputs)}")
            width = sum(x.holes for x in t.inputs) + 1
            for chi, m in t.outputs:
                if chi in (TOP, CHAR_NEQ):
                    raise ValueError(f"transformer {inputs_text(t.inputs)} has a {chi} output")
                if len(m) != chi.holes or any(len(row) != width for row in m):
                    raise ValueError(f"a matrix for {chi} over {width - 1} input constants must be {chi.holes} x {width}")
            if t.inputs in given:
                raise ValueError(f"transformer {inputs_text(t.inputs)} is listed twice")
            given[t.inputs] = t
        kept = {k: tuple(o for o in given[k].outputs if not _found_at_top(given, k, o)) for k in sorted(given)}
        self.entries = {k: Transformer(k, outputs) for k, outputs in kept.items() if outputs}
        self.copies: list[TemplateKind] = []
        self.shift, self.affine = False, []
        for (k1, k2), t in self.entries.items():
            for m in [m for chi, m in t.outputs if chi is CHAR_EQ]:
                rule = char_eq_rule(t.inputs, m)
                if rule is None:
                    rows = [list(row) for row in m]
                    raise ValueError(f"transformer {inputs_text(t.inputs)} -> {CHAR_EQ} with matrix {rows} is neither a copy nor a shift")
                if rule == "copy":
                    self.copies.append(k2)
                else:
                    self.shift = True
            outputs = tuple(o for o in t.outputs if o[0] is not CHAR_EQ)
            if outputs:
                self.affine.append((k1, k2, outputs))
        len_sum = self.entries.get((LEN_EQ, LEN_EQ))
        self.keeps_exact = self.shift and TOP in self.copies and len_sum is not None and (LEN_EQ, ((1, 1, 0),)) in len_sum.outputs

    def all(self) -> list[Transformer]:
        return list(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)


def _found_at_top(given: dict, inputs: tuple[TemplateKind, TemplateKind], output: tuple[TemplateKind, Matrix]) -> bool:
    """Whether the given entry with ``top`` in place of an argument that
    ``output`` of entry ``inputs`` does not read has it too (invariant
    normalized-table)."""
    chi, matrix = output
    start = 0
    for j, x in enumerate(inputs):
        cols = range(start, start + x.holes)
        start += x.holes
        if x is TOP or any(row[c] for row in matrix for c in cols):
            continue
        kinds = list(inputs)
        kinds[j] = TOP
        at_top = given.get(tuple(kinds))
        narrowed = tuple(row[: cols.start] + row[cols.stop :] for row in matrix)
        if at_top is not None and (chi, narrowed) in at_top.outputs:
            return True
    return False


def top_table(constructs: Sequence[Construct]) -> TransformerTable:
    """The all-top table, which is empty: with no entry every derived state
    is top.  ``constructs`` is not read; it stays while the benchmark's
    worker (``perfbench/worker.py``) passes it."""
    return TransformerTable()


def learn_transformers(
    templates: Iterable[TemplateKind],
    oracle: SamplingOracle,
    pool: ConstantPool,
    cache: dict,
) -> TransformerTable:
    """Build the full concat transformer table for the given abstract domain.

    Each slot's output is fitted over generated examples and kept only if
    ``check_valid`` accepts it; slots are seeded individually and kept in
    ``cache`` by slot.  The table normalizes the entries (invariant
    normalized-table).
    """
    templates = sorted(set(templates))
    entries = []
    for chis in product(templates, repeat=2):
        outputs = []
        for chi0 in templates:
            if chi0 is TOP:
                continue
            slot_id = f"concat|{','.join(t.value for t in chis)}|{chi0.value}"
            if slot_id not in cache:
                cache[slot_id] = _learn_slot(chi0, chis, oracle, pool, slot_id)
            if cache[slot_id] is not None:
                outputs.append(cache[slot_id])
        entries.append(Transformer(chis, tuple(outputs)))
    return TransformerTable(entries)


def _learn_slot(chi0, chis, oracle, pool, slot_id):
    try:
        basis = generate_examples(chi0, chis, oracle, pool, slot_id)
    except EmptySlot:
        return None
    p_matrix = solve_linear(basis)
    if p_matrix is None or not check_valid(chis, chi0, p_matrix):
        return None
    return (chi0, p_matrix)


# ---------------------------------------------------------------------------
# Serialization (stable key order)


def _matrix_entry(n) -> int:
    if type(n) is not int:  # bool is not an int here
        raise ValueError(f"matrix entry {n!r} is not an integer")
    return n


def json_array(obj, what: str) -> list:
    """``obj``, which must be a JSON array: an object or a string would be
    read as its keys or its characters.  ValueError otherwise."""
    if type(obj) is not list:
        raise ValueError(f"{what} must be an array, not {type(obj).__name__}")
    return obj


def matrix_from_obj(obj: list) -> Matrix:
    return tuple(tuple(_matrix_entry(n) for n in json_array(row, "a matrix row")) for row in json_array(obj, "a matrix"))


def transformer_to_obj(t: Transformer) -> dict:
    return {
        "inputs": [template_to_text(x) for x in t.inputs],
        "outputs": [{"template": template_to_text(chi), "matrix": [list(row) for row in m]} for chi, m in t.outputs],
    }


def transformer_from_obj(obj: dict) -> Transformer:
    """The entry ``obj`` describes; keys other than its inputs and outputs are ignored."""
    return Transformer(
        inputs=tuple(template_from_text(x) for x in json_array(obj["inputs"], "inputs")),
        outputs=tuple(
            (template_from_text(o["template"]), matrix_from_obj(o["matrix"])) for o in json_array(obj["outputs"], "outputs")
        ),
    )
