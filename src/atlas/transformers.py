"""Data-driven synthesis of sound affine abstract transformers for ``concat``.

For every tuple of input predicate templates, we sample concrete runs of
concat, abstract the sampled values into concrete predicate rows, keep the
rows that are valid implications, solve the linear system relating input
constants to output constants exactly, and keep a solution only if it is
integral and survives the validity check.  Both the row check and the
validity check decide implications between predicates exactly, by a
small-model counterexample search; no sampling is involved.  Learned
matrices are tuples of integer rows.

The linear algebra is on integer rows, with one fraction-free reduction
(``_reduce``).  Each slot has one echelon basis of its rows ``[A | B]``
(input constants plus 1, then output constants), with pivots on A's
columns.  Sampling reduces each valid row into it once, and stops at full
rank or at a row that contradicts the basis; ``solve_linear`` then
back-substitutes in the basis, in integers, and finds no integral map
when a division is not exact.

Whether a slot can reach full rank depends on its three templates alone,
so a slot that cannot is refused before it draws a sample (``FILLABLE``);
``generate_examples`` gives the rule and why it is exact.

Concat is the only construct learned: the synthesizer abstracts every
closed subterm (the input, constants and substrings) straight from its
value, so the table is read for concat alone.  It reads each ``char =``
output as the copy or shift rule the table compiles it to, and maps the
other constants through their matrices itself, so ``apply_affine`` serves
the validity check (training and bundle loading) only.

A table is built once and never changes, and it stores only the entries
that have outputs: a pair of input templates without an entry derives
nothing, and the empty table is the all-top table.  A learned or loaded
table is normalized: an output is dropped when the entry with ``top`` in
place of an argument it does not read already has it, so each fact is
derived by one entry.

The synthesizer abstracts leaves in reduced form, without the inequality
facts their equality facts imply (``best_abstraction``).  That is sound
under any table: a subset of the true input facts maps to a subset of the
derived facts.  It loses nothing when no entry with a ``char !=`` input
has an output, and each output of an entry with a ``len !=`` input is a
``len !=`` output, injective in that constant, whose matrix the entry with
``len =`` in its place has as a ``len =`` output: a fact derived from an
implied ``len != k`` is then implied by the one derived from ``len = n``.
``test_learned_tables_keep_reduced_leaves_lossless`` checks that learned
tables have that form and read every non-top argument of each entry; a
hand-edited table that does not can lose precision but not soundness.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Callable, Iterable, Optional, Sequence

from .domain import CHAR_EQ, CHAR_NEQ, LEN_EQ, LEN_NEQ, TOP, TOP_PRED, ConcretePredicate, ConstantPool, TemplateKind
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
    """Map the integer constants ``vec`` (ending in 1) through ``p``.

    ``check_valid`` calls it; the synthesizer computes the same map inline."""
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
# rank; every other slot is refused before sampling (see ``generate_examples``).
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
) -> dict[int, list[int]]:
    """Sample valid concrete concat rows until their input constants have
    full column rank, and return the echelon basis of the rows for
    ``solve_linear``.  Raises EmptySlot when the slot is refused, sampling
    stalls or the budget is exhausted, or the system is inconsistent.

    Each valid row, its row of A (``_a_row``) followed by the output's
    constants, is reduced once against the basis (``_reduce``).  A row
    with a pivot on A's columns joins it, so the rank grows by one
    reduction per row.  A row that reduces to zero on A but not on B
    contradicts the rows before it: no affine map fits them all.

    Rows for equality output templates pair the strongest abstractions of
    the sampled values.  Rows for the length-inequality output are generated
    by a counterfactual pairing: the forbidden output length is the one the
    inputs' forbidden values would have produced, the forbidden length of a
    ``len !=`` input and the length of any other.

    A slot that cannot reach full rank is refused before any draw
    (``FILLABLE``): a ``len = c`` output needs both inputs ``len = c``; a
    ``len != c`` output needs one ``len = c`` and one ``len != c`` input, in
    either order; a ``char i = c`` output needs a first input
    ``char i = c``, or a first input ``len = c`` and a second input
    ``char i = c``; a ``char i != c`` output is never generated.

    The rule is exact.  ``top`` and ``char i != c`` admit every length,
    ``len != y`` every length but y, ``char i = c`` every length above i,
    and ``len = n`` only n; the characters at unconstrained positions are
    free, as ``row_valid`` assumes an unbounded alphabet.  So an equality
    output is valid only where the inputs fix it: its length only when both
    lengths are fixed, its character only when the first input pins it or
    the first length is fixed and the second input pins it.  A ``len !=``
    row built by the counterfactual pairing is never valid without a
    ``len !=`` input, since the sampled pair is itself a counterexample.
    In the other refused pairs every valid row has the ``len !=`` constant
    0, so that column stays zero and the rank below full.  A refused slot
    thus always ended in EmptySlot, and as each slot draws from its
    own child oracle, skipping its draws changes no other slot.
    """
    if chis not in FILLABLE.get(chi0, ()):
        raise EmptySlot(f"{inputs_text(chis)} -> {template_to_text(chi0)} cannot reach full rank")
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
                row = (sel, p0)
                if row in seen_rows:
                    continue
                seen_rows.add(row)
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
# Candidate validity (the final soundness gate for a learned affine map)

# Two distinct characters tell a character carried through from a constant one.
_BOX_CHARS = (ord("a"), ord("b"))


def check_valid(
    chis: tuple[TemplateKind, ...],
    chi0: TemplateKind,
    p_matrix: Matrix,
) -> bool:
    """Check the candidate concat transformer ``chis -> chi0`` with matrix ``p_matrix``.

    The input templates are instantiated over a finite box: lengths and
    indices in 0-4 and within one of ``|c|`` for each constant term ``c``
    of the matrix, characters one of two distinct characters.  Each
    instantiation is mapped through the matrix, and the predicted output
    must follow from the inputs for all strings (``row_valid``).  The
    constant terms put the box where an offset such as
    ``len != x + y - 40`` first fails (y = 40).
    """
    values = sorted(set(range(5)) | _near(abs(row[-1]) for row in p_matrix))
    per_arg: list[list[ConcretePredicate]] = []
    for t in chis:
        if t.holes == 0:
            per_arg.append([TOP_PRED])
        elif t.holes == 1:
            per_arg.append([t.instantiate((v,)) for v in values])
        else:
            per_arg.append([t.instantiate((i, c)) for i in values for c in _BOX_CHARS])
    for sel in product(*per_arg):
        args = apply_affine(p_matrix, _a_row(sel))
        # An output that names a negative character index derives nothing.
        if (chi0 in (CHAR_EQ, CHAR_NEQ) and args[0] < 0) or not row_valid(sel, chi0.instantiate(args)):
            return False
    return True


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
    """Concat transformers keyed by their pair of input templates.

    Built once from its entries, empty or not, and never changed.  Raises
    ValueError unless each entry has two input templates, its matrices map
    their constants (plus 1) to the output holes, and no other entry has
    the same inputs.  ``entries`` holds only the entries with outputs, in
    sorted key order.  A missing entry derives nothing, so ``lookup``
    returns None for it and the empty table is the all-top table.

    Each ``char =`` output is compiled once: a copy (first input ``char
    =``, matrix ``[[1, 0, 0...], [0, 1, 0...]]``) keeps the left character
    facts, and ``copies`` lists its second inputs; the shift (``(len =, char
    =)``, ``[[1, 1, 0, 0], [0, 0, 1, 0]]``) moves the right ones by the left
    length.  Any other shape raises ValueError, and none is sound: at each
    point of ``check_valid``'s box the only sound ``char =`` fact is the
    pinned one, or the right one moved by the left length, and the box
    holds affinely independent points.  ``affine`` holds the other outputs.
    """

    def __init__(self, transformers: Iterable[Transformer] = ()):
        given: dict[tuple[TemplateKind, TemplateKind], Transformer] = {}
        for t in transformers:
            if len(t.inputs) != 2:
                raise ValueError(f"a concat transformer takes 2 input templates, not {len(t.inputs)}")
            width = sum(x.holes for x in t.inputs) + 1
            for chi, m in t.outputs:
                if len(m) != chi.holes or any(len(row) != width for row in m):
                    raise ValueError(f"a matrix for {chi} over {width - 1} input constants must be {chi.holes} x {width}")
            if t.inputs in given:
                raise ValueError(f"transformer {inputs_text(t.inputs)} is listed twice")
            given[t.inputs] = t
        self.entries = {k: given[k] for k in sorted(given) if given[k].outputs}
        self.copies: list[TemplateKind] = []
        self.shift, self.affine = False, []
        for (k1, k2), t in self.entries.items():
            for m in [m for chi, m in t.outputs if chi is CHAR_EQ]:
                zeros = (0,) * (len(m[0]) - 2)
                if k1 is CHAR_EQ and m == ((1, 0, *zeros), (0, 1, *zeros)):
                    self.copies.append(k2)
                elif (k1, k2, m) == (LEN_EQ, CHAR_EQ, ((1, 1, 0, 0), (0, 0, 1, 0))):
                    self.shift = True
                else:
                    rows = [list(row) for row in m]
                    raise ValueError(f"transformer {inputs_text(t.inputs)} -> {CHAR_EQ} with matrix {rows} is neither a copy nor a shift")
            outputs = tuple(o for o in t.outputs if o[0] not in (CHAR_EQ, TOP))
            if outputs:
                self.affine.append((k1, k2, outputs))

    def lookup(self, kinds: tuple[TemplateKind, TemplateKind]) -> Optional[Transformer]:
        return self.entries.get(kinds)

    def all(self) -> list[Transformer]:
        return list(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def normalized(self) -> "TransformerTable":
        """The table without the outputs that another entry already derives.

        Every state has the top kind, so an entry is always read together
        with the entry that has ``top`` in place of one of its arguments.
        An output that reads none of that argument's holes, and that this
        other entry has too (less the argument's zero columns), derives
        nothing more and is dropped.  That entry has fewer non-top inputs,
        so a chain of such matches ends at an output that is kept: the
        drops are decided on this table together, and whatever is dropped
        is still derived.  An entry left without outputs is not stored;
        normalizing twice changes nothing.
        """
        return TransformerTable(
            Transformer(t.inputs, tuple(o for o in t.outputs if not self._found_at_top(t, o))) for t in self.all()
        )

    def _found_at_top(self, t: Transformer, output: tuple[TemplateKind, Matrix]) -> bool:
        chi, matrix = output
        start = 0
        for j, x in enumerate(t.inputs):
            cols = range(start, start + x.holes)
            start += x.holes
            if x is TOP or any(row[c] for row in matrix for c in cols):
                continue
            kinds = list(t.inputs)
            kinds[j] = TOP
            at_top = self.lookup(tuple(kinds))
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

    One transformer per pair of input templates; each candidate output
    template is fitted by exact linear solving over generated examples and
    kept only if ``check_valid`` accepts it.  Slots are seeded individually
    so results are reproducible, and kept in ``cache`` by slot.  The table
    is returned normalized (``TransformerTable.normalized``): an output that
    a more general entry already derives is not in it, and neither is an
    entry without outputs.
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
    return TransformerTable(entries).normalized()


def _learn_slot(chi0, chis, oracle, pool, slot_id):
    try:
        basis = generate_examples(chi0, chis, oracle.child(slot_id), pool)
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
