"""Data-driven synthesis of sound affine abstract transformers for ``concat``.

For every tuple of input predicate templates, we sample concrete runs of
concat, abstract the sampled values into concrete predicate rows, keep the
rows that are valid implications, solve the linear system relating input
constants to output constants exactly over the rationals, and keep a
solution only if it is integral and survives the validity check.  Both
the row check and the validity check decide implications between
predicates exactly, by a small-model counterexample search; no sampling
is involved.  Learned matrices are tuples of integer rows.

Concat is the only construct learned: the synthesizer abstracts every
closed subterm (the input, constants and substrings) straight from its
value, so the table is read for concat alone.

A learned or loaded table is normalized: an output is dropped when the
entry with ``top`` in place of an argument it does not read already has
it, so each fact is derived by one entry.

The synthesizer abstracts leaves in reduced form, without the inequality
facts their equality facts imply (``best_abstraction``).  That is sound
under any table, since a subset of the true input facts maps to a subset
of the derived facts, which all hold.  It loses nothing when no entry with
a ``char !=`` input has an output, and each output of an entry with a
``len !=`` input is a ``len !=`` output with a nonzero coefficient on that
constant whose matrix the entry with ``len =`` in its place has as a
``len =`` output.  Then every fact derived from an implied ``len != k``
(beside ``len = n``, k != n) is implied by the fact derived from
``len = n``, as the map is injective in that constant.  Every table that
training builds at seeds 0-11 has that form; a hand-edited table that does
not can lose precision but not soundness.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .domain import (
    TOP,
    ConcretePredicate,
    ConstantPool,
    PredicateTemplate,
    TemplateKind,
    abstract,
    len_neq,
    TOP_PRED,
)


class InsufficientRank(Exception):
    """Sampling exhausted without the example matrix reaching full column rank."""


# ---------------------------------------------------------------------------
# Linear algebra.  Elimination is exact over the rationals; a learned
# transformer matrix is a tuple of integer rows.

Matrix = tuple[tuple[int, ...], ...]


def _eliminate(rows: Sequence[Sequence], n_cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan reduction of ``rows`` on their first ``n_cols`` columns.

    Returns the reduced rows (pivot rows first) and the pivot columns.
    """
    work = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    for c in range(n_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][c]
        work[r] = [v / inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


def column_rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    return len(_eliminate(rows, len(rows[0]))[1])


def solve_linear(a_rows: Sequence[Sequence], b_rows: Sequence[Sequence]) -> Optional[tuple[tuple[Fraction, ...], ...]]:
    """Exact rational solution P with A P^T = B, or None if the system is inconsistent.

    Underdetermined but consistent systems are solved with free variables
    fixed to zero; callers that need a unique answer must ensure A has full
    column rank first.
    """
    if not a_rows:
        return None
    n_in = len(a_rows[0])
    n_out = len(b_rows[0]) if b_rows else 0
    # Reduce the augmented matrix [A | B] once.
    work, pivots = _eliminate([list(a) + list(b) for a, b in zip(a_rows, b_rows)], n_in)
    for row in work[len(pivots):]:
        if any(v != 0 for v in row[n_in:]):
            return None  # 0 = nonzero: inconsistent
    solution = [[Fraction(0)] * n_in for _ in range(n_out)]
    for r, c in enumerate(pivots):
        for j in range(n_out):
            solution[j][c] = work[r][n_in + j]
    return tuple(tuple(row) for row in solution)


def apply_affine(p: Matrix, vec: Sequence[int]) -> tuple[int, ...]:
    """Map the integer constants ``vec`` (ending in 1) through ``p``."""
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in p)


def instantiate_output(chi0: PredicateTemplate, args: tuple[int, ...]) -> Optional[ConcretePredicate]:
    """``chi0`` filled with the constants an affine map predicted, or None
    when they name a negative character index."""
    if chi0.kind in (TemplateKind.CHAR_EQ, TemplateKind.CHAR_NEQ) and args[0] < 0:
        return None
    return chi0.instantiate(args)


# ---------------------------------------------------------------------------
# Constructs.  A construct is a concrete string operation with a fixed
# number of string-typed arguments.


@dataclass(frozen=True)
class Construct:
    op_id: str
    arity: int
    fn: Callable[..., str]

    def apply(self, args: Sequence[str]) -> str:
        return self.fn(*args)


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
# Example sets


@dataclass
class ExampleSet:
    """Rows of concrete transformer instances for one slot."""

    input_templates: tuple[PredicateTemplate, ...]
    output_template: PredicateTemplate
    rows: list[tuple[tuple[ConcretePredicate, ...], ConcretePredicate]] = field(default_factory=list)

    @property
    def n_constants(self) -> int:
        return sum(t.holes for t in self.input_templates)

    def matrix_a(self) -> list[list[int]]:
        return [[v for p in inputs for v in p.args] + [1] for inputs, _ in self.rows]

    def matrix_b(self) -> list[list[int]]:
        return [list(p0.args) for _, p0 in self.rows]


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
    if k is TemplateKind.TOP:
        return holds
    if k is TemplateKind.LEN_EQ:
        return (length == p.args[0]) == holds
    if k is TemplateKind.LEN_NEQ:
        return (length != p.args[0]) == holds
    i, c = p.args
    if i >= length:
        return (k is TemplateKind.CHAR_NEQ) == holds
    return (start + i, c, (k is TemplateKind.CHAR_EQ) == holds)


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


def _rotated(items: list, cap: int, turn: int) -> list:
    if len(items) <= cap:
        return items
    start = turn % len(items)
    step = max(1, len(items) // cap)
    picked = []
    for t in range(cap):
        picked.append(items[(start + t * step) % len(items)])
    seen = set()
    out = []
    for x in picked:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def _counterfactual(s: str, pred: ConcretePredicate, fill: str) -> str:
    """The string obtained by forcing ``s`` to satisfy the equality version
    of an inequality predicate (resize for length, substitute for chars)."""
    k = pred.kind
    if k is TemplateKind.LEN_NEQ:
        target = pred.args[0]
        if target <= len(s):
            return s[:target]
        return s + fill * (target - len(s))
    if k is TemplateKind.CHAR_NEQ:
        i, c = pred.args
        return s[:i] + chr(c) + s[i + 1 :]
    return s


def generate_examples(
    construct: Construct,
    chi0: PredicateTemplate,
    chis: tuple[PredicateTemplate, ...],
    oracle: SamplingOracle,
    pool: ConstantPool,
) -> ExampleSet:
    """Sample valid concrete transformer rows until the input matrix has full
    column rank.  Raises InsufficientRank when sampling stalls or the budget
    is exhausted.

    Rows for equality output templates pair the strongest abstractions of
    the sampled values.  Rows for the length-inequality output are generated
    by a counterfactual pairing: the forbidden output length is the one the
    inputs' forbidden values would have produced.  Character-inequality
    outputs yield no rows.
    """
    examples = ExampleSet(chis, chi0)
    seen_rows: set = set()
    target_rank = examples.n_constants + 1
    rank_now = 0
    stall = 0
    fill = oracle.alphabet[0]
    neq_output = chi0.kind is TemplateKind.LEN_NEQ
    if chi0.kind is TemplateKind.CHAR_NEQ:
        raise InsufficientRank("character-inequality outputs are not generated")
    if neq_output and not any(
        t.kind in (TemplateKind.LEN_NEQ, TemplateKind.CHAR_NEQ) for t in chis
    ):
        raise InsufficientRank("no inequality inputs to pair against")

    for turn in range(MAX_SAMPLES):
        if rank_now >= target_rank:
            break
        if stall >= STALL_SAMPLES:
            raise InsufficientRank(f"no rank progress after {stall} samples")
        args = tuple(oracle.draw_string() for _ in range(construct.arity))
        out_val = construct.apply(args)

        input_choices = []
        for t, s in zip(chis, args):
            cands = abstract(s, t, pool)
            input_choices.append(_rotated(cands, INPUT_CAP, turn))
        selections: list[tuple[ConcretePredicate, ...]] = [()]
        for choice in input_choices:
            selections = [sel + (p,) for sel in selections for p in choice]

        progressed = False
        for sel in selections:
            if neq_output:
                cf_args = [
                    _counterfactual(s, p, fill) if p.kind in (TemplateKind.LEN_NEQ, TemplateKind.CHAR_NEQ) else s
                    for s, p in zip(args, sel)
                ]
                outputs = [len_neq(len(construct.apply(cf_args)))]
            else:
                outputs = _rotated(abstract(out_val, chi0, pool), OUTPUT_CAP, turn)
            for p0 in outputs:
                row = (sel, p0)
                if row in seen_rows:
                    continue
                seen_rows.add(row)
                if not row_valid(sel, p0):
                    continue
                examples.rows.append(row)
                new_rank = column_rank(examples.matrix_a())
                if new_rank > rank_now:
                    rank_now = new_rank
                    progressed = True
        stall = 0 if progressed else stall + 1

    if rank_now < target_rank:
        raise InsufficientRank(
            f"rank {rank_now} < {target_rank} after sampling budget"
        )
    return examples


# ---------------------------------------------------------------------------
# Candidate validity (the final soundness gate for a learned affine map)

# Two distinct characters tell a character carried through from a constant one.
_BOX_CHARS = (ord("a"), ord("b"))


def check_valid(
    chis: tuple[PredicateTemplate, ...],
    chi0: PredicateTemplate,
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
        vec = [v for p in sel for v in p.args]
        vec.append(1)
        predicted = instantiate_output(chi0, apply_affine(p_matrix, vec))
        if predicted is None or not row_valid(sel, predicted):
            return False
    return True


# ---------------------------------------------------------------------------
# The transformer table


@dataclass(frozen=True)
class Transformer:
    op: str
    inputs: tuple[PredicateTemplate, ...]
    outputs: tuple[tuple[PredicateTemplate, Matrix], ...]

    @cached_property
    def used_arguments(self) -> tuple[bool, ...]:
        """Which arguments' holes feed some output row with a nonzero coefficient.

        An argument whose constants reach no output can be collapsed to one
        representative conjunct when applying the transformer, which keeps
        the cost proportional to the useful selections.
        """
        used = []
        start = 0
        for t in self.inputs:
            cols = range(start, start + t.holes)
            used.append(any(row[c] != 0 for _, m in self.outputs for row in m for c in cols))
            start += t.holes
        return tuple(used)


class TransformerTable:
    """Concat transformers keyed by their pair of input template kinds."""

    def __init__(self, transformers: Iterable[Transformer] = ()):
        self.entries: dict[tuple[TemplateKind, TemplateKind], Transformer] = {}
        for t in transformers:
            self.add(t)

    def add(self, t: Transformer):
        """Add ``t``; ValueError unless it is a concat transformer whose
        matrices map the input constants (plus 1) to the output holes."""
        if t.op != "concat":
            raise ValueError(f"transformers are kept for concat only, not {t.op!r}")
        if len(t.inputs) != 2:
            raise ValueError(f"a concat transformer takes 2 input templates, not {len(t.inputs)}")
        width = sum(x.holes for x in t.inputs) + 1
        for chi, m in t.outputs:
            if len(m) != chi.holes or any(len(row) != width for row in m):
                raise ValueError(f"a matrix for {chi} over {width - 1} input constants must be {chi.holes} x {width}")
        self.entries[(t.inputs[0].kind, t.inputs[1].kind)] = t

    def lookup(self, kinds: tuple[TemplateKind, TemplateKind]) -> Optional[Transformer]:
        return self.entries.get(kinds)

    def all(self) -> list[Transformer]:
        return [self.entries[k] for k in sorted(self.entries, key=lambda k: [x.value for x in k])]

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
        is still derived.  Entries are kept, empty or not; normalizing twice
        changes nothing.
        """
        return TransformerTable(
            Transformer(t.op, t.inputs, tuple(o for o in t.outputs if not self._found_at_top(t, o)))
            for t in self.all()
        )

    def _found_at_top(self, t: Transformer, output: tuple[PredicateTemplate, Matrix]) -> bool:
        chi, matrix = output
        start = 0
        for j, x in enumerate(t.inputs):
            cols = range(start, start + x.holes)
            start += x.holes
            if x.kind is TemplateKind.TOP or any(row[c] for row in matrix for c in cols):
                continue
            kinds = [y.kind for y in t.inputs]
            kinds[j] = TemplateKind.TOP
            at_top = self.lookup(tuple(kinds))
            narrowed = tuple(row[: cols.start] + row[cols.stop :] for row in matrix)
            if at_top is not None and (chi, narrowed) in at_top.outputs:
                return True
        return False


def top_table(constructs: Sequence[Construct]) -> TransformerTable:
    """The initial table: one all-top transformer per construct."""
    table = TransformerTable()
    for c in constructs:
        table.add(Transformer(c.op_id, (TOP,) * c.arity, ()))
    return table


def learn_transformers(
    templates: Iterable[PredicateTemplate],
    oracle: SamplingOracle,
    pool: ConstantPool,
    cache: dict,
) -> TransformerTable:
    """Build the full concat transformer table for the given abstract domain.

    One transformer per pair of input templates; each candidate output
    template is fitted by exact linear solving over generated examples and
    kept only if ``check_valid`` accepts it.  Slots are seeded individually
    so results are reproducible, and kept in ``cache`` by slot.  The table
    is returned normalized (``TransformerTable.normalized``): every entry is
    present, but an output that a more general entry already derives is not.
    """
    construct = concat_construct()
    templates = sorted(set(templates))
    table = TransformerTable()
    for chis in product(templates, repeat=construct.arity):
        outputs = []
        for chi0 in templates:
            if chi0.kind is TemplateKind.TOP:
                continue
            slot_id = f"{construct.op_id}|{','.join(t.kind.value for t in chis)}|{chi0.kind.value}"
            if slot_id not in cache:
                cache[slot_id] = _learn_slot(construct, chi0, chis, oracle, pool, slot_id)
            if cache[slot_id] is not None:
                outputs.append(cache[slot_id])
        table.add(Transformer(construct.op_id, chis, tuple(outputs)))
    return table.normalized()


def _learn_slot(construct, chi0, chis, oracle, pool, slot_id):
    slot_oracle = oracle.child(slot_id)
    try:
        examples = generate_examples(construct, chi0, chis, slot_oracle, pool)
    except InsufficientRank:
        return None
    solution = solve_linear(examples.matrix_a(), examples.matrix_b())
    if solution is None or any(f.denominator != 1 for row in solution for f in row):
        return None
    p_matrix = tuple(tuple(int(f) for f in row) for row in solution)
    if not check_valid(chis, chi0, p_matrix):
        return None
    return (chi0, p_matrix)


# ---------------------------------------------------------------------------
# Serialization (stable key order)


def matrix_to_obj(m: Matrix) -> list:
    """Entries are written as ``[numerator, denominator]`` pairs, always ``[n, 1]``."""
    return [[[n, 1] for n in row] for row in m]


def _matrix_entry(pair) -> int:
    num, den = pair
    if type(num) is not int or type(den) is not int or den != 1:  # bool is not an int here
        raise ValueError(f"matrix entry {pair!r} is not an integer")
    return num


def matrix_from_obj(obj: list) -> Matrix:
    return tuple(tuple(_matrix_entry(pair) for pair in row) for row in obj)


def transformer_to_obj(t: Transformer) -> dict:
    from .domain import template_to_text

    return {
        "op": t.op,
        "inputs": [template_to_text(x) for x in t.inputs],
        "outputs": [
            {"template": template_to_text(chi), "matrix": matrix_to_obj(m)} for chi, m in t.outputs
        ],
    }


def transformer_from_obj(obj: dict) -> Transformer:
    from .domain import template_from_text

    return Transformer(
        op=obj["op"],
        inputs=tuple(template_from_text(x) for x in obj["inputs"]),
        outputs=tuple(
            (template_from_text(o["template"]), matrix_from_obj(o["matrix"])) for o in obj["outputs"]
        ),
    )
