"""Data-driven synthesis of sound affine abstract transformers for ``concat``.

For every tuple of input predicate templates, we sample concrete runs of
concat, abstract the sampled values into concrete predicate rows, solve
the linear system relating input constants to output constants exactly
over the rationals, and keep a solution only if it is integral and a
refutation-by-sampling validity oracle fails to find a counterexample.
Learned matrices are tuples of integer rows.

Concat is the only construct learned: the synthesizer abstracts every
closed subterm (the input, constants and substrings) straight from its
value, so the table is read for concat alone.
"""

from __future__ import annotations

import hashlib
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .domain import (
    ConcretePredicate,
    ConstantPool,
    PredicateTemplate,
    TemplateKind,
    abstract,
    char_neq,
    gamma_contains,
    len_neq,
    TOP_PRED,
)


class InsufficientRank(Exception):
    """Sampling exhausted without the example matrix reaching full column rank."""


# ---------------------------------------------------------------------------
# Linear algebra.  Elimination is exact over the rationals; a learned
# transformer matrix is a tuple of integer rows.

Matrix = tuple[tuple[int, ...], ...]


def as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(operator.index(x) for x in row) for row in rows)


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
# Sampling oracle: seeded, finite-support distribution over strings.


class SamplingOracle:
    """Deterministic pseudo-random string source.

    Lengths follow a geometric distribution capped at ``max_len``; characters
    are drawn uniformly from a finite alphabet, so the support is finite.
    """

    def __init__(self, seed: int, alphabet: str = "", max_len: int = 12):
        base = "abcdefghijklmnopqrstuvwxyz0123456789"
        merged = sorted(set(alphabet) | set(base))
        self.alphabet = "".join(merged)
        self.seed = seed
        self.max_len = max_len
        self.rng = random.Random(seed)

    def child(self, tag: str) -> "SamplingOracle":
        digest = hashlib.sha256(f"{self.seed}:{tag}".encode()).digest()
        derived = int.from_bytes(digest[:8], "big")
        return SamplingOracle(derived, self.alphabet, self.max_len)

    def draw_length(self) -> int:
        n = 0
        while n < self.max_len and self.rng.random() < 0.72:
            n += 1
        return n

    def draw_char(self) -> str:
        return self.rng.choice(self.alphabet)

    def draw_char_not(self, c: int) -> str:
        ch = self.rng.choice(self.alphabet)
        if ord(ch) == c:
            idx = (self.alphabet.index(ch) + 1) % len(self.alphabet)
            ch = self.alphabet[idx]
        return ch

    def draw_string(self, length: Optional[int] = None) -> str:
        n = self.draw_length() if length is None else length
        return "".join(self.draw_char() for _ in range(n))

    def draw_satisfying(self, pred: ConcretePredicate) -> str:
        k = pred.kind
        if k is TemplateKind.TOP:
            return self.draw_string()
        if k is TemplateKind.LEN_EQ:
            return self.draw_string(pred.args[0])
        if k is TemplateKind.LEN_NEQ:
            n = self.draw_length()
            if n == pred.args[0]:
                n = n + 1 if n + 1 != pred.args[0] else n + 2
            return self.draw_string(n)
        if k is TemplateKind.CHAR_EQ:
            i, c = pred.args
            n = max(self.draw_length(), i + 1)
            s = [self.draw_char() for _ in range(n)]
            s[i] = chr(c)
            return "".join(s)
        if k is TemplateKind.CHAR_NEQ:
            i, c = pred.args
            n = self.draw_length()
            s = [self.draw_char() for _ in range(n)]
            if i < n and ord(s[i]) == c:
                s[i] = self.draw_char_not(c)
            return "".join(s)
        raise ValueError(k)


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class LearnConfig:
    max_samples: int = 5000
    stall_samples: int = 25
    row_check_random: int = 24
    grid_len_max: int = 8
    grid_cap: int = 96
    validity_samples: int = 2000
    input_cap: int = 3
    output_cap: int = 4


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

    def full_rank(self) -> bool:
        return column_rank(self.matrix_a()) == self.n_constants + 1


# ---------------------------------------------------------------------------
# Row validity: refutation by sampling plus a deterministic small-case grid.


def _grid_lengths(pred: ConcretePredicate, max_len: int) -> list[int]:
    k = pred.kind
    if k is TemplateKind.LEN_EQ:
        return [pred.args[0]]
    if k is TemplateKind.LEN_NEQ:
        return [n for n in range(max_len + 1) if n != pred.args[0]]
    if k is TemplateKind.CHAR_EQ:
        i = pred.args[0]
        return list(range(i + 1, i + 1 + max_len // 2 + 1))
    return list(range(max_len + 1))


def _string_for(pred: ConcretePredicate, length: int, oracle: SamplingOracle) -> Optional[str]:
    """A random string of the given length satisfying ``pred``, or None."""
    k = pred.kind
    if k is TemplateKind.LEN_EQ and length != pred.args[0]:
        return None
    if k is TemplateKind.LEN_NEQ and length == pred.args[0]:
        return None
    s = [oracle.draw_char() for _ in range(length)]
    if k is TemplateKind.CHAR_EQ:
        i, c = pred.args
        if i >= length:
            return None
        s[i] = chr(c)
    if k is TemplateKind.CHAR_NEQ:
        i, c = pred.args
        if i < length and ord(s[i]) == c:
            s[i] = oracle.draw_char_not(c)
    return "".join(s)


def row_valid(
    construct: Construct,
    inputs: tuple[ConcretePredicate, ...],
    output: ConcretePredicate,
    oracle: SamplingOracle,
    cfg: LearnConfig,
) -> bool:
    """Check the implication inputs & semantics => output by searching for a
    counterexample over conditioned samples."""
    # Deterministic sweep over small length combinations.
    grids = [_grid_lengths(p, cfg.grid_len_max) for p in inputs]
    combos: list[tuple[int, ...]] = [()]
    for g in grids:
        combos = [c + (n,) for c in combos for n in g]
        if len(combos) > cfg.grid_cap * 4:
            combos = combos[: cfg.grid_cap * 4]
    for combo in combos[: cfg.grid_cap]:
        args = []
        ok = True
        for pred, length in zip(inputs, combo):
            s = _string_for(pred, length, oracle)
            if s is None:
                ok = False
                break
            args.append(s)
        if ok and not gamma_contains(output, construct.apply(args)):
            return False

    for _ in range(cfg.row_check_random):
        args = [oracle.draw_satisfying(p) for p in inputs]
        if not gamma_contains(output, construct.apply(args)):
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
    cfg: LearnConfig,
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
    row_cache: dict = {}
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

    for turn in range(cfg.max_samples):
        if rank_now >= target_rank:
            break
        if stall >= cfg.stall_samples:
            raise InsufficientRank(f"no rank progress after {stall} samples")
        args = tuple(oracle.draw_string() for _ in range(construct.arity))
        out_val = construct.apply(args)

        input_choices = []
        for t, s in zip(chis, args):
            cands = abstract(s, t, pool)
            input_choices.append(_rotated(cands, cfg.input_cap, turn))
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
                outputs = _rotated(abstract(out_val, chi0, pool), cfg.output_cap, turn)
            for p0 in outputs:
                row = (sel, p0)
                if row in seen_rows:
                    continue
                seen_rows.add(row)
                if row not in row_cache:
                    row_cache[row] = row_valid(construct, sel, p0, oracle, cfg)
                if not row_cache[row]:
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


def _neq_fillings(pred_template: PredicateTemplate, s: str, pool: ConstantPool, turn: int) -> list[ConcretePredicate]:
    """Constant choices that keep an inequality template true of ``s``."""
    k = pred_template.kind
    if k is TemplateKind.LEN_NEQ:
        n = len(s)
        cands = [n + 1, max(0, n - 1), 0, n + 2, n + 5]
        out = [len_neq(v) for v in dict.fromkeys(cands) if v != n]
        extra = [v for v in pool.lengths if v != n]
        if extra:
            out.append(len_neq(extra[turn % len(extra)]))
        return out
    if k is TemplateKind.CHAR_NEQ:
        out = []
        positions = [i for i in pool.indices if i < len(s)] or []
        for i in positions[:3]:
            forbidden = [c for c in pool.chars if c != ord(s[i])]
            if forbidden:
                out.append(char_neq(i, forbidden[turn % len(forbidden)]))
        if not positions:
            # Vacuous instantiations: index beyond the string.
            ch = pool.chars[0] if pool.chars else ord("a")
            out.append(char_neq(len(s), ch))
        return out
    raise ValueError(k)


def _strongest_inputs(
    chis: tuple[PredicateTemplate, ...],
    args: tuple[str, ...],
    pool: ConstantPool,
    turn: int,
) -> list[tuple[ConcretePredicate, ...]]:
    per_arg: list[list[ConcretePredicate]] = []
    for t, s in zip(chis, args):
        k = t.kind
        if k is TemplateKind.TOP:
            per_arg.append([TOP_PRED])
        elif k in (TemplateKind.LEN_EQ, TemplateKind.CHAR_EQ):
            cands = abstract(s, t, pool)
            if not cands:
                return []
            per_arg.append(_rotated(cands, 2, turn))
        else:
            per_arg.append(_neq_fillings(t, s, pool, turn))
    combos: list[tuple[ConcretePredicate, ...]] = [()]
    for choice in per_arg:
        combos = [c + (p,) for c in combos for p in choice]
    return combos[:12]


def check_valid(
    construct: Construct,
    chis: tuple[PredicateTemplate, ...],
    chi0: PredicateTemplate,
    p_matrix: Matrix,
    oracle: SamplingOracle,
    cfg: LearnConfig,
    pool: ConstantPool,
) -> bool:
    """Refutation-by-sampling check of a candidate transformer output.

    Draws fresh tuples, instantiates the strongest consistent input
    predicates, maps their constants through the affine matrix, and tests
    the predicted output predicate on the concrete output.
    """
    if chi0.kind is TemplateKind.TOP:
        return True

    def refuted_by(args: tuple[str, ...], turn: int) -> bool:
        out_val = construct.apply(args)
        for sel in _strongest_inputs(chis, args, pool, turn):
            vec = [v for p in sel for v in p.args]
            vec.append(1)
            predicted = instantiate_output(chi0, apply_affine(p_matrix, vec))
            if predicted is None:
                return True
            if not gamma_contains(predicted, out_val):
                return True
        return False

    # Deterministic length sweep first, then random draws.
    combos: list[tuple[int, ...]] = [()]
    for _ in range(construct.arity):
        combos = [c + (n,) for c in combos for n in range(cfg.grid_len_max + 1)]
    for turn, combo in enumerate(combos[: cfg.grid_cap]):
        args = tuple(oracle.draw_string(n) for n in combo)
        if refuted_by(args, turn):
            return False

    for turn in range(cfg.validity_samples):
        args = tuple(oracle.draw_string() for _ in range(construct.arity))
        if refuted_by(args, turn):
            return False
    return True


# ---------------------------------------------------------------------------
# The transformer table


@dataclass(frozen=True)
class Transformer:
    op: str
    inputs: tuple[PredicateTemplate, ...]
    outputs: tuple[tuple[PredicateTemplate, Matrix], ...]
    validated_samples: int = 0
    seed: int = 0


class TransformerTable:
    def __init__(self, transformers: Iterable[Transformer] = ()):
        self.entries: dict[tuple[str, tuple[TemplateKind, ...]], Transformer] = {}
        for t in transformers:
            self.add(t)

    def add(self, t: Transformer):
        self.entries[(t.op, tuple(x.kind for x in t.inputs))] = t

    def lookup(self, op: str, kinds: tuple[TemplateKind, ...]) -> Optional[Transformer]:
        return self.entries.get((op, kinds))

    def all(self) -> list[Transformer]:
        return [self.entries[k] for k in sorted(self.entries, key=lambda k: (k[0], [x.value for x in k[1]]))]

    def __len__(self) -> int:
        return len(self.entries)


def top_table(constructs: Sequence[Construct]) -> TransformerTable:
    """The initial table: one all-top transformer per construct."""
    table = TransformerTable()
    from .domain import TOP as TOP_TEMPLATE

    for c in constructs:
        table.add(Transformer(c.op_id, (TOP_TEMPLATE,) * c.arity, ()))
    return table


def learn_transformers(
    constructs: Sequence[Construct],
    templates: Iterable[PredicateTemplate],
    oracle: SamplingOracle,
    cfg: LearnConfig,
    pool: Optional[ConstantPool] = None,
    cache: Optional[dict] = None,
) -> TransformerTable:
    """Build the full transformer table for the given abstract domain.

    One transformer per (construct, input-template tuple); each candidate
    output template is fitted by exact linear solving over generated
    examples and kept only if the validity oracle accepts it.  Slots are
    seeded individually so results are reproducible and cacheable.
    """
    pool = pool or ConstantPool.default()
    templates = sorted(set(templates))
    table = TransformerTable()
    for construct in sorted(constructs, key=lambda c: c.op_id):
        tuples: list[tuple[PredicateTemplate, ...]] = [()]
        for _ in range(construct.arity):
            tuples = [t + (x,) for t in tuples for x in templates]
        for chis in tuples:
            outputs = []
            for chi0 in templates:
                if chi0.kind is TemplateKind.TOP:
                    continue
                slot_id = f"{construct.op_id}|{','.join(t.kind.value for t in chis)}|{chi0.kind.value}"
                if cache is not None and slot_id in cache:
                    result = cache[slot_id]
                else:
                    result = _learn_slot(construct, chi0, chis, oracle, cfg, pool, slot_id)
                    if cache is not None:
                        cache[slot_id] = result
                if result is not None:
                    outputs.append(result)
            table.add(
                Transformer(
                    construct.op_id,
                    chis,
                    tuple(outputs),
                    validated_samples=cfg.validity_samples,
                    seed=oracle.seed,
                )
            )
    return table


def _learn_slot(construct, chi0, chis, oracle, cfg, pool, slot_id):
    slot_oracle = oracle.child(slot_id)
    try:
        examples = generate_examples(construct, chi0, chis, slot_oracle, cfg, pool)
    except InsufficientRank:
        return None
    solution = solve_linear(examples.matrix_a(), examples.matrix_b())
    if solution is None or any(f.denominator != 1 for row in solution for f in row):
        return None
    p_matrix = tuple(tuple(int(f) for f in row) for row in solution)
    if not check_valid(construct, chis, chi0, p_matrix, slot_oracle.child("validity"), cfg, pool):
        return None
    return (chi0, p_matrix)


# ---------------------------------------------------------------------------
# Serialization (stable key order)


def matrix_to_obj(m: Matrix) -> list:
    """Entries are written as ``[numerator, denominator]`` pairs, always ``[n, 1]``."""
    return [[[n, 1] for n in row] for row in m]


def _matrix_entry(pair) -> int:
    num, den = pair
    if den != 1:
        raise ValueError(f"matrix entry {pair!r} is not an integer")
    return operator.index(num)


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
        "validated_samples": t.validated_samples,
        "seed": t.seed,
    }


def transformer_from_obj(obj: dict) -> Transformer:
    from .domain import template_from_text

    return Transformer(
        op=obj["op"],
        inputs=tuple(template_from_text(x) for x in obj["inputs"]),
        outputs=tuple(
            (template_from_text(o["template"]), matrix_from_obj(o["matrix"])) for o in obj["outputs"]
        ),
        validated_samples=obj.get("validated_samples", 0),
        seed=obj.get("seed", 0),
    )
