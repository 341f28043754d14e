"""Abstraction-guided bottom-up synthesizer.

Programs are enumerated in rank order with a per-example abstract state
attached to every subprogram.  Closed subterms (the input leaf, constant
strings, and substring extractions of the input) are described by the
strongest conjunction the current domain can express about their concrete
value, in reduced form (``best_abstraction``); concatenations are
described by applying the learned transformer table to their children's
states.  Every state is sound whatever the table, and under the tables
training learns the reduction changes no concretization, and so no
verdict (see ``transformers``).  A subprogram is dropped when its state
cannot describe any substring of some expected output (no completion could
then be consistent), and a complete candidate is accepted when every
expected output lies in the concretization of its state.

``run`` is the one search loop.  It walks the AST sizes in order, and
``_batch`` yields the candidates of one size, building concatenations from
the pools of kept candidates of the smaller sizes.  For each candidate,
``run`` counts it, checks the budget and the deadline, drops it when its
values repeat an earlier candidate's, and gets its verdict once.  It then
returns it, prunes it, or pools it.

A candidate's state vector (its tuple of per-example states) determines
all of its abstract work: the states of a concatenation depend only on the
children's vectors and the table, and the accept and embed verdicts only on
the vector and the expected outputs.  Each synthesizer therefore keeps a
registry of the distinct vectors of pooled candidates, each with a small
int id and its accept verdict (a pooled vector always embeds), plus a
cache from pairs of child ids to the id of their concatenation's vector.
``_batch`` gives a concatenation the cached id of its child-id pair when
there is one; every other candidate, leaf or concatenation, is made with
None.  ``run`` derives the states of those only after the dedup check,
one example at a time, and prunes at the first state that does not embed
its output: that candidate cannot be accepted either, since an output in a
state's concretization embeds at offset 0.  Only a vector that embeds on
every example is looked up in the registry; a registered one takes its
verdict, and only then, for a concatenation, is its child-id pair cached.
Any other is judged with ``gamma_contains``.  Only pooling registers, so
the registry is never larger than the pools.

What is computed afresh is kept cheap instead of memoized per pair of
states.  A state is a tuple of four plain fields (``AbstractValue``),
with its ``char =`` facts as runs of known characters, and it hashes and
compares as a tuple.  Every ``char =`` output a table holds copies the
left runs or shifts the right ones by the left length, since no other
shape is sound on ``check_valid``'s box (``TransformerTable``).  So
``apply_transformer`` moves whole runs, and ``state_embeds`` finds the
first run in the output and checks the rest with ``startswith``.  The
three functions the verdicts and states come from, ``apply_transformer``,
``state_embeds`` and ``gamma_contains``, are called through this module's
globals, so that a tracer which replaces them by name sees every call.

Most candidates are never kept and only the returned one's program is
read, so a candidate is a plain tuple record, laid out in ``_batch``: its
values, the registry id of its vector or None, and either the number of its
leaf or its two child records.  Records hold only ``str``, ``int``, ``None``
and records, so CPython's cyclic collector untracks them and a full
collection does not walk the pools; a record that held an AST node, a state
or any other class instance would stay tracked.  So a pooled record's
vector is ``_vectors[sid]``, and one not registered lives only inside
``run``.  ``_node`` builds the returned program's AST from its record.

When the enumeration reaches the ``substr`` leaves (size 4), it resolves
every term of the position pool on every example input once, into a
position table: a row of ints per position, or None when a ``cpos``
occurrence is missing on some input.  A ``substr`` leaf is made only when
its window is valid on every input, and its values are slices; no leaf is
evaluated through the DSL.  A concatenation's values are the pairwise sums
of its children's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import add, mul
from itertools import product, repeat
from typing import Iterator, Optional

from . import dsl
from .dsl import AstNode, EvalError, Program
from .domain import CHAR_NEQ, LEN_EQ, LEN_NEQ, BOTTOM, ConstantPool, StateLike, TemplateKind, best_abstraction, gamma_contains, state_of
# ``apply_affine`` is not called here; the name stays because the benchmark's
# tracer tests (``perfbench/tests``) read it as ``synthesizer.apply_affine``.
from .transformers import TransformerTable, apply_affine  # noqa: F401


@dataclass(frozen=True)
class SynthesisTask:
    examples: tuple[tuple[str, str], ...]
    max_ast_size: int = 14
    max_candidates: int = 200_000
    literals: tuple[str, ...] = ()
    timeout_ms: Optional[int] = None

    def __post_init__(self):
        if not self.examples:
            raise ValueError("a task needs at least one example")

    @property
    def inputs(self) -> tuple[str, ...]:
        return tuple(e[0] for e in self.examples)

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(e[1] for e in self.examples)


def satisfies(p: Program, example: tuple[str, str]) -> bool:
    """True iff ``p`` runs on the example's input and returns its output."""
    e_in, e_out = example
    try:
        return dsl.evaluate(p, e_in) == e_out
    except EvalError:
        return False


# ---------------------------------------------------------------------------
# Transformer application


def apply_transformer(table: TransformerTable, arg_states: tuple[StateLike, StateLike]) -> StateLike:
    """Best state of the concatenation of two values with the given states.

    An entry applies when the left state has a conjunct of its first input
    kind and the right state one of its second (top is always present).
    Its ``char =`` outputs are copies or the shift, the only shapes sound
    on ``check_valid``'s box (``TransformerTable``): a copy passes the left
    runs through, and the shift moves the right runs by the left
    ``length``; as the left runs end by that length, the two meet at most
    there, where they join.  Any other output maps each selection of one
    conjunct per input kind through its matrix, unless it names a negative
    character index.  ``state_of`` meets the derived facts.
    """
    left, right = arg_states
    if left is BOTTOM or right is BOTTOM:
        return BOTTOM
    derived = {LEN_EQ: set(), LEN_NEQ: set(), CHAR_NEQ: set()}
    for k1, k2, outputs in table.affine:
        for a1, a2 in product(left.args(k1), right.args(k2)):
            vec = (*a1, *a2, 1)
            for kind, matrix in outputs:
                args = tuple([sum(map(mul, row, vec)) for row in matrix])
                if kind is not CHAR_NEQ or args[0] >= 0:
                    derived[kind].add(args)
    segments = left.segments if left.segments and any(map(right.args, table.copies)) else ()
    if table.shift and right.segments and left.length is not None:
        shifted = tuple((left.length + off, run) for off, run in right.segments)
        if segments and segments[-1][0] + len(segments[-1][1]) == shifted[0][0]:
            shifted = ((segments[-1][0], segments[-1][1] + shifted[0][1]), *shifted[1:])
            segments = segments[:-1]
        segments += shifted
    return state_of(derived[LEN_EQ], derived[LEN_NEQ], segments, derived[CHAR_NEQ])


# ---------------------------------------------------------------------------
# Embedding test: can this state describe some substring of the output?


def state_embeds(state: StateLike, out: str) -> bool:
    """True iff some contiguous substring of ``out`` satisfies the state.

    One length decides every offset: shortening a substring that satisfies
    the state, to a length the length facts admit that still covers every
    run, keeps every character fact true (a ``char !=`` fact past the new
    end holds vacuously).  That smallest length ``n`` is ``length`` when
    known (a state is consistent), else the least one past every run that
    no ``len !=`` fact forbids.  The offsets where the first run occurs
    (``str.find``) are checked with ``startswith`` per other run and
    against the ``char !=`` facts below ``n``.
    """
    if state is BOTTOM:
        return False
    length, len_neqs, segments, char_neqs = state
    n = segments[-1][0] + len(segments[-1][1]) if segments else 0
    while n in len_neqs:
        n += 1
    if length is not None:
        n = length
    last = len(out) - n
    if last < 0:
        return False
    neqs = [(i, chr(c)) for i, c in char_neqs if i < n]
    (first_at, first), rest = segments[0] if segments else (0, ""), segments[1:]
    stop = last + first_at + len(first)
    p = out.find(first, first_at, stop)
    while p >= 0:
        o = p - first_at
        if all(out.startswith(run, o + off) for off, run in rest) and all(out[o + i] != ch for i, ch in neqs):
            return True
        p = out.find(first, p + 1, stop)
    return False


# ---------------------------------------------------------------------------
# The enumerator


@dataclass
class SynthResult:
    program: Optional[Program]
    correct: Optional[bool]
    enumerated: int = 0
    pruned_abstract: int = 0
    deduped: int = 0
    reason: str = "found"
    wall_us: int = 0


class Synthesizer:
    """Rank-ordered bottom-up enumerator over the string DSL."""

    def __init__(self, task: SynthesisTask, templates: list[TemplateKind], table: TransformerTable):
        self.task = task
        self.inputs = task.inputs
        self.outputs = task.outputs
        self.templates = sorted(set(templates))
        self.table = table
        self.pool = ConstantPool.default(self.inputs + self.outputs)
        self.consts = self._const_pool()
        self.positions = self._position_pool()
        self._abstraction_cache: dict[str, StateLike] = {}
        # The registry of pooled state vectors: id by vector, vector and
        # accept verdict by id (a pooled vector always embeds).  ``_concats``
        # maps a pair of child ids to the id of the vector of their
        # concatenation, once that vector is registered.
        self._ids: dict[tuple[StateLike, ...], int] = {}
        self._vectors: list[tuple[StateLike, ...]] = []
        self._accepts: list[bool] = []
        self._concats: dict[tuple[int, int], int] = {}

    def _const_pool(self) -> list[str]:
        subs: set[str] = set(self.task.literals)
        for out in self.outputs:
            for i in range(len(out)):
                for j in range(i + 1, min(i + 6, len(out)) + 1):
                    subs.add(out[i:j])
        return sorted(s for s in subs if s)

    def _position_pool(self) -> list[AstNode]:
        max_len = max((len(s) for s in self.inputs + self.outputs), default=0)
        ks = list(range(0, min(12, max_len) + 1)) + [-1]
        positions = [dsl.abspos(k) for k in sorted(set(ks))]
        chars = sorted({ord(c) for s in self.inputs for c in s})
        for c in chars:
            for j in (1, 2, 3, -1, -2, -3):
                positions.append(dsl.cpos(c, j))
        positions.sort(key=dsl.rank_key)
        return positions

    def _position_table(self) -> list[Optional[tuple[int, ...]]]:
        """Each position of the pool resolved on each input; None when it fails on one."""
        rows = []
        for p in self.positions:
            try:
                rows.append(tuple(dsl.resolve_position(p, x) for x in self.inputs))
            except EvalError:
                rows.append(None)
        return rows

    def _abstract_value(self, value: str) -> StateLike:
        cached = self._abstraction_cache.get(value)
        if cached is None:
            cached = best_abstraction(value, self.templates, self.pool)
            self._abstraction_cache[value] = cached
        return cached

    def _node(self, rec: tuple) -> AstNode:
        """The AST node of record ``rec``, rebuilt from its leaf indexes (see ``_batch``)."""
        if len(rec) == 3:
            index, consts, positions = rec[2], self.consts, self.positions
            if index == 0:
                return dsl.input_()
            if index <= len(consts):
                return dsl.const(consts[index - 1])
            i, j = divmod(index - 1 - len(consts), len(positions))
            return dsl.substr(dsl.input_(), positions[i], positions[j])
        return dsl.concat(self._node(rec[2]), self._node(rec[3]))

    def _derive(self, rec: tuple) -> tuple[tuple[StateLike, ...], bool]:
        """The states of record ``rec``, derived one example at a time up to
        the first that does not embed its output, and whether every state
        embeds.  A concatenation's children are pooled, so their vectors are
        registered."""
        if len(rec) == 3:
            derived = map(self._abstract_value, rec[0])
        else:
            vectors = self._vectors
            derived = map(apply_transformer, repeat(self.table), zip(vectors[rec[2][1]], vectors[rec[3][1]]))
        states = []
        for state, out in zip(derived, self.outputs):
            states.append(state)
            if not state_embeds(state, out):
                return tuple(states), False
        return tuple(states), True

    def _batch(self, size: int, pools: dict[int, list[tuple]]) -> Iterator[tuple]:
        """The records of AST size ``size`` in rank order; ``pools`` holds the
        kept ones of each smaller size.

        A leaf is ``(values, sid, leaf_index)`` and a concatenation is
        ``(values, sid, left, right)``, with its two child records.
        ``values`` is a tuple of ``str`` and ``sid`` the registry id of the
        record's state vector or None.  ``leaf_index`` numbers the leaves
        the synthesizer can make: 0 is the input, ``1 + i`` the constant
        ``consts[i]``, and ``1 + len(consts) + i * len(positions) + j`` the
        substring from ``positions[i]`` to ``positions[j]``; ``_node``
        turns it back into the AST node.  A concatenation takes the id its
        child-id pair has in the concat cache; every other record is made
        with None.
        """
        inputs = self.inputs
        if size == 1:
            yield inputs, None, 0
            for i, s in enumerate(self.consts, 1):
                yield (s,) * len(inputs), None, i
            return
        concats = self._concats
        for sa in range(1, size - 1):
            for a in pools[sa]:
                a_values, a_sid = a[0], a[1]
                for b in pools[size - 1 - sa]:
                    yield tuple(map(add, a_values, b[0])), concats.get((a_sid, b[1])), a, b
        if size == 4:
            lengths = tuple(map(len, inputs))
            base, width = 1 + len(self.consts), len(self.positions)
            rows = [(k, r) for k, r in enumerate(self._position_table()) if r is not None]
            for k1, r1 in rows:
                for k2, r2 in rows:
                    if all(0 <= i1 <= i2 <= n for i1, i2, n in zip(r1, r2, lengths)):
                        yield tuple(x[i1:i2] for x, i1, i2 in zip(inputs, r1, r2)), None, base + k1 * width + k2

    def run(self, require_correct: bool = False) -> SynthResult:
        start = time.perf_counter_ns()
        timeout_ms = self.task.timeout_ms
        deadline = None if timeout_ms is None else start + timeout_ms * 1_000_000
        budget = self.task.max_candidates
        outputs = self.outputs
        ids, vectors, accepts, concats = self._ids, self._vectors, self._accepts, self._concats
        seen: set[tuple[str, ...]] = set()
        pools: dict[int, list[tuple]] = {}
        result = SynthResult(program=None, correct=None)
        enumerated = pruned = deduped = 0
        try:
            for size in range(1, self.task.max_ast_size + 1):
                pools[size] = kept = []
                for rec in self._batch(size, pools):
                    enumerated += 1
                    if enumerated > budget:
                        result.reason = "candidate-budget"
                        return result
                    if deadline is not None and enumerated % 256 == 0 and time.perf_counter_ns() > deadline:
                        result.reason = "timeout"
                        return result

                    values = rec[0]
                    if values in seen:
                        deduped += 1
                        continue
                    seen.add(values)

                    sid = rec[1]
                    if sid is None:
                        # A state that does not embed its output does not
                        # contain it either, so the candidate is not accepted.
                        states, embeds = self._derive(rec)
                        if not embeds:
                            pruned += 1
                            continue
                        sid = ids.get(states)
                        if sid is not None and len(rec) == 4:
                            concats[rec[2][1], rec[3][1]] = sid
                    if sid is None:
                        accepted = all(map(gamma_contains, states, outputs))
                    else:
                        accepted = accepts[sid]
                    if accepted and (not require_correct or values == outputs):
                        result.program = Program(self._node(rec))
                        result.correct = values == outputs
                        return result

                    # A pooled record carries its vector's id.  A vector
                    # without an id is new, since only pooling registers.
                    if rec[1] is None:
                        if sid is None:
                            sid = len(vectors)
                            ids[states] = sid
                            vectors.append(states)
                            accepts.append(accepted)
                        rec = (values, sid, *rec[2:])
                    kept.append(rec)
            result.reason = "exhausted"
            return result
        finally:
            result.enumerated, result.pruned_abstract, result.deduped = enumerated, pruned, deduped
            result.wall_us = (time.perf_counter_ns() - start) // 1000
