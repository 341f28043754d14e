"""Abstraction-guided bottom-up synthesizer.

Programs are enumerated in rank order with a per-example abstract state
attached to every subprogram.  Closed subterms (the input leaf, constant
strings, and substring extractions of the input) are described by the
strongest conjunction the current domain can express about their concrete
value; concatenations are described by applying the learned transformer
table to their children's states.  A leaf's state is in reduced form: it
keeps no ``len !=`` or ``char !=`` fact that its ``len =`` or ``char =``
facts imply (``best_abstraction``).  Every state is sound whatever the
table: a concatenation derives a subset of what it would derive from the
unreduced states, and only facts that hold.  Under the tables training
learns it derives no implied fact either (see ``transformers``), so each
fact is derived once, and the concretizations, and so every verdict, are
those of the unreduced states.  A subprogram is dropped when its state
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
int id and its ``(accepted, embeds)`` verdict, plus a cache from pairs of
child ids to the id of their concatenation's vector.  A candidate looks its
vector up when it is made; a registered one reuses both, any other is
computed afresh.  Only pooling registers, so the registry is never larger
than the pools.  Interning every vector as it is made gives the same
programs, but its peak RSS is past the benchmark's 10 % bound (about 30 %
on training at seed 0).

Most candidates are never kept and only the returned one's program is
read, so candidates are made cheaply.  When the enumeration reaches the
``substr`` leaves (size 4), it resolves every term of the position pool on
every example input once, into a position table: a row of ints per
position, or None when a ``cpos`` occurrence is missing on some input.  A
``substr`` leaf is made only when its window is valid on every input,
and its values are slices; no leaf is evaluated through the DSL.  A
concatenation's values are the pairwise sums of its children's, and its
AST node is built from the children's only when first read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import add
from typing import Iterator, Optional

from . import dsl
from .dsl import AstNode, EvalError, Program
from .domain import (
    AbstractValue,
    BOTTOM,
    ConstantPool,
    PredicateTemplate,
    StateLike,
    TemplateKind,
    best_abstraction,
    gamma_contains,
)
from .transformers import TransformerTable, apply_affine, instantiate_output


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

    For each pair of template kinds present in the two states (top is
    always present), the table entry for that pair is looked up.  Every
    selection of one conjunct of that kind per argument is mapped through
    the entry's output matrices; an argument whose constants no output
    reads contributes one representative conjunct.  All instantiated
    outputs are met together; nothing derived gives top.
    """
    left, right = arg_states
    if left is BOTTOM or right is BOTTOM:
        return BOTTOM
    derived = set()
    for k1, args1 in left.by_kind.items():
        for k2, args2 in right.by_kind.items():
            transformer = table.lookup((k1, k2))
            if transformer is None or not transformer.outputs:
                continue
            used1, used2 = transformer.used_arguments
            for a1 in args1 if used1 else args1[:1]:
                for a2 in args2 if used2 else args2[:1]:
                    vec = (*a1, *a2, 1)
                    for chi, matrix in transformer.outputs:
                        pred = instantiate_output(chi, apply_affine(matrix, vec))
                        if pred is not None:
                            derived.add(pred)
    return AbstractValue.of(derived)


# ---------------------------------------------------------------------------
# Embedding test: can this state describe some substring of the output?


def state_embeds(state: StateLike, out: str) -> bool:
    """True iff some contiguous substring of ``out`` satisfies the state."""
    if state is BOTTOM:
        return False
    if not state.conjuncts:
        return True
    groups = state.by_kind
    lens = groups.get(TemplateKind.LEN_EQ)
    length = lens[0][0] if lens else None
    pinned = dict(groups.get(TemplateKind.CHAR_EQ, ()))
    neq_lens = {n for (n,) in groups.get(TemplateKind.LEN_NEQ, ())}
    char_neqs = groups.get(TemplateKind.CHAR_NEQ, ())
    min_len = max(pinned) + 1 if pinned else 0
    for o in range(len(out) + 1):
        limit = len(out) - o
        if length is not None:
            candidates = [length] if min_len <= length <= limit and length not in neq_lens else []
        else:
            candidates = [n for n in range(min_len, limit + 1) if n not in neq_lens]
        if not candidates:
            continue
        if any(out[o + i] != chr(c) for i, c in pinned.items() if o + i < len(out)) or any(
            o + i >= len(out) for i in pinned
        ):
            continue
        for n in candidates:
            if all(i >= n or ord(out[o + i]) != c for i, c in char_neqs):
                return True
    return False


# ---------------------------------------------------------------------------
# The enumerator


@dataclass(slots=True)
class Candidate:
    """A program with its per-example values and states.

    A leaf carries its AST node.  A concatenation carries its two child
    candidates in ``parts`` and builds ``dsl.concat`` of their nodes the
    first time ``node`` is read, then keeps it; its values are already the
    sums of theirs.  ``sid`` is the registry id of ``states`` when that
    vector is registered (always so once the candidate is pooled), else
    None.
    """

    _node: Optional[AstNode]
    parts: Optional[tuple[Candidate, Candidate]]
    values: tuple[str, ...]
    states: tuple[StateLike, ...]
    sid: Optional[int]

    @property
    def node(self) -> AstNode:
        if self._node is None:
            a, b = self.parts
            self._node = dsl.concat(a.node, b.node)
        return self._node


@dataclass
class SynthResult:
    program: Optional[Program]
    correct: Optional[bool]
    enumerated: int = 0
    pruned_abstract: int = 0
    deduped: int = 0
    reason: str = "found"
    wall_ms: int = 0
    wall_us: int = 0


class Synthesizer:
    """Rank-ordered bottom-up enumerator over the string DSL."""

    def __init__(self, task: SynthesisTask, templates: list[PredicateTemplate], table: TransformerTable):
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
        # verdict by id.  ``_concats`` maps a pair of child ids to the id of
        # the vector of their concatenation, once that vector is registered.
        self._ids: dict[tuple[StateLike, ...], int] = {}
        self._vectors: list[tuple[StateLike, ...]] = []
        self._verdicts: list[tuple[bool, bool]] = []
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

    def _leaf(self, node: AstNode, values: tuple[str, ...]) -> Candidate:
        states = tuple(self._abstract_value(v) for v in values)
        return Candidate(node, None, values, states, self._ids.get(states))

    def _batch(self, size: int, pools: dict[int, list[Candidate]]) -> Iterator[Candidate]:
        """The candidates of AST size ``size`` in rank order; ``pools`` holds the kept ones of each smaller size."""
        inputs = self.inputs
        if size == 1:
            yield self._leaf(dsl.input_(), inputs)
            for s in self.consts:
                yield self._leaf(dsl.const(s), (s,) * len(inputs))
            return
        ids, vectors, concats = self._ids, self._vectors, self._concats
        for sa in range(1, size - 1):
            for a in pools[sa]:
                for b in pools[size - 1 - sa]:
                    values = tuple(map(add, a.values, b.values))
                    pair = (a.sid, b.sid)
                    sid = concats.get(pair)
                    if sid is None:
                        states = tuple(apply_transformer(self.table, ab) for ab in zip(a.states, b.states))
                        sid = ids.get(states)
                        if sid is not None:
                            concats[pair] = sid
                    else:
                        states = vectors[sid]
                    yield Candidate(None, (a, b), values, states, sid)
        if size == 4:
            lengths = tuple(map(len, inputs))
            rows = [(p, r) for p, r in zip(self.positions, self._position_table()) if r is not None]
            for p1, r1 in rows:
                for p2, r2 in rows:
                    if all(0 <= i1 <= i2 <= n for i1, i2, n in zip(r1, r2, lengths)):
                        values = tuple(x[i1:i2] for x, i1, i2 in zip(inputs, r1, r2))
                        yield self._leaf(dsl.substr(dsl.input_(), p1, p2), values)

    def run(self, require_correct: bool = False) -> SynthResult:
        start = time.perf_counter_ns()
        timeout_ms = self.task.timeout_ms
        deadline = None if timeout_ms is None else start + timeout_ms * 1_000_000
        budget = self.task.max_candidates
        outputs = self.outputs
        ids, vectors, verdicts = self._ids, self._vectors, self._verdicts
        seen: set[tuple[str, ...]] = set()
        pools: dict[int, list[Candidate]] = {}
        result = SynthResult(program=None, correct=None)
        try:
            for size in range(1, self.task.max_ast_size + 1):
                pools[size] = kept = []
                for cand in self._batch(size, pools):
                    result.enumerated += 1
                    if result.enumerated > budget:
                        result.reason = "candidate-budget"
                        return result
                    if deadline is not None and result.enumerated % 256 == 0 and time.perf_counter_ns() > deadline:
                        result.reason = "timeout"
                        return result

                    if cand.values in seen:
                        result.deduped += 1
                        continue
                    seen.add(cand.values)

                    if cand.sid is not None:
                        accepted, embeds = verdicts[cand.sid]
                    else:
                        accepted = all(map(gamma_contains, cand.states, outputs))
                        embeds = all(map(state_embeds, cand.states, outputs))
                    if accepted and (not require_correct or cand.values == outputs):
                        result.program = Program(cand.node)
                        result.correct = cand.values == outputs
                        return result
                    if not embeds:
                        result.pruned_abstract += 1
                        continue

                    # Pooled: a vector without an id is new, since only this registers.
                    if cand.sid is None:
                        cand.sid = len(vectors)
                        ids[cand.states] = cand.sid
                        vectors.append(cand.states)
                        verdicts.append((accepted, embeds))
                    kept.append(cand)
            result.reason = "exhausted"
            return result
        finally:
            result.wall_us = (time.perf_counter_ns() - start) // 1000
            result.wall_ms = result.wall_us // 1000
