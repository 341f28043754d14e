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
int id and its accept verdict (a pooled vector always embeds), plus a
cache from pairs of child ids to the id of their concatenation's vector.
``_batch`` gives a concatenation the cached vector and id of its child-id
pair when there is one; every other candidate, leaf or concatenation, is
made without states.  ``run`` derives those only after the dedup check,
one example at a time, and prunes at the first state that does not embed
its output: that candidate cannot be accepted either, since an output in a
state's concretization embeds at offset 0.  Only a vector that embeds on
every example is looked up in the registry; a registered one takes its
verdict, and only then, for a concatenation, is its child-id pair cached.
Any other is judged with ``gamma_contains``.  Only pooling registers, so
the registry is never larger than the pools.  Interning every vector as it
is made gives the same programs, but its peak RSS is past the benchmark's
10 % bound (about 30 % on training at seed 0).

What is computed afresh is kept cheap instead of memoized per pair of
states.  ``apply_transformer`` reads the table's compiled rules (one per
entry with outputs), maps the selected args inline and hands the derived
args, grouped by kind, to ``AbstractValue.of_groups``, which checks them
for contradiction and seeds the new state's ``by_kind``.
``state_embeds`` tests one substring length per offset, the smallest the
state admits (see its docstring).  Under the seed-0 bundle the 15 eval
tasks make 2,544 ``apply_transformer`` and 1,115 ``best_abstraction``
calls; deriving every candidate's whole vector as it is made, duplicates
included, would make 4,402 and 1,375.  A memo keyed by the pair of child
states would save only the repeated pairs (the 2,544 calls are on 2,335
distinct per-task pairs), and it raised peak RSS on training at seed 0
from 22.7 to 26.0 MB, past the 10 % bound.  The three functions the
verdicts and states come from, ``apply_transformer``, ``state_embeds`` and
``gamma_contains``, are called through this module's globals, so that a
tracer which replaces them by name sees every call.

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
from operator import add, mul
from itertools import repeat
from typing import Iterator, Optional

from . import dsl
from .dsl import AstNode, EvalError, Program
from .domain import (
    AbstractValue,
    BOTTOM,
    ConstantPool,
    StateLike,
    TemplateKind,
    best_abstraction,
    gamma_contains,
)
# ``apply_affine`` is not called here; the name stays because the benchmark's
# tracer tests (``perfbench/tests``) read it as ``synthesizer.apply_affine``.
from .transformers import TransformerTable, apply_affine, names_negative_index  # noqa: F401


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

    Each compiled rule of the table (``TransformerTable.rules``, one per
    entry with outputs) applies when both states have conjuncts of its
    input kinds; top is always present.  Every selection of one conjunct
    of each kind is mapped through the rule's output matrices, inline; an
    argument whose constants no output reads contributes one
    representative conjunct, and an output that names a negative character
    index derives nothing.  The derived args are collected per kind and
    met by ``AbstractValue.of_groups``; nothing derived gives top.
    """
    left, right = arg_states
    if left is BOTTOM or right is BOTTOM:
        return BOTTOM
    left_groups, right_groups = left.by_kind, right.by_kind
    derived: dict[TemplateKind, set[tuple[int, ...]]] = {}
    for k1, k2, used1, used2, outputs in table.rules:
        args1 = left_groups.get(k1)
        args2 = right_groups.get(k2)
        if args1 is None or args2 is None:
            continue
        for a1 in args1 if used1 else args1[:1]:
            for a2 in args2 if used2 else args2[:1]:
                vec = (*a1, *a2, 1)
                for kind, matrix in outputs:
                    args = tuple([sum(map(mul, row, vec)) for row in matrix])
                    if not names_negative_index(kind, args):
                        derived.setdefault(kind, set()).add(args)
    return AbstractValue.of_groups(derived)


# ---------------------------------------------------------------------------
# Embedding test: can this state describe some substring of the output?


def state_embeds(state: StateLike, out: str) -> bool:
    """True iff some contiguous substring of ``out`` satisfies the state.

    One length decides every offset.  Shortening a substring that
    satisfies the state, to a length the length facts admit that still
    covers every ``char =`` index, keeps every ``char =`` and ``char !=``
    fact true: a ``char !=`` fact at or past the new end holds vacuously.
    So the smallest admissible length ``n`` works at an offset whenever
    any length does, and it does not depend on the offset.  It is the
    ``len =`` value if there is one (when that value is forbidden or too
    short for a ``char =`` index, nothing embeds), else the least length
    past every ``char =`` index that no ``len !=`` fact forbids.  Each
    offset up to ``len(out) - n`` is then tested against the ``char =``
    facts and the ``char !=`` facts below ``n``: O(|out| * facts).
    """
    if state is BOTTOM:
        return False
    groups = state.by_kind
    pinned = groups.get(TemplateKind.CHAR_EQ, ())
    neq_lens = {n for (n,) in groups.get(TemplateKind.LEN_NEQ, ())}
    n = max(i for i, _ in pinned) + 1 if pinned else 0
    lens = groups.get(TemplateKind.LEN_EQ)
    if lens:
        length = lens[0][0]
        if length < n or length in neq_lens:
            return False
        n = length
    else:
        while n in neq_lens:
            n += 1
    # (index, character, whether the substring's character there must equal it)
    checks = [(i, chr(c), True) for i, c in pinned]
    checks += [(i, chr(c), False) for i, c in groups.get(TemplateKind.CHAR_NEQ, ()) if i < n]
    for o in range(len(out) - n + 1):
        for i, ch, equal in checks:
            if (out[o + i] == ch) != equal:
                break
        else:
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
    sums of theirs.  ``states`` is None until ``run`` derives it, unless
    the candidate was made with a cached vector; on a prune it holds the
    states derived up to the first that does not embed, and the candidate
    is discarded.  ``sid`` is the registry id of ``states`` when that
    vector is registered (always so once the candidate is pooled), else
    None.
    """

    _node: Optional[AstNode]
    parts: Optional[tuple[Candidate, Candidate]]
    values: tuple[str, ...]
    states: Optional[tuple[StateLike, ...]]
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

    def _leaf(self, node: AstNode, values: tuple[str, ...]) -> Candidate:
        return Candidate(node, None, values, None, None)

    def _derive(self, cand: Candidate) -> bool:
        """Set ``cand.states``, derived one example at a time up to the first
        state that does not embed its output; True iff every state embeds."""
        if cand.parts is None:
            derived = map(self._abstract_value, cand.values)
        else:
            a, b = cand.parts
            derived = map(apply_transformer, repeat(self.table), zip(a.states, b.states))
        states = []
        embeds = True
        for state, out in zip(derived, self.outputs):
            states.append(state)
            if not state_embeds(state, out):
                embeds = False
                break
        cand.states = tuple(states)
        return embeds

    def _batch(self, size: int, pools: dict[int, list[Candidate]]) -> Iterator[Candidate]:
        """The candidates of AST size ``size`` in rank order; ``pools`` holds the kept ones of each smaller size."""
        inputs = self.inputs
        if size == 1:
            yield self._leaf(dsl.input_(), inputs)
            for s in self.consts:
                yield self._leaf(dsl.const(s), (s,) * len(inputs))
            return
        vectors, concats = self._vectors, self._concats
        for sa in range(1, size - 1):
            for a in pools[sa]:
                for b in pools[size - 1 - sa]:
                    values = tuple(map(add, a.values, b.values))
                    sid = concats.get((a.sid, b.sid))
                    yield Candidate(None, (a, b), values, None if sid is None else vectors[sid], sid)
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
        ids, vectors, accepts, concats = self._ids, self._vectors, self._accepts, self._concats
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

                    sid = cand.sid
                    if sid is None:
                        # A state that does not embed its output does not
                        # contain it either, so the candidate is not accepted.
                        if not self._derive(cand):
                            result.pruned_abstract += 1
                            continue
                        sid = cand.sid = ids.get(cand.states)
                        if sid is not None and cand.parts is not None:
                            a, b = cand.parts
                            concats[a.sid, b.sid] = sid
                    if sid is None:
                        accepted = all(map(gamma_contains, cand.states, outputs))
                    else:
                        accepted = accepts[sid]
                    if accepted and (not require_correct or cand.values == outputs):
                        result.program = Program(cand.node)
                        result.correct = cand.values == outputs
                        return result

                    # Pooled: a vector without an id is new, since only this registers.
                    if sid is None:
                        cand.sid = len(vectors)
                        ids[cand.states] = cand.sid
                        vectors.append(cand.states)
                        accepts.append(accepted)
                    kept.append(cand)
            result.reason = "exhausted"
            return result
        finally:
            result.wall_us = (time.perf_counter_ns() - start) // 1000
            result.wall_ms = result.wall_us // 1000
