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

A state whose concretization is one string is that ``str`` (exact).  Under
a table that ``keeps_exact`` (it has the ``len =`` sum ``[[1, 1, 0]]``, the
copy with second input ``top`` and the shift) and templates with ``len =``
and ``char =``, leaves up to the pool's index prefix from 0 are exact.  A
sound table derives only facts of ``a + b``, and those entries pin all of
it, so two exact children give their concatenation; a mixed pair widens
the ``str``.  On a ``str``, ``state_embeds`` is ``in`` and
``gamma_contains`` is ``==``.  A sound state's concretization holds its
value, so with ``require_correct`` a candidate is accepted iff its values
equal the expected outputs.  A record is exact when its vector (below) is
its values.  ``state_of`` never returns a ``str``, so only an exact record
has a vector of ``str`` states, and the concatenation of two exact records
is exact: its vector is its values, with nothing to derive.

``run`` is the one search loop.  It walks the AST sizes in order, and
``_batch`` yields the candidates of one size as runs of at most 256,
building concatenations from the pools of kept candidates of the smaller
sizes.  ``run`` cuts each run once, at the budget and then at the deadline,
which it reads before any of the run's candidates and only when the run
holds a multiple of 256 (it holds one at most); so a run that times out has
counted a multiple of 256.  For each candidate, ``run`` counts it, drops it
when its values repeat an earlier candidate's, and gets its verdict once.
It then returns it, prunes it, or pools it.  A level's pool is read from
two sizes up only, so a level is left unpooled when there is no such size
or when the concatenations of its own size and the next one alone pass the
budget: the run ends before it is read.  Past size 4, the last with leaves,
a concatenation of size ``s`` has a child of size ``s // 2`` or more, so
the run is exhausted at the first such ``s`` whose pools from size
``s // 2`` up are all empty: no later size can have a candidate either, and
the sizes up to ``max_ast_size`` are not walked.

A candidate's state vector (its tuple of per-example states) determines all
of its abstract work: the states of a concatenation depend only on the
children's vectors and the table, and the accept and embed verdicts only on
the vector and the expected outputs.  Each run therefore keeps, in locals
of ``run``, a registry that interns vectors, each with a small int id, plus
a cache from pairs of child ids to the id of their concatenation's vector;
it passes the cache and the list of vectors by id to ``_batch``, and the
list to ``_derive``, and a ``Synthesizer`` holds neither between runs.
``_batch`` gives a concatenation the cached id of its child-id pair when it
makes the candidate's run, and None when there is none; every leaf is made
with None, and so is each record of an exact run (below), which reads no
id.  Unless it takes their exact run in bulk, ``run`` derives the states of
those only after the dedup check, one example at a time, and prunes at the
first state that does not embed its output: that candidate cannot be
accepted either, since an output in a state's concretization embeds at
offset 0.  A vector that embeds on every example is registered then, with
its child-id pair for a concatenation, and the candidate is judged before
anything else: it is accepted when (with ``require_correct``, checked
first) its values equal the expected outputs and ``gamma_contains`` holds
on every example.  A pair cached by a candidate of a run is derived again
by a later candidate of the same run: an id is read only when its run is
made.  So the registry holds every derived vector that embeds and the
values of each pooled candidate of an exact run, and the candidates of all
of them are pooled except the accepted one and those of an unpooled level.

Most concatenations need no derivation: under a weak domain nearly every
one takes its vector from the cache, and under a table that keeps
exactness nearly every one pairs two exact records.  A concatenation run
pairs one left record with a slice of a pool.  ``_batch`` makes it an
exact run when the left record and every record of the slice are exact,
and then each of its vectors is its values.  When every child-id pair of a
run is cached, or the run is exact, and some output does not start with
the left record's value on its example, no candidate of the run can be
accepted, in either mode: with ``require_correct`` none of its values is
the outputs, and without it a candidate is accepted on its vector alone;
an exact vector describes its values alone, which are not the outputs, and
each cached vector is that of a candidate the run has judged and not
accepted.  ``run`` takes such a run with set and list operations: it
counts and dedups its candidates and pools the new ones, and of an exact
run it first prunes each new candidate whose values are not all
substrings of their outputs (through ``state_embeds``), and registers the
rest as it pools them.  It caches no pair of an exact run: values are
deduped, so no two records have one exact vector, and no exact pair is
made twice.  Every other run is taken one candidate at a time; there a
concatenation of exact records whose left value starts every output is
derived, and may be accepted.

What is computed afresh is kept cheap instead of memoized per pair of
states.  A state that is not exact is four plain fields (``AbstractValue``),
with its ``char =`` facts as runs of known characters, and it hashes and
compares as a tuple.  Every ``char =`` output a table holds copies the
left runs or shifts the right ones by the left length, since no other
shape is sound (``check_valid``, ``TransformerTable``).  So
``apply_transformer`` moves whole runs, and ``state_embeds`` finds the
first run in the output and checks the rest with ``startswith``.  The
three functions the verdicts and states come from, ``apply_transformer``,
``state_embeds`` and ``gamma_contains``, are called through this module's
globals, so that a tracer which replaces them by name sees every call.

Most candidates are never kept and only the returned one's program is read,
so a candidate is a plain tuple record, laid out in ``_batch``: its values,
the registry id of its vector or None, and its two child records, or None
and the number of its leaf.  Records hold only ``str``, ``int``, ``None``
and records, so CPython's cyclic collector untracks them and a full
collection does not walk the pools; a record that held an AST node, a state
or any other class instance would stay tracked.  So a pooled record's
vector is ``vectors[sid]`` in its run's registry, and one not registered
lives only inside ``run``.  ``_node`` builds the returned program's AST
from its record.

The position pool is a list of plain literals in rank order (``int`` k for
``abspos k``, ``(char, j)`` for ``cpos char j``), built in that order, so no
position is an AST node and none is sorted.  When the enumeration reaches
the ``substr`` leaves (size 4), it resolves the pool on the example inputs
once, through one index per input of the boundaries after each
character's occurrences, into a position table.  The table holds a row of
boundaries only for a position that is a boundary of every input (inside
``0..len(x)``); one whose ``cpos`` occurrence is missing, or whose
``abspos`` is past the end, on some input has no row.  A ``substr`` leaf
pairs two rows whose windows do not run backwards on any input, and its
values are slices; no leaf is evaluated through the DSL.  A
concatenation's values are the pairwise sums of its children's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import add, getitem, itemgetter, le, mul, not_
from itertools import compress, islice, product, repeat
from typing import Iterable, Iterator, Optional, Union

from . import dsl
from .dsl import AstNode, EvalError, Program
from .domain import CHAR_EQ, LEN_EQ, LEN_NEQ, BOTTOM, ConstantPool, StateLike, TemplateKind, _index_runs, best_abstraction, gamma_contains, state_of, widen
# ``apply_affine`` is not called here; the name stays because the benchmark's
# tracer tests (``perfbench/tests``) read it as ``synthesizer.apply_affine``.
from .transformers import TransformerTable, apply_affine  # noqa: F401

# A position literal: ``k`` stands for ``abspos k`` and ``(char, j)`` for
# ``cpos char j``.
Position = Union[int, tuple[int, int]]

# The most records one run of ``_batch`` holds, and the deadline's period:
# a run holds at most one multiple of 256.
RUN = 256


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

    Two exact states give their concatenation (see the module docstring);
    an exact state beside an ``AbstractValue`` is widened.
    An entry applies when the left state has a conjunct of its first input
    kind and the right state one of its second (top is always present).
    Its ``char =`` outputs are copies or the shift, the only sound shapes
    (``check_valid``, ``TransformerTable``): a copy passes the left
    runs through, and the shift moves the right runs by the left
    ``length``; as the left runs end by that length, the two meet at most
    there, where they join.  Its other outputs, ``len =`` and ``len !=``
    (no table holds another kind), map each selection of one conjunct per
    input kind through their matrices.  ``state_of`` meets the derived
    facts.
    """
    left, right = arg_states
    if left.__class__ is str:
        if right.__class__ is str:
            return left + right
        left = widen(left)
    elif right.__class__ is str:
        right = widen(right)
    if left is BOTTOM or right is BOTTOM:
        return BOTTOM
    derived = {LEN_EQ: set(), LEN_NEQ: set()}
    for k1, k2, outputs in table.affine:
        for a1, a2 in product(left.args(k1), right.args(k2)):
            vec = (*a1, *a2, 1)
            for kind, matrix in outputs:
                derived[kind].add(tuple([sum(map(mul, row, vec)) for row in matrix]))
    segments = left.segments if left.segments and any(map(right.args, table.copies)) else ()
    if table.shift and right.segments and left.length is not None:
        shifted = tuple((left.length + off, run) for off, run in right.segments)
        if segments and segments[-1][0] + len(segments[-1][1]) == shifted[0][0]:
            shifted = ((segments[-1][0], segments[-1][1] + shifted[0][1]), *shifted[1:])
            segments = segments[:-1]
        segments += shifted
    return state_of(derived[LEN_EQ], derived[LEN_NEQ], segments, ())


# ---------------------------------------------------------------------------
# Embedding test: can this state describe some substring of the output?


def state_embeds(state: StateLike, out: str) -> bool:
    """True iff some contiguous substring of ``out`` satisfies the state:
    for an exact state, iff it is a substring of ``out``.

    One length decides every offset: shortening a substring that satisfies
    the state, to a length the length facts admit that still covers every
    run, keeps every character fact true (a ``char !=`` fact past the new
    end holds vacuously).  That smallest length ``n`` is ``length`` when
    known (a state is consistent), else the least one past every run that
    no ``len !=`` fact forbids.  The offsets where the first run occurs
    (``str.find``) are checked with ``startswith`` per other run and
    against the ``char !=`` facts below ``n``.
    """
    if state.__class__ is str:
        return state in out
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


def position_node(p: Position) -> AstNode:
    """The ``abspos`` or ``cpos`` node of position literal ``p``."""
    return dsl.abspos(p) if p.__class__ is int else dsl.cpos(*p)


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
        # Leaves up to this length are exact (see the module docstring); -1 when none is.
        start, stop = _index_runs(self.pool.indices)[0]
        self._exact_len = stop if start == 0 and table.keeps_exact and {LEN_EQ, CHAR_EQ} <= set(templates) else -1

    def _const_pool(self) -> list[str]:
        subs: set[str] = set(self.task.literals)
        for out in self.outputs:
            for i in range(len(out)):
                for j in range(i + 1, min(i + 6, len(out)) + 1):
                    subs.add(out[i:j])
        return sorted(s for s in subs if s)

    def _position_pool(self) -> list[Position]:
        """The position literals in rank order: ``abspos`` before ``cpos``,
        ``abspos`` by k, ``cpos`` by character, then j."""
        max_len = max((len(s) for s in self.inputs + self.outputs), default=0)
        chars = sorted({ord(c) for s in self.inputs for c in s})
        return [-1, *range(min(12, max_len) + 1), *((c, j) for c in chars for j in (-3, -2, -1, 1, 2, 3))]

    def _position_table(self) -> list[tuple[int, tuple[int, ...]]]:
        """``(k, row)`` for each position ``positions[k]`` that resolves to a
        boundary of every input, ``row`` holding those boundaries in input
        order; ``dsl.resolve_position`` gives the same boundaries."""
        columns = []
        for x in self.inputs:
            n = len(x)
            # The boundaries after each character's occurrences, by code.
            after: dict[int, list[int]] = {}
            for i, c in enumerate(x, 1):
                after.setdefault(ord(c), []).append(i)
            column = []
            for p in self.positions:
                if p.__class__ is int:
                    i = p if p >= 0 else n + p + 1
                    column.append(i if 0 <= i <= n else None)
                else:
                    c, j = p
                    occ = after.get(c, ())
                    column.append(occ[j - 1 if j > 0 else j] if len(occ) >= abs(j) else None)
            columns.append(column)
        return [(k, row) for k, row in enumerate(zip(*columns)) if None not in row]

    def _abstract_value(self, value: str) -> StateLike:
        if len(value) <= self._exact_len:
            return value
        cached = self._abstraction_cache.get(value)
        if cached is None:
            cached = self._abstraction_cache[value] = best_abstraction(value, self.templates, self.pool)
        return cached

    def _node(self, rec: tuple) -> AstNode:
        """The AST node of record ``rec``, rebuilt from its leaf indexes (see
        ``_batch``).  It is called only for the returned program, and it is
        the only place the ``abspos`` and ``cpos`` nodes of the position
        literals are made."""
        if rec[2] is None:
            index, consts, positions = rec[3], self.consts, self.positions
            if index == 0:
                return dsl.input_()
            if index <= len(consts):
                return dsl.const(consts[index - 1])
            i, j = divmod(index - 1 - len(consts), len(positions))
            return dsl.substr(dsl.input_(), position_node(positions[i]), position_node(positions[j]))
        return dsl.concat(self._node(rec[2]), self._node(rec[3]))

    def _derive(self, rec: tuple, vectors: list[tuple[StateLike, ...]]) -> tuple[tuple[StateLike, ...], bool]:
        """The states of record ``rec``, derived one example at a time up to
        the first that does not embed its output, and whether every state
        embeds.  A concatenation's children are pooled, so their vectors are
        registered: ``vectors`` is the run's list of vectors by id."""
        if rec[2] is None:
            derived = map(self._abstract_value, rec[0])
        else:
            derived = map(apply_transformer, repeat(self.table), zip(vectors[rec[2][1]], vectors[rec[3][1]]))
        states = []
        for state, out in zip(derived, self.outputs):
            states.append(state)
            if not state_embeds(state, out):
                return tuple(states), False
        return tuple(states), True

    def _batch(
        self, size: int, pools: dict[int, list[tuple]], concats: dict[tuple[int, int], int], vectors: list[tuple[StateLike, ...]]
    ) -> Iterator[tuple]:
        """The records of AST size ``size`` in rank order, as runs of at most
        ``RUN`` records; ``pools`` holds the kept ones of each smaller size,
        ``concats`` is the run's cache from pairs of child ids to the id of
        their concatenation's vector, and ``vectors`` its list of vectors by
        id.

        A record is ``(values, sid, left, right)``: ``values`` is a tuple of
        ``str`` and ``sid`` the registry id of the record's state vector or
        None.  A concatenation has its two child records as ``left`` and
        ``right``; a leaf has ``left`` None and its leaf index as ``right``.
        The leaf index numbers the leaves the synthesizer can make: 0 is the
        input, ``1 + i`` the constant ``consts[i]``, and ``1 + len(consts) +
        i * len(positions) + j`` the substring from ``positions[i]`` to
        ``positions[j]``; ``_node`` turns it back into the AST node, so no
        node is made here.

        A run is ``(values, sids, left, kids)``, where ``values`` and
        ``sids`` are lists and ``kids`` a sequence, one item per record in
        rank order: its records are ``zip(values, sids, repeat(left),
        kids)``.  The leaves of size 1, and the substring leaves of size 4,
        come in runs with ``left`` None and every sid None.  A concatenation
        run pairs one left record with a slice of one pool.  It is an exact
        run, with sids None, when the left record and every record of the
        slice are exact (their registered vectors are their values), decided
        once per slice and once per left record: each of its vectors is its
        values.  Any other concatenation run takes each child-id pair's id
        in the concat cache when the run is yielded, None when it has none.
        A concatenation run's values are built a column per example, before
        ``run`` makes any record of the run, so that a collection finds them
        untracked when it comes to the records.  The
        substrings pair the rows of ``_position_table``, which are valid
        boundaries already, so a pair is kept when no window runs backwards.
        """
        inputs = self.inputs
        if size == 1:
            yield from _leaf_runs([(inputs, 0), *(((s,) * len(inputs), i) for i, s in enumerate(self.consts, 1))])
            return
        for sa in range(1, size - 1):
            if not pools[sa]:
                continue
            pool = pools[size - 1 - sa]
            # Each slice of the pool: its value columns, one per example, its
            # sids, its records and whether they are all exact.
            parts = [pool[i : i + RUN] for i in range(0, len(pool), RUN)]
            slices = [
                (list(zip(*map(itemgetter(0), part))), list(map(itemgetter(1), part)), part, all(vectors[b[1]] == b[0] for b in part))
                for part in parts
            ]
            for a in pools[sa]:
                a_values, a_sid = a[0], a[1]
                a_exact = vectors[a_sid] == a_values
                for columns, b_sids, part, exact in slices:
                    values = list(zip(*map(map, repeat(add), map(repeat, a_values), columns)))
                    yield values, None if a_exact and exact else list(map(concats.get, zip(repeat(a_sid), b_sids))), a, part
        if size == 4:
            base, width = 1 + len(self.consts), len(self.positions)
            rows = self._position_table()
            yield from _leaf_runs(
                (tuple(map(getitem, inputs, map(slice, r1, r2))), base + k1 * width + k2)
                for k1, r1 in rows
                for k2, r2 in rows
                if all(map(le, r1, r2))
            )

    def run(self, require_correct: bool = False) -> SynthResult:
        """Enumerate in rank order until a candidate is accepted, the budget
        or the deadline is passed, or the sizes run out.

        With ``require_correct`` a candidate is accepted only when its
        values are the outputs.  The registry is local to the run and passed
        to ``_batch`` and ``_derive``, so each vector in it was registered
        and judged by this run.  Each run of ``_batch`` is cut once: at the
        budget, and then, when the deadline has passed, at the one multiple
        of 256 it can hold, with the clock read before any of its records.
        A concatenation run whose vectors are all cached, or an exact run
        (sids None: all its records are exact, so each vector is its
        values), is then taken with set operations when some output does
        not start with its left value: none of its values are the outputs,
        and a cached vector is one this run judged and did not accept, so
        none of its candidates can be accepted.  An exact run's new
        candidates are pruned when a value is not a substring of its output.
        Every other run is taken candidate by candidate (see the module
        docstring).  A level no later level can read is not pooled, and the
        run is exhausted at the first size past the leaves that no two pools
        can fill.
        """
        start = time.perf_counter_ns()
        timeout_ms = self.task.timeout_ms
        deadline = None if timeout_ms is None else start + timeout_ms * 1_000_000
        budget = self.task.max_candidates
        outputs = self.outputs
        # The run's registry of the state vectors that embed: id by vector and
        # vector by id, and the id of a concatenation's vector by the pair of
        # its child ids.
        ids, vectors, concats = {}, [], {}

        def register(states: tuple[StateLike, ...]) -> int:
            sid = ids.get(states)
            if sid is None:
                sid = ids[states] = len(vectors)
                vectors.append(states)
            return sid

        max_size = self.task.max_ast_size
        seen: set[tuple[str, ...]] = set()
        pools: dict[int, list[tuple]] = {}
        lengths = [0]  # the length of each pool, by size
        following = 0
        result = SynthResult(program=None, correct=None)
        enumerated = pruned = deduped = 0
        try:
            for size in range(1, max_size + 1):
                # Past the leaves, each candidate of this size has a child of
                # size ``size // 2`` or more; with none pooled, no later size
                # has a candidate either.
                if size > 4 and not any(lengths[size // 2 :]):
                    break
                # The concatenations of sizes ``size`` and ``size + 1`` come
                # before size ``size + 2``, the first to read this level's pool.
                here, following = following, sum(map(mul, lengths[1:size], lengths[size - 1 : 0 : -1]))
                pooled = size + 2 <= max_size and enumerated + here + following <= budget
                pools[size] = kept = []
                for values, sids, left, kids in self._batch(size, pools, concats, vectors):
                    # ``last`` counts the run's last candidate: past the
                    # budget, or at its multiple of 256 once the deadline has
                    # passed, it is counted and ends the search unjudged.
                    last, reason = enumerated + len(values), None
                    if last > budget:
                        last, reason = budget + 1, "candidate-budget"
                    if deadline is not None:
                        tick = min(last, budget) // RUN * RUN
                        if tick > enumerated and time.perf_counter_ns() > deadline:
                            last, reason = tick, "timeout"
                    if reason is not None:
                        values = values[: last - enumerated - 1]
                    if left is not None and (sids is None or None not in sids) and not all(map(str.startswith, outputs, left[0])):
                        # None of the candidates can be accepted, so they are
                        # only counted, deduped, pruned when exact and pooled.
                        # The values of a run are distinct, as its pool's are.
                        enumerated += len(values)
                        repeated = list(map(seen.__contains__, values))
                        seen.update(values)
                        dups = repeated.count(True)
                        deduped += dups
                        fresh = map(not_, repeated)
                        if sids is None:
                            # An exact run: each vector is its values.
                            fresh = [not r and all(map(state_embeds, v, outputs)) for r, v in zip(repeated, values)]
                            pruned += len(values) - dups - fresh.count(True)
                            if pooled:
                                sids = [register(v) if f else None for f, v in zip(fresh, values)]
                        if pooled:
                            kept.extend(compress(zip(values, sids, repeat(left), kids), fresh))
                    else:
                        for v, sid, right in zip(values, repeat(None) if sids is None else sids, kids):
                            enumerated += 1
                            if v in seen:
                                deduped += 1
                                continue
                            seen.add(v)
                            if sid is None:
                                # A state that does not embed its output does
                                # not contain it either, so the candidate is
                                # not accepted.
                                states, embeds = self._derive((v, None, left, right), vectors)
                                if not embeds:
                                    pruned += 1
                                    continue
                                sid = register(states)
                                if left is not None:
                                    concats[left[1], right[1]] = sid
                            rec = (v, sid, left, right)
                            if (not require_correct or v == outputs) and all(map(gamma_contains, vectors[sid], outputs)):
                                result.program = Program(self._node(rec))
                                result.correct = v == outputs
                                return result
                            if pooled:
                                kept.append(rec)
                    if reason is not None:
                        result.reason, enumerated = reason, last
                        return result
                lengths.append(len(kept))
            result.reason = "exhausted"
            return result
        finally:
            result.enumerated, result.pruned_abstract, result.deduped = enumerated, pruned, deduped
            result.wall_us = (time.perf_counter_ns() - start) // 1000


def _leaf_runs(leaves: Iterable[tuple[tuple[str, ...], int]]) -> Iterator[tuple]:
    """Runs of at most ``RUN`` of ``leaves``, each a pair of values and leaf
    index, taken as each run is asked for."""
    leaves = iter(leaves)
    while chunk := list(islice(leaves, RUN)):
        values, kids = zip(*chunk)
        yield list(values), [None] * len(values), None, kids
