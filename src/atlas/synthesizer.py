"""Abstraction-guided bottom-up synthesizer.

Programs are enumerated in rank order (invariant rank-order), with a
per-example abstract state attached to every subprogram.  Closed subterms
(the input, constant strings and substrings of the input) get the
strongest conjunction the domain expresses about their value
(invariant reduced-leaves); a concatenation applies the transformer table
to its children's states.  A subprogram is pruned when its state cannot
describe a substring of some expected output, since no completion could
then be consistent, and a candidate is accepted when every expected
output lies in the concretization of its state.

``run`` walks the AST sizes in order; ``_batch`` yields the candidates of
one size as runs of at most ``RUN``, built from the pools of kept
candidates of smaller sizes.  ``apply_transformer``, ``state_embeds``,
``exact_embeds`` and ``gamma_contains`` are called through this module's
globals, so that a tracer which replaces them by name sees every call.

Invariant exact-states: a state whose concretization is one string is
that ``str``, and a record is exact when its vector is its values.  Under
a table that ``keeps_exact`` (the ``len =`` sum, the copy with second
input ``top`` and the shift) and templates with ``len =`` and ``char =``,
the leaves up to the pool's index prefix from 0 are pinned whole.  A
sound table derives only facts of ``a + b``, which those entries pin, so
two exact records concatenate to an exact one; an exact state beside an
``AbstractValue`` is widened.  Only an exact record has a vector of
``str`` states (``state_of`` never returns one).  On a ``str``,
``state_embeds`` is ``in`` and ``gamma_contains`` is ``==``, so an exact
candidate is accepted, in both modes, iff its values are the outputs; a
sound state holds its value, so with ``require_correct`` any is.

Invariant records: the kept candidates of a size are its pool, stored
as four parallel columns: ``keys`` (invariant keys), ``sids``, their
vectors' registry ids, ``lefts`` and ``rights``.  A leaf's left is None and
its right its leaf index (0 the input, ``1 + i`` the constant
``consts[i]``, ``1 + len(consts) + i * len(positions) + j`` the substring
from ``positions[i]`` to ``positions[j]``).  A concatenation's left is its
left child's record, ``(values, sid, size, index)``, made once per record
of a pool read as a left pool, and its right is its right child's index in
the pool of the other size.  So a candidate's values are held once, as the
key that ``seen`` holds too, and a run is pooled by extending each column,
with no tuple per candidate.  CPython's cyclic collector tracks each
column list, but untracks a left record, which holds only ``str``,
``int`` and a tuple of ``str``, at the first collection that sees it, so
a full collection walks four lists per pool and not their items.  So
vectors live in the registry, and ``_node`` rebuilds only the returned
program's AST, through the ``lefts`` and ``rights`` columns.  ``_batch``
reads a pool once for every size: into slices of at most ``RUN``, each
with its value columns, its sids, its index ``range`` and whether it is
exact, the columns taken from an exact pool's vectors (invariant
exact-states) and split from any other's keys; and, when it is a left
pool, which it is only at a size that also reads it as a right one, into
its left records, zipped from those columns.  A run of ``_batch`` is
``(keys, sids, left, kids, rows)``, one item per candidate in rank order
(invariant keys), its kids the right indexes, or sids None when the run is
exact (invariant bulk-runs).

Invariant keys: ``run`` dedups and accepts a candidate by its key, its
values joined with ``sep``, the first code point from U+0000 up that
occurs in no input, output or literal of the task.  Every value is built
from those characters: the input, its substrings, constants cut from the
outputs and literals, and their concatenations.  So two candidates have
equal keys iff they have equal values, a key splits back at ``sep`` to its
values, and with one example the key is the value.  A leaf run and an exact
concatenation run hold their values tuples as ``rows``, which
``exact_embeds``, the registry and a leaf's derivation read, and key each
with ``sep.join``.  Any other concatenation run has rows None: each key is
one ``"".join`` of the left values, each after the first behind ``sep``,
interleaved with the pool slice's columns, and its values are split back
only when its pool is read (invariant records).

Invariant registry: a candidate's state vector determines all its abstract
work: a concatenation's states depend only on its children's vectors and
the table, the verdicts only on the vector and the outputs.  Each ``run``
keeps in locals a registry giving each vector that embeds on every example
an int id, and a cache from child-id pairs to their concatenation's id,
whose entries never change.  ``_batch`` gives a concatenation its pair's
cached id when it makes the run, else None, and a leaf None; a slice
reuses its last lookup's sids while the left id and the cache's size stay,
so ``run`` never mutates a sids list and checks each list for None once.
A candidate with None is derived after the dedup check, one example at a
time, a leaf from its values and a concatenation from its pair, and pruned
at the first state that does not embed its output (an output in a
concretization embeds at offset 0, so it could not be accepted); else its
vector is looked up or added by value, its pair cached, and the candidate
judged.  Later candidates of its run derive that pair again.  A vector is
judged at most once: one that passes ends the search, so ``run`` refuses a
candidate whose id it judged before without judging it.  An exact
candidate taken in bulk gets a new id and is not looked up by value: its
vector is its values, and dedup comes before derivation, so no later
lookup asks for it.

Invariant bulk-runs: a run is exact, with sids None, when all its
candidates are: a leaf run when no value is longer than the leaves pinned
whole, a concatenation run when its left record and its pool slice are.
Of a run whose vectors are all known, only a candidate whose values are
the outputs can be accepted: with ``require_correct`` any other is
refused, and without it an exact one is iff (invariant exact-states) and
a cached vector, one this run did not accept, fails ``gamma_contains``.
``run`` takes the run in bulk up to that candidate, which a cached run
holds only if its left value starts every output, and the rest one at a
time, as every other run.  It counts, dedups and pools the new candidates.
A cached run's values are distinct (a pool's are, and one left value
concatenates injectively), so it is deduped by set operations, with a mask
of its new candidates only when pooled; an exact run is deduped in order,
since a leaf run can repeat a value.  An exact run's new candidates are
pruned by one ``exact_embeds`` call, which tests each example only on the
candidates that passed the examples before, so it stops where a test one
candidate at a time would; the rest are pooled in one pass, each with a
new id, caching no pair (invariant registry).

Invariant budget-cut: ``run`` cuts each run of ``_batch`` once, at the
budget and then, when the deadline has passed, at the one multiple of
``RUN`` the run can hold, with the clock read before any of its
candidates.  The candidate at the cut is counted and ends the search
unjudged, so a search that times out has counted a multiple of ``RUN``.

Invariant pooled-levels: a level's pool is read from two sizes up only,
so it is not pooled when there is no such size, or when the
concatenations of its own size and the next alone pass the budget, which
ends the search before it is read.  Past size 4, the last with leaves, a
concatenation of size ``s`` has a child of size ``s // 2`` or more, so
the search is exhausted at the first such ``s`` whose pools from ``s //
2`` up are all empty, and no later size is walked.

Invariant position-table: positions are ``dsl`` position literals in
rank order, never nodes.  At size 4 ``dsl.boundaries`` resolves them
once, into a row of boundaries for each position that names a boundary
of every input; a ``substr`` leaf pairs two rows whose windows do not run
backwards on any input, and its values are slices.  Equal rows give equal
windows, so each distinct pair's is built once and shared: each input is
sliced once from each of its start boundaries to each distinct row's
boundary (None where that runs backwards), and a distinct row's windows
zip those slices and keep each that holds no None.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import add, getitem, itemgetter, mul, not_
from itertools import chain, compress, count, islice, product, repeat
from typing import Iterable, Iterator, Optional

from . import dsl
from .dsl import AstNode, EvalError, Position, boundaries, position_node
from .domain import CHAR_EQ, LEN_EQ, LEN_NEQ, BOTTOM, ConstantPool, StateLike, TemplateKind, _index_runs, best_abstraction, gamma_contains, state_of, widen
# ``apply_affine`` is not called here; the name stays because the benchmark's
# tracer tests (``perfbench/tests``) read it as ``synthesizer.apply_affine``.
from .transformers import TransformerTable, apply_affine  # noqa: F401

# The most records one run of ``_batch`` holds (invariant budget-cut).
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


def satisfies(p: AstNode, example: tuple[str, str]) -> bool:
    """True iff ``p`` runs on the example's input and returns its output."""
    e_in, e_out = example
    try:
        return dsl.eval_node(p, e_in) == e_out
    except EvalError:
        return False


# ---------------------------------------------------------------------------
# Transformer application


def apply_transformer(table: TransformerTable, arg_states: tuple[StateLike, StateLike]) -> StateLike:
    """Best state of the concatenation of two values with the given states.

    Two exact states give their concatenation, and one beside an
    ``AbstractValue`` is widened (invariant exact-states).  An entry applies
    when the left state has a conjunct of its first input kind and the
    right state one of its second (top is always present).  A copy passes
    the left runs through and the shift moves the right runs by the left
    ``length`` (invariant copy-or-shift); the left runs end by that length,
    so the two meet at most there, where they join.  The ``len =`` and
    ``len !=`` outputs map each selection of one conjunct per input kind
    through their matrices, and ``state_of`` meets the derived facts.
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
    for an exact state, iff it is a substring (invariant exact-states).

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


def exact_embeds(values: list[tuple[str, ...]], live: list[int], outputs: tuple[str, ...]) -> list[int]:
    """The indexes in ``live`` of the exact candidates among ``values``
    whose every state embeds its output, that is, whose every value is a
    substring of it (invariant exact-states).  Tested a column at a time:
    each example only on the candidates that passed the ones before."""
    for k, out in enumerate(outputs):
        if not live:
            break
        live = list(compress(live, map(out.__contains__, map(itemgetter(k), map(values.__getitem__, live)))))
    return live


# ---------------------------------------------------------------------------
# The enumerator


@dataclass
class SynthResult:
    program: Optional[AstNode]
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
        # Leaves up to this length are exact (invariant exact-states); -1 when none is.
        start, stop = _index_runs(self.pool.indices)[0]
        self._exact_len = stop if start == 0 and table.keeps_exact and {LEN_EQ, CHAR_EQ} <= set(templates) else -1
        # The separator of a candidate's key (invariant keys).
        chars = set(chain.from_iterable((*self.inputs, *self.outputs, *task.literals)))
        self._sep = next(c for c in map(chr, count()) if c not in chars)

    def _const_pool(self) -> list[str]:
        """The constants in rank order: the output substrings of 1 to 6
        characters and the nonempty literals."""
        subs = {y[i : i + n] for y in self.outputs for n in range(1, 7) for i in range(len(y) - n + 1)}
        return sorted(subs.union(self.task.literals) - {""})

    def _position_pool(self) -> list[Position]:
        """The position literals in rank order: ``abspos`` before ``cpos``,
        ``abspos`` by k, ``cpos`` by character, then j."""
        max_len = max((len(s) for s in self.inputs + self.outputs), default=0)
        chars = sorted({ord(c) for s in self.inputs for c in s})
        return [-1, *range(min(12, max_len) + 1), *((c, j) for c in chars for j in (-3, -2, -1, 1, 2, 3))]

    def _position_table(self) -> list[tuple[int, tuple[int, ...]]]:
        """``(k, row)`` for each position ``positions[k]`` that names a
        boundary of every input, ``row`` holding those boundaries in input
        order (invariant position-table)."""
        rows = zip(*(boundaries(x, self.positions) for x in self.inputs))
        return [(k, row) for k, row in enumerate(rows) if None not in row]

    def _abstract_value(self, value: str) -> StateLike:
        if len(value) <= self._exact_len:
            return value
        cached = self._abstraction_cache.get(value)
        if cached is None:
            cached = self._abstraction_cache[value] = best_abstraction(value, self.templates, self.pool)
        return cached

    def _node(self, pools: dict[int, tuple[list, ...]], size: int, left: Optional[tuple], right: int) -> AstNode:
        """The AST node of the candidate of AST size ``size`` with left
        record ``left`` and right index ``right``, its children rebuilt
        through the ``lefts`` and ``rights`` columns of ``pools``; it is
        called only for the returned program (invariant records)."""
        if left is None:
            consts, positions = self.consts, self.positions
            if right == 0:
                return dsl.input_()
            if right <= len(consts):
                return dsl.const(consts[right - 1])
            i, j = divmod(right - 1 - len(consts), len(positions))
            return dsl.substr(dsl.input_(), position_node(positions[i]), position_node(positions[j]))
        sa, sb = left[2], size - 1 - left[2]
        a, b = pools[sa], pools[sb]
        return dsl.concat(self._node(pools, sa, a[2][left[3]], a[3][left[3]]), self._node(pools, sb, b[2][right], b[3][right]))

    def _derive(self, values: Optional[tuple[str, ...]], pair: Optional[tuple[int, int]], vectors: list[tuple[StateLike, ...]]) -> tuple[tuple[StateLike, ...], bool]:
        """The states of a candidate up to the first that does not embed its
        output, and whether all embed: of a leaf from its ``values``, of a
        concatenation from ``pair``, its children's ids in ``vectors``
        (invariant registry)."""
        if pair is None:
            derived = map(self._abstract_value, values)
        else:
            derived = map(apply_transformer, repeat(self.table), zip(vectors[pair[0]], vectors[pair[1]]))
        states = []
        for state, out in zip(derived, self.outputs):
            states.append(state)
            if not state_embeds(state, out):
                return tuple(states), False
        return tuple(states), True

    def _slices(self, pool: tuple[list, ...], vectors: list[tuple[StateLike, ...]]) -> list[list]:
        """The slices of a pool (invariant records), built once for every
        size that reads it."""
        keys, sids = pool[0], pool[1]
        vecs = list(map(vectors.__getitem__, sids))
        # An exact pool's vectors are its values (invariant exact-states); any other's split back from its keys.
        rows = vecs if set(map(type, chain.from_iterable(vecs))) == {str} else list(map(tuple, map(str.split, keys, repeat(self._sep))))
        # Each slice: its value columns, one per example, its sids, its
        # indexes, whether its records are all exact, and the left id and
        # cache size of its last lookup, with the sids that lookup gave
        # (invariant registry).
        return [
            [list(zip(*rows[i : i + RUN])), sids[i : i + RUN], range(i, min(i + RUN, len(rows))), vecs[i : i + RUN] == rows[i : i + RUN], None, None]
            for i in range(0, len(rows), RUN)
        ]

    def _batch(
        self, size: int, pools: dict[int, tuple[list, ...]], reads: tuple[dict[int, list[tuple]], dict[int, list[list]]], concats: dict[tuple[int, int], int], vectors: list[tuple[StateLike, ...]]
    ) -> Iterator[tuple]:
        """The candidates of AST size ``size`` in rank order, as runs of at
        most ``RUN`` (invariant records) keyed by their values (invariant
        keys), from ``pools``, the kept records by size, read into
        ``reads`` once each, and the run's ``concats`` and ``vectors``
        (invariant registry)."""
        inputs, exact_len, sep = self.inputs, self._exact_len, self._sep
        left_records, slices = reads
        if size == 1:
            yield from _leaf_runs([inputs, *((s,) * len(inputs) for s in self.consts)], range(1 + len(self.consts)), exact_len, sep)
            return
        for sa in range(1, size - 1):
            sb = size - 1 - sa
            if not (pools[sa][0] and pools[sb][0]):
                continue
            # A left pool is read as a right one at this size too (invariant records).
            for n in (sa, sb):
                if n not in slices:
                    slices[n] = self._slices(pools[n], vectors)
            if sa not in left_records:
                # Each left record: its values, its sid, its size and its index.
                left_records[sa] = list(zip(chain.from_iterable(zip(*s[0]) for s in slices[sa]), pools[sa][1], repeat(sa), count()))
            for a in left_records[sa]:
                a_values, a_sid = a[0], a[1]
                a_exact = vectors[a_sid] == a_values
                # The left values, each after the first behind ``sep``.
                a_parts = [a_values[0], *map(sep.__add__, a_values[1:])]
                for s in slices[sb]:
                    columns, b_sids, kids, exact, looked_up, sids = s
                    if a_exact and exact:
                        rows = list(zip(*map(map, repeat(add), map(repeat, a_values), columns)))
                        yield list(map(sep.join, rows)), None, a, kids, rows
                        continue
                    if looked_up != (a_sid, len(concats)):
                        sids = s[5] = list(map(concats.get, zip(repeat(a_sid), b_sids)))
                        s[4] = a_sid, len(concats)
                    yield list(map("".join, zip(*chain.from_iterable(zip(map(repeat, a_parts), columns))))), sids, a, kids, None
        if size == 4:
            yield from _leaf_runs(*self._substring_leaves(), exact_len, sep)

    def _substring_leaves(self) -> tuple[Iterator[tuple[str, ...]], Iterator[int]]:
        """The values and the leaf indexes of the ``substr`` leaves, in rank
        order (invariant position-table)."""
        inputs, rows, width = self.inputs, self._position_table(), len(self.positions)
        indexes = [1 + len(self.consts) + k for k, _ in rows]
        # Each row's place among the distinct rows.
        places: dict[tuple[int, ...], int] = {}
        at = [places.setdefault(r, len(places)) for _, r in rows]
        # By input and start boundary: the slices to each distinct row's
        # boundary, None where one runs backwards.
        sliced = [{i: [x[i:j] if i <= j else None for j in column] for i in set(column)} for x, column in zip(inputs, zip(*places))]
        # By distinct row: its windows to every row, None where one runs backwards.
        windows = []
        for r1 in places:
            by_end = [None if None in w else w for w in zip(*map(getitem, sliced, r1))]
            windows.append(list(map(by_end.__getitem__, at)))
        values = chain.from_iterable(compress(windows[n], windows[n]) for n in at)
        return values, chain.from_iterable(compress(map(add, repeat(k1 * width), indexes), windows[n]) for (k1, _), n in zip(rows, at))

    def run(self, require_correct: bool = False) -> SynthResult:
        """Enumerate in rank order until a candidate is accepted (with
        ``require_correct``, only one whose values are the outputs), or the
        budget, the deadline or the sizes run out (invariant budget-cut),
        with its own registry (invariant registry), runs taken in bulk
        (invariant bulk-runs) and only the pools read later (invariant
        pooled-levels)."""
        start = time.perf_counter_ns()
        timeout_ms = self.task.timeout_ms
        deadline = None if timeout_ms is None else start + timeout_ms * 1_000_000
        budget = self.task.max_candidates
        outputs = self.outputs
        # The registry: id by vector, vector by id, and id by child-id pair.
        ids, vectors, concats = {}, [], {}

        def register(states: tuple[StateLike, ...]) -> int:
            sid = ids.get(states)
            if sid is None:
                sid = ids[states] = len(vectors)
                vectors.append(states)
            return sid

        max_size = self.task.max_ast_size
        # Candidates are deduped and accepted by key (invariant keys).
        sep = self._sep
        target = sep.join(outputs)
        seen: set[str] = set()
        known = None  # the last sids list of a cached run
        # The pools by size, as columns, and their left records and slices (invariant records).
        pools: dict[int, tuple[list, ...]] = {}
        reads: tuple[dict[int, list[tuple]], dict[int, list[list]]] = {}, {}
        refused: set[int] = set()  # the ids judged (invariant registry)
        lengths = [0]  # the length of each pool, by size
        following = 0
        result = SynthResult(program=None, correct=None)
        enumerated = pruned = deduped = 0
        try:
            for size in range(1, max_size + 1):
                # Exhausted: no later size has a candidate (invariant pooled-levels).
                if size > 4 and not any(lengths[size // 2 :]):
                    break
                # This size's and the next one's concatenations come before this pool is read.
                here, following = following, sum(map(mul, lengths[1:size], lengths[size - 1 : 0 : -1]))
                pooled = size + 2 <= max_size and enumerated + here + following <= budget
                pools[size] = kept_keys, kept_sids, kept_lefts, kept_rights = [], [], [], []
                for keys, sids, left, kids, rows in self._batch(size, pools, reads, concats, vectors):
                    # ``last`` counts the run's last candidate (invariant budget-cut).
                    last, reason = enumerated + len(keys), None
                    if last > budget:
                        last, reason = budget + 1, "candidate-budget"
                    if deadline is not None:
                        tick = min(last, budget) // RUN * RUN
                        if tick > enumerated and time.perf_counter_ns() > deadline:
                            last, reason = tick, "timeout"
                    if reason is not None:
                        keys = keys[: last - enumerated - 1]
                    rest = ()  # the keys, sids, kids and rows taken one at a time
                    # A slice yields its last lookup's sids again (invariant registry), so a list is scanned once.
                    if sids is None or sids is known or None not in sids:
                        # Every vector is known: taken in bulk up to the first
                        # candidate whose values are the outputs (invariant bulk-runs).
                        if (sids is None or all(map(str.startswith, outputs, left[0]))) and target in keys:
                            n = keys.index(target)
                            # Of an exact run, that candidate has its values as its vector, and the rest are derived.
                            rest = keys[n:], sids[n:] if sids else chain([register(outputs)], repeat(None)), kids[n:], rows[n:] if rows else repeat(None)
                            keys = keys[:n]
                        enumerated += len(keys)
                        if sids is None:
                            # An exact run: each vector is its values.
                            live = [i for i, k in enumerate(keys) if not (k in seen or seen.add(k))]
                            dups = len(keys) - len(live)
                            live = exact_embeds(rows[: len(keys)], live, outputs)
                            pruned += len(keys) - dups - len(live)
                            if pooled and live:
                                # New ids, never looked up by value (invariant registry).
                                kept_keys.extend(map(keys.__getitem__, live))
                                kept_sids.extend(range(len(vectors), len(vectors) + len(live)))
                                kept_lefts.extend(repeat(left, len(live)))
                                kept_rights.extend(map(kids.__getitem__, live))
                                vectors.extend(map(rows.__getitem__, live))
                        else:
                            # A cached run: its keys are distinct.
                            known = sids
                            fresh = list(map(not_, map(seen.__contains__, keys))) if pooled else None
                            dups = len(seen) + len(keys)
                            seen.update(keys)
                            dups -= len(seen)
                            if pooled:
                                kept_keys.extend(compress(keys, fresh))
                                kept_sids.extend(compress(sids, fresh))
                                kept_rights.extend(compress(kids, fresh))
                                kept_lefts.extend(repeat(left, len(kept_keys) - len(kept_lefts)))
                        deduped += dups
                    else:
                        rest = keys, sids, kids, rows or repeat(None)
                    for key, sid, right, v in zip(*rest):
                        enumerated += 1
                        if key in seen:
                            deduped += 1
                            continue
                        seen.add(key)
                        if sid is None:
                            # Pruned when a state does not embed (invariant registry).
                            pair = None if left is None else (left[1], pools[size - 1 - left[2]][1][right])
                            states, embeds = self._derive(v, pair, vectors)
                            if not embeds:
                                pruned += 1
                                continue
                            sid = register(states)
                            if pair is not None:
                                concats[pair] = sid
                        # A vector is judged at most once (invariant registry).
                        if (not require_correct or key == target) and sid not in refused:
                            if all(map(gamma_contains, vectors[sid], outputs)):
                                result.program = self._node(pools, size, left, right)
                                result.correct = key == target
                                return result
                            refused.add(sid)
                        if pooled:
                            kept_keys.append(key)
                            kept_sids.append(sid)
                            kept_lefts.append(left)
                            kept_rights.append(right)
                    if reason is not None:
                        result.reason, enumerated = reason, last
                        return result
                lengths.append(len(kept_keys))
            result.reason = "exhausted"
            return result
        finally:
            result.enumerated, result.pruned_abstract, result.deduped = enumerated, pruned, deduped
            result.wall_us = (time.perf_counter_ns() - start) // 1000


def _leaf_runs(values: Iterable[tuple[str, ...]], kids: Iterable[int], exact_len: int, sep: str) -> Iterator[tuple]:
    """Runs of at most ``RUN`` leaves, cut from their values and leaf
    indexes as each run is asked for (invariant records), each value keyed
    with ``sep`` (invariant keys); exact, with sids None, when no value is
    longer than ``exact_len`` (invariant bulk-runs)."""
    values, kids = iter(values), iter(kids)
    while rows := list(islice(values, RUN)):
        exact = max(map(len, chain.from_iterable(rows))) <= exact_len
        yield list(map(sep.join, rows)), None if exact else [None] * len(rows), None, list(islice(kids, RUN)), rows
