"""Predicate templates, concrete predicates, abstract values, and the
best-abstraction operator.

A template is a member of the ``TemplateKind`` enum, ``TOP``, ``LEN_EQ``,
``LEN_NEQ``, ``CHAR_EQ`` or ``CHAR_NEQ``, and templates sort by their
values.  A concrete predicate is a template with its integer holes filled
(characters are code points).  An abstract value is a finite conjunction of
concrete predicates over one string value, kept in four plain fields with
its ``char =`` facts as runs of known characters (``AbstractValue``), with
a distinguished bottom whose concretization is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import groupby
from typing import Collection, Iterable, NamedTuple, Optional, Sequence, Union


class TemplateKind(str, Enum):
    """A predicate template: one of five kinds, ordered by value."""

    TOP = "top"
    LEN_EQ = "len-eq"
    LEN_NEQ = "len-neq"
    CHAR_EQ = "char-eq"
    CHAR_NEQ = "char-neq"

    @property
    def holes(self) -> int:
        return _HOLES[self]

    def instantiate(self, args: tuple[int, ...]) -> "ConcretePredicate":
        return ConcretePredicate(self, args)

    def __str__(self) -> str:
        return template_to_text(self)


TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ = TemplateKind

_HOLES = {TOP: 0, LEN_EQ: 1, LEN_NEQ: 1, CHAR_EQ: 2, CHAR_NEQ: 2}


@dataclass(frozen=True, order=True)
class ConcretePredicate:
    kind: TemplateKind
    args: tuple[int, ...]

    def __post_init__(self):
        if len(self.args) != self.kind.holes:
            raise ValueError(f"{self.kind.value} takes {self.kind.holes} args")
        if self.kind in (CHAR_EQ, CHAR_NEQ) and self.args[0] < 0:
            raise ValueError("character index must be nonnegative")

    def __str__(self) -> str:
        return predicate_to_text(self)


@lru_cache(maxsize=None)
def len_eq(k: int) -> ConcretePredicate:
    return ConcretePredicate(LEN_EQ, (k,))


@lru_cache(maxsize=None)
def len_neq(k: int) -> ConcretePredicate:
    return ConcretePredicate(LEN_NEQ, (k,))


@lru_cache(maxsize=None)
def char_eq(i: int, c: int) -> ConcretePredicate:
    return ConcretePredicate(CHAR_EQ, (i, c))


@lru_cache(maxsize=None)
def char_neq(i: int, c: int) -> ConcretePredicate:
    return ConcretePredicate(CHAR_NEQ, (i, c))


TOP_PRED = ConcretePredicate(TOP, ())

# The interned constructor of each kind that has holes.
_INTERNED = {LEN_EQ: len_eq, LEN_NEQ: len_neq, CHAR_EQ: char_eq, CHAR_NEQ: char_neq}


class _Bottom:
    """Distinguished empty-concretization value; a singleton."""

    def __repr__(self):
        return "Bottom"

    def __str__(self):
        return "bottom"


BOTTOM = _Bottom()


class AbstractValue(NamedTuple):
    """A conjunction of concrete predicates about one string, as four plain
    fields: ``length`` (the ``len =`` value or None), the sorted
    ``len_neqs``, the ``char =`` facts as ``segments`` (runs of known
    characters: sorted, non-overlapping, maximal ``(offset, substring)``
    pairs) and the sorted ``(index, code point)`` pairs of ``char_neqs``.
    Contradictory facts give ``BOTTOM`` instead (``state_of``), so each
    conjunction has one form, and equality and hashing are the tuple's.
    ``top()`` is the shared value without facts; ``conjuncts`` lists the
    predicates.
    """

    length: Optional[int]
    len_neqs: tuple[int, ...]
    segments: tuple[tuple[int, str], ...]
    char_neqs: tuple[tuple[int, int], ...]

    @staticmethod
    def top() -> "AbstractValue":
        return _TOP_VALUE

    @staticmethod
    def of(preds: Iterable[ConcretePredicate]) -> Union["AbstractValue", _Bottom]:
        """The conjunction of ``preds``, or bottom on direct contradiction."""
        facts: dict[TemplateKind, set] = {k: set() for k in TemplateKind}
        for p in preds:
            facts[p.kind].add(p.args)
        pins = dict(facts[CHAR_EQ])
        if len(pins) < len(facts[CHAR_EQ]):  # two characters at one index
            return BOTTOM
        runs = _index_runs(tuple(sorted(pins)))
        segments = tuple((a, "".join(chr(pins[i]) for i in range(a, b))) for a, b in runs)
        return state_of(facts[LEN_EQ], facts[LEN_NEQ], segments, facts[CHAR_NEQ])

    def args(self, kind: TemplateKind) -> Sequence[tuple[int, ...]]:
        """The args of the value's conjuncts of template ``kind``, sorted; ``[()]`` for top."""
        if kind is TOP:
            return [()]
        if kind is LEN_EQ:
            return [] if self.length is None else [(self.length,)]
        if kind is LEN_NEQ:
            return [(n,) for n in self.len_neqs]
        if kind is CHAR_EQ:
            return [(off + j, ord(ch)) for off, run in self.segments for j, ch in enumerate(run)]
        return self.char_neqs

    @property
    def conjuncts(self) -> frozenset[ConcretePredicate]:
        return frozenset(_INTERNED[k](*a) for k in _INTERNED for a in self.args(k))

    def __str__(self) -> str:
        return " & ".join(map(str, sorted(self.conjuncts))) or "top"


_TOP_VALUE = AbstractValue(None, (), (), ())

# An exact state, whose concretization is one string, is that ``str``
# (invariant exact-states); ``widen`` gives its ``AbstractValue``.
StateLike = Union[str, AbstractValue, _Bottom]


def widen(v: str) -> AbstractValue:
    """The ``AbstractValue`` of the exact state ``v``: its length and one run."""
    return AbstractValue(len(v), (), ((0, v),) if v else (), ())


def state_of(lengths: Collection, len_neqs: Collection, segments: tuple, char_neqs: Collection) -> StateLike:
    """The value with these facts, given as distinct args per kind and
    ``segments`` in a value's form, or the shared top without facts.  Two
    lengths, a run past the length, the length among ``len_neqs`` or a
    ``char !=`` fact on a run's character give bottom."""
    length = None
    if lengths:
        if len(lengths) > 1:
            return BOTTOM
        ((length,),) = lengths
        if (length,) in len_neqs or (segments and segments[-1][0] + len(segments[-1][1]) > length):
            return BOTTOM
    if char_neqs and segments:
        pinned = {off + j: ord(ch) for off, run in segments for j, ch in enumerate(run)}
        if any(pinned.get(i) == c for i, c in char_neqs):
            return BOTTOM
    if length is None and not (len_neqs or segments or char_neqs):
        return _TOP_VALUE
    return AbstractValue(length, tuple(sorted(n for (n,) in len_neqs)), segments, tuple(sorted(char_neqs)))


# ---------------------------------------------------------------------------
# Concretization membership


def gamma_contains(state: StateLike, s: str) -> bool:
    """Membership of ``s`` in the concretization of a state; on an exact
    state it is ``==`` (invariant exact-states)."""
    if state.__class__ is str:
        return state == s
    if state is BOTTOM:
        return False
    n = len(s)
    return (
        state.length in (None, n)
        and n not in state.len_neqs
        and all(s.startswith(run, off) for off, run in state.segments)
        and all(i >= n or ord(s[i]) != c for i, c in state.char_neqs)
    )


# ---------------------------------------------------------------------------
# Constant pool and best abstraction


@dataclass(frozen=True)
class ConstantPool:
    """Finite instantiation bounds for inequality templates and char indices."""

    lengths: tuple[int, ...]
    indices: tuple[int, ...]
    chars: tuple[int, ...]

    @staticmethod
    def default(strings: Iterable[str] = ()) -> "ConstantPool":
        strings = list(strings)
        lengths = set(range(17)) | {len(s) for s in strings}
        indices = set(range(16))
        chars = {ord(c) for s in strings for c in s}
        return ConstantPool(tuple(sorted(lengths)), tuple(sorted(indices)), tuple(sorted(chars)))


def abstract(s: str, t: TemplateKind, pool: ConstantPool) -> list[ConcretePredicate]:
    """All pool-bounded best instantiations of ``t`` satisfied by ``s``.

    Equality templates yield the exact facts of ``s``; inequality templates
    enumerate the pool.  Every returned predicate holds of ``s``.
    """
    if t is TOP:
        return [TOP_PRED]
    if t is LEN_EQ:
        return [len_eq(len(s))]
    if t is LEN_NEQ:
        return [len_neq(m) for m in pool.lengths if m != len(s)]
    if t is CHAR_EQ:
        return [char_eq(i, ord(s[i])) for i in pool.indices if i < len(s)]
    if t is CHAR_NEQ:
        return [char_neq(i, c) for i in pool.indices if i < len(s) for c in pool.chars if c != ord(s[i])]
    raise ValueError(t)


@lru_cache(maxsize=None)
def _index_runs(indices: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Distinct character indices as ``(start, stop)`` runs of consecutive ints."""
    groups = groupby(enumerate(sorted(set(indices))), lambda p: p[1] - p[0])
    return tuple((run[0][1], run[-1][1] + 1) for run in (list(g) for _, g in groups))


def best_abstraction(s: str, templates: Iterable[TemplateKind], pool: ConstantPool) -> StateLike:
    """Strongest conjunction expressible with the given templates that holds of ``s``, reduced.

    The facts ``abstract`` gives, built straight into the fields in
    ``state_of``'s sorted, distinct form, with no predicate object per
    fact: the pool's lengths other than ``len(s)`` as ``len_neqs``, and a
    walk over the runs of consecutive pool indices below ``len(s)`` for
    the rest, one run of ``s`` per index run, or each index paired with
    every pool character but the one ``s`` has there.  An inequality
    template adds no facts when its equality template is in the domain, as
    ``len = n`` implies each ``len != k`` and ``char i = c`` each ``char i
    != c'`` (invariant reduced-leaves).  Never bottom, and facts that all
    hold of ``s`` need no contradiction check.
    """
    kinds, n = set(templates), len(s)
    length = n if LEN_EQ in kinds else None
    len_neqs = segments = char_neqs = ()
    if LEN_NEQ in kinds and length is None:
        len_neqs = tuple([m for m in sorted(set(pool.lengths)) if m != n])
    if CHAR_EQ in kinds:
        segments = tuple((start, s[start:stop]) for start, stop in _index_runs(pool.indices) if start < n)
    elif CHAR_NEQ in kinds:
        chars = sorted(set(pool.chars))
        known = [(i, ord(s[i])) for start, stop in _index_runs(pool.indices) for i in range(start, min(stop, n))]
        char_neqs = tuple([(i, c) for i, known_c in known for c in chars if c != known_c])
    if length is None and not (len_neqs or segments or char_neqs):
        return _TOP_VALUE
    return AbstractValue(length, len_neqs, segments, char_neqs)


# ---------------------------------------------------------------------------
# Meet


def meet(a: StateLike, b: StateLike) -> StateLike:
    """Greatest lower bound, bottom on direct contradiction.  Only tests
    call it; it stays while ``perfbench/worker.py`` traces it by name."""
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    return AbstractValue.of(a.conjuncts | b.conjuncts)


# ---------------------------------------------------------------------------
# Text format: `top`, `(len = k)`, `(len != k)`, `(char i = c)`, `(char i != c)`
# with c printed as a quoted character.


def _quote_char(c: int) -> str:
    ch = chr(c)
    if ch == "'":
        return "'\\''"
    if ch == "\\":
        return "'\\\\'"
    if ch.isprintable():
        return f"'{ch}'"
    return f"'\\u{c:04x}'"


def predicate_to_text(p: ConcretePredicate) -> str:
    if p.kind is TOP:
        return "top"
    op = "=" if p.kind in (LEN_EQ, CHAR_EQ) else "!="
    if p.kind.holes == 1:
        return f"(len {op} {p.args[0]})"
    return f"(char {p.args[0]} {op} {_quote_char(p.args[1])})"


_TEMPLATE_TEXT = {
    TOP: "top",
    LEN_EQ: "(len = c)",
    LEN_NEQ: "(len != c)",
    CHAR_EQ: "(char i = c)",
    CHAR_NEQ: "(char i != c)",
}


def template_to_text(t: TemplateKind) -> str:
    return _TEMPLATE_TEXT[t]


def template_from_text(text: str) -> TemplateKind:
    text = text.strip()
    for t in TemplateKind:
        if _TEMPLATE_TEXT[t] == text:
            return t
    raise ValueError(f"unknown template {text!r}")
