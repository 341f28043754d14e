"""Predicate templates, concrete predicates, abstract values, and the
best-abstraction operator.

A template is a member of the ``TemplateKind`` enum, ``TOP``, ``LEN_EQ``,
``LEN_NEQ``, ``CHAR_EQ`` or ``CHAR_NEQ``, and templates sort by their
values.  A concrete predicate is a template with its integer holes filled
(characters are code points).  An abstract value is a finite conjunction of
concrete predicates over one string value, with a distinguished bottom
whose concretization is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import chain, starmap
from typing import Collection, Iterable, Union


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
_INTERNED = {
    LEN_EQ: len_eq,
    LEN_NEQ: len_neq,
    CHAR_EQ: char_eq,
    CHAR_NEQ: char_neq,
}


class _Bottom:
    """Distinguished empty-concretization value; a singleton."""

    def __repr__(self):
        return "Bottom"

    def __str__(self):
        return "bottom"


BOTTOM = _Bottom()


@dataclass(frozen=True)
class AbstractValue:
    """Conjunction of concrete predicates; the empty conjunction is top.

    Made by ``of_groups`` (or ``of``) only.  ``by_kind`` holds the args of
    the conjuncts grouped by template kind, with ``TOP: [()]``, for every
    reader of a value's structure; equality and hashing read ``conjuncts``.
    """

    conjuncts: frozenset[ConcretePredicate]
    by_kind: dict[TemplateKind, list[tuple[int, ...]]] = field(compare=False, hash=False, repr=False)

    @staticmethod
    def top() -> "AbstractValue":
        return _TOP_VALUE

    @staticmethod
    def of(preds: Iterable[ConcretePredicate]) -> Union["AbstractValue", _Bottom]:
        """The conjunction of ``preds``, or bottom on direct contradiction."""
        groups: dict[TemplateKind, set[tuple[int, ...]]] = {}
        for p in preds:
            groups.setdefault(p.kind, set()).add(p.args)
        return AbstractValue.of_groups(groups)

    @staticmethod
    def of_groups(groups: dict[TemplateKind, Collection[tuple[int, ...]]]) -> Union["AbstractValue", _Bottom]:
        """The conjunction of the facts given as their distinct args grouped
        by kind, or bottom on direct contradiction; a ``top`` group adds
        nothing.  The conjuncts are the interned predicates (``len_eq`` and
        the rest), and ``by_kind`` is the groups themselves."""
        groups = {k: list(args) for k, args in groups.items() if args and k is not TOP}
        if not groups:
            return _TOP_VALUE
        if _contradicts(groups):
            return BOTTOM
        conjuncts = frozenset(chain.from_iterable(starmap(_INTERNED[k], args) for k, args in groups.items()))
        groups[TOP] = [()]
        return AbstractValue(conjuncts, groups)

    def sorted_conjuncts(self) -> list[ConcretePredicate]:
        return sorted(self.conjuncts)

    def __str__(self) -> str:
        if not self.conjuncts:
            return "top"
        return " & ".join(str(p) for p in self.sorted_conjuncts())


_TOP_VALUE = AbstractValue(frozenset(), {TOP: [()]})

StateLike = Union[AbstractValue, _Bottom]


# ---------------------------------------------------------------------------
# Concretization membership


def _pred_holds(p: ConcretePredicate, s: str) -> bool:
    k = p.kind
    if k is TOP:
        return True
    if k is LEN_EQ:
        return len(s) == p.args[0]
    if k is LEN_NEQ:
        return len(s) != p.args[0]
    if k is CHAR_EQ:
        i, c = p.args
        return i < len(s) and ord(s[i]) == c
    if k is CHAR_NEQ:
        i, c = p.args
        return i >= len(s) or ord(s[i]) != c
    raise ValueError(k)


def gamma_contains(p: Union[ConcretePredicate, StateLike], s: str) -> bool:
    """Membership of ``s`` in the concretization of a predicate or value."""
    if p is BOTTOM:
        return False
    if isinstance(p, ConcretePredicate):
        return _pred_holds(p, s)
    return all(_pred_holds(q, s) for q in p.conjuncts)


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
        return [
            char_neq(i, c)
            for i in pool.indices
            if i < len(s)
            for c in pool.chars
            if c != ord(s[i])
        ]
    raise ValueError(t)


# The equality kind whose facts about a value imply every fact of the
# inequality kind: ``len = n`` implies each ``len != k``, and ``char i = c``
# each ``char i != c'`` (both are generated at the indices of the value).
_IMPLIED_BY = {LEN_NEQ: LEN_EQ, CHAR_NEQ: CHAR_EQ}


def best_abstraction(s: str, templates: Iterable[TemplateKind], pool: ConstantPool) -> StateLike:
    """Strongest conjunction expressible with the given templates that holds of ``s``, reduced.

    An inequality template contributes no facts when the matching equality
    template is in the domain: they would all be implied, so the reduced
    conjunction has the concretization of the full one.  Under any table a
    concatenation of reduced leaves gets a sound state, no stronger than the
    one from full leaves, since fewer conjuncts give fewer selections to map;
    under the tables training learns it has the same concretization (see
    ``transformers``).  Every fact holds of ``s``, so it is never bottom.
    """
    templates = sorted(templates)
    groups = {}
    for t in templates:
        if t is TOP or _IMPLIED_BY.get(t) in templates:
            continue
        groups[t] = [p.args for p in abstract(s, t, pool)]
    return AbstractValue.of_groups(groups)


# ---------------------------------------------------------------------------
# Meet with syntactic contradiction detection


def _contradicts(groups: dict[TemplateKind, list[tuple[int, ...]]]) -> bool:
    """Whether facts, given as distinct args grouped by kind, directly
    contradict each other."""
    lens = groups.get(LEN_EQ, ())
    pins = groups.get(CHAR_EQ, ())
    char_eqs = dict(pins)
    if len(lens) > 1 or len(char_eqs) < len(pins):  # two lengths, or two characters at one index
        return True
    if lens and (lens[0] in groups.get(LEN_NEQ, ()) or (char_eqs and max(char_eqs) >= lens[0][0])):
        return True
    return bool(char_eqs) and any(char_eqs.get(i) == c for i, c in groups.get(CHAR_NEQ, ()))


def meet(a: StateLike, b: StateLike) -> StateLike:
    """Greatest lower bound; returns bottom on direct contradiction.

    Only tests call it.  It stays while the benchmark's worker
    (``perfbench/worker.py``) traces it by name.
    """
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
    k = p.kind
    if k is TOP:
        return "top"
    if k is LEN_EQ:
        return f"(len = {p.args[0]})"
    if k is LEN_NEQ:
        return f"(len != {p.args[0]})"
    if k is CHAR_EQ:
        return f"(char {p.args[0]} = {_quote_char(p.args[1])})"
    if k is CHAR_NEQ:
        return f"(char {p.args[0]} != {_quote_char(p.args[1])})"
    raise ValueError(k)


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
