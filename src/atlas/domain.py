"""Predicate templates, concrete predicates, abstract values, and the
best-abstraction operator.

A template is one of five kinds; a concrete predicate fills its integer
holes (characters are code points).  An abstract value is a finite
conjunction of concrete predicates over one string value, with a
distinguished bottom whose concretization is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Union


class TemplateKind(str, Enum):
    TOP = "top"
    LEN_EQ = "len-eq"
    LEN_NEQ = "len-neq"
    CHAR_EQ = "char-eq"
    CHAR_NEQ = "char-neq"


_HOLES = {
    TemplateKind.TOP: 0,
    TemplateKind.LEN_EQ: 1,
    TemplateKind.LEN_NEQ: 1,
    TemplateKind.CHAR_EQ: 2,
    TemplateKind.CHAR_NEQ: 2,
}

@dataclass(frozen=True, order=True)
class PredicateTemplate:
    kind: TemplateKind

    @property
    def holes(self) -> int:
        return _HOLES[self.kind]

    def instantiate(self, args: tuple[int, ...]) -> "ConcretePredicate":
        return ConcretePredicate(self, args)

    def __str__(self) -> str:
        return template_to_text(self)


TOP = PredicateTemplate(TemplateKind.TOP)
LEN_EQ = PredicateTemplate(TemplateKind.LEN_EQ)
LEN_NEQ = PredicateTemplate(TemplateKind.LEN_NEQ)
CHAR_EQ = PredicateTemplate(TemplateKind.CHAR_EQ)
CHAR_NEQ = PredicateTemplate(TemplateKind.CHAR_NEQ)

ALL_TEMPLATES = {t.kind: t for t in (TOP, LEN_EQ, LEN_NEQ, CHAR_EQ, CHAR_NEQ)}


@dataclass(frozen=True, order=True)
class ConcretePredicate:
    template: PredicateTemplate
    args: tuple[int, ...]

    def __post_init__(self):
        if len(self.args) != self.template.holes:
            raise ValueError(f"{self.template.kind.value} takes {self.template.holes} args")
        if self.template.kind in (TemplateKind.CHAR_EQ, TemplateKind.CHAR_NEQ) and self.args[0] < 0:
            raise ValueError("character index must be nonnegative")

    @property
    def kind(self) -> TemplateKind:
        return self.template.kind

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


class _Bottom:
    """Distinguished empty-concretization value; a singleton."""

    def __repr__(self):
        return "Bottom"

    def __str__(self):
        return "bottom"


BOTTOM = _Bottom()


@dataclass(frozen=True)
class AbstractValue:
    """Conjunction of concrete predicates; the empty conjunction is top."""

    conjuncts: frozenset[ConcretePredicate] = frozenset()

    @staticmethod
    def top() -> "AbstractValue":
        return _TOP_VALUE

    @staticmethod
    def of(preds: Iterable[ConcretePredicate]) -> Union["AbstractValue", _Bottom]:
        """The conjunction of ``preds``, or bottom on direct contradiction."""
        conjuncts = frozenset(p for p in preds if p.kind is not TemplateKind.TOP)
        if not conjuncts:
            return _TOP_VALUE
        value = AbstractValue(conjuncts)
        return BOTTOM if _contradicts(value) else value

    @cached_property
    def by_kind(self) -> dict[TemplateKind, list[tuple[int, ...]]]:
        """The args of the conjuncts grouped by template kind, with ``TOP: [()]``.

        Built once per value; every reader of a value's structure uses it.
        """
        groups: dict[TemplateKind, list[tuple[int, ...]]] = {TemplateKind.TOP: [()]}
        for p in self.conjuncts:
            if p.kind is not TemplateKind.TOP:
                groups.setdefault(p.kind, []).append(p.args)
        return groups

    def sorted_conjuncts(self) -> list[ConcretePredicate]:
        return sorted(self.conjuncts, key=lambda p: (p.template.kind.value, p.args))

    def __str__(self) -> str:
        if not self.conjuncts:
            return "top"
        return " & ".join(str(p) for p in self.sorted_conjuncts())


_TOP_VALUE = AbstractValue()

StateLike = Union[AbstractValue, _Bottom]


# ---------------------------------------------------------------------------
# Concretization membership


def _pred_holds(p: ConcretePredicate, s: str) -> bool:
    k = p.kind
    if k is TemplateKind.TOP:
        return True
    if k is TemplateKind.LEN_EQ:
        return len(s) == p.args[0]
    if k is TemplateKind.LEN_NEQ:
        return len(s) != p.args[0]
    if k is TemplateKind.CHAR_EQ:
        i, c = p.args
        return i < len(s) and ord(s[i]) == c
    if k is TemplateKind.CHAR_NEQ:
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


def abstract(s: str, t: PredicateTemplate, pool: ConstantPool) -> list[ConcretePredicate]:
    """All pool-bounded best instantiations of ``t`` satisfied by ``s``.

    Equality templates yield the exact facts of ``s``; inequality templates
    enumerate the pool.  Every returned predicate holds of ``s``.
    """
    k = t.kind
    if k is TemplateKind.TOP:
        return [TOP_PRED]
    if k is TemplateKind.LEN_EQ:
        return [len_eq(len(s))]
    if k is TemplateKind.LEN_NEQ:
        return [len_neq(m) for m in pool.lengths if m != len(s)]
    if k is TemplateKind.CHAR_EQ:
        return [char_eq(i, ord(s[i])) for i in pool.indices if i < len(s)]
    if k is TemplateKind.CHAR_NEQ:
        return [
            char_neq(i, c)
            for i in pool.indices
            if i < len(s)
            for c in pool.chars
            if c != ord(s[i])
        ]
    raise ValueError(k)


# The equality kind whose facts about a value imply every fact of the
# inequality kind: ``len = n`` implies each ``len != k``, and ``char i = c``
# each ``char i != c'`` (both are generated at the indices of the value).
_IMPLIED_BY = {TemplateKind.LEN_NEQ: TemplateKind.LEN_EQ, TemplateKind.CHAR_NEQ: TemplateKind.CHAR_EQ}


def best_abstraction(s: str, templates: Iterable[PredicateTemplate], pool: ConstantPool) -> AbstractValue:
    """Strongest conjunction expressible with the given templates that holds of ``s``, reduced.

    An inequality template contributes no facts when the matching equality
    template is in the domain: they would all be implied, so the reduced
    conjunction has the concretization of the full one.  Under any table a
    concatenation of reduced leaves gets a sound state, no stronger than the
    one from full leaves, since fewer conjuncts give fewer selections to map;
    under the tables training learns it has the same concretization (see
    ``transformers``).
    """
    templates = sorted(templates)
    kinds = {t.kind for t in templates}
    preds = []
    for t in templates:
        if t.kind is TemplateKind.TOP or _IMPLIED_BY.get(t.kind) in kinds:
            continue
        preds.extend(abstract(s, t, pool))
    return AbstractValue(frozenset(preds))


# ---------------------------------------------------------------------------
# Meet with syntactic contradiction detection


def _contradicts(value: AbstractValue) -> bool:
    groups = value.by_kind
    lens = {n for (n,) in groups.get(TemplateKind.LEN_EQ, ())}
    if len(lens) > 1:
        return True
    char_eqs: dict[int, int] = {}
    for i, c in groups.get(TemplateKind.CHAR_EQ, ()):
        if char_eqs.setdefault(i, c) != c:
            return True
    if any(n in lens for (n,) in groups.get(TemplateKind.LEN_NEQ, ())):
        return True
    if any(char_eqs.get(i) == c for i, c in groups.get(TemplateKind.CHAR_NEQ, ())):
        return True
    if lens:
        (n,) = lens
        if any(i >= n for i in char_eqs):
            return True
    return False


def meet(a: StateLike, b: StateLike) -> StateLike:
    """Greatest lower bound; returns bottom on direct contradiction."""
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
    if k is TemplateKind.TOP:
        return "top"
    if k is TemplateKind.LEN_EQ:
        return f"(len = {p.args[0]})"
    if k is TemplateKind.LEN_NEQ:
        return f"(len != {p.args[0]})"
    if k is TemplateKind.CHAR_EQ:
        return f"(char {p.args[0]} = {_quote_char(p.args[1])})"
    if k is TemplateKind.CHAR_NEQ:
        return f"(char {p.args[0]} != {_quote_char(p.args[1])})"
    raise ValueError(k)


def template_to_text(t: PredicateTemplate) -> str:
    k = t.kind
    if k is TemplateKind.TOP:
        return "top"
    if k is TemplateKind.LEN_EQ:
        return "(len = c)"
    if k is TemplateKind.LEN_NEQ:
        return "(len != c)"
    if k is TemplateKind.CHAR_EQ:
        return "(char i = c)"
    return "(char i != c)"


def template_from_text(text: str) -> PredicateTemplate:
    text = text.strip()
    for t in ALL_TEMPLATES.values():
        if template_to_text(t) == text:
            return t
    raise ValueError(f"unknown template {text!r}")
