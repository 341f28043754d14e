"""Reference checks that only the tests read."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from atlas.domain import (
    BOTTOM,
    TOP_PRED,
    AbstractValue,
    ConcretePredicate,
    ConstantPool,
    TemplateKind,
    StateLike,
    abstract,
    best_abstraction,
    char_eq,
    char_neq,
    gamma_contains,
    len_eq,
    len_neq,
)
from atlas.dsl import AstNode, Op, Program, eval_node
from atlas.interpolation import Annotation, TreeInterpolant, TreeItpProblem
from atlas.synthesizer import SynthesisTask, apply_transformer, satisfies
from atlas.transformers import Matrix, TransformerTable, _reduce, column_rank


def is_correct(p: Program, task: SynthesisTask) -> bool:
    """True iff ``p`` maps every example input of ``task`` to its output."""
    return all(satisfies(p, ex) for ex in task.examples)


def full_abstraction(s: str, templates, pool: ConstantPool) -> AbstractValue:
    """``best_abstraction`` without the reduction: every fact of every template."""
    return AbstractValue.of(p for t in templates if t.holes for p in abstract(s, t, pool))


def abstract_eval(node: AstNode, e_in: str, templates, table: TransformerTable, pool: ConstantPool) -> StateLike:
    """Abstract state of a program on one example input, derived top-down.

    Closed subterms are abstracted from their concrete value, in reduced
    form; concatenations go through the transformer table.  The synthesizer
    derives the same states bottom-up, with caches.
    """
    if node.op in (Op.INPUT, Op.CONST, Op.SUBSTR):
        return best_abstraction(eval_node(node, e_in), templates, pool)
    if node.op is Op.CONCAT:
        left = abstract_eval(node.children[0], e_in, templates, table, pool)
        right = abstract_eval(node.children[1], e_in, templates, table, pool)
        return apply_transformer(table, (left, right))
    raise ValueError(f"not a string node: {node.op}")


def state_embeds_scan(state: StateLike, out: str) -> bool:
    """``state_embeds`` by scanning every offset and every admissible length.

    The reference for the synthesizer's one-length test: it tries each
    substring length the length facts allow at each offset of ``out``.
    """
    if state is BOTTOM:
        return False
    if not state.conjuncts:
        return True
    groups: dict[TemplateKind, list[tuple[int, ...]]] = {}
    for p in state.conjuncts:
        groups.setdefault(p.kind, []).append(p.args)
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


def as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(operator.index(x) for x in row) for row in rows)


def fold(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> dict[int, list[int]]:
    """The echelon basis of the rows of ``[A | B]``, with pivots on A's
    columns, as ``generate_examples`` builds it for ``solve_linear``."""
    basis: dict[int, list[int]] = {}
    for row_a, row_b in zip(a, b):
        row, pivot = _reduce(basis, [*row_a, *row_b], len(row_a))
        if pivot is not None:
            basis[pivot] = row
    return basis


def full_rank(rows: Iterable[Sequence[int]], n_cols: int) -> bool:
    """Whether the first ``n_cols`` columns of the integer ``rows`` have full column rank."""
    return column_rank([row[:n_cols] for row in rows]) == n_cols


# ---------------------------------------------------------------------------
# Predicate text parsing, the inverse of ``domain.predicate_to_text``.


def _unquote_char(tok: str) -> int:
    if not (tok.startswith("'") and tok.endswith("'")):
        raise ValueError(f"bad character token {tok!r}")
    body = tok[1:-1]
    if body == "\\'":
        return ord("'")
    if body == "\\\\":
        return ord("\\")
    if body.startswith("\\u"):
        return int(body[2:], 16)
    if len(body) != 1:
        raise ValueError(f"bad character token {tok!r}")
    return ord(body)


def predicate_from_text(text: str) -> ConcretePredicate:
    text = text.strip()
    if text == "top":
        return TOP_PRED
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad predicate {text!r}")
    toks = text[1:-1].split()
    if toks[0] == "len" and len(toks) == 3:
        k = int(toks[2])
        return len_eq(k) if toks[1] == "=" else len_neq(k)
    if toks[0] == "char" and len(toks) == 4:
        i = int(toks[1])
        c = _unquote_char(toks[3])
        return char_eq(i, c) if toks[2] == "=" else char_neq(i, c)
    raise ValueError(f"bad predicate {text!r}")


# ---------------------------------------------------------------------------
# Exact fact-level semantics.  Facts are lengths and individual characters of
# a string value; partial fact sets are allowed and propagate as far as the
# operator semantics determine them.


@dataclass(frozen=True)
class FactSet:
    """Known facts about one string value: its length and chars (as code points)."""

    length: Optional[int] = None
    chars: tuple[tuple[int, int], ...] = ()  # sorted (index, codepoint) pairs

    @staticmethod
    def of(length: Optional[int] = None, chars: Optional[dict[int, int]] = None) -> "FactSet":
        items = tuple(sorted((chars or {}).items()))
        return FactSet(length=length, chars=items)

    @staticmethod
    def from_value(s: str) -> "FactSet":
        return FactSet.of(len(s), {i: ord(c) for i, c in enumerate(s)})

    def char_map(self) -> dict[int, int]:
        return dict(self.chars)

    def holds_of(self, s: str) -> bool:
        if self.length is not None and len(s) != self.length:
            return False
        return all(i < len(s) and ord(s[i]) == c for i, c in self.chars)


def exact_facts(op: Op, child_facts: list, literal=None) -> FactSet:
    """Derive the complete fact set of an operator's output from child facts.

    ``child_facts`` holds FactSets for string children and plain ints for
    resolved positions.  Missing child facts simply limit what is derivable.
    """
    if op is Op.CONST:
        return FactSet.from_value(literal)
    if op is Op.INPUT:
        # The input leaf's facts are those of the bound example input.
        (facts,) = child_facts
        return facts
    if op is Op.CONCAT:
        left, right = child_facts
        length = None
        # A char fact on the left child implies its index is inside the left
        # part, so it carries over unconditionally; right-side facts shift by
        # the left length when that is known.
        chars: dict[int, int] = dict(left.chars)
        if left.length is not None and right.length is not None:
            length = left.length + right.length
        if left.length is not None:
            chars.update({left.length + i: c for i, c in right.chars})
        return FactSet.of(length, chars)
    if op is Op.SUBSTR:
        subject, i1, i2 = child_facts
        length = i2 - i1
        cmap = subject.char_map()
        chars = {k: cmap[i1 + k] for k in range(length) if i1 + k in cmap}
        return FactSet.of(length, chars)
    raise ValueError(f"no string facts for operator {op}")


# ---------------------------------------------------------------------------
# Independent tree-interpolant checker.  Entailment is decided by the exact
# fact calculus with concrete-value substitution for definitional leaves.


def _facts_from_annotation(a: Annotation) -> FactSet:
    if a is True or a is False or a.kind is TemplateKind.TOP:
        return FactSet.of()
    if a.kind is TemplateKind.LEN_EQ:
        return FactSet.of(length=a.args[0])
    if a.kind is TemplateKind.CHAR_EQ:
        return FactSet.of(chars={a.args[0]: a.args[1]})
    return FactSet.of()  # inequality facts do not feed the forward calculus


def _fact_entails(derived: FactSet, goal: ConcretePredicate) -> bool:
    k = goal.kind
    if k is TemplateKind.LEN_EQ:
        return derived.length == goal.args[0]
    if k is TemplateKind.LEN_NEQ:
        return derived.length is not None and derived.length != goal.args[0]
    if k is TemplateKind.CHAR_EQ:
        return dict(derived.chars).get(goal.args[0]) == goal.args[1]
    if k is TemplateKind.CHAR_NEQ:
        i, c = goal.args
        got = dict(derived.chars).get(i)
        if got is not None and got != c:
            return True
        return derived.length is not None and i >= derived.length
    return False


def check_interpolant(t: TreeItpProblem, itp: TreeInterpolant) -> bool:
    """Verify the two defining conditions of a tree interpolant.

    The root must be annotated false; at every other node the children's
    annotations plus the node's own (definitional) label must entail the
    node's annotation; and the root child's annotation must refute the
    expected output.  Each annotation only mentions its own node, so the
    shared-vocabulary condition holds structurally.
    """
    if itp.at(t.root) is not False:
        return False
    top = t.child_of_root()
    a = itp.at(top.uid)
    if a is True or (a is not False and gamma_contains(a, t.expected_output)):
        return False  # does not contradict the root label v' = e_out

    for node in t.nodes:
        if node.uid == t.root:
            continue
        a = itp.at(node.uid)
        if a is True:
            continue
        if a is False:
            return False
        ast = node.ast
        if ast.op in (Op.INPUT, Op.CONST):
            if not gamma_contains(a, node.value):
                return False
            continue
        if ast.op in (Op.ABSPOS, Op.CPOS):
            return False  # position leaves carry no string predicates
        if ast.op is Op.CONCAT:
            left, right = (t.node(c) for c in node.children)
            derived = exact_facts(
                Op.CONCAT,
                [_facts_from_annotation(itp.at(left.uid)), _facts_from_annotation(itp.at(right.uid))],
            )
        elif ast.op is Op.SUBSTR:
            subject, p1, p2 = (t.node(c) for c in node.children)
            derived = exact_facts(
                Op.SUBSTR,
                [_facts_from_annotation(itp.at(subject.uid)), p1.value, p2.value],
            )
        else:
            return False
        if not _fact_entails(derived, a):
            return False
    return True
