"""Reference checks that only the tests read."""

from __future__ import annotations

import gc
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
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
    len_eq,
    len_neq,
    widen,
)
from atlas.dsl import AstNode, EvalError, Op, abspos, concat, const, cpos, eval_node, input_, substr
from atlas.interpolation import Annotation, TreeNode
from atlas.synthesizer import SynthesisTask, apply_transformer, satisfies
from atlas.transformers import Matrix, TransformerTable, _reduce, column_rank


def is_correct(p: AstNode, task: SynthesisTask) -> bool:
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


def contradicts(p: ConcretePredicate, q: ConcretePredicate) -> bool:
    """Whether ``p`` and ``q`` hold of no string together: two lengths, a
    length and its ``len !=``, a character at or past the length, two
    characters at one index, or a character and its ``char !=``."""
    for a, b in ((p, q), (q, p)):
        if a.kind is TemplateKind.LEN_EQ and (
            (b.kind is TemplateKind.LEN_EQ and b.args != a.args)
            or (b.kind is TemplateKind.LEN_NEQ and b.args == a.args)
            or (b.kind is TemplateKind.CHAR_EQ and b.args[0] >= a.args[0])
        ):
            return True
        if a.kind is TemplateKind.CHAR_EQ and b.kind in (TemplateKind.CHAR_EQ, TemplateKind.CHAR_NEQ):
            if a.args[0] == b.args[0] and (a.args[1] == b.args[1]) == (b.kind is TemplateKind.CHAR_NEQ):
                return True
    return False


def pred_holds(p: ConcretePredicate, s: str) -> bool:
    """Whether ``s`` satisfies the concrete predicate ``p``: the
    predicate-level reference for ``gamma_contains``, which takes states."""
    k = p.kind
    if k is TemplateKind.TOP:
        return True
    if k is TemplateKind.LEN_EQ:
        return len(s) == p.args[0]
    if k is TemplateKind.LEN_NEQ:
        return len(s) != p.args[0]
    i, c = p.args
    if k is TemplateKind.CHAR_EQ:
        return i < len(s) and ord(s[i]) == c
    return i >= len(s) or ord(s[i]) != c


def meet_predicates(preds: Iterable[ConcretePredicate]):
    """The conjunction of ``preds`` as a frozenset without ``top``, or BOTTOM
    when two of them contradict.

    Over an unbounded alphabet a conjunction of these predicates is
    satisfiable unless two of them contradict (``contradicts``): infinitely
    many lengths and characters remain for the ``!=`` facts to exclude.
    """
    facts = frozenset(p for p in preds if p.kind is not TemplateKind.TOP)
    if any(contradicts(p, q) for p, q in combinations(facts, 2)):
        return BOTTOM
    return facts


def facts_of(state: StateLike):
    """The conjuncts of a state, an exact one widened, or BOTTOM."""
    if state is BOTTOM:
        return BOTTOM
    return (widen(state) if isinstance(state, str) else state).conjuncts


# The rank key the enumerator's order is checked against, as ``atlas.dsl``
# defines the ranking: AST size, then (operator, literal, children keys),
# with each child keyed by its size first.
_OP_ORDER = {Op.INPUT: 0, Op.CONST: 1, Op.ABSPOS: 2, Op.CPOS: 3, Op.CONCAT: 4, Op.SUBSTR: 5}


def _literal_key(node: AstNode):
    if node.op is Op.CONST:
        return (node.literal,)
    if node.op is Op.ABSPOS:
        return (node.literal,)
    if node.op is Op.CPOS:
        return node.literal
    return ()


def _struct_key(node: AstNode):
    return (_OP_ORDER[node.op], _literal_key(node), tuple((c.size, _struct_key(c)) for c in node.children))


def rank_key(node: AstNode) -> tuple:
    return (node.size, _struct_key(node))


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


def state_holds(state: StateLike, s: str) -> bool:
    """Whether ``s`` lies in the concretization of ``state``, an
    ``AbstractValue`` or BOTTOM: whether every conjunct holds of it."""
    return state is not BOTTOM and all(pred_holds(p, s) for p in state.conjuncts)


@dataclass
class SearchOutcome:
    """What ``reference_search`` found, in the fields ``outcome`` tests read
    off a ``SynthResult``, and ``kept``: by AST size, the candidates kept for
    larger sizes, in order, as ``(values, states, term)``, where ``term``
    is a leaf's AST node or the pair of a concatenation's children."""

    program: Optional[AstNode] = None
    correct: Optional[bool] = None
    reason: str = "exhausted"
    enumerated: int = 0
    pruned_abstract: int = 0
    deduped: int = 0
    kept: dict[int, list] = field(default_factory=dict)


def term_node(rec: tuple) -> AstNode:
    """The AST node of a candidate ``reference_search`` kept or logged."""
    term = rec[2]
    return term if isinstance(term, AstNode) else concat(term_node(term[0]), term_node(term[1]))


@lru_cache(maxsize=64)
def _leaves(examples: tuple, literals: tuple) -> dict[int, tuple]:
    """The leaves of each size with their values, in rank order, as
    ``(values, node)``: size 1 is the input, then the constants, and size 4
    the substrings of the input that evaluate on every input.  Cached per
    task, as tuples, since every search of a task reads the same leaves."""
    inputs, outputs = [x for x, _ in examples], [y for _, y in examples]
    consts = {s for s in literals if s}
    consts |= {y[i:j] for y in outputs for i in range(len(y)) for j in range(i + 1, min(i + 6, len(y)) + 1)}
    max_len = max(len(s) for s in inputs + outputs)
    positions = [abspos(k) for k in range(-1, min(12, max_len) + 1)]
    positions += [cpos(ord(c), j) for c in set("".join(inputs)) for j in (-3, -2, -1, 1, 2, 3)]
    positions.sort(key=rank_key)
    ones = [(tuple(eval_node(node, x) for x in inputs), node) for node in [input_(), *sorted(map(const, consts), key=rank_key)]]
    fours = []
    # A substring's key orders it by its first position, then its second.
    for node in (substr(input_(), p, q) for p in positions for q in positions):
        try:
            fours.append((tuple(eval_node(node, x) for x in inputs), node))
        except EvalError:
            continue
    return {1: tuple(ones), 4: tuple(fours)}


def reference_search(
    task: SynthesisTask, templates, table: TransformerTable, require_correct: bool, log: Optional[list] = None
) -> SearchOutcome:
    """The synthesizer's search, restated from the DSL alone: the first
    candidate in rank order (``rank_key``) whose states accept the outputs.

    The leaves are the input; the constants, which are the task's literals
    and every substring of one to six characters of an output; and
    ``substr(input, p, q)`` over the positions ``abspos k`` for ``-1 <= k
    <= min(12, m)``, ``m`` the longest input or output, and ``cpos c j``
    for each character ``c`` of an input and ``0 < |j| <= 3``, when it
    evaluates on every input.  A size's candidates are its concatenations,
    of each kept candidate of each smaller size with each of the size that
    completes it, left size first, then its leaves (substrings rank after
    concatenations).  As a concatenation's key orders it by its left size,
    then by its left child's key and then its right child's, a size is in
    rank order when the sizes it reads are.

    Each candidate is counted against ``max_candidates``, then dropped when
    its values repeat an earlier candidate's.  Its states are each value's
    ``best_abstraction`` for a leaf and the children's states through
    ``apply_transformer`` for a concatenation, memoized with the embed
    verdict per pair of child state vectors.  It is pruned unless every
    state embeds its output (``state_embeds_scan``), returned when (with
    ``require_correct``, its values are the outputs and) every output lies
    in its state (``state_holds``), and kept otherwise.  The AST is built only for the
    returned program; with ``log``, each counted candidate's record is
    appended to it, its states None.
    """
    inputs, outputs, budget = task.inputs, task.outputs, task.max_candidates
    pool = ConstantPool.default(inputs + outputs)
    leaves = _leaves(task.examples, task.literals)
    # The states and embed verdict of a concatenation, by its children's states.
    derived: dict = {}
    seen: set = set()
    found = SearchOutcome()
    enumerated = pruned = deduped = 0
    # The kept records hold AST nodes and states, which the cyclic collector
    # tracks, so each collection would walk them all; none is in a cycle.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for size in range(1, task.max_ast_size + 1):
            found.kept[size] = level = []
            pairs = (
                (tuple(map(operator.add, a[0], b[0])), (a, b))
                for sa in range(1, size - 1)
                for a in found.kept[sa]
                for b in found.kept[size - 1 - sa]
            )
            for values, term in chain(pairs, leaves.get(size, ())):
                enumerated += 1
                if log is not None:
                    log.append((values, None, term))
                if enumerated > budget:
                    found.reason = "candidate-budget"
                    return found
                if values in seen:
                    deduped += 1
                    continue
                seen.add(values)
                if isinstance(term, AstNode):
                    states = tuple(best_abstraction(v, templates, pool) for v in values)
                    embed = all(map(state_embeds_scan, states, outputs))
                else:
                    key = (term[0][1], term[1][1])
                    got = derived.get(key)
                    if got is None:
                        states = tuple(apply_transformer(table, pair) for pair in zip(*key))
                        got = derived[key] = states, all(map(state_embeds_scan, states, outputs))
                    states, embed = got
                if not embed:
                    pruned += 1
                    continue
                rec = (values, states, term)
                if (not require_correct or values == outputs) and all(map(state_holds, states, outputs)):
                    found.program, found.correct, found.reason = term_node(rec), values == outputs, "found"
                    return found
                level.append(rec)
        return found
    finally:
        found.enumerated, found.pruned_abstract, found.deduped = enumerated, pruned, deduped
        if collecting:
            gc.enable()


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


def check_interpolant(nodes: list[TreeNode], itp: list[Annotation]) -> bool:
    """Verify the two defining conditions of a tree interpolant.

    The root must be annotated false; at every other node the children's
    annotations plus the node's own (definitional) label must entail the
    node's annotation; and the root child's annotation must refute the
    expected output.  Each annotation only mentions its own node, so the
    shared-vocabulary condition holds structurally.  ``nodes`` is in
    pre-order: the root, holding the expected output, then its one child.
    """
    if len(itp) != len(nodes) or itp[0] is not False:
        return False
    a = itp[1]
    if a is True or (a is not False and pred_holds(a, nodes[0].value)):
        return False  # does not contradict the root label v' = e_out

    for node, a in zip(nodes[1:], itp[1:]):
        if a is True:
            continue
        if a is False:
            return False
        ast = node.ast
        if ast.op in (Op.INPUT, Op.CONST):
            if not pred_holds(a, node.value):
                return False
            continue
        if ast.op in (Op.ABSPOS, Op.CPOS):
            return False  # position leaves carry no string predicates
        if ast.op is Op.CONCAT:
            left, right = node.children
            derived = exact_facts(Op.CONCAT, [_facts_from_annotation(itp[left]), _facts_from_annotation(itp[right])])
        elif ast.op is Op.SUBSTR:
            subject, p1, p2 = node.children
            derived = exact_facts(Op.SUBSTR, [_facts_from_annotation(itp[subject]), nodes[p1].value, nodes[p2].value])
        else:
            return False
        if not _fact_entails(derived, a):
            return False
    return True
