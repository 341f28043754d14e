"""Tree interpolation over spurious programs.

Given a program that fails an input-output pair, we build a labeled tree
(the program AST under a root asserting the expected output), whose label
conjunction is unsatisfiable, then annotate it bottom-up with length and
character facts: the root gets false, the root's child gets a fact that
discriminates the actual output from the expected one, and every inner fact
is justified by exact equality facts on the children.  Forgetting the
integer constants of those facts yields new predicate templates.

The tree is the list of its nodes in pre-order: the root first, holding
the expected output, then the program's root, then the rest of the AST.
A node's children are indices into that list, and the interpolant is a
list with one annotation per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .dsl import (
    AstNode,
    EvalError,
    Op,
    eval_node,
    resolve_position,
    window,
)
from .domain import (
    LEN_EQ,
    LEN_NEQ,
    ConcretePredicate,
    TemplateKind,
    char_eq,
    char_neq,
    len_eq,
    len_neq,
)


class NotSpurious(Exception):
    """The program satisfies the example; there is nothing to refute."""


# Annotations: False at the root, True for uninformative nodes, otherwise a
# single predicate over the node's own value.
Annotation = Union[bool, ConcretePredicate]


@dataclass
class TreeNode:
    name: str
    ast: Optional[AstNode]  # None for the root
    children: list[int] = field(default_factory=list)
    value: Union[str, int, None] = None  # concrete value under the example input


def _label_for(node: TreeNode, tree_nodes: list[TreeNode]) -> str:
    ast = node.ast
    if ast is None:
        child = tree_nodes[node.children[0]]
        return f"{child.name} = {node.value!r}"
    if ast.op is Op.INPUT:
        return f"{node.name} = {node.value!r}"
    if ast.op is Op.CONST:
        return f"{node.name} = {ast.literal!r}"
    if ast.op in (Op.ABSPOS, Op.CPOS):
        return f"{node.name} = {node.value}"
    kids = ", ".join(tree_nodes[c].name for c in node.children)
    return f"{node.name} = {ast.op.value}({kids})"


def construct_tree(p: AstNode, e_in: str, e_out: str) -> list[TreeNode]:
    """The pre-order node list of the interpolation problem for ``p`` on a
    violated example: the root first, holding ``e_out``, then ``p``.

    Every node carries its value under ``e_in``, computed once from its
    children's; positions carry their resolved boundary index.  Raises
    NotSpurious if the program satisfies the example; propagates EvalError.
    """
    nodes = [TreeNode(name="root", ast=None, value=e_out)]

    def add(ast: AstNode, parent: int, subject: str):
        # Append ``ast``'s subtree and return its value (a position's in ``subject``).
        index = len(nodes)
        name = "x" if ast.op is Op.INPUT else f"v{index}"
        node = TreeNode(name=name, ast=ast)
        nodes.append(node)
        nodes[parent].children.append(index)
        if ast.op in (Op.ABSPOS, Op.CPOS):
            node.value = resolve_position(ast, subject)
        elif ast.op is Op.CONCAT:
            node.value = add(ast.children[0], index, "") + add(ast.children[1], index, "")
        elif ast.op is Op.SUBSTR:
            inner = add(ast.children[0], index, "")
            node.value = window(inner, add(ast.children[1], index, inner), add(ast.children[2], index, inner))
        else:
            node.value = eval_node(ast, e_in)
        return node.value

    if add(p, 0, "") == e_out:
        raise NotSpurious(f"program satisfies {e_in!r} -> {e_out!r}")
    return nodes


def _discriminator(actual: str, expected: str) -> ConcretePredicate:
    """A fact true of ``actual`` that refutes equality with ``expected``,
    which differs from it.

    Lengths are preferred; otherwise the smallest differing index.
    """
    if len(actual) != len(expected):
        return len_neq(len(expected))
    i = next(i for i, (a, b) in enumerate(zip(actual, expected)) if a != b)
    return char_neq(i, ord(expected[i]))


def find_tree_itp(nodes: list[TreeNode]) -> list[Annotation]:
    """A tree interpolant, one annotation per node, by goal-directed fact
    propagation."""
    ann: list[Annotation] = [False] + [True] * (len(nodes) - 1)
    _justify(nodes, 1, _discriminator(nodes[1].value, nodes[0].value), ann)
    return ann


def _justify(nodes: list[TreeNode], index: int, fact: ConcretePredicate, ann: list[Annotation]):
    """Annotate node ``index`` with ``fact`` and its descendants with the
    exact equality facts that make the local entailment hold."""
    ann[index] = fact
    node = nodes[index]
    ast = node.ast
    if ast.op in (Op.INPUT, Op.CONST):
        return  # the leaf label is definitional; the fact holds of its value
    kind = fact.kind

    if ast.op is Op.CONCAT:
        left, right = node.children
        l_value, r_value = nodes[left].value, nodes[right].value
        if kind in (LEN_EQ, LEN_NEQ):
            _justify(nodes, left, len_eq(len(l_value)), ann)
            _justify(nodes, right, len_eq(len(r_value)), ann)
            return
        i = fact.args[0]
        l1 = len(l_value)
        if i < l1:
            _justify(nodes, left, char_eq(i, ord(l_value[i])), ann)
        else:
            _justify(nodes, left, len_eq(l1), ann)
            _justify(nodes, right, char_eq(i - l1, ord(r_value[i - l1])), ann)
        return

    if ast.op is Op.SUBSTR:
        subject, p1, _ = node.children
        i1 = nodes[p1].value
        if kind in (LEN_EQ, LEN_NEQ):
            return  # the window length is fixed by the resolved positions
        i = fact.args[0]
        _justify(nodes, subject, char_eq(i1 + i, ord(nodes[subject].value[i1 + i])), ann)
        return

    raise ValueError(f"cannot justify through {ast.op}")


# ---------------------------------------------------------------------------
# Template extraction


def learn_abstract_domain(p: AstNode, examples: list[tuple[str, str]]) -> set[TemplateKind]:
    """Templates extracted from the interpolants of every violated example."""
    out: set[TemplateKind] = set()
    for e_in, e_out in examples:
        try:
            nodes = construct_tree(p, e_in, e_out)
        except (NotSpurious, EvalError):
            continue  # satisfied, or no fact-level proof for a crashing run; other examples may teach
        out.update(a.kind for a in find_tree_itp(nodes) if not isinstance(a, bool))  # forget the integer constants
    return out


def dump_tree(nodes: list[TreeNode], itp: list[Annotation]) -> str:
    """One line per node: ``node-id | label | concrete-value | interpolant``."""
    lines = []
    for node, a in zip(nodes, itp):
        text = "false" if a is False else "true" if a is True else str(a)
        lines.append(f"{node.name} | {_label_for(node, nodes)} | {node.value!r} | {text}")
    return "\n".join(lines)
