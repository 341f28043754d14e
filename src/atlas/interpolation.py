"""Tree interpolation over spurious programs.

Given a program that fails an input-output pair, we build a labeled tree
(the program AST plus a dummy root asserting the expected output), whose
label conjunction is unsatisfiable, then annotate it bottom-up with length
and character facts: the root gets false, the root's child gets a fact that
discriminates the actual output from the expected one, and every inner fact
is justified by exact equality facts on the children.  Forgetting the
integer constants of those facts yields new predicate templates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .dsl import (
    AstNode,
    EvalError,
    Op,
    Program,
    eval_node,
    resolve_position,
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


class ItpFailure(Exception):
    """No discriminating fact exists (impossible for distinct strings)."""


# Annotations: False at the root, True for uninformative nodes, otherwise a
# single predicate over the node's own value.
Annotation = Union[bool, ConcretePredicate]


@dataclass
class TreeNode:
    uid: int
    name: str
    ast: Optional[AstNode]  # None for the dummy root
    children: list[int] = field(default_factory=list)
    value: Union[str, int, None] = None  # concrete value under the example input


@dataclass
class TreeItpProblem:
    nodes: list[TreeNode]
    root: int
    expected_output: str

    def node(self, uid: int) -> TreeNode:
        return self.nodes[uid]

    def child_of_root(self) -> TreeNode:
        return self.nodes[self.nodes[self.root].children[0]]


@dataclass
class TreeInterpolant:
    annotations: dict[int, Annotation]

    def at(self, uid: int) -> Annotation:
        return self.annotations[uid]


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


def construct_tree(p: Program, e_in: str, e_out: str) -> TreeItpProblem:
    """Build the interpolation problem for ``p`` on a violated example.

    Every node carries its concrete value under ``e_in``; positions carry
    their resolved boundary index.  Raises NotSpurious if the program in
    fact satisfies the example, and propagates EvalError.
    """
    actual = eval_node(p.root, e_in)
    if actual == e_out:
        raise NotSpurious(f"program satisfies {e_in!r} -> {e_out!r}")

    nodes: list[TreeNode] = []
    root = TreeNode(uid=0, name="root", ast=None, value=e_out)
    nodes.append(root)

    def add(ast: AstNode, parent: int, subject: str) -> int:
        uid = len(nodes)
        name = "x" if ast.op is Op.INPUT else f"v{uid}"
        node = TreeNode(uid=uid, name=name, ast=ast)
        nodes.append(node)
        nodes[parent].children.append(uid)
        if ast.op in (Op.ABSPOS, Op.CPOS):
            node.value = resolve_position(ast, subject)
        else:
            node.value = eval_node(ast, e_in)
        if ast.op is Op.SUBSTR:
            inner = eval_node(ast.children[0], e_in)
            for c in ast.children:
                add(c, uid, inner)
        else:
            for c in ast.children:
                add(c, uid, "")
        return uid

    add(p.root, 0, "")
    return TreeItpProblem(nodes=nodes, root=0, expected_output=e_out)


def _discriminator(actual: str, expected: str) -> ConcretePredicate:
    """A fact true of ``actual`` that refutes equality with ``expected``.

    Lengths are preferred; otherwise the smallest differing index.
    """
    if len(actual) != len(expected):
        return len_neq(len(expected))
    for i, (a, b) in enumerate(zip(actual, expected)):
        if a != b:
            return char_neq(i, ord(b))
    raise ItpFailure("strings are equal")


def find_tree_itp(t: TreeItpProblem) -> TreeInterpolant:
    """Compute a tree interpolant by goal-directed fact propagation."""
    ann: dict[int, Annotation] = {n.uid: True for n in t.nodes}
    ann[t.root] = False

    top = t.child_of_root()
    goal = _discriminator(top.value, t.expected_output)
    _justify(t, top, goal, ann)
    return TreeInterpolant(ann)


def _justify(t: TreeItpProblem, node: TreeNode, fact: ConcretePredicate, ann: dict[int, Annotation]):
    """Annotate ``node`` with ``fact`` and its descendants with the exact
    equality facts that make the local entailment hold."""
    ann[node.uid] = fact
    ast = node.ast
    if ast.op in (Op.INPUT, Op.CONST):
        return  # the leaf label is definitional; the fact holds of its value
    kids = [t.node(c) for c in node.children]
    kind = fact.kind

    if ast.op is Op.CONCAT:
        left, right = kids
        if kind in (LEN_EQ, LEN_NEQ):
            _justify(t, left, len_eq(len(left.value)), ann)
            _justify(t, right, len_eq(len(right.value)), ann)
            return
        i = fact.args[0]
        l1 = len(left.value)
        if i < l1:
            _justify(t, left, char_eq(i, ord(left.value[i])), ann)
        else:
            _justify(t, left, len_eq(l1), ann)
            _justify(t, right, char_eq(i - l1, ord(right.value[i - l1])), ann)
        return

    if ast.op is Op.SUBSTR:
        subject, p1, p2 = kids
        i1 = p1.value
        if kind in (LEN_EQ, LEN_NEQ):
            return  # the window length is fixed by the resolved positions
        i = fact.args[0]
        _justify(t, subject, char_eq(i1 + i, ord(subject.value[i1 + i])), ann)
        return

    raise ValueError(f"cannot justify through {ast.op}")


# ---------------------------------------------------------------------------
# Template extraction


def learn_abstract_domain(p: Program, examples: list[tuple[str, str]]) -> set[TemplateKind]:
    """Templates extracted from the interpolants of every violated example."""
    out: set[TemplateKind] = set()
    for e_in, e_out in examples:
        try:
            tree = construct_tree(p, e_in, e_out)
        except (NotSpurious, EvalError):
            continue  # satisfied, or no fact-level proof for a crashing run; other examples may teach
        itp = find_tree_itp(tree)
        for node in tree.nodes:
            if node.uid == tree.root:
                continue
            a = itp.at(node.uid)
            if a is True or a is False:
                continue
            out.add(a.kind)  # forget the integer constants
    return out


def dump_tree(t: TreeItpProblem, itp: Optional[TreeInterpolant] = None) -> str:
    """One line per node: ``node-id | label | concrete-value | interpolant``."""
    lines = []
    for node in t.nodes:
        if itp is None:
            a = ""
        else:
            ann = itp.at(node.uid)
            a = "false" if ann is False else "true" if ann is True else str(ann)
        lines.append(f"{node.name} | {_label_for(node, t.nodes)} | {node.value!r} | {a}")
    return "\n".join(lines)
