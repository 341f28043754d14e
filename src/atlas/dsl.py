"""String-transformation DSL: syntax, concrete semantics, ranking, text format.

A program is its root ``AstNode``, an AST over six operators, and
``str()`` prints it as the s-expression ``parse_program`` reads.
String-typed terms are built from ``input``, ``const`` literals,
``concat`` and ``substr``; position-typed terms (``abspos``, ``cpos``)
appear only as the second and third children of ``substr``.  All values
are immutable and evaluation is pure.

A position literal is the ``literal`` of a position term: ``k`` for
``abspos k``, ``(c, j)`` for ``cpos c j``.  ``boundaries`` alone says
which boundary of a string it names, for evaluation and the synthesizer
alike, and ``position_node`` makes its term.

Invariant rank-order: programs are totally ordered by AST size, ties
broken by a lexicographic key on (operator, literal, children's keys),
each child keyed by its size first.  Operators go leaves first: input,
const, abspos, cpos, concat, substr; a const is keyed by its string, an
abspos by k and a cpos by (character code, j).  The synthesizer generates
candidates in this order, by left-child size.  The tests hold the key and
check the order against a search built from this module alone.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Union


class Op(Enum):
    INPUT = "input"
    CONST = "const"
    ABSPOS = "abspos"
    CPOS = "cpos"
    CONCAT = "concat"
    SUBSTR = "substr"


_ARITY = {Op.INPUT: 0, Op.CONST: 0, Op.ABSPOS: 0, Op.CPOS: 0, Op.CONCAT: 2, Op.SUBSTR: 3}

# Result types, used by the well-formedness check.
_STRING_OPS = {Op.INPUT, Op.CONST, Op.CONCAT, Op.SUBSTR}
_POS_OPS = {Op.ABSPOS, Op.CPOS}


class EvalError(Exception):
    """Raised when evaluation hits a defined failure (never undefined behavior)."""

    OUT_OF_BOUNDS = "out-of-bounds"
    MISSING_OCCURRENCE = "missing-occurrence"

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


@dataclass(frozen=True)
class AstNode:
    """One AST node.  ``literal`` carries const strings and position integers."""

    op: Op
    children: tuple["AstNode", ...] = ()
    literal: Union[None, str, int, tuple[int, int]] = None

    def __post_init__(self):
        if len(self.children) != _ARITY[self.op]:
            raise ValueError(f"{self.op.value} expects {_ARITY[self.op]} children")

    # Equality, hashing and size walk the tree on a list, not on the call
    # stack, so a term ``MAX_DEPTH`` deep is handled from a caller at any depth.

    def __eq__(self, other):
        if other.__class__ is not AstNode:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is not b:
                if a.op is not b.op or a.literal != b.literal:
                    return False
                pairs.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        # A node's arity is fixed by its operator, so the pre-order list of
        # (operator, literal) pairs determines the tree.
        preorder, stack = [], [self]
        while stack:
            node = stack.pop()
            preorder.append((node.op, node.literal))
            stack.extend(reversed(node.children))
        return hash(tuple(preorder))

    @property
    def size(self) -> int:
        size, stack = 0, [self]
        while stack:
            size += 1
            stack.extend(stack.pop().children)
        return size

    def __str__(self) -> str:
        return print_program(self)


# ---------------------------------------------------------------------------
# Constructors


def input_() -> AstNode:
    return AstNode(Op.INPUT)


def const(s: str) -> AstNode:
    return AstNode(Op.CONST, literal=s)


def abspos(k: int) -> AstNode:
    return AstNode(Op.ABSPOS, literal=k)


def cpos(char: int, j: int) -> AstNode:
    if not 0 <= char <= sys.maxunicode:
        raise ValueError(f"cpos character code {char} is not a code point")
    if j == 0:
        raise ValueError("cpos occurrence index must be nonzero")
    return AstNode(Op.CPOS, literal=(char, j))


def concat(a: AstNode, b: AstNode) -> AstNode:
    return AstNode(Op.CONCAT, children=(a, b))


def substr(x: AstNode, p1: AstNode, p2: AstNode) -> AstNode:
    return AstNode(Op.SUBSTR, children=(x, p1, p2))


# The result types each composite operator takes, child by child.
_SIGNATURE = {Op.CONCAT: (_STRING_OPS, _STRING_OPS), Op.SUBSTR: (_STRING_OPS, _POS_OPS, _POS_OPS)}


def well_typed(node: AstNode) -> bool:
    """Operator children must match the signature; substr takes (string, pos, pos)."""
    stack = [node]
    while stack:
        node = stack.pop()
        for child, ops in zip(node.children, _SIGNATURE.get(node.op, ())):
            if child.op not in ops:
                return False
            stack.append(child)
    return True


# ---------------------------------------------------------------------------
# Concrete semantics


# A position literal: ``k`` for ``abspos k``, ``(c, j)`` for ``cpos c j``.
Position = Union[int, tuple[int, int]]


def position_node(p: Position) -> AstNode:
    """The ``abspos`` or ``cpos`` node of position literal ``p``."""
    return abspos(p) if p.__class__ is int else cpos(*p)


def boundaries(x: str, positions: Iterable[Position]) -> list[Optional[int]]:
    """The boundary of ``x`` that each position literal names, or None.

    ``abspos k`` names the boundary ``k``, counted from the end for ``k <
    0`` (``abspos -1`` is ``len(x)``), and none past either end.  ``cpos c
    j`` names the boundary just after the j-th occurrence of the character
    ``c``, from the left for ``j > 0`` and from the right for ``j < 0``,
    and none when ``c`` occurs fewer than ``|j|`` times.
    """
    n = len(x)
    # The boundaries after each character's occurrences, by code.
    after: dict[int, list[int]] = {}
    for i, c in enumerate(x, 1):
        after.setdefault(ord(c), []).append(i)
    found = []
    for p in positions:
        if p.__class__ is int:
            i = p if p >= 0 else n + p + 1
            found.append(i if 0 <= i <= n else None)
        else:
            c, j = p
            occ = after.get(c, ())
            found.append(occ[j - 1 if j > 0 else j] if len(occ) >= abs(j) else None)
    return found


def resolve_position(node: AstNode, x: str) -> int:
    """The boundary of ``x`` that the position term ``node`` names
    (``boundaries``).  Raises EvalError where it names none: an ``abspos``
    past either end is out of bounds, a ``cpos`` a missing occurrence."""
    if node.op not in _POS_OPS:
        raise ValueError(f"not a position node: {node.op}")
    (found,) = boundaries(x, [node.literal])
    if found is None:
        kind = EvalError.OUT_OF_BOUNDS if node.op is Op.ABSPOS else EvalError.MISSING_OCCURRENCE
        raise EvalError(kind, f"{node} names no boundary of a string of length {len(x)}")
    return found


def eval_node(node: AstNode, x: str) -> str:
    """Run ``node`` on the input string.  Raises EvalError on defined failures."""
    if node.op is Op.INPUT:
        return x
    if node.op is Op.CONST:
        return node.literal
    if node.op is Op.CONCAT:
        return eval_node(node.children[0], x) + eval_node(node.children[1], x)
    if node.op is Op.SUBSTR:
        subject = eval_node(node.children[0], x)
        return window(subject, resolve_position(node.children[1], subject), resolve_position(node.children[2], subject))
    raise ValueError(f"not a string-typed node: {node.op}")


def window(subject: str, i1: int, i2: int) -> str:
    """A ``substr``'s value; EvalError unless ``0 <= i1 <= i2 <= len(subject)``."""
    if not (0 <= i1 <= i2 <= len(subject)):
        raise EvalError(EvalError.OUT_OF_BOUNDS, f"bad window [{i1}, {i2}) for length {len(subject)}")
    return subject[i1:i2]


# ---------------------------------------------------------------------------
# Text format: s-expressions, lowercase operators, UTF-8.


def print_program(node: AstNode) -> str:
    if node.op is Op.INPUT:
        return "(input)"
    if node.op is Op.CONST:
        escaped = node.literal.replace("\\", "\\\\").replace('"', '\\"')
        return f'(const "{escaped}")'
    if node.op is Op.ABSPOS:
        return f"(abspos {node.literal})"
    if node.op is Op.CPOS:
        char, j = node.literal
        return f"(cpos {char} {j})"
    if node.op is Op.CONCAT:
        return f"(concat {print_program(node.children[0])} {print_program(node.children[1])})"
    if node.op is Op.SUBSTR:
        x, p1, p2 = node.children
        return f"(substr {print_program(x)} {print_program(p1)} {print_program(p2)})"
    raise ValueError(node.op)


# The most operators a term of a parsed program may sit under.  Evaluation,
# printing and interpolation recurse once per level, so this keeps a parsed
# program runnable under CPython's default recursion limit of 1000, with
# room for the caller's frames.
MAX_DEPTH = 400


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def atom(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ' \t\n()"':
            self.pos += 1
        if self.pos == start:
            raise self.error("expected atom")
        return self.text[start:self.pos]

    def string(self) -> str:
        self.expect('"')
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == '"':
                return "".join(out)
            if ch == "\\":
                if self.pos >= len(self.text):
                    raise self.error("dangling escape")
                out.append(self.text[self.pos])
                self.pos += 1
            else:
                out.append(ch)

    def int_atom(self) -> int:
        tok = self.atom()
        try:
            return int(tok)
        except ValueError:
            raise self.error(f"expected integer, got {tok!r}") from None

    def node(self) -> AstNode:
        """One term.  The operators still open are kept on a list, not on
        the call stack, so the depth a term may nest to is ``MAX_DEPTH``
        whatever the caller's stack."""
        open_ops: list[tuple[Op, list[AstNode]]] = []
        while True:
            self.skip_ws()
            self.expect("(")
            self.skip_ws()
            head = self.atom()
            self.skip_ws()
            if head in ("concat", "substr"):
                if len(open_ops) == MAX_DEPTH:
                    raise self.error("program nests too deeply")
                open_ops.append((Op(head), []))
                continue
            result = self.leaf(head)
            self.skip_ws()
            self.expect(")")
            # Close every operator that ``result`` completes.
            while open_ops:
                op, children = open_ops[-1]
                children.append(result)
                if len(children) < _ARITY[op]:
                    break
                open_ops.pop()
                result = AstNode(op, tuple(children))
                self.skip_ws()
                self.expect(")")
            else:
                return result

    def leaf(self, head: str) -> AstNode:
        """The leaf term named ``head``, after its operator."""
        if head == "input":
            return input_()
        if head == "const":
            return const(self.string())
        if head == "abspos":
            return abspos(self.int_atom())
        if head == "cpos":
            c = self.int_atom()
            self.skip_ws()
            j = self.int_atom()
            try:
                return cpos(c, j)
            except ValueError as exc:
                raise self.error(str(exc)) from None
        raise self.error(f"unknown operator {head!r}")


def parse_program(text: str) -> AstNode:
    """The program ``text`` prints as.  Raises ParseError on malformed text,
    on a term nested under more than ``MAX_DEPTH`` operators ("program nests
    too deeply") and on a program that is not a well-typed string term."""
    parser = _Parser(text)
    node = parser.node()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input")
    if not well_typed(node) or node.op not in _STRING_OPS:
        raise parser.error("program is not a well-typed string expression")
    return node
