"""Independent interpreter for the printed program text.

The benchmark checks every program the synthesizer returns against the
outputs in the task file with this interpreter, so that a fault shared by
the synthesizer and ``atlas.dsl`` cannot pass unnoticed.  It reads the
s-expression text (``input``, ``const``, ``concat``, ``substr`` with
``abspos`` / ``cpos`` positions) and never imports ``atlas``.
"""

from __future__ import annotations


class ProgramError(Exception):
    """The program text is malformed or fails on an input."""


def parse(text: str):
    """Parse program text into nested tuples: (op, arg, ...)."""
    node, pos = _parse_node(text, _skip(text, 0))
    if _skip(text, pos) != len(text):
        raise ProgramError(f"trailing text at offset {pos}")
    return node


def _skip(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_node(text: str, pos: int):
    if not text.startswith("(", pos):
        raise ProgramError(f"expected '(' at offset {pos}")
    pos = _skip(text, pos + 1)
    end = pos
    while end < len(text) and text[end] not in ' \t\n()"':
        end += 1
    op = text[pos:end]
    pos = _skip(text, end)
    if op == "input":
        node = ("input",)
    elif op == "const":
        literal, pos = _parse_string(text, pos)
        node = ("const", literal)
    elif op == "abspos":
        k, pos = _parse_int(text, pos)
        node = ("abspos", k)
    elif op == "cpos":
        char, pos = _parse_int(text, pos)
        occurrence, pos = _parse_int(text, _skip(text, pos))
        node = ("cpos", char, occurrence)
    elif op in ("concat", "substr"):
        children = []
        for _ in range(2 if op == "concat" else 3):
            child, pos = _parse_node(text, _skip(text, pos))
            children.append(child)
        node = (op, *children)
    else:
        raise ProgramError(f"unknown operator {op!r}")
    pos = _skip(text, pos)
    if not text.startswith(")", pos):
        raise ProgramError(f"expected ')' at offset {pos}")
    return node, pos + 1


def _parse_string(text: str, pos: int) -> tuple[str, int]:
    if not text.startswith('"', pos):
        raise ProgramError(f"expected string at offset {pos}")
    chars = []
    pos += 1
    while pos < len(text) and text[pos] != '"':
        if text[pos] == "\\":
            pos += 1
            if pos == len(text):
                break
        chars.append(text[pos])
        pos += 1
    if pos >= len(text):
        raise ProgramError("unterminated string")
    return "".join(chars), pos + 1


def _parse_int(text: str, pos: int) -> tuple[int, int]:
    end = pos
    while end < len(text) and (text[end].isdigit() or (end == pos and text[end] == "-")):
        end += 1
    try:
        return int(text[pos:end]), end
    except ValueError:
        raise ProgramError(f"expected integer at offset {pos}") from None


def run(node, x: str) -> str:
    """Value of a string-typed node on input ``x``; raises ProgramError on failure."""
    op = node[0]
    if op == "input":
        return x
    if op == "const":
        return node[1]
    if op == "concat":
        return run(node[1], x) + run(node[2], x)
    if op == "substr":
        subject = run(node[1], x)
        start, stop = _position(node[2], subject), _position(node[3], subject)
        if not 0 <= start <= stop <= len(subject):
            raise ProgramError(f"window [{start}, {stop}) outside a string of length {len(subject)}")
        return subject[start:stop]
    raise ProgramError(f"{op} is not a string operator")


def _position(node, subject: str) -> int:
    if node[0] == "abspos":
        k = node[1]
        # Negative positions count boundaries from the end: -1 is len(subject).
        return k if k >= 0 else len(subject) + 1 + k
    if node[0] == "cpos":
        char, occurrence = chr(node[1]), node[2]
        hits = [i + 1 for i, c in enumerate(subject) if c == char]
        if occurrence == 0 or abs(occurrence) > len(hits):
            raise ProgramError(f"no occurrence {occurrence} of {char!r}")
        return hits[occurrence - 1] if occurrence > 0 else hits[occurrence]
    raise ProgramError(f"{node[0]} is not a position operator")


def satisfies(text: str, examples) -> bool:
    """True iff the program text maps every (input, output) example correctly."""
    try:
        program = parse(text)
        return all(run(program, x) == y for x, y in examples)
    except ProgramError:
        return False
