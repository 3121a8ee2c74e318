"""Arithmetic expressions for scalar fields.

The grammar is deliberately small and fully pinned so that a field written
in a config file evaluates bit-identically everywhere:

* decimal literals (``2``, ``0.5``, ``1.2e-3``),
* identifiers ``x``, ``y``, ``x1``, ``x2``, ``y1``, ``y2``,
* binary operators ``+ - * / ^`` with the usual precedence and
  left-to-right association among operators of equal precedence,
* parentheses,
* functions ``sin cos exp abs sqrt`` (one argument) and ``min max`` (two).

Evaluation is vectorized: variables bind to numpy arrays and every node
evaluates in double precision.  ``^`` binds tighter than a unary minus on
its left (``-2^2 == -4``), and a sign is allowed on its right (``2^-3``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatchError, ParseError, UnknownIdentifierError

POINT_VARS = ("x", "x1", "x2")
PAIR_VARS = ("y", "y1", "y2")
ALL_VARS = POINT_VARS + PAIR_VARS

FUNCTION_ARITY = {"sin": 1, "cos": 1, "exp": 1, "abs": 1, "sqrt": 1, "min": 2, "max": 2}

# every operator node's name and the numpy ufunc it applies to its operands
_OPS = {
    "neg": np.negative,
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "min": np.minimum,
    "max": np.maximum,
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Op:
    """An operator of _OPS applied to its operand trees: ``neg`` (unary
    minus), a binary operator or a function."""

    name: str
    args: tuple


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            at = pos + len(source[pos:]) - len(source[pos:].lstrip())
            if at >= len(source):
                break
            raise ParseError(f"unexpected character {source[at]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


# the binary operators by precedence, loosest first
_LEVELS = ("+-", "*/", "^")


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, pos = self.next()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}, found {text or 'end of input'!r}", pos)

    def parse(self):
        node = self.binary()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {text!r}", pos)
        return node

    def binary(self, level: int = 0):
        """Operands joined left to right by the operators of _LEVELS[level]:
        sums of products, products of signed powers, and powers of atoms
        whose right operand may be signed, so a^b^c groups left."""
        node = self.binary(1) if level == 0 else self.signed(2) if level == 1 else self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in _LEVELS[level]:
                return node
            self.next()
            node = Op(text, (node, self.binary(1) if level == 0 else self.signed(level + 1)))

    def signed(self, level: int):
        """Unary signs, then a power (level 2) or an atom (level 3): each
        minus negates, a plus is dropped."""
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.next()
            child = self.signed(level)
            return child if text == "+" else Op("neg", (child,))
        return self.binary(2) if level == 2 else self.atom()

    def atom(self):
        kind, text, pos = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if self.peek()[:2] == ("op", "("):
                if text not in FUNCTION_ARITY:
                    raise UnknownIdentifierError(f"unknown function {text!r}", pos)
                self.next()
                args = [self.binary()]
                while self.peek()[:2] == ("op", ","):
                    self.next()
                    args.append(self.binary())
                self.expect_op(")")
                want = FUNCTION_ARITY[text]
                if len(args) != want:
                    raise ParseError(
                        f"{text} takes {want} argument{'s' if want > 1 else ''}, got {len(args)}", pos
                    )
                return Op(text, tuple(args))
            if text in ALL_VARS:
                return Var(text)
            raise UnknownIdentifierError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.binary()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)


def parse_expression(source: str):
    """Parse source text into a folded expression tree."""
    if not isinstance(source, str) or not source.strip():
        raise ParseError("empty expression", 0)
    return fold(_Parser(source).parse())


def free_variables(node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Num):
        return set()
    if isinstance(node, Op):
        out: set[str] = set()
        for a in node.args:
            out |= free_variables(a)
        return out
    raise TypeError(f"not an expression node: {node!r}")


def check_variables(node, allowed: tuple[str, ...], context: str):
    bad = sorted(free_variables(node) - set(allowed))
    if bad:
        raise ArityMismatchError(f"variable {bad[0]!r} not allowed in {context}")


def evaluate(node, env: dict):
    """Evaluate a tree against arrays bound in env.

    Non-finite intermediate values propagate silently; range enforcement
    happens at field validation time, not here.
    """
    with np.errstate(all="ignore"):
        return _eval(node, env)


def _eval(node, env):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            have = ", ".join(sorted(env)) or "none"
            raise UnknownIdentifierError(
                f"variable {node.name!r} is not available here (bound: {have})"
            ) from None
    if isinstance(node, Op):
        return _OPS[node.name](*[_eval(a, env) for a in node.args])
    raise TypeError(f"not an expression node: {node!r}")


def fold(node):
    """Collapse constant subtrees so constant fields evaluate in O(1)."""
    if isinstance(node, (Num, Var)):
        return node
    if not isinstance(node, Op):
        raise TypeError(f"not an expression node: {node!r}")
    args = tuple([fold(a) for a in node.args])
    for a in args:
        if not isinstance(a, Num):
            return Op(node.name, args)
    with np.errstate(all="ignore"):
        return Num(float(_OPS[node.name](*[np.float64(a.value) for a in args])))


def substitute(node, mapping: dict[str, str]):
    """Rename variables; used for transposes and diagonal restrictions."""
    if isinstance(node, Num):
        return node
    if isinstance(node, Var):
        return Var(mapping.get(node.name, node.name))
    if isinstance(node, Op):
        return Op(node.name, tuple([substitute(a, mapping) for a in node.args]))
    raise TypeError(f"not an expression node: {node!r}")


def same_up_to_commuting(a, b) -> bool:
    """Whether two trees are equal up to the operand order of ``+`` and
    ``*``.  IEEE addition and multiplication commute exactly, so such trees
    evaluate bit-identically."""
    if isinstance(a, Op) and isinstance(b, Op) and a.name == b.name:
        if all(map(same_up_to_commuting, a.args, b.args)):
            return True
        return (
            a.name in ("+", "*")
            and same_up_to_commuting(a.args[0], b.args[1])
            and same_up_to_commuting(a.args[1], b.args[0])
        )
    return a == b


def to_source(node) -> str:
    """Render a tree back to grammar-conformant text (fully parenthesized).

    Only finite constants render to text that parses: the grammar has no
    inf or nan literal, so a tree whose constants folded to one cannot be
    parsed back."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Op):
        args = [to_source(a) for a in node.args]
        if node.name in FUNCTION_ARITY:
            return f"{node.name}({', '.join(args)})"
        if node.name == "neg":
            return f"(-{args[0]})"
        return f"({args[0]} {node.name} {args[1]})"
    raise TypeError(f"not an expression node: {node!r}")
