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
evaluates in double precision.  Unary minus binds tighter than ``^`` on the
left (``-2^2 == -4``) and is allowed on the right of ``^`` (``2^-3``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatchError, ExpressionError, ParseError, UnknownIdentifierError

POINT_VARS = ("x", "x1", "x2")
PAIR_VARS = ("y", "y1", "y2")
ALL_VARS = POINT_VARS + PAIR_VARS

FUNCTION_ARITY = {"sin": 1, "cos": 1, "exp": 1, "abs": 1, "sqrt": 1, "min": 2, "max": 2}

_FUNCS = {
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
class Neg:
    child: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
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
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
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
        node = self.additive()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {text!r}", pos)
        return node

    def additive(self):
        node = self.multiplicative()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                node = Bin(text, node, self.multiplicative())
            else:
                return node

    def multiplicative(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                node = Bin(text, node, self.unary())
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.next()
            child = self.unary()
            return child if text == "+" else Neg(child)
        return self.power()

    def power(self):
        node = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.next()
                node = Bin("^", node, self.pow_operand())
            else:
                return node

    def pow_operand(self):
        # right operand of ^: unary sign allowed, but no further ^ so the
        # chain a^b^c groups left-to-right
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.next()
            child = self.pow_operand()
            return child if text == "+" else Neg(child)
        return self.atom()

    def atom(self):
        kind, text, pos = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTION_ARITY:
                    raise UnknownIdentifierError(f"unknown function {text!r}", pos)
                self.next()
                args = [self.additive()]
                while True:
                    k2, t2, p2 = self.peek()
                    if k2 == "op" and t2 == ",":
                        self.next()
                        args.append(self.additive())
                    else:
                        break
                self.expect_op(")")
                want = FUNCTION_ARITY[text]
                if len(args) != want:
                    raise ParseError(
                        f"{text} takes {want} argument{'s' if want > 1 else ''}, got {len(args)}", pos
                    )
                return Call(text, tuple(args))
            if text in ALL_VARS:
                return Var(text)
            raise UnknownIdentifierError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.additive()
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
    if isinstance(node, Neg):
        return free_variables(node.child)
    if isinstance(node, Bin):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, Call):
        out: set[str] = set()
        for a in node.args:
            out |= free_variables(a)
        return out
    raise TypeError(f"not an expression node: {node!r}")


def check_variables(node, allowed: tuple[str, ...], context: str):
    bad = sorted(free_variables(node) - set(allowed))
    if bad:
        raise ArityMismatchError(f"variable {bad[0]!r} not allowed in {context}")


_BIN_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


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
    if isinstance(node, Neg):
        return np.negative(_eval(node.child, env))
    if isinstance(node, Bin):
        return _BIN_OPS[node.op](_eval(node.left, env), _eval(node.right, env))
    if isinstance(node, Call):
        return _FUNCS[node.name](*[_eval(a, env) for a in node.args])
    raise TypeError(f"not an expression node: {node!r}")


def fold(node):
    """Collapse constant subtrees so constant fields evaluate in O(1)."""
    if isinstance(node, (Num, Var)):
        return node
    if isinstance(node, Neg):
        child = fold(node.child)
        if isinstance(child, Num):
            return Num(float(-np.float64(child.value)))
        return Neg(child)
    if isinstance(node, Bin):
        left, right = fold(node.left), fold(node.right)
        if isinstance(left, Num) and isinstance(right, Num):
            with np.errstate(all="ignore"):
                return Num(float(_BIN_OPS[node.op](np.float64(left.value), np.float64(right.value))))
        return Bin(node.op, left, right)
    if isinstance(node, Call):
        args = tuple(fold(a) for a in node.args)
        if all(isinstance(a, Num) for a in args):
            with np.errstate(all="ignore"):
                return Num(float(_FUNCS[node.name](*[np.float64(a.value) for a in args])))
        return Call(node.name, args)
    raise TypeError(f"not an expression node: {node!r}")


def substitute(node, mapping: dict[str, str]):
    """Rename variables; used for transposes and diagonal restrictions."""
    if isinstance(node, Num):
        return node
    if isinstance(node, Var):
        return Var(mapping.get(node.name, node.name))
    if isinstance(node, Neg):
        return Neg(substitute(node.child, mapping))
    if isinstance(node, Bin):
        return Bin(node.op, substitute(node.left, mapping), substitute(node.right, mapping))
    if isinstance(node, Call):
        return Call(node.name, tuple(substitute(a, mapping) for a in node.args))
    raise TypeError(f"not an expression node: {node!r}")


def same_up_to_commuting(a, b) -> bool:
    """Whether two trees are equal up to the operand order of ``+`` and
    ``*``.  IEEE addition and multiplication commute exactly, so such trees
    evaluate bit-identically."""
    if isinstance(a, Bin) and isinstance(b, Bin) and a.op == b.op:
        if same_up_to_commuting(a.left, b.left) and same_up_to_commuting(a.right, b.right):
            return True
        return (
            a.op in "+*"
            and same_up_to_commuting(a.left, b.right)
            and same_up_to_commuting(a.right, b.left)
        )
    if isinstance(a, Neg) and isinstance(b, Neg):
        return same_up_to_commuting(a.child, b.child)
    if isinstance(a, Call) and isinstance(b, Call):
        return a.name == b.name and all(map(same_up_to_commuting, a.args, b.args))
    return a == b


def to_source(node) -> str:
    """Render a tree back to grammar-conformant text (fully parenthesized)."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_source(node.child)})"
    if isinstance(node, Bin):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_source(a) for a in node.args)})"
    raise TypeError(f"not an expression node: {node!r}")
