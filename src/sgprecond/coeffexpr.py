"""A tiny expression language for coefficient functions on the unit square.

Grammar (standard precedence, unary minus binds tighter than * and /):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | primary
    primary := NUMBER | 'pi' | 'x1' | 'x2'
             | ('sin' | 'cos' | 'abs') '(' expr ')'
             | 'chi' '(' expr ',' expr ')'
             | '(' expr ')'

chi(a, b) is the half-open indicator of a <= x1 < b.  Evaluation is total on
valid inputs: division by zero and use of a missing variable raise
ExprEvalError rather than propagating NaN.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

__all__ = [
    "CoeffExpr",
    "parse",
    "evaluate",
    "evaluate_on",
    "to_string",
    "variables",
]

_UNARY_FUNCS = ("sin", "cos", "abs")
_NAMES = ("pi", "x1", "x2", "chi") + _UNARY_FUNCS


class CoeffExpr:
    """Marker base for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(CoeffExpr):
    value: float


@dataclass(frozen=True)
class Pi(CoeffExpr):
    pass


@dataclass(frozen=True)
class Var(CoeffExpr):
    name: str


@dataclass(frozen=True)
class Neg(CoeffExpr):
    operand: CoeffExpr


@dataclass(frozen=True)
class BinOp(CoeffExpr):
    op: str
    left: CoeffExpr
    right: CoeffExpr


@dataclass(frozen=True)
class Call(CoeffExpr):
    func: str
    args: tuple


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(
                f"unexpected character {stripped[0]!r}", pos + (len(text[pos:]) - len(stripped))
            )
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {text or 'end of input'!r}", offset)
        self.advance()

    def parse(self) -> CoeffExpr:
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", offset)
        return node

    def expr(self) -> CoeffExpr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> CoeffExpr:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> CoeffExpr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.primary()

    def primary(self) -> CoeffExpr:
        kind, text, offset = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text == "pi":
                return Pi()
            if text in ("x1", "x2"):
                return Var(text)
            if text in _UNARY_FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, (arg,))
            if text == "chi":
                self.expect_op("(")
                lo = self.expr()
                self.expect_op(",")
                hi = self.expr()
                self.expect_op(")")
                return Call("chi", (lo, hi))
            raise ExprSyntaxError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a number, name or '(', found {text or 'end of input'!r}", offset
        )


def parse(text: str) -> CoeffExpr:
    """Parse expression text into an immutable syntax tree."""
    return _Parser(text).parse()


def _eval(node: CoeffExpr, x1, x2):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Pi):
        return np.pi
    if isinstance(node, Var):
        val = x1 if node.name == "x1" else x2
        if val is None:
            raise ExprEvalError(f"variable {node.name} was not supplied")
        return val
    if isinstance(node, Neg):
        return -_eval(node.operand, x1, x2)
    if isinstance(node, BinOp):
        a = _eval(node.left, x1, x2)
        b = _eval(node.right, x1, x2)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if np.any(b == 0.0):
            raise ExprEvalError("division by zero")
        return a / b
    a = _eval(node.args[0], x1, x2)
    if node.func == "sin":
        return np.sin(a)
    if node.func == "cos":
        return np.cos(a)
    if node.func == "abs":
        return np.abs(a)
    # chi: half-open indicator [a, b) applied to x1
    b = _eval(node.args[1], x1, x2)
    if x1 is None:
        raise ExprEvalError("variable x1 was not supplied")
    return ((x1 >= a) & (x1 < b)).astype(float)


def evaluate(expr: CoeffExpr, x1: float | None = None, x2: float | None = None) -> float:
    """Evaluate at a single point; a variable left as None must not be read."""
    return float(_eval(expr, *(None if x is None else np.float64(x) for x in (x1, x2))))


def evaluate_on(expr: CoeffExpr, x1: np.ndarray, x2: np.ndarray | None = None) -> np.ndarray:
    """Vectorized evaluation on arrays of points."""
    x1 = np.asarray(x1, dtype=float)
    out = _eval(expr, x1, None if x2 is None else np.asarray(x2, dtype=float))
    return np.broadcast_to(np.asarray(out, dtype=float), x1.shape).copy()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _render(node: CoeffExpr, parent: int) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Pi):
        return "pi"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        text = "-" + _render(node.operand, 3)
        return f"({text})" if parent > 3 else text
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        text = f"{_render(node.left, prec)}{node.op}{_render(node.right, prec + 1)}"
        return f"({text})" if parent > prec else text
    inner = ",".join(_render(a, 0) for a in node.args)
    return f"{node.func}({inner})"


def to_string(expr: CoeffExpr) -> str:
    """Render to text that parses back to a structurally equal tree."""
    return _render(expr, 0)


def variables(expr: CoeffExpr) -> set:
    """Names of the variables an expression reads."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Neg):
        return variables(expr.operand)
    if isinstance(expr, BinOp):
        return variables(expr.left) | variables(expr.right)
    if isinstance(expr, Call):
        out = set()
        for a in expr.args:
            out |= variables(a)
        if expr.func == "chi":
            out.add("x1")
        return out
    return set()
