"""A tiny expression language for coefficient functions on the unit square.

Grammar (standard precedence, unary minus binds tighter than * and /):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | primary
    primary := NUMBER | 'pi' | 'x1' | 'x2'
             | ('sin' | 'cos' | 'abs') '(' expr ')'
             | 'chi' '(' expr ',' expr ')'
             | '(' expr ')'

NUMBER is digits with an optional fraction and exponent (``.5``, ``1.5e-3``).
Python's own parser reads the text (only the grammar's characters, whitespace
read as a space), and a whitelist of syntax-tree nodes checks the tree, which
is never compiled or run.  As in Python, ``01`` and integers of more than 4300
digits are errors.

chi(a, b) is the half-open indicator of a <= x1 < b.  Evaluation is total on
valid inputs: division by zero and use of a missing variable raise
ExprEvalError rather than propagating NaN.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

__all__ = ["parse", "evaluate", "evaluate_on", "variables"]

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_BAD_CHAR_RE = re.compile(r"[^0-9A-Za-z_.+\-*/(),\s]")
_VARIABLES = ("x1", "x2")
_UNARY_FUNCS = {"sin": np.sin, "cos": np.cos, "abs": np.abs}
_ARITY = {**dict.fromkeys(_UNARY_FUNCS, 1), "chi": 2}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv}


class _Checker(ast.NodeVisitor):
    """Raises ExprSyntaxError at the first node outside the grammar, at its offset
    in ``body`` plus ``lead``; stores each number as the float of its text."""

    def __init__(self, body: str, lead: int):
        self.body = body
        self.lead = lead

    def reject(self, node, message=None):
        source = self.body[node.col_offset:node.end_col_offset]
        raise ExprSyntaxError(message or f"unexpected {source!r}", self.lead + node.col_offset)

    def generic_visit(self, node):
        self.reject(node)

    def visit_Constant(self, node):
        source = self.body[node.col_offset:node.end_col_offset]
        if type(node.value) not in (int, float) or not _NUMBER_RE.fullmatch(source):  # 1j, 0x10
            self.reject(node, f"expected a number, found {source!r}")
        node.value = float(source)

    def visit_Name(self, node):
        if node.id != "pi" and node.id not in _VARIABLES:
            self.reject(node, f"unknown identifier {node.id!r}")

    def visit_UnaryOp(self, node):
        if not isinstance(node.op, ast.USub):
            self.reject(node)
        self.visit(node.operand)

    def visit_BinOp(self, node):
        if type(node.op) not in _BINOPS:
            self.reject(node)
        self.visit(node.left)
        self.visit(node.right)

    def visit_Call(self, node):
        name = getattr(node.func, "id", None)
        if name not in _ARITY:
            self.reject(node, None if name is None else f"unknown function {name!r}")
        args = node.args
        if len(args) != _ARITY[name] or node.keywords:
            self.reject(node, f"{name} takes {_ARITY[name]} argument(s)")
        if "," in self.body[args[-1].end_col_offset:node.end_col_offset]:  # Python takes sin(1,)
            self.reject(node, "trailing ',' in a call")
        for arg in args:
            self.visit(arg)


def parse(text: str) -> ast.expr:
    """Parse expression text into a checked syntax tree."""
    bad = _BAD_CHAR_RE.search(text)
    if bad is not None:
        raise ExprSyntaxError(f"unexpected character {bad.group()!r}", bad.start())
    body = re.sub(r"\s", " ", text).lstrip()
    lead = len(text) - len(body)
    try:
        with warnings.catch_warnings():
            # the parser turns a warning it would print into a SyntaxError
            warnings.simplefilter("error")
            tree = ast.parse(body, mode="eval").body
        _Checker(body, lead).visit(tree)
    except SyntaxError as exc:
        raise ExprSyntaxError(exc.msg, lead + max((exc.offset or 1) - 1, 0)) from None
    except RecursionError:
        raise ExprSyntaxError("expression is nested too deeply", lead) from None
    return tree


class _Evaluator(ast.NodeVisitor):
    """Evaluates a checked tree; a variable is a float, an array or None."""

    def __init__(self, x1, x2):
        self.values = {"pi": np.pi, "x1": x1, "x2": x2}

    def visit_Constant(self, node):
        return node.value

    def visit_Name(self, node):
        val = self.values[node.id]
        if val is None:
            raise ExprEvalError(f"variable {node.id} was not supplied")
        return val

    def visit_UnaryOp(self, node):
        return -self.visit(node.operand)

    def visit_BinOp(self, node):
        a, b = self.visit(node.left), self.visit(node.right)
        if isinstance(node.op, ast.Div) and np.any(b == 0.0):
            raise ExprEvalError("division by zero")
        return _BINOPS[type(node.op)](a, b)

    def visit_Call(self, node):
        a = self.visit(node.args[0])
        if node.func.id in _UNARY_FUNCS:
            return _UNARY_FUNCS[node.func.id](a)
        # chi: half-open indicator [a, b) applied to x1
        b = self.visit(node.args[1])
        x1 = self.visit_Name(ast.Name("x1"))
        return ((x1 >= a) & (x1 < b)).astype(float)


def evaluate(expr: ast.expr, x1: float | None = None, x2: float | None = None) -> float:
    """Evaluate at a single point; a variable left as None must not be read."""
    return float(_Evaluator(*(None if x is None else np.float64(x) for x in (x1, x2))).visit(expr))


def evaluate_on(expr: ast.expr, x1: np.ndarray, x2: np.ndarray | None = None) -> np.ndarray:
    """Vectorized evaluation on arrays of points; x1 and x2 broadcast
    against each other, so a row and a column give the values on their grid.

    The result is a read-only broadcast view of the values the expression
    computes: an expression of x1 alone, given a row and a column, holds one
    row of values, and a constant one value.  It may share memory with x1 or
    x2.  Copy it before writing into it."""
    x1 = np.asarray(x1, dtype=float)
    x2 = None if x2 is None else np.asarray(x2, dtype=float)
    shape = x1.shape if x2 is None else np.broadcast_shapes(x1.shape, x2.shape)
    out = _Evaluator(x1, x2).visit(expr)
    return np.broadcast_to(np.asarray(out, dtype=float), shape)


def variables(expr: ast.expr) -> set:
    """Names of the variables an expression reads."""
    names = {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}
    if "chi" in names:  # chi(a, b) reads x1
        names.add("x1")
    return names & set(_VARIABLES)
