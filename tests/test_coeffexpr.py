import ast
import math
import re
import warnings

import numpy as np
import pytest

from sgprecond import coeffexpr as ce
from sgprecond.errors import ExprEvalError, ExprSyntaxError


class TestParse:
    def test_numbers_and_precedence(self):
        assert ce.evaluate(ce.parse("2+3*4")) == 14.0
        assert ce.evaluate(ce.parse("2*3+4")) == 10.0
        assert ce.evaluate(ce.parse("(2+3)*4")) == 20.0
        assert ce.evaluate(ce.parse("2-3-4")) == -5.0
        assert ce.evaluate(ce.parse("8/4/2")) == 1.0
        assert ce.evaluate(ce.parse(" 2\t+\n3 ")) == 5.0

    def test_unary_binds_tighter_than_product(self):
        assert ce.evaluate(ce.parse("-2*3")) == -6.0
        assert ce.evaluate(ce.parse("2*-3")) == -6.0
        assert ce.evaluate(ce.parse("--2")) == 2.0

    def test_table_expressions(self):
        e = ce.parse("0.3/1*sin(1*pi*x1)")
        assert ce.evaluate(e, x1=0.5) == pytest.approx(0.3)
        assert ce.evaluate(ce.parse("sin(pi)")) == pytest.approx(0.0, abs=1e-15)
        assert ce.evaluate(ce.parse("cos(0)")) == 1.0
        assert ce.evaluate(ce.parse("abs(0-2)")) == 2.0

    def test_chi_half_open(self):
        e = ce.parse("chi(0,0.333333)*0.5")
        assert ce.evaluate(e, x1=0.1) == 0.5
        assert ce.evaluate(e, x1=0.333333) == 0.0
        assert ce.evaluate(ce.parse("chi(0,1)"), x1=0.0) == 1.0

    def test_chi_reads_x1(self):
        assert ce.evaluate(ce.parse("chi(0,1)*x2"), x1=0.5, x2=0.25) == 0.25

    def test_syntax_errors_carry_offsets(self):
        with pytest.raises(ExprSyntaxError) as err:
            ce.parse("1+*2")
        assert err.value.offset == 2
        # Python's own parser reads the text; everything outside the grammar,
        # and every parser failure, is an ExprSyntaxError at a byte offset
        # that counts stripped leading whitespace
        for text, offset in (
            ("  1+*2", 4),
            ("x1**2", 0),
            ("1j", 0),
            ("0x10", 0),
            ("01", 0),
            ("1_0", 0),
            ("sin(x=1)", 5),
            ("sin(1,)", 0),
            ("1+sin(**x1)", 2),
            ("True", 0),
            ("1 # c", 2),
            ("\uff53\uff49\uff4e(1)", 0),  # fullwidth "sin", which Python reads as sin
            ("-" * 5000 + "1", 0),
            ("(" * 300 + "1" + ")" * 300, 200),
        ):
            with pytest.raises(ExprSyntaxError) as err:
                ce.parse(text)
            assert err.value.offset == offset, text
        with pytest.raises(ExprSyntaxError):
            ce.parse("sin(1")
        with pytest.raises(ExprSyntaxError):
            ce.parse("chi(1)")
        with pytest.raises(ExprSyntaxError):
            ce.parse("")
        with pytest.raises(ExprSyntaxError):
            ce.parse("1 2")

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError) as err:
            ce.parse("1+tan(x1)")
        assert "tan" in str(err.value)
        with pytest.raises(ExprSyntaxError, match="unknown identifier 'foo'"):
            ce.parse("1+foo")

    def test_parser_warnings_stay_inside(self):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ExprSyntaxError):
                ce.parse("1if 1 else 2")
        assert not seen

    def test_scientific_notation(self):
        assert ce.evaluate(ce.parse("1.5e-3+2")) == pytest.approx(2.0015)
        assert ce.evaluate(ce.parse(".5*4")) == 2.0


class TestEvaluate:
    def test_division_by_zero_is_an_error(self):
        with pytest.raises(ExprEvalError):
            ce.evaluate(ce.parse("1/(x1-x1)"), x1=0.3)

    def test_missing_variable(self):
        with pytest.raises(ExprEvalError):
            ce.evaluate(ce.parse("x1+1"))
        with pytest.raises(ExprEvalError):
            ce.evaluate(ce.parse("x2"), x1=0.5)

    def test_vectorized_constant_broadcasts(self):
        e = ce.parse("2+3")
        out = ce.evaluate_on(e, np.zeros(5))
        assert out.shape == (5,) and np.all(out == 5.0)

    def test_grid_values_are_a_read_only_view(self):
        x1, x2 = np.linspace(0.0, 1.0, 4)[None, :], np.linspace(0.0, 1.0, 3)[:, None]
        out = ce.evaluate_on(ce.parse("sin(pi*x1)"), x1, x2)
        assert out.shape == (3, 4) and out.strides[0] == 0  # one row of values
        with pytest.raises(ValueError):
            out[0, 0] = 1.0
        copy = out.copy()
        copy[0, 0] = 1.0
        assert copy[0, 0] == 1.0 and out[0, 0] == 0.0

    def test_vectorized_division_by_zero(self):
        e = ce.parse("1/x1")
        with pytest.raises(ExprEvalError):
            ce.evaluate_on(e, np.array([1.0, 0.0, 2.0]))


class TestVariables:
    def test_variables(self):
        assert ce.variables(ce.parse("sin(pi*x1)")) == {"x1"}
        assert ce.variables(ce.parse("chi(0,1)")) == {"x1"}
        assert ce.variables(ce.parse("x2*2")) == {"x2"}
        assert ce.variables(ce.parse("1+pi")) == set()


_BINOPS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult, "/": ast.Div}


def _random_tree(rng, depth, allow_x2=True):
    """A random expression as a Python syntax tree; ast.unparse prints it
    with only the parentheses that precedence needs."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        pick = rng.random()
        if pick < 0.5:
            return ast.Constant(float(rng.integers(0, 10)) + round(float(rng.random()), 3))
        if pick < 0.65:
            return ast.Name("pi", ast.Load())
        if pick < 0.85 or not allow_x2:
            return ast.Name("x1", ast.Load())
        return ast.Name("x2", ast.Load())
    if roll < 0.35:
        return ast.UnaryOp(ast.USub(), _random_tree(rng, depth - 1, allow_x2))
    if roll < 0.45:
        fn = ("sin", "cos", "abs")[int(rng.integers(0, 3))]
        return ast.Call(ast.Name(fn, ast.Load()), [_random_tree(rng, depth - 1, allow_x2)], [])
    if roll < 0.5:
        args = [_random_tree(rng, depth - 1, allow_x2), _random_tree(rng, depth - 1, allow_x2)]
        return ast.Call(ast.Name("chi", ast.Load()), args, [])
    op = _BINOPS["+-*/"[int(rng.integers(0, 4))]]()
    return ast.BinOp(_random_tree(rng, depth - 1, allow_x2), op, _random_tree(rng, depth - 1, allow_x2))


_REF_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<name>[a-z]\w*)|(?P<op>[-+*/(),])|\s+"
)


def _reference_tokens(text):
    """(kind, text) pairs of the grammar's tokens, independent of the parser
    under test."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        assert m is not None, f"reference tokenizer stuck at {text[pos:]!r}"
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group()))
        pos = m.end()
    return tokens


def _shunting_yard_eval(text, x1, x2):
    """Reference evaluator: tokenize, convert to postfix, evaluate a stack."""
    tokens = _reference_tokens(text)
    prec = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}
    out = []
    ops = []
    prev = None  # previous significant token kind for unary detection

    def apply(op):
        if op == "neg":
            out.append(-out.pop())
            return
        b = out.pop()
        a = out.pop()
        if op == "+":
            out.append(a + b)
        elif op == "-":
            out.append(a - b)
        elif op == "*":
            out.append(a * b)
        else:
            if b == 0.0:
                raise ExprEvalError("division by zero")
            out.append(a / b)

    def call(name):
        if name == "chi":
            hi = out.pop()
            lo = out.pop()
            out.append(1.0 if lo <= x1 < hi else 0.0)
        elif name == "sin":
            out.append(math.sin(out.pop()))
        elif name == "cos":
            out.append(math.cos(out.pop()))
        else:
            out.append(abs(out.pop()))

    for kind, text_ in tokens:
        if kind == "num":
            out.append(float(text_))
            prev = "value"
        elif kind == "name":
            if text_ == "pi":
                out.append(math.pi)
                prev = "value"
            elif text_ in ("x1", "x2"):
                out.append(x1 if text_ == "x1" else x2)
                prev = "value"
            else:
                ops.append(("fn", text_))
                prev = "fn"
        elif text_ == "(":
            ops.append(("paren", "("))
            prev = "open"
        elif text_ == ")":
            while ops and ops[-1] != ("paren", "("):
                tag, val = ops.pop()
                apply(val) if tag == "op" else call(val)
            ops.pop()
            if ops and ops[-1][0] == "fn":
                call(ops.pop()[1])
            prev = "value"
        elif text_ == ",":
            while ops and ops[-1] != ("paren", "("):
                tag, val = ops.pop()
                apply(val) if tag == "op" else call(val)
            prev = "open"
        else:  # operator
            op = text_
            if op == "-" and prev not in ("value",):
                op = "neg"
            while (
                ops
                and ops[-1][0] == "op"
                and (
                    prec[ops[-1][1]] > prec[op]
                    or (prec[ops[-1][1]] == prec[op] and op != "neg")
                )
            ):
                apply(ops.pop()[1])
            ops.append(("op", op))
            prev = "operator"
    while ops:
        tag, val = ops.pop()
        apply(val) if tag == "op" else call(val)
    assert len(out) == 1
    return out[0]


class TestAgainstShuntingYard:
    def test_thousand_random_expressions(self):
        rng = np.random.default_rng(20240808)
        agreements = 0
        while agreements < 1000:
            text = ast.unparse(_random_tree(rng, int(rng.integers(1, 6))))
            x1 = round(float(rng.uniform(-2, 2)), 6)
            x2 = round(float(rng.uniform(-2, 2)), 6)
            try:
                mine = ce.evaluate(ce.parse(text), x1=x1, x2=x2)
                failed = None
            except ExprEvalError:
                mine, failed = None, "zero-division"
            try:
                ref = _shunting_yard_eval(text, x1, x2)
                ref_failed = None
            except ExprEvalError:
                ref, ref_failed = None, "zero-division"
            assert failed == ref_failed, text
            if failed is None:
                assert mine == ref or (math.isnan(mine) and math.isnan(ref)), text
            agreements += 1

    def test_benchmark_setting_expressions_parse_and_evaluate(self):
        table_exprs = [
            "1",
            "0.3/1*sin(1*pi*x1)",
            "0.3/4*sin(2*pi*x1)",
            "0.3/9*sin(3*pi*x1)",
            "0.5*chi(0,1/3)",
            "0.3*chi(1/3,2/3)",
            "0.1*chi(2/3,1)",
            "0.95*chi(0,1/3)",
            "0.3*sin(1*pi*x1)",
            "0.3*sin(2*pi*x2)",
            "0.3*sin(2*pi*x1)",
            "0.9/7*sin(4*pi*x1)",
            "0.9/3*sin(2*pi*x2)",
        ]
        for text in table_exprs:
            val = ce.evaluate(ce.parse(text), x1=0.3, x2=0.7)
            assert math.isfinite(val)
