"""Small arithmetic expression language for model coefficients.

Grammar (standard precedence, power binds tightest and is right
associative, then unary minus, then * /, then + -):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | xK | func '(' expr [',' expr] ')' | '(' expr ')'

Variables are ``x1 .. xd``.  Functions: exp, log, sin, cos, abs,
arctan (one argument), min, max (two arguments).  Parsing and printing
round-trip: ``parse_expression(e.to_text()) == e``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "ExpressionSyntaxError",
    "ExpressionDomainError",
    "parse_expression",
]

_UNARY_FUNCS = ("exp", "log", "sin", "cos", "abs", "arctan")
_BINARY_FUNCS = ("min", "max")

_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "neg": 30, "^": 40}


class ExpressionSyntaxError(ValueError):
    """Raised on malformed input; carries the byte offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class ExpressionDomainError(ValueError):
    """Raised when evaluation hits division by zero, log of a
    non-positive number or a fractional power of a negative base."""


class Expression:
    """Base class for AST nodes."""

    def to_text(self) -> str:
        return _print(self, 0)

    def evaluate(self, x) -> np.ndarray | float:
        """Evaluate with numpy semantics.

        ``x`` is a point of shape (d,) or a batch of shape (n, d); the
        result broadcasts accordingly.  Invalid operations raise
        ExpressionDomainError.
        """
        x = np.asarray(x, dtype=float)
        return _eval_np(self, x, strict=True)

    def evaluate_lenient(self, x) -> np.ndarray | float:
        """Like evaluate, but yields NaN at invalid inputs instead of
        raising.  Used by the simulator to flag individual paths."""
        x = np.asarray(x, dtype=float)
        return _eval_np(self, x, strict=False)

    def max_var(self) -> int:
        return _max_var(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.to_text()!r})"


@dataclass(frozen=True, repr=False)
class Const(Expression):
    value: float

    def __post_init__(self):
        if not (self.value >= 0.0) or not math.isfinite(self.value):
            raise ValueError("constants are finite and non-negative; use unary minus")


@dataclass(frozen=True, repr=False)
class Var(Expression):
    index: int  # 1-based: x1, x2, ...

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variable index starts at 1")


@dataclass(frozen=True, repr=False)
class Unary(Expression):
    op: str  # 'neg' or a function name
    arg: Expression


@dataclass(frozen=True, repr=False)
class Binary(Expression):
    op: str  # '+', '-', '*', '/', '^', 'min', 'max'
    left: Expression
    right: Expression


# ---------------------------------------------------------------------------
# printing
#
# `min_prec` is the minimum precedence the rendered node must have to
# stand without parentheses in its context.

def _print(e: Expression, min_prec: int) -> str:
    if isinstance(e, Const):
        v = e.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Unary):
        if e.op == "neg":
            text = f"-{_print(e.arg, _PREC['neg'])}"
            return f"({text})" if _PREC["neg"] < min_prec else text
        return f"{e.op}({_print(e.arg, 0)})"
    assert isinstance(e, Binary)
    if e.op in _BINARY_FUNCS:
        return f"{e.op}({_print(e.left, 0)}, {_print(e.right, 0)})"
    p = _PREC[e.op]
    if e.op == "^":
        left = _print(e.left, p + 1)   # right associative
        right = _print(e.right, p)
        text = f"{left}^{right}"
    else:
        left = _print(e.left, p)
        right = _print(e.right, p + 1)  # left associative
        sep = f" {e.op} " if e.op in "+-" else e.op
        text = f"{left}{sep}{right}"
    return f"({text})" if p < min_prec else text


# ---------------------------------------------------------------------------
# evaluation

def _eval_np(e: Expression, x: np.ndarray, strict: bool):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if x.ndim == 1:
            if e.index > x.shape[0]:
                raise ExpressionDomainError(f"x{e.index} undefined for dim {x.shape[0]}")
            return x[e.index - 1]
        if e.index > x.shape[-1]:
            raise ExpressionDomainError(f"x{e.index} undefined for dim {x.shape[-1]}")
        return x[..., e.index - 1]
    if isinstance(e, Unary):
        a = _eval_np(e.arg, x, strict)
        if e.op == "neg":
            return -a
        if e.op == "exp":
            with np.errstate(over="ignore"):
                return np.exp(a)
        if e.op == "log":
            bad = np.any(np.asarray(a) <= 0.0)
            if bad and strict:
                raise ExpressionDomainError("log of non-positive value")
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(np.asarray(a) > 0, np.log(np.where(np.asarray(a) > 0, a, 1.0)), np.nan) if bad else np.log(a)
        if e.op == "sin":
            return np.sin(a)
        if e.op == "cos":
            return np.cos(a)
        if e.op == "abs":
            return np.abs(a)
        if e.op == "arctan":
            return np.arctan(a)
        raise AssertionError(e.op)
    assert isinstance(e, Binary)
    a = _eval_np(e.left, x, strict)
    b = _eval_np(e.right, x, strict)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if e.op == "/":
        bad = np.any(np.asarray(b) == 0.0)
        if bad and strict:
            raise ExpressionDomainError("division by zero")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.divide(a, b)
        return np.where(np.asarray(b) == 0.0, np.nan, out) if bad else out
    if e.op == "^":
        # np.power already gives NaN or inf where the power is undefined,
        # so only strict evaluation looks for those points
        if strict:
            a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            frac = b_arr != np.floor(b_arr)
            if np.any((a_arr < 0) & frac) or np.any((a_arr == 0) & (b_arr < 0)):
                raise ExpressionDomainError("fractional power of negative base or 0^negative")
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = np.power(a, b)
        return out
    if e.op == "min":
        return np.minimum(a, b)
    if e.op == "max":
        return np.maximum(a, b)
    raise AssertionError(e.op)


def _max_var(e: Expression) -> int:
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Unary):
        return _max_var(e.arg)
    if isinstance(e, Binary):
        return max(_max_var(e.left), _max_var(e.right))
    return 0


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_VAR_RE = re.compile(r"^x([1-9]\d*)$")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
            if m.group("num") is not None:
                self.tokens.append(("num", m.group("num"), m.start("num")))
            elif m.group("ident") is not None:
                self.tokens.append(("ident", m.group("ident"), m.start("ident")))
            else:
                self.tokens.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExpressionSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected token {val!r}", pos)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                e = Binary(val, e, self.term())
            else:
                return e

    def term(self) -> Expression:
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                e = Binary(val, e, self.unary())
            else:
                return e

    def unary(self) -> Expression:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return Binary("^", base, self.unary())
        return base

    def atom(self) -> Expression:
        kind, val, pos = self.advance()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                raise ExpressionSyntaxError("numeric literal overflows", pos)
            return Const(value)
        if kind == "ident":
            m = _VAR_RE.match(val)
            if m:
                return Var(int(m.group(1)))
            if val in _UNARY_FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Unary(val, arg)
            if val in _BINARY_FUNCS:
                self.expect_op("(")
                a = self.expr()
                self.expect_op(",")
                b = self.expr()
                self.expect_op(")")
                return Binary(val, a, b)
            raise ExpressionSyntaxError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExpressionSyntaxError("expected a value", pos)


def parse_expression(text: str, dim: int | None = None) -> Expression:
    """Parse ``text`` into an Expression AST.

    If ``dim`` is given, variables above x``dim`` are rejected.
    """
    e = _Parser(text).parse()
    if dim is not None and e.max_var() > dim:
        raise ExpressionSyntaxError(f"variable x{e.max_var()} exceeds dimension {dim}", 0)
    return e
