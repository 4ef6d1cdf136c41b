import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbolkit.expr import (
    Binary,
    Const,
    ExpressionDomainError,
    ExpressionSyntaxError,
    Unary,
    Var,
    parse_expression,
)
from oracles import expr_reference

CORPUS_SIZE = 500
REF_TOLERANCE = 1e-14


def test_basic_arithmetic():
    e = parse_expression("0.3 + 0.4/(1+x1^2)")
    assert e.evaluate(np.array([0.0])) == pytest.approx(0.7)
    assert e.evaluate(np.array([1.0])) == pytest.approx(0.5)


def test_functions():
    e = parse_expression("abs(x1)*sin(x2)")
    assert e.evaluate(np.array([2.0, math.pi / 2])) == pytest.approx(2.0)


def test_min_max_arctan():
    e = parse_expression("min(x1, 2) + max(x1, 3) + arctan(x1)")
    assert e.evaluate(np.array([1.0])) == pytest.approx(1 + 3 + math.atan(1.0))


def test_precedence_and_associativity():
    assert parse_expression("2^3^2").evaluate(np.zeros(1)) == 512  # right assoc
    assert parse_expression("-2^2").evaluate(np.zeros(1)) == -4    # power over minus
    assert parse_expression("1 - 2 - 3").evaluate(np.zeros(1)) == -4
    assert parse_expression("8/4/2").evaluate(np.zeros(1)) == 1
    assert parse_expression("1+2*3").evaluate(np.zeros(1)) == 7


def test_syntax_error_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("1 +")
    assert err.value.position == 3


def test_unknown_identifier():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("foo(x1)")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("y1 + 1")


def test_dimension_guard():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x3", dim=2)


def test_domain_errors():
    with pytest.raises(ExpressionDomainError):
        parse_expression("1/x1").evaluate(np.zeros(1))
    with pytest.raises(ExpressionDomainError):
        parse_expression("log(x1)").evaluate(np.zeros(1))
    with pytest.raises(ExpressionDomainError):
        parse_expression("(-2)^x1").evaluate(np.array([0.5]))


def test_lenient_evaluation_yields_nan():
    e = parse_expression("1/x1")
    out = e.evaluate_lenient(np.array([[0.0], [2.0]]))
    assert math.isnan(out[0]) and out[1] == 0.5


def test_vectorised_evaluation_matches_scalar():
    e = parse_expression("exp(-x1^2) + cos(x2)")
    xs = np.array([[0.5, 1.0], [-1.0, 2.0], [3.0, -0.5]])
    batch = e.evaluate(xs)
    for i, row in enumerate(xs):
        assert batch[i] == pytest.approx(e.evaluate(row))


# ---------------------------------------------------------------------------
# deterministic 500-case corpus: round trip + reference-eval agreement

_FUNCS = ["exp", "sin", "cos", "abs", "arctan"]


def _random_expr(rng: np.random.Generator, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.5:
            return Const(float(rng.integers(0, 10)) + round(float(rng.random()), 3))
        return Var(int(rng.integers(1, 3)))
    if roll < 0.45:
        op = "neg" if rng.random() < 0.4 else _FUNCS[rng.integers(0, len(_FUNCS))]
        return Unary(op, _random_expr(rng, depth - 1))
    op = ["+", "-", "*", "/", "^", "min", "max"][rng.integers(0, 7)]
    left = _random_expr(rng, depth - 1)
    right = _random_expr(rng, depth - 1)
    if op == "^":
        # keep powers tame and domain-safe
        left = Unary("abs", left)
        right = Const(float(rng.integers(0, 3)))
    return Binary(op, left, right)


def _corpus():
    rng = np.random.default_rng(987)
    probes = [np.array([0.3, -0.7]), np.array([1.5, 2.0]), np.array([-2.0, 0.1])]
    out = []
    while len(out) < CORPUS_SIZE:
        e = _random_expr(rng, 4)
        try:
            vals = [expr_reference(e, p) for p in probes]
        except ExpressionDomainError:
            continue
        if any(not math.isfinite(v) or abs(v) > 1e12 for v in vals):
            continue
        out.append((e, probes))
    return out


def test_corpus_round_trip_and_reference_agreement():
    for e, probes in _corpus():
        text = e.to_text()
        back = parse_expression(text)
        assert back == e, f"round trip failed for {text!r}"
        for p in probes:
            ref = expr_reference(e, p)
            got = float(e.evaluate(p))
            assert got == pytest.approx(ref, rel=REF_TOLERANCE, abs=REF_TOLERANCE), text


@given(st.text(alphabet="0123456789.+-*/^()x ,abcdefg", max_size=30))
@settings(max_examples=200, deadline=None)
def test_parser_never_crashes_unexpectedly(text):
    try:
        parse_expression(text)
    except ExpressionSyntaxError:
        pass


@given(st.floats(min_value=-50, max_value=50, allow_nan=False),
       st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_printed_constants_round_trip(a, b):
    e = Binary("+", Const(abs(a)), Binary("*", Var(1), Const(abs(b))))
    assert parse_expression(e.to_text()) == e
