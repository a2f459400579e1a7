"""Differential test of the scalar core against independent oracles.

Random expressions over the parameters q and t (sums, differences,
products, quotients and small integer powers of parameters and of int and
Fraction constants) are evaluated two ways: as Scalars, and as sympy
expressions reduced with ``sympy.cancel``.  The Scalar result must equal
the sympy one, and both must agree with plain Fraction arithmetic at
random rational points away from the poles.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qpbcalc.scalars import DivisionByZeroError, Scalar

sympy = pytest.importorskip("sympy")

NAMES = ("q", "t")
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}


class Pole(Exception):
    """The expression has a pole at the evaluation point."""


constants = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
leaves = st.one_of(
    st.tuples(st.just("param"), st.sampled_from(NAMES),
              st.integers(min_value=-2, max_value=2)),
    st.tuples(st.just("const"), constants),
)
expressions = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(("add", "sub", "mul", "div")), sub, sub),
        st.tuples(st.just("pow"), sub, st.integers(min_value=-2, max_value=3)),
    ),
    max_leaves=8,
)
points = st.fixed_dictionaries({
    name: st.builds(Fraction, st.sampled_from((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
                    st.integers(min_value=1, max_value=5))
    for name in NAMES
})


class ZeroDivisor(Exception):
    """The expression divides by an expression that is zero."""


def build(e):
    """(Scalar, sympy expression) for e, built node by node.

    At every division the Scalar divisor must be zero exactly when sympy
    cancels it to zero; such expressions raise ZeroDivisor."""
    op = e[0]
    if op == "param":
        return Scalar.param(e[1], e[2]), SYMBOLS[e[1]] ** e[2]
    if op == "const":
        c = e[1]
        return (Scalar.from_fraction(c),
                sympy.Rational(c.numerator, c.denominator))
    a, sa = build(e[1])
    if op == "pow":
        if e[2] < 0:
            check_divisor(a, sa)
        return a ** e[2], sa ** e[2]
    b, sb = build(e[2])
    if op == "div":
        check_divisor(b, sb)
        return a / b, sa / sb
    return ({"add": a + b, "sub": a - b, "mul": a * b}[op],
            {"add": sa + sb, "sub": sa - sb, "mul": sa * sb}[op])


def check_divisor(b, sb):
    zero = sympy.cancel(sb) == 0
    assert b.is_zero() == zero, (b, sb)
    if zero:
        with pytest.raises(DivisionByZeroError):
            Scalar.one() / b
        raise ZeroDivisor


def built(e):
    try:
        return build(e)
    except ZeroDivisor:
        assume(False)


def evaluate(e, point):
    """Value of e at point by Fraction arithmetic; raises Pole at a pole."""
    op = e[0]
    if op == "param":
        return point[e[1]] ** e[2]
    if op == "const":
        return Fraction(e[1])
    if op == "pow":
        base = evaluate(e[1], point)
        if e[2] < 0 and not base:
            raise Pole
        return base ** e[2]
    a, b = evaluate(e[1], point), evaluate(e[2], point)
    if op == "div":
        if not b:
            raise Pole
        return a / b
    return {"add": a + b, "sub": a - b, "mul": a * b}[op]


def scalar_to_sympy(s):
    def poly(f):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(SYMBOLS[n] ** k for n, k in zip(s.names, m)))
                    for m, c in f.items()), sympy.Integer(0))

    return poly(s.num) / poly(s.den)


def scalar_at(s, point):
    def poly(f):
        total = Fraction(0)
        for m, c in f.items():
            term = Fraction(c)
            for n, k in zip(s.names, m):
                term *= point[n] ** k
            total += term
        return total

    den = poly(s.den)
    if not den:
        raise Pole
    return poly(s.num) / den


@given(expressions)
@settings(max_examples=150, deadline=None)
def test_matches_sympy_cancel(e):
    value, expected = built(e)
    assert sympy.cancel(expected - scalar_to_sympy(value)) == 0, (e, value)


@given(expressions, st.lists(points, min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_matches_evaluation_at_rational_points(e, pts):
    value, _ = built(e)
    checked = 0
    for point in pts:
        try:
            expected = evaluate(e, point)
            got = scalar_at(value, point)
        except Pole:
            continue
        assert got == expected, (e, point, value)
        checked += 1
    assume(checked)
