"""Differential test of the scalar core against independent oracles.

Random expressions over the parameters q and t (sums, differences,
products, quotients and small integer powers of parameters and of int and
Fraction constants) are evaluated two ways: as Scalars, and as sympy
expressions reduced with ``sympy.cancel``.  The Scalar result must equal
the sympy one, and both must agree with plain Fraction arithmetic at
random rational points away from the poles.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qpbcalc.scalars import (
    _UNIT_DENS,
    DivisionByZeroError,
    Scalar,
    _align,
    _min_exps,
    _padd,
    _pgcd,
    _pmul,
    _shift,
)

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


def sympy_parts(s):
    """(num, den) of s as sympy expressions."""
    def poly(f):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*(SYMBOLS[n] ** k
                                         for n, k in zip(s.names, m)))
                           for m, c in f.items()))

    return poly(s.num), poly(s.den)


def scalar_to_sympy(s):
    num, den = sympy_parts(s)
    return num / den


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


# -- Henrici's reduced-operand paths ------------------------------------------
#
# Products and sums of rational functions cancel the operands against each
# other before multiplying out.  Pairs are drawn in the shapes that reach
# each branch: equal denominators, one operand with a unit denominator,
# factors that cancel crosswise, and sums whose denominators share a factor
# that the sum's numerator shares too.  Every result must equal sympy, the
# multiply-then-canonicalise formula Scalar(names, num, den), and be in
# canonical form.

small = st.integers(min_value=-3, max_value=3).filter(bool)
degrees = st.integers(min_value=0, max_value=2)
univariate_polys = st.dictionaries(st.tuples(degrees, st.just(0)), small,
                                   min_size=1, max_size=3)
polys = st.one_of(
    univariate_polys,
    st.dictionaries(st.tuples(degrees, degrees), small, min_size=1,
                    max_size=3),
)
shifts = st.tuples(st.integers(min_value=-2, max_value=2),
                   st.integers(min_value=-2, max_value=2))
UNIT = {(0, 0): 1}


def rational(num, den, shift=(0, 0)):
    return Scalar(NAMES, _shift(num, shift), den)


def reference_mul(a, b):
    names, (an, ad), (bn, bd) = _align(a, b)
    return Scalar(names, _pmul(an, bn), _pmul(ad, bd))


def reference_add(a, b):
    names, (an, ad), (bn, bd) = _align(a, b)
    return Scalar(names, _padd(_pmul(an, bd), _pmul(bn, ad)), _pmul(ad, bd))


@st.composite
def equal_denominators(draw):
    d = draw(polys)
    return (rational(draw(polys), d, draw(shifts)),
            rational(draw(polys), d, draw(shifts)))


@st.composite
def unit_operands(draw):
    pair = (rational(draw(polys), UNIT, draw(shifts)),
            rational(draw(polys), draw(polys), draw(shifts)))
    return pair if draw(st.booleans()) else pair[::-1]


@st.composite
def crosswise(draw):
    g1, g2 = draw(univariate_polys), draw(univariate_polys)
    n1, n2, d1, d2 = (draw(polys) for _ in range(4))
    return (rational(_pmul(n1, g1), _pmul(d1, g2), draw(shifts)),
            rational(_pmul(n2, g2), _pmul(d2, g1), draw(shifts)))


@st.composite
def cancelling_sums(draw):
    """x and y = s - x with den(x) = g d1 and den(s) = d1 d2, so x + y
    must cancel g and d1 out of gcd(den x, den y)."""
    g, d1, d2 = draw(univariate_polys), draw(polys), draw(polys)
    x = rational(draw(polys), _pmul(g, d1), draw(shifts))
    s = rational(draw(polys), _pmul(d1, d2), draw(shifts))
    return x, reference_add(s, -x)


henrici_pairs = st.one_of(equal_denominators(), unit_operands(), crosswise(),
                          cancelling_sums())


def assert_canonical(s):
    """den primitive over Z with a positive leading coefficient and no
    monomial factor, gcd(num, den) = 1, every parameter used, and every
    coefficient an int unless it is not integral."""
    for c in list(s.num.values()) + list(s.den.values()):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
    nv = len(s.names)
    unit = {(0,) * nv: 1}
    assert s.unit_den == (s.den == unit)
    if not s.num:
        assert s.names == () and s.den == unit
        return
    assert all(type(c) is int for c in s.den.values())
    assert math.gcd(*s.den.values()) == 1
    assert s.den[max(s.den)] > 0
    assert not any(_min_exps(s.den, nv))
    mins = _min_exps(s.num, nv)
    assert _pgcd(_shift(s.num, tuple(-e for e in mins)), s.den) == unit
    used = {i for f in (s.num, s.den) for m in f for i, e in enumerate(m)
            if e}
    assert used == set(range(nv))


@given(henrici_pairs)
@settings(max_examples=100, deadline=None)
def test_henrici_paths_match_sympy_and_the_reference(pair):
    x, y = pair
    (xn, xd), (yn, yd) = sympy_parts(x), sympy_parts(y)
    # got = num/den by cross-multiplication, expanded by sympy
    for got, ref, num, den in ((x * y, reference_mul(x, y), xn * yn, xd * yd),
                               (x + y, reference_add(x, y),
                                xn * yd + yn * xd, xd * yd)):
        assert got == ref, (x, y)
        gn, gd = sympy_parts(got)
        assert sympy.expand(num * gd - gn * den) == 0, (x, y)
        assert_canonical(got)
    assert y * x == x * y and y + x == x + y


def test_cancelling_sums_reach_the_second_gcd():
    # den(x) = (q + 1)(q + 2), den(y) = (q + 1)(q + 3): t = (q + 3) - 2(q + 2)
    # = -(q + 1) shares the factor q + 1 with gcd(den x, den y)
    x = rational({(0, 0): 1}, {(0, 0): 2, (1, 0): 3, (2, 0): 1})
    y = rational({(0, 0): -2}, {(0, 0): 3, (1, 0): 4, (2, 0): 1})
    got = x + y
    assert got == reference_add(x, y)
    assert got.num == {(0,): -1} and got.den == {(0,): 6, (1,): 5, (2,): 1}
    assert_canonical(got)


# -- the Laurent unit path -------------------------------------------------------
#
# A unit c*x^m (or a constant c) times a Laurent polynomial over the same
# parameters is a shift of the exponents and a scale of the coefficients,
# built without the general constructor.  Operands are drawn mostly with one
# term: units with negative exponents and int or non-integral Fraction
# coefficients, constants, one- and two-parameter Laurent polynomials, and
# pairs built to cancel: products that leave a constant or drop one
# parameter, and sums that drop a parameter or leave one term.  Every product
# and sum must equal sympy and the general constructor Scalar(names, num,
# den), and be in canonical form with the shared unit denominator.

coefficients = st.one_of(
    small,
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
        lambda c: c.denominator != 1),
)
laurent_exps = st.integers(min_value=-3, max_value=3)
nonzero_exps = laurent_exps.filter(bool)


def laurent(terms):
    """The Scalar of a Laurent dict over (q, t), by the general constructor:
    parameters it does not use are dropped."""
    return Scalar(NAMES, dict(terms), UNIT)


def q_only(exps):
    return st.tuples(exps, st.just(0))


def t_only(exps):
    return st.tuples(st.just(0), exps)


units = st.one_of(
    st.builds(lambda k, c: laurent({(k, 0): c}), nonzero_exps, coefficients),
    st.builds(lambda k, j, c: laurent({(k, j): c}), nonzero_exps,
              nonzero_exps, coefficients),
)
laurent_constants = st.builds(lambda c: laurent({(0, 0): c}), coefficients)
one_parameter = st.builds(laurent, st.dictionaries(
    q_only(laurent_exps), coefficients, min_size=1, max_size=3))
two_parameter = st.builds(laurent, st.dictionaries(
    st.tuples(laurent_exps, laurent_exps), coefficients, min_size=1,
    max_size=3))
laurent_operands = st.one_of(units, units, laurent_constants, one_parameter,
                             two_parameter)


@st.composite
def cancelling_units(draw):
    """c q^k t^j and c' q^-k t^-j (j may be 0): the product is a constant,
    an int when c c' is integral, as in q^k q^-k and (2q)(1/2 q^-1)."""
    k, j = draw(nonzero_exps), draw(laurent_exps)
    c = draw(coefficients)
    c2 = draw(st.sampled_from((1 / Fraction(c), -1 / Fraction(c),
                               draw(coefficients))))
    return laurent({(k, j): c}), laurent({(-k, -j): c2})


@st.composite
def parameter_dropping_products(draw):
    """q^a g(t) and c q^-a t^b: the product drops q."""
    a, b = draw(nonzero_exps), draw(nonzero_exps)
    g = draw(st.dictionaries(t_only(laurent_exps), coefficients, min_size=1,
                             max_size=3))
    return (laurent(_shift(g, (a, 0))),
            laurent({(-a, b): draw(coefficients)}))


@st.composite
def parameter_dropping_sums(draw):
    """A + B and C - B, A and C free of the parameter that B uses: the sum
    drops it, or leaves one term or none."""
    i = draw(st.sampled_from((0, 1)))
    free = t_only(laurent_exps) if i == 0 else q_only(laurent_exps)
    a = draw(st.dictionaries(free, coefficients, max_size=2))
    c = draw(st.dictionaries(free, coefficients, max_size=2))
    b = draw(st.dictionaries(st.tuples(laurent_exps, laurent_exps),
                             coefficients, min_size=1, max_size=2))
    return laurent(_padd(a, b)), laurent(_padd(c, {m: -v
                                                   for m, v in b.items()}))


unit_pairs = st.one_of(
    st.tuples(units, laurent_operands),
    st.tuples(laurent_operands, units),
    st.tuples(laurent_operands, laurent_operands),
    cancelling_units(),
    parameter_dropping_products(),
    parameter_dropping_sums(),
)


def assert_laurent_canonical(s):
    """Every parameter used, every integral coefficient an int, and the
    shared unit denominator of its arity."""
    assert all(type(c) is int or c.denominator != 1 for c in s.num.values())
    assert s.den is _UNIT_DENS[len(s.names)] and s.unit_den
    used = {i for m in s.num for i, e in enumerate(m) if e}
    assert used == set(range(len(s.names))), s.names
    if not s.num:
        assert s.names == ()


@given(unit_pairs)
@settings(max_examples=300, deadline=None)
def test_unit_path_matches_sympy_and_the_reference(pair):
    x, y = pair
    (xn, _), (yn, _) = sympy_parts(x), sympy_parts(y)
    for got, ref, want in ((x * y, reference_mul(x, y), xn * yn),
                           (x + y, reference_add(x, y), xn + yn)):
        assert got == ref and hash(got) == hash(ref), (x, y)
        assert got.names == ref.names and got.num == ref.num
        gn, gd = sympy_parts(got)
        assert gd == 1 and sympy.expand(want - gn) == 0, (x, y)
        assert_laurent_canonical(got)
    assert y * x == x * y and y + x == x + y


def test_unit_products_that_cancel_to_constants():
    q = Scalar.param("q")
    assert (q ** 3 * Scalar.param("q", -3)).names == ()
    half = Scalar.from_fraction(Fraction(1, 2))
    got = (q * 2) * (half * Scalar.param("q", -1))
    assert got == Scalar.one() and got.names == () and got.num == {(): 1}
    assert type(got.num[()]) is int and got.den is _UNIT_DENS[0]
    assert hash(got) == hash(Scalar.one())
