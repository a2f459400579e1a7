from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpbcalc.scalars import (
    DivisionByZeroError,
    Scalar,
    ScalarError,
    q_binomial,
    sign,
)

q = Scalar.param("q")
qi = Scalar.param("q", -1)
L = Scalar.param("L")
one = Scalar.one()
zero = Scalar.zero()


def test_additive_inverse_pair():
    assert (q - qi) + (qi - q) == zero
    assert ((q - qi) + (qi - q)).is_zero()


def test_polynomial_division():
    # oracle: (q + 1)(q - 1) = q^2 - 1, so the quotient is forced
    expected = q + one
    assert (q * q - one) / (q - one) == expected
    assert expected * (q - one) == q * q - one


def test_inverse_pair_is_structural():
    assert q * qi == one
    assert (q * qi).is_one()


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        one / zero


def test_mixed_parameters_align():
    s = q * L - L * q
    assert s.is_zero()
    t = (q + L) * (q - L)
    assert t == q * q - L * L


def test_fraction_coefficients():
    half = Scalar.from_fraction(Fraction(1, 2))
    assert half + half == one
    assert (half * q) / q == half


def test_canonical_denominator_sign():
    s = one / (one - q)  # denominator normalized to q - 1 with sign in num
    t = -(one / (q - one))
    assert s == t


def test_str_deterministic():
    assert str(q * q + one) == "q^2 + 1"
    assert str(-(L ** -1)) == "-L^-1"
    assert str(zero) == "0"


# -- q-binomials --------------------------------------------------------------

b = q * q  # base q^2 as in the quantum sphere translation map


def test_q_binomial_displayed_product():
    # n=2, k=1, base=q^2: (q^4 - 1)/(q^2 - 1) = q^2 + 1
    assert q_binomial(2, 1, b) == b + one


def test_q_binomial_edges():
    for n in range(5):
        assert q_binomial(n, 0, b) == one
        assert q_binomial(n, n, b) == one
    with pytest.raises(ScalarError):
        q_binomial(2, 3, b)
    with pytest.raises(ScalarError):
        q_binomial(2, -1, b)


def test_q_binomial_pascal_recursion():
    # (n k)_b = (n-1 k-1)_b + b^k (n-1 k)_b, checked against the product formula
    for n in range(1, 9):
        for k in range(0, n + 1):
            lhs = q_binomial(n, k, b)
            rhs = zero
            if k >= 1:
                rhs = rhs + q_binomial(n - 1, k - 1, b)
            if k <= n - 1:
                rhs = rhs + (b ** k) * q_binomial(n - 1, k, b)
            assert lhs == rhs, (n, k)


# -- randomized canonical-form properties -------------------------------------

coeffs = st.integers(min_value=-4, max_value=4)
exps = st.integers(min_value=-3, max_value=3)


@st.composite
def scalars(draw):
    nterms = draw(st.integers(min_value=0, max_value=4))
    s = zero
    for _ in range(nterms):
        c = Scalar.from_fraction(draw(coeffs))
        term = c * Scalar.param("q", draw(exps)) * Scalar.param("L", draw(exps))
        s = s + term
    return s


@given(scalars(), scalars())
@settings(max_examples=200, deadline=None)
def test_addition_commutes_canonically(a, c):
    assert a + c == c + a


@given(scalars())
@settings(max_examples=200, deadline=None)
def test_canonicalization_idempotent(a):
    rebuilt = Scalar(a.names, dict(a.num), dict(a.den))
    assert rebuilt == a
    assert rebuilt.names == a.names and rebuilt.num == a.num and rebuilt.den == a.den


@given(scalars())
@settings(max_examples=200, deadline=None)
def test_multiplicative_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == one


@given(scalars(), scalars(), scalars())
@settings(max_examples=100, deadline=None)
def test_field_axioms_sample(a, c, d):
    assert (a + c) + d == a + (c + d)
    assert a * (c + d) == a * c + a * d
    assert (a * c) * d == a * (c * d)


# -- representation invariants --------------------------------------------------


def assert_spelled(s):
    """Every coefficient is an int, or a Fraction only when not integral."""
    for c in list(s.num.values()) + list(s.den.values()):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (
            s, type(c))


half = Scalar.from_fraction(Fraction(1, 2))


@given(scalars(), scalars())
@settings(max_examples=100, deadline=None)
def test_coefficients_are_int_or_non_integral_fraction(a, c):
    results = [a, -a, a + c, a - c, a * c, a * half, a * half + a * half,
               (a * half) * 2, a ** 2]
    if not c.is_zero():
        results += [a / c, (a / c) * c]
    if not (c + q).is_zero():
        results.append(a / (c + q))
    for r in results:
        assert_spelled(r)


def test_integral_values_from_fractions_are_ints():
    assert_spelled(half + half)
    assert (half + half).num == {(): 1}
    assert Scalar.from_fraction(Fraction(4, 2)).num == {(): 2}
    assert Scalar(("q",), {(1,): Fraction(6, 3)}, {(0,): Fraction(2)}) == q
    assert Scalar.param("q", 0) == one


def test_laurent_and_rational_paths_agree():
    pairs = [
        ((q * q - one) / (q - one), q + one),
        ((q * q - one) / (q + one) + one, q),
        (((one + q) / (one - q)) * (one - q), one + q),
        ((L * q - q) / (L - one), q),
        (one / (one / q), q),
    ]
    for rational, laurent in pairs:
        assert rational == laurent
        assert hash(rational) == hash(laurent)
        assert rational.unit_den
        assert_spelled(rational)


def test_products_cancel_crosswise():
    a, b = (q + 1) / (q + 2), (q + 2) / (q + 1)
    assert a * b == one and (a * b).is_one() and (a * b).names == ()
    # one operand with a unit denominator: one gcd, against the other den
    c = (q * q - one) * qi * (one / (q + 1))
    assert c == (q - one) * qi and c.unit_den
    d = (q * q + one) * ((q - one) / (q * q + q + one))
    assert d.den == {(0,): 1, (1,): 1, (2,): 1}
    assert d.num == {(0,): -1, (1,): 1, (2,): -1, (3,): 1}
    for x in (a * b, c, d):
        assert_spelled(x)


def test_sums_over_one_denominator():
    c = q * q + q + one
    x, y = (q + 2) / c, (q - one) / c
    assert x.den == y.den
    s = x + y
    assert s.num == {(0,): 1, (1,): 2} and s.den == x.den
    # the sum of the numerators is the denominator itself
    assert (q + one) / c + q * q / c == one
    # a sum that cancels down to a Laurent polynomial
    assert qi / (q + one) + one / (q + one) == qi
    for x in (s, (q + one) / c + q * q / c):
        assert_spelled(x)


def test_shared_denominators_are_never_mutated():
    r = one / (q - one)
    scalars_seen = [q, qi, L, one, r, q + L, half * q]
    before = [dict(x.den) for x in scalars_seen]
    for a in scalars_seen:
        for b in scalars_seen:
            a * b, a + b, a - b, -a, a / b
    assert [dict(x.den) for x in scalars_seen] == before
    assert (-r).den == r.den and (-q).den == {(0,): 1}
    # unit denominators of one arity are one shared dict
    assert (q * q).den is q.den and (L * L).den is q.den


def test_sign_is_parity_of_exponent():
    assert sign(0) is one and sign(2) is one and sign(-4) is one
    assert sign(1) == Scalar.from_fraction(-1) and sign(1) is sign(-3)
    assert sign(5) * sign(5) == one
