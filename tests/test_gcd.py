"""The univariate polynomial gcd of the scalar core against sympy.

``_pgcd`` answers univariate inputs by heuristic GCD over Z and falls back
to Euclid over Q (``_gcd_univariate``) when every evaluation point fails.
Both must return the primitive gcd with a positive leading coefficient,
the one ``sympy.gcd`` gives after clearing denominators and content.  The
cofactors f/h and g/h that the heuristic gcd keeps from its trial division
(and ``_gcd_cofactors`` passes on) must give back both inputs.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpbcalc import scalars
from qpbcalc.scalars import (
    _gcd_cofactors,
    _gcd_univariate,
    _heu_gcd,
    _pdivexact,
    _pgcd,
    _pmul,
    _sparse,
)

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")

coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)
dense_polys = st.lists(coefficients, min_size=1, max_size=6).filter(
    lambda cs: cs[-1] != 0)
# (number of parameters, index of the one in use)
layouts = st.sampled_from([(1, 0), (2, 0), (2, 1)])


def poly(cs, nv=1, i=0):
    """Dict polynomial with coefficients cs (lowest degree first) in
    variable i of nv."""
    return {(0,) * i + (e,) + (0,) * (nv - i - 1): c
            for e, c in enumerate(cs) if c}


def univariate(f, i):
    return {m[i]: c for m, c in f.items()}


def to_sympy(f, i):
    return sympy.Poly.from_dict(
        {(e,): sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
         for e, c in univariate(f, i).items()}, X)


def sympy_gcd(f, g, i):
    """sympy's gcd, made primitive over Z with a positive leading coeff."""
    h = sympy.gcd(to_sympy(f, i), to_sympy(g, i))
    _, h = h.clear_denoms(convert=True)
    _, h = h.primitive()
    if h.LC() < 0:
        h = -h
    return {m[0]: int(c) for m, c in h.terms()}


def check_gcd(h, f, g, i):
    """h is the primitive gcd of f and g, with coprime cofactors."""
    assert univariate(h, i) == sympy_gcd(f, g, i)
    cf, cg = _pdivexact(f, h), _pdivexact(g, h)
    assert _pmul(cf, h) == f and _pmul(cg, h) == g
    one = {(0,) * len(next(iter(f))): 1}
    assert _pgcd(cf, cg) == one
    check_cofactors(f, g, i)


def check_cofactors(f, g, i):
    """The cofactors of _heu_gcd and _gcd_cofactors times the gcd give back
    f and g, and _gcd_cofactors returns the gcd of _pgcd."""
    nv = len(next(iter(f)))
    r = _heu_gcd(f, g, i)
    if r is not None:
        h, fq, gq = (_sparse(d, i, nv) for d in r)
        assert _pmul(fq, h) == f and _pmul(gq, h) == g
    h, fq, gq = _gcd_cofactors(f, g)
    assert h == _pgcd(f, g)
    assert _pmul(fq, h) == f and _pmul(gq, h) == g


@settings(max_examples=150, deadline=None)
@given(dense_polys, dense_polys, dense_polys, layouts)
def test_pgcd_matches_sympy_with_planted_factor(a, b, c, layout):
    nv, i = layout
    c = poly(c, nv, i)
    f = _pmul(poly(a, nv, i), c)
    g = _pmul(poly(b, nv, i), c)
    check_gcd(_pgcd(f, g), f, g, i)


@settings(max_examples=100, deadline=None)
@given(dense_polys, dense_polys, dense_polys)
def test_fallback_matches_sympy_with_planted_factor(a, b, c):
    c = poly(c)
    f, g = _pmul(poly(a), c), _pmul(poly(b), c)
    check_gcd(_gcd_univariate(f, g, 0), f, g, 0)


@pytest.mark.parametrize("k", [1, 2, 3, 6, 12])
@pytest.mark.parametrize("m", [2, 4, 9])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_binomial_pairs(k, m, signs):
    # x^k +- 1 and x^m +- 1, also times a planted (x + 2)
    f = poly([signs[0]] + [0] * (k - 1) + [1])
    g = poly([signs[1]] + [0] * (m - 1) + [1])
    check_gcd(_pgcd(f, g), f, g, 0)
    c = poly([2, 1])
    check_gcd(_pgcd(_pmul(f, c), _pmul(g, c)), _pmul(f, c), _pmul(g, c), 0)


# Small coefficients and high degree: the integer gcd of the values at the
# first point carries a factor that no common polynomial factor explains,
# so the rebuilt candidate fails trial division.  Found by search.
SPURIOUS = [
    ([1, 0, 0, -1, 0, 0, 0, 1], [-1, 0, 1, -1, -1, 1]),
    ([-1, 0, 1, 1], [0, 0, -1, 0, -1, 1, 0, 0, 1]),
]


@pytest.mark.parametrize("a, b", SPURIOUS)
def test_spurious_candidate_moves_to_next_point(a, b, monkeypatch):
    f, g = poly(a), poly(b)
    monkeypatch.setattr(scalars, "_HEU_GCD_TRIES", 1)
    assert _heu_gcd(f, g, 0) is None
    monkeypatch.undo()
    assert _heu_gcd(f, g, 0) is not None
    check_gcd(_pgcd(f, g), f, g, 0)
    # with a planted common factor as well
    c = poly([-3, 0, 1, 1])
    check_gcd(_pgcd(_pmul(f, c), _pmul(g, c)), _pmul(f, c), _pmul(g, c), 0)


def test_root_at_evaluation_point():
    # the first point is 2 * |x + 1| + 29 = 31, a root of x - 31
    f, g = poly([-31, 1]), poly([1, 1])
    check_gcd(_pgcd(f, g), f, g, 0)
    c = poly([5, 1])
    check_gcd(_pgcd(_pmul(f, c), _pmul(g, c)), _pmul(f, c), _pmul(g, c), 0)


@pytest.mark.parametrize("a, b", SPURIOUS + [([-31, 1], [1, 1])])
def test_pgcd_falls_back_when_every_point_fails(a, b, monkeypatch):
    monkeypatch.setattr(scalars, "_HEU_GCD_TRIES", 0)
    c = poly([1, Fraction(1, 2)])
    f, g = _pmul(poly(a), c), _pmul(poly(b), c)
    check_gcd(_pgcd(f, g), f, g, 0)


@pytest.mark.parametrize("f, g", [
    (poly([Fraction(1, 2)]), poly([1, 1])),
    (poly([3, 6]), poly([Fraction(2, 3)])),
    (poly([0, 0, 4]), poly([0, 6])),
])
def test_constant_and_monomial_inputs(f, g):
    check_gcd(_pgcd(f, g), f, g, 0)


def test_pdivexact_dense_and_rational_paths():
    f = _pmul(poly([-1, 0, 1]), poly([3, -2]))
    assert _pdivexact(f, poly([-1, 0, 1])) == poly([3, -2])
    # not divisible over Z, divisible over Q: the general loop answers
    assert _pdivexact(poly([1, 2]), poly([2])) == poly([Fraction(1, 2), 1])
    with pytest.raises(scalars.ScalarError):
        _pdivexact(poly([1, 0, 1]), poly([1, 1]))
