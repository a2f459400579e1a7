"""The flat Laurent-int terms of the graded path against the Scalar path.

Random pieces of the chi/sigma/tau/coaction memos and random mono_mul
tables of torus (L), podles (q) and crossed_demo (mu, q) are scaled by
random coefficients, multiplied leg-wise and summed in the flat form
(packed exponents, int coefficients, add_flat), then converted back.  The
result must equal the same arithmetic done on their Scalar forms.  The
coefficients include negative exponents, units that cancel a parameter
down to a constant, and coefficients with no flat form (a Fraction, a
non-unit denominator), which are carried whole as Scalars.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpbcalc.braidext import UNIT, chi_piece, sigma_inv_piece, sigma_piece
from qpbcalc.calculus import Element, GradedTensor
from qpbcalc.examples import build_example
from qpbcalc.ncalg import add_flat, add_term
from qpbcalc.scalars import (
    Scalar,
    ScalarError,
    _EXP_LIMIT,
    flat_coeff,
    from_flat,
)

BUNDLES = {"torus": ("L",), "podles": ("q",), "crossed_demo": ("mu", "q")}
one = Scalar.one()
half = Scalar.from_fraction(Fraction(1, 2))

_POOLS = {}


def _pool(name):
    """(bundle, memoised flat pieces, mono_mul keys) on small monomials."""
    if name not in _POOLS:
        cc = build_example(name).cc
        oa = cc.omega_A
        monos = ([UNIT] + [((g.name,), ()) for g in oa.pres.generators]
                 + [((), F) for F in oa.basis_forms(1)])
        pairs = list(itertools.product(monos, repeat=2))
        pieces = []
        for key in pairs:
            pieces += [chi_piece(cc, key), sigma_piece(cc, key),
                       sigma_inv_piece(cc, key)]
        pieces += list(cc._taubul_cache.values())
        pieces += list(cc._delta_cache.values())
        pieces = [p for p in pieces if p.terms]
        _POOLS[name] = (cc, pieces, pairs)
    return _POOLS[name]


def _laurent(names):
    """Laurent polynomials with int coefficients over names, negative
    exponents included."""
    monos = st.tuples(*[st.integers(-4, 4) for _ in names])
    return st.dictionaries(monos, st.integers(-3, 3).filter(bool),
                           max_size=3).map(lambda d: _poly(names, d))


def _poly(names, d):
    out = Scalar.zero()
    for exps, c in d.items():
        term = Scalar.from_int(c)
        for n, k in zip(names, exps):
            term = term * Scalar.param(n, k)
        out = out + term
    return out


def _coefficients(names):
    """Mostly Laurent coefficients; some a Fraction or a rational function,
    which have no flat form."""
    rational = st.sampled_from([-half, half * Scalar.param(names[-1], -2),
                                one / (Scalar.param(names[0]) + one)])
    return st.one_of(_laurent(names), _laurent(names), rational)


def _scaled_flat(piece, c):
    out = {}
    for (key, e), a in piece.terms.items():
        for e2, c2 in flat_coeff(c):
            add_flat(out, (key, e + e2), a * c2)
    return out


def _scaled_scalar(piece, c):
    out = {}
    for key, a in piece.to_scalar().terms.items():
        add_term(out, key, a * c)
    return out


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(sorted(BUNDLES)))
    names = BUNDLES[name]
    cc, pieces, pairs = _pool(name)
    n = draw(st.integers(1, 4))
    items = [(draw(st.sampled_from(pieces)), draw(_coefficients(names)))
             for _ in range(n)]
    tables = [draw(st.sampled_from(pairs)) for _ in range(2)]
    unit = draw(st.sampled_from(names))
    return cc, items, tables, unit


@settings(max_examples=60, deadline=None)
@given(_cases())
def test_flat_sums_and_products_match_the_scalar_path(case):
    cc, items, tables, unit = case
    # sums of scaled pieces of one leg shape
    by_legs = {}
    for piece, c in items:
        by_legs.setdefault(piece.legs, []).append((piece, c))
    for legs, group in by_legs.items():
        flat = GradedTensor(legs, flat=True)
        want = GradedTensor(legs)
        for piece, c in group:
            for k, a in _scaled_flat(piece, c).items():
                add_flat(flat.terms, k, a)
            for k, a in _scaled_scalar(piece, c).items():
                add_term(want.terms, k, a)
        assert flat.to_scalar().terms == want.terms
        assert flat == want and want == flat and str(flat) == str(want)
        # the round trip through the Scalar form is exact
        assert want.to_flat() == flat
    # a product of two scaled pieces, key by key
    (p1, c1), (p2, c2) = items[0], items[-1]
    f1, f2 = _scaled_flat(p1, c1), _scaled_flat(p2, c2)
    prod = {}
    for (k1, e1), a1 in f1.items():
        for (k2, e2), a2 in f2.items():
            add_flat(prod, ((k1, k2), e1 + e2), a1 * a2)
    want = {}
    for k1, a1 in _scaled_scalar(p1, c1).items():
        for k2, a2 in _scaled_scalar(p2, c2).items():
            add_term(want, (k1, k2), a1 * a2)
    by_key = {}
    for (key, e), a in prod.items():
        by_key.setdefault(key, []).append((e, a))
    got = {k: from_flat(pairs) for k, pairs in by_key.items()}
    assert {k: c for k, c in got.items() if c} == want
    # mono_mul tables against the unmemoised Scalar product, and a product
    # of two tables scaled by a unit and its inverse, which cancels the
    # unit's parameter down to what the tables carry
    oa = cc.omega_A
    u, ui = Scalar.param(unit), Scalar.param(unit, -1)
    ((ue, _),), ((uie, _),) = flat_coeff(u), flat_coeff(ui)
    assert ue + uie == 0
    for m1, m2 in tables:
        table = oa.mono_mul(m1, m2)
        ref = {}
        oa._expand(ref, m1, m2, one)
        assert Element(oa, dict(table), flat=True) == Element(oa, ref)
        flat = {}
        for (m, e), a in table:
            add_flat(flat, (m, e + ue + uie), a)
        assert Element(oa, flat, flat=True) == Element(
            oa, {m: c * u * ui for m, c in ref.items()})


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_cancelled_units_are_constants(name):
    names = BUNDLES[name]
    for n in names:
        for k in (-3, 1, 5):
            (e1, c1), = flat_coeff(Scalar.param(n, k) * Scalar.from_int(2))
            (e2, c2), = flat_coeff(Scalar.param(n, -k) * Scalar.from_int(-3))
            s = from_flat([(e1 + e2, c1 * c2)])
            assert s == Scalar.from_int(-6) and s.names == ()
    if len(names) == 2:
        a, b = (Scalar.param(n) for n in names)
        s = a * a * Scalar.param(names[1], -3) - b ** -2
        pairs = flat_coeff(s)
        assert all(type(c) is int for _, c in pairs)
        assert from_flat(pairs) == s and from_flat(pairs).names == names


def test_coefficients_without_a_flat_form_are_carried_whole():
    q = Scalar.param("q")
    for s in (-half, half * q, one / (q + one), q ** _EXP_LIMIT):
        assert flat_coeff(s) == ((0, s),)
        assert from_flat(flat_coeff(s)) == s
    # a carried Scalar away from exponent 0 is scaled by the monomial
    ((e, _),) = flat_coeff(q ** -2)
    assert from_flat([(e, half), (0, 3)]) == half * q ** -2 + Scalar.from_int(3)
    assert flat_coeff(Scalar.zero()) == ()


def test_packed_exponents_out_of_range_raise():
    ((e, _),) = flat_coeff(Scalar.param("q", _EXP_LIMIT - 1))
    with pytest.raises(ScalarError):
        from_flat([(e << 15, 1)])
