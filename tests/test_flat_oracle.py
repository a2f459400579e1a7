"""The flat Laurent-int terms of the graded path against the Scalar path.

Random pieces of the chi/sigma/tau/coaction memos and random mono_mul
tables of torus (L), podles (q) and crossed_demo (mu, q) are scaled by
random coefficients, multiplied leg-wise and summed in the flat form
(packed exponents, int coefficients, add_flat), then converted back.  The
result must equal the same arithmetic done on their Scalar forms.  The
coefficients include negative exponents, units that cancel a parameter
down to a constant, and coefficients with no flat form (a Fraction, a
non-unit denominator), which are carried whole as Scalars.  The graded
tensor's own constructors, differential, components, equality and printing
are checked against plain {key: Scalar} references in the same way.
"""

import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpbcalc.braidext import (
    chi_bullet,
    chi_piece,
    graded_identity_suite,
    sigma_bullet,
    sigma_bullet_inv,
    sigma_inv_piece,
    sigma_piece,
)
from qpbcalc.calculus import UNIT, Element, GradedTensor
from qpbcalc.examples import build_example
from qpbcalc.fileformat import parse
from qpbcalc.ncalg import NCPoly, SparseSum, add_flat, add_term, scalars_of
from qpbcalc.scalars import (
    Scalar,
    ScalarError,
    _EXP_LIMIT,
    flat_coeff,
    from_flat,
)
from scalar_product import ScalarProduct

BUNDLES = {"torus": ("L",), "podles": ("q",), "crossed_demo": ("mu", "q")}
DATA = pathlib.Path(__file__).resolve().parents[1] / "src/qpbcalc/data"
one = Scalar.one()
half = Scalar.from_fraction(Fraction(1, 2))

_POOLS = {}


def _pool(name):
    """(bundle, memoised flat pieces, pairs of small monomials)."""
    if name not in _POOLS:
        cc = build_example(name).cc
        oa = cc.omega_A
        monos = ([UNIT] + [((g.name,), ()) for g in oa.pres.generators]
                 + [((), F) for F in oa.basis_forms(1)])
        pairs = list(itertools.product(monos, repeat=2))
        pieces = []
        oh = cc.omega_H
        for m1, m2 in pairs:
            key = (oa.intern(m1), oa.intern(m2))
            # the chi and sigma pieces are tuples of flat terms: read them
            # as tensors of their legs
            pieces += [GradedTensor((oa, oh), dict(chi_piece(cc, key))),
                       GradedTensor((oa, oa), dict(sigma_piece(cc, key))),
                       GradedTensor((oa, oa),
                                    dict(sigma_inv_piece(cc, key)))]
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
        term = Scalar.from_fraction(c)
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
    # a flat key is the ids followed by the exponent
    for key, a in piece.terms.items():
        for e2, c2 in flat_coeff(c):
            add_flat(out, key[:-1] + (key[-1] + e2,), a * c2)
    return out


def _scaled_scalar(piece, c):
    out = {}
    for key, a in piece.scalar_terms().items():
        add_term(out, key, a * c)
    return out


def _monomials(calc, flat):
    """Flat terms {(monomial id, e): c} of calc as Scalar terms."""
    return scalars_of(flat, calc.monos.__getitem__)


class _RefTensor(SparseSum):
    """Scalar terms keyed by tuples of monomials, printed as a graded
    tensor: the reference for GradedTensor's str."""

    __slots__ = ()
    _key_str = staticmethod(GradedTensor._key_str)
    _sort_key = staticmethod(GradedTensor._sort_key)


def _ref_str(terms):
    return str(_RefTensor(terms))


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
        flat = GradedTensor(legs)
        want_terms = {}
        for piece, c in group:
            for k, a in _scaled_flat(piece, c).items():
                add_flat(flat.terms, k, a)
            for k, a in _scaled_scalar(piece, c).items():
                add_term(want_terms, k, a)
        assert flat.scalar_terms() == want_terms
        want = GradedTensor.from_scalars(legs, want_terms)
        assert flat == want and want == flat
        assert str(flat) == str(want) == _ref_str(want_terms)
        # the round trip through the Scalar form is exact
        assert GradedTensor.from_scalars(legs, flat.scalar_terms()) == flat
    # a product of two scaled pieces, key by key
    (p1, c1), (p2, c2) = items[0], items[-1]
    f1, f2 = _scaled_flat(p1, c1), _scaled_flat(p2, c2)
    prod = {}
    for k1, a1 in f1.items():
        for k2, a2 in f2.items():
            add_flat(prod, (k1[:-1], k2[:-1], k1[-1] + k2[-1]), a1 * a2)
    want = {}
    for k1, a1 in _scaled_scalar(p1, c1).items():
        for k2, a2 in _scaled_scalar(p2, c2).items():
            add_term(want, (k1, k2), a1 * a2)
    by_key = {}
    for (k1, k2, e), a in prod.items():
        by_key.setdefault((k1, k2), []).append((e, a))
    # the flat keys hold monomial ids; read them back leg by leg
    key1, key2 = p1._id_to_key(), p2._id_to_key()
    got = {(key1(*k1), key2(*k2)): from_flat(pairs)
           for (k1, k2), pairs in by_key.items()}
    assert {k: c for k, c in got.items() if c} == want
    # mono_mul tables against the Scalar product written out, and a product
    # of two tables scaled by a unit and its inverse, which cancels the
    # unit's parameter down to what the tables carry
    oa = cc.omega_A
    u, ui = Scalar.param(unit), Scalar.param(unit, -1)
    ((ue, _),), ((uie, _),) = flat_coeff(u), flat_coeff(ui)
    assert ue + uie == 0
    product = ScalarProduct(oa)
    for m1, m2 in tables:
        table = oa.mono_mul(oa.intern(m1), oa.intern(m2))
        ref = {}
        product.expand(ref, m1, m2, one)
        assert Element.from_scalars(
            oa, _monomials(oa, dict(table))) == Element.from_scalars(oa, ref)
        flat = {}
        for (m, e), a in table:
            add_flat(flat, (m, e + ue + uie), a)
        assert Element.from_scalars(oa, _monomials(oa, flat)) == \
            Element.from_scalars(oa, {m: c * u * ui for m, c in ref.items()})


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_cancelled_units_are_constants(name):
    names = BUNDLES[name]
    two, minus_three = Scalar.from_fraction(2), Scalar.from_fraction(-3)
    for n in names:
        for k in (-3, 1, 5):
            (e1, c1), = flat_coeff(Scalar.param(n, k) * two)
            (e2, c2), = flat_coeff(Scalar.param(n, -k) * minus_three)
            s = from_flat([(e1 + e2, c1 * c2)])
            assert s == Scalar.from_fraction(-6) and s.names == ()
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
    assert from_flat([(e, half), (0, 3)]) == \
        half * q ** -2 + Scalar.from_fraction(3)
    assert flat_coeff(Scalar.zero()) == ()


def test_packed_exponents_out_of_range_raise():
    ((e, _),) = flat_coeff(Scalar.param("q", _EXP_LIMIT - 1))
    with pytest.raises(ScalarError):
        from_flat([(e << 15, 1)])


# -- monomial ids: the keys of the flat mode ---------------------------------------


def _small_monomials(calc):
    """The unit, the generators and the basis forms of degree <= 2."""
    return ([UNIT] + [((g.name,), ()) for g in calc.pres.generators]
            + [((), F) for k in (1, 2) for F in calc.basis_forms(k)])


@st.composite
def _tensors(draw):
    """Scalar terms of a two- or three-leg tensor over the calculi of a
    bundle, its legs, and a graded tensor of all-int terms on ids its legs
    have given."""
    name = draw(st.sampled_from(sorted(BUNDLES)))
    names = BUNDLES[name]
    cc = _pool(name)[0]
    oa, oh = cc.omega_A, cc.omega_H
    legs = draw(st.sampled_from([(oa, oh), (oa, oa), (oa, oa, oh),
                                 (oh, oa, oa)]))
    keys = st.tuples(*[st.sampled_from(_small_monomials(leg)) for leg in legs])
    x = draw(st.dictionaries(
        keys, _coefficients(names).filter(bool), min_size=1, max_size=5))
    ids = st.tuples(*[st.sampled_from(range(len(leg.monos))) for leg in legs])
    exps = st.sampled_from([e for n in names for k in (-2, 0, 3)
                            for e, _ in flat_coeff(Scalar.param(n, k))])
    flat = GradedTensor(legs, draw(st.dictionaries(
        st.tuples(ids, exps).map(lambda k: k[0] + (k[1],)),
        st.integers(-3, 3).filter(bool), max_size=5)))
    return x, legs, flat


@settings(max_examples=60, deadline=None)
@given(_tensors())
def test_sums_round_trip_through_monomial_ids(case):
    x, legs, flat = case
    # Scalar -> flat -> Scalar keeps every monomial and coefficient
    there = GradedTensor.from_scalars(legs, x)
    assert all(type(i) is int for key in there.terms for i in key)
    assert there.scalar_terms() == x
    # the same terms given in another order are the same tensor
    again = GradedTensor.from_scalars(legs, dict(reversed(x.items())))
    assert there == again and str(there) == str(again) == _ref_str(x)
    # flat -> Scalar -> flat gives back the same ids and int terms
    back = flat.scalar_terms()
    assert all(m in leg.mono_id for key in back
               for leg, m in zip(flat.legs, key))
    assert GradedTensor.from_scalars(flat.legs, back).terms == flat.terms


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_an_id_means_its_own_calculus_monomial(name):
    cc = _pool(name)[0]
    oa, oh = cc.omega_A, cc.omega_H
    shared = range(min(len(oa.monos), len(oh.monos)))
    assert any(oa.monos[i] != oh.monos[i] for i in shared)
    for i in shared:
        # the same id key on one leg of either calculus
        a = GradedTensor((oa,), {(i, 0): 1})
        h = GradedTensor((oh,), {(i, 0): 1})
        assert a != h and h != a
        assert a.scalar_terms() == {(oa.monos[i],): one}
        assert h.scalar_terms() == {(oh.monos[i],): one}
        # a form enters by the id of its own calculus
        assert Element.from_scalars(oa, {oa.monos[i]: one}).terms == {
            (i, 0): 1}
        assert Element.from_scalars(oh, {oh.monos[i]: one}).terms == {
            (i, 0): 1}
        # the same id key on legs of other calculi
        ah = GradedTensor((oa, oh), {(i, i, 0): 1})
        aa = GradedTensor((oa, oa), {(i, i, 0): 1})
        assert ah != aa and aa != ah
    # id 0 is the unit in both, and the units still differ
    assert oa.monos[0] == oh.monos[0] == UNIT
    assert GradedTensor.unit((oa,)) != GradedTensor.unit((oh,))


def _torus_values(cc):
    """chi, sigma and sigma^-1 of torus raw pairs, as Scalar terms."""
    oa = cc.omega_A
    forms = [oa.of_poly(NCPoly.gen("u")), oa.form("du"),
             oa.form("dv") + oa.of_poly(NCPoly.gen("vi"))]
    out = []
    for x, y in itertools.product(forms, repeat=2):
        pair = GradedTensor.of((oa, oa), x, y)
        for apply in (chi_bullet, sigma_bullet, sigma_bullet_inv):
            out.append(apply(cc, pair).scalar_terms())
    return out


def test_a_later_bundle_leaves_earlier_ids_alone():
    # ids are given per calculus: a podles bundle built and run after a
    # torus one in the same process changes no torus value
    torus = parse((DATA / "torus.qpb").read_text(encoding="utf-8")).cc
    before = _torus_values(torus)
    monos = list(torus.omega_A.monos)
    podles = parse((DATA / "podles.qpb").read_text(encoding="utf-8")).cc
    graded_identity_suite(podles, 2, "podles")
    assert len(podles.omega_A.monos) > len(monos)
    assert torus.omega_A.monos == monos
    assert _torus_values(torus) == before
    # a torus bundle of its own, built after podles, gives the same values
    again = parse((DATA / "torus.qpb").read_text(encoding="utf-8")).cc
    assert _torus_values(again) == before


# -- the graded tensor's own maps against Scalar references ------------------------


def _ref_of(*xs):
    """x_1 (x) ... (x) x_n on Scalar terms, keyed by tuples of monomials."""
    out = {(): one}
    for x in xs:
        prod = {}
        for k, c in out.items():
            for m, c2 in x.scalar_terms().items():
                add_term(prod, k + (m,), c * c2)
        out = prod
    return out


def _ref_d(legs, terms):
    """The tensor differential on Scalar terms, leg by leg through
    DiffCalculus.d, with the sign (-1)^(degree of the legs before)."""
    out = {}
    for key, c in terms.items():
        before = 0
        for i, leg in enumerate(legs):
            dx = leg.d(Element.from_scalars(leg, {key[i]: one}))
            s = -c if before % 2 else c
            for m, c2 in dx.scalar_terms().items():
                add_term(out, key[:i] + (m,) + key[i + 1:], s * c2)
            before += len(key[i][1])
    return out


def _bundle_forms(name):
    """Forms of both calculi of a bundle with the carried coefficients
    -p/2 and 1/(p+1), p the bundle's last parameter, besides Laurent
    ones."""
    cc = _pool(name)[0]
    oa, oh = cc.omega_A, cc.omega_H
    p = Scalar.param(BUNDLES[name][-1])
    minus_half, inv = -p * half, one / (p + one)

    def forms(calc):
        gens = calc.pres.generators
        g0, g1 = gens[0].name, gens[-1].name
        f0 = calc.letters[0]
        return [
            calc.of_poly(NCPoly.gen(g0)).scale(minus_half) + calc.form(f0),
            calc.mul(calc.of_poly(NCPoly.gen(g1)), calc.form(f0)).scale(inv)
            + calc.unit().scale(p),
            calc.form(f0).scale(p) + calc.of_poly(NCPoly.gen(g1)),
        ]
    return cc, forms(oa), forms(oh), (minus_half, inv)


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_graded_tensor_maps_match_scalar_references(name):
    cc, a_forms, h_forms, carried = _bundle_forms(name)
    oa, oh = cc.omega_A, cc.omega_H
    cases = ([((oa, oh), (x, y)) for x in a_forms for y in h_forms]
             + [((oa, oa), (x, y)) for x in a_forms for y in a_forms]
             + [((oa, oa, oh), (a_forms[0], a_forms[1], h_forms[2]))])
    carrying = 0
    for legs, xs in cases:
        t = GradedTensor.of(legs, *xs)
        ref = _ref_of(*xs)
        assert ref
        carrying += any(type(c) is not int for c in t.terms.values())
        # of, ==, str
        assert t.scalar_terms() == ref
        assert t == GradedTensor.from_scalars(legs, ref)
        assert str(t) == _ref_str(ref)
        key = next(iter(ref))
        other = dict(ref)
        other[key] = ref[key] + one
        assert t != GradedTensor.from_scalars(legs, other)
        # carried Scalars equal in value to int terms compare equal
        for c in carried:
            back = t.scale(c).scale(c.inverse())
            assert back.terms != t.terms and back == t and t == back
        # d
        dt = t.d()
        want = _ref_d(legs, ref)
        assert dt.scalar_terms() == want, (legs, xs)
        assert str(dt) == _ref_str(want)
        assert dt.d().is_zero()
        # component, on every degree tuple the terms have
        degrees = {tuple(len(F) for _, F in k) for k in ref}
        for degs in degrees:
            part = {k: c for k, c in ref.items()
                    if tuple(len(F) for _, F in k) == degs}
            assert t.component(degs).scalar_terms() == part
        assert t.component((9,) * len(legs)).is_zero()
    assert carrying > len(cases) // 2
    # unit and degree_zero
    for legs in ((oa, oh), (oa, oa), (oa, oa, oh)):
        unit = GradedTensor.unit(legs)
        assert unit.scalar_terms() == {(UNIT,) * len(legs): one}
        assert unit == GradedTensor.of(legs, *(leg.unit() for leg in legs))
        assert str(unit) == _ref_str({(UNIT,) * len(legs): one})
    H = cc.ca.H
    for g in H.base.generators:
        for c in carried:
            t = H.coproduct(NCPoly.gen(g.name)).scale(c)
            got = GradedTensor.degree_zero((oh, oh), t)
            ref = {tuple((w, ()) for w in key): a
                   for key, a in t.terms.items()}
            assert got.scalar_terms() == ref
            assert GradedTensor.unit((oh, oh)).wedge(got) == got
            assert str(got) == _ref_str(ref)
