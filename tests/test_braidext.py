import contextlib
import io
import itertools
import json
import pathlib

import pytest

from qpbcalc.braidext import (
    GradedBalancedTensor,
    UnsupportedDegreeError,
    _generator_elements,
    add_lift,
    canonical_triple_graded,
    chi_bullet,
    chi_bullet_inv,
    chi_piece,
    collapse_pair,
    graded_identity_suite,
    raw_pair,
    sigma_bullet,
    sigma_bullet_inv,
    sigma_inv_piece,
    sigma_piece,
    sigma_squared_is_identity,
    tau_bullet,
    triple_apply,
)
from qpbcalc.cli import main
from qpbcalc.calculus import UNIT, Element, GradedTensor
from qpbcalc.examples import build_example
from qpbcalc.fileformat import parse
from qpbcalc.ncalg import NCPoly, add_term
from qpbcalc.report import FAIL
from qpbcalc.scalars import Scalar, flat_coeff

q = Scalar.param("q")
qi = Scalar.param("q", -1)
L = Scalar.param("L")
Li = Scalar.param("L", -1)
one = Scalar.one()
DATA = pathlib.Path(__file__).resolve().parents[1] / "src/qpbcalc/data"


@pytest.fixture(scope="module")
def torus():
    return build_example("torus")


@pytest.fixture(scope="module")
def podles():
    return build_example("podles")


@pytest.fixture(scope="module")
def t2():
    return build_example("classical_t2")


def balanced(cc, raw):
    return GradedBalancedTensor(cc, raw=raw)


# -- extended translation map ---------------------------------------------------

def test_tau_restricts_to_degree_zero(torus):
    cc = torus.cc
    oh, oa = cc.omega_H, cc.omega_A
    got = tau_bullet(cc, oh.of_poly(NCPoly.gen("t")))
    want = raw_pair(cc, oa.of_poly(NCPoly.gen("ui")),
                    oa.of_poly(NCPoly.gen("u")))
    assert got == want


def test_tau_one_form_torus(torus):
    # tau(dt) = d(u^-1) (x) u + u^-1 (x) du
    cc = torus.cc
    oh, oa = cc.omega_H, cc.omega_A
    got = tau_bullet(cc, oh.form("dt"))
    want = (GradedTensor.of((oa, oa), oa.d_poly(NCPoly.gen("ui")),
                            oa.of_poly(NCPoly.gen("u")))
            + GradedTensor.of((oa, oa), oa.of_poly(NCPoly.gen("ui")),
                              oa.d_poly(NCPoly.gen("u"))))
    assert got == want


def test_tau_vertical_form_podles(podles):
    # tau(t^-1 dt) = 1 (x) e0 - e0 (x) 1
    cc = podles.cc
    oh, oa = cc.omega_H, cc.omega_A
    theta = oh.of_poly(NCPoly.gen("ti"), ("dt",))
    got = tau_bullet(cc, theta)
    want = (GradedTensor.of((oa, oa), oa.unit(), oa.form("e0"))
            - GradedTensor.of((oa, oa), oa.form("e0"), oa.unit()))
    assert balanced(cc, got) == balanced(cc, want)


def test_tau_degree_two(t2):
    # chi(tau(dt^ds)) = 1 (x) dt^ds exercises the two-form scheme
    cc = t2.cc
    oh = cc.omega_H
    theta = oh.form("dt", "ds")
    got = chi_bullet(cc, tau_bullet(cc, theta))
    want = GradedTensor.of((cc.omega_A, oh), cc.omega_A.unit(), theta)
    assert got == want


def test_tau_rejects_high_degree(podles):
    cc = podles.cc
    fake = Element.from_scalars(cc.omega_H,
                                {((), ("dt", "dt", "dt", "dt")): one})
    with pytest.raises(UnsupportedDegreeError):
        tau_bullet(cc, fake)


# -- canonical map ---------------------------------------------------------------

def test_chi_bullet_values(torus):
    cc = torus.cc
    oa, oh = cc.omega_A, cc.omega_H
    got = chi_bullet(cc, raw_pair(cc, oa.unit(), oa.form("du")))
    assert got == cc.delta_bullet(oa.form("du"))
    got2 = chi_bullet(cc, raw_pair(cc, oa.unit(), oa.unit()))
    assert got2 == GradedTensor.unit((oa, oh))


def test_chi_bullet_inv_is_tau(podles):
    cc = podles.cc
    oa, oh = cc.omega_A, cc.omega_H
    theta = oh.of_poly(NCPoly.gen("ti"), ("dt",))
    via_inv = chi_bullet_inv(cc, GradedTensor.of((oa, oh), oa.unit(), theta))
    assert via_inv == balanced(cc, tau_bullet(cc, theta))


def test_chi_roundtrip_degree3(podles):
    cc = podles.cc
    oa, oh = cc.omega_A, cc.omega_H
    for F in (("ep",), ("ep", "em"), ("ep", "em", "e0")):
        raw = raw_pair(cc, oa.unit(), oa.form(*F))
        back = chi_bullet_inv(cc, chi_bullet(cc, raw))
        assert back == balanced(cc, raw), F


# -- extended braiding -----------------------------------------------------------

def test_sigma_bullet_torus_value(torus):
    cc = torus.cc
    oa = cc.omega_A
    got = sigma_bullet(cc, raw_pair(cc, oa.form("du"), oa.form("dv")))
    want = raw_pair(cc, oa.form("dv"), oa.form("du")).scale(-Li)
    assert balanced(cc, got) == balanced(cc, want)


def test_sigma_bullet_podles_values(podles):
    cc = podles.cc
    oa = cc.omega_A
    got = sigma_bullet(cc, raw_pair(cc, oa.form("ep"), oa.form("em")))
    want = raw_pair(cc, oa.form("em"), oa.form("ep")).scale(-(qi * qi))
    assert balanced(cc, got) == balanced(cc, want)
    got2 = sigma_bullet(cc, raw_pair(cc, oa.form("e0"), oa.form("ep")))
    want2 = (raw_pair(cc, oa.form("ep"), oa.form("e0")).scale(-one)
             + raw_pair(cc, oa.form("e0", "ep"), oa.unit()).scale(
                 one - qi ** 4))
    assert balanced(cc, got2) == balanced(cc, want2)


def test_braided_commutativity_graded(torus):
    cc = torus.cc
    oa = cc.omega_A
    for f1 in ("du", "dv"):
        for f2 in ("du", "dv"):
            pair = raw_pair(cc, oa.form(f1), oa.form(f2))
            assert collapse_pair(cc, sigma_bullet(cc, pair)) == \
                collapse_pair(cc, pair)


def test_sigma_squared_dichotomy(torus, podles):
    cc = torus.cc
    oa = cc.omega_A
    items = [oa.of_poly(NCPoly.gen(g.name)) for g in cc.ca.A.generators]
    items += [oa.form("du"), oa.form("dv"), oa.form("du", "dv")]
    for x in items:
        for y in items:
            degs = (max(x.degrees() or {0}), max(y.degrees() or {0}))
            if sum(degs) > 2:
                continue
            assert sigma_squared_is_identity(cc, x, y), (x, y)
    cc2 = podles.cc
    oa2 = cc2.omega_A
    assert not sigma_squared_is_identity(cc2, oa2.form("e0"), oa2.form("ep"))


def test_sigma_inverse_graded(podles):
    cc = podles.cc
    oa = cc.omega_A
    for f1 in ("ep", "e0"):
        for f2 in ("em", "e0"):
            pair = raw_pair(cc, oa.form(f1), oa.form(f2))
            back = sigma_bullet_inv(cc, sigma_bullet(cc, pair))
            fwd = sigma_bullet(cc, sigma_bullet_inv(cc, pair))
            assert balanced(cc, back) == balanced(cc, pair)
            assert balanced(cc, fwd) == balanced(cc, pair)


# -- calculus on the balanced square -----------------------------------------------

def wedge_otimes_b(cc, x, y):
    """(omega (x) omega')(eta (x) eta') = omega ^ sigma(omega' (x) eta) ^ eta',
    from the memoised sigma pieces."""
    oa = cc.omega_A
    legs = (oa, oa)
    out = GradedTensor.zero(legs)
    for (a1, a2, e1), c1 in x.terms.items():
        for (b1, b2, e2), c2 in y.terms.items():
            add_lift(out.terms, legs, a1, sigma_piece(cc, (a2, b1)), b2,
                     e1 + e2, c1 * c2)
    return out


def test_wedge_otimes_b_unit(torus):
    cc = torus.cc
    oa = cc.omega_A
    x = raw_pair(cc, oa.form("du"), oa.of_poly(NCPoly.gen("v")))
    unit = raw_pair(cc, oa.unit(), oa.unit())
    assert balanced(cc, wedge_otimes_b(cc, unit, x)) == balanced(cc, x)
    assert balanced(cc, wedge_otimes_b(cc, x, unit)) == balanced(cc, x)


def test_d_otimes_b_translation(torus):
    # d(tau(t)) = d(u^-1) (x) u + u^-1 (x) du
    cc = torus.cc
    oa = cc.omega_A
    got = raw_pair(cc, oa.of_poly(NCPoly.gen("ui")),
                   oa.of_poly(NCPoly.gen("u"))).d()
    want = tau_bullet(cc, cc.omega_H.form("dt"))
    assert balanced(cc, got) == balanced(cc, want)


def test_d_otimes_b_squares_to_zero(torus):
    cc = torus.cc
    oa = cc.omega_A
    for x in (raw_pair(cc, oa.of_poly(NCPoly.gen("u")),
                       oa.of_poly(NCPoly.gen("v"))),
              raw_pair(cc, oa.form("du"), oa.of_poly(NCPoly.gen("vi")))):
        got = x.d().d()
        assert balanced(cc, got) == balanced(
            cc, GradedTensor.zero((oa, oa)))


def test_chi_intertwines_products(torus):
    # chi(x wedge_B y) = chi(x) wedge chi(y) in the tensor-product calculus
    cc = torus.cc
    oa = cc.omega_A
    x = raw_pair(cc, oa.of_poly(NCPoly.gen("u")), oa.form("du"))
    y = raw_pair(cc, oa.of_poly(NCPoly.gen("v")), oa.form("dv"))
    lhs = chi_bullet(cc, wedge_otimes_b(cc, x, y))
    rhs = chi_bullet(cc, x).wedge(chi_bullet(cc, y))
    assert lhs == rhs


def test_chi_intertwines_differential(torus):
    cc = torus.cc
    oa = cc.omega_A
    x = raw_pair(cc, oa.of_poly(NCPoly.gen("ui")),
                 oa.of_poly(NCPoly.gen("u")))
    lhs = chi_bullet(cc, x.d())
    rhs = chi_bullet(cc, x).d()
    assert lhs == rhs


def test_equal_raw_terms_are_equal_without_chi(torus):
    cc = torus.cc
    oa = cc.omega_A
    raw = raw_pair(cc, oa.form("du"), oa.of_poly(NCPoly.gen("v")))
    same = GradedTensor(raw.legs, dict(raw.terms))
    a, b = GradedBalancedTensor(cc, raw=raw), GradedBalancedTensor(cc, raw=same)
    assert a == b and a._canonical is None and b._canonical is None
    # unequal raw terms are compared on their chi images: the braiding
    # moves u (x) v, and its inverse brings it back to another raw pair of
    # the same class
    pair = raw_pair(cc, oa.of_poly(NCPoly.gen("u")),
                    oa.of_poly(NCPoly.gen("v")))
    moved = sigma_bullet(cc, pair)
    back = sigma_bullet_inv(cc, moved)
    assert moved.terms != pair.terms and back.terms != pair.terms
    assert balanced(cc, moved) != balanced(cc, pair)
    a, b = balanced(cc, back), balanced(cc, pair)
    assert a == b and a._canonical is not None


def test_volume_squared_vanishes(torus):
    cc = torus.cc
    oa = cc.omega_A
    vol = oa.form("du", "dv")
    x = raw_pair(cc, vol, vol)
    assert balanced(cc, x) == balanced(cc, GradedTensor.zero((oa, oa)))


# -- the full graded suite ----------------------------------------------------------

def test_graded_suite_torus(torus):
    rep = graded_identity_suite(torus.cc, 3, "torus")
    assert rep.ok(), [w.input for w in rep.witnesses[:4]]


@pytest.fixture(scope="module")
def podles_suite(podles):
    """One run of the podles graded suite through the CLI: its exit code,
    its JSON report, and the bundle whose memos the run filled."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", "graded", "--example", "podles", "--format",
                     "json"])
    return code, json.loads(out.getvalue()), podles.cc


def test_graded_suite_podles(podles_suite):
    # the report must match the frozen one, so a change that drops checks
    # does not pass
    fields = ("status", "checks", "truncation", "witnesses", "notes")
    root = pathlib.Path(__file__).resolve().parents[1]
    frozen = json.loads((root / "perfbench/expected.json").read_text())
    code, got, _ = podles_suite
    assert code == 0
    assert ([{f: r[f] for f in fields} for r in got]
            == [{f: r[f] for f in fields} for r in frozen["podles:graded"]])


def _assert_flat_keys(keys, legs):
    """Every key is one flat tuple of ints: an id of each leg's calculus,
    then the exponent."""
    n = 0
    for key in keys:
        n += 1
        assert type(key) is tuple and len(key) == len(legs) + 1, key
        assert all(type(i) is int for i in key), key
        assert all(0 <= i < len(leg.monos) for leg, i in zip(legs, key)), key
    assert n


@pytest.mark.parametrize("name", ["u1_q", "torus", "classical_t2",
                                  "crossed_demo", "podles"])
def test_graded_keys_are_flat_tuples_of_ints(name, podles_suite):
    if name == "podles":
        cc = podles_suite[2]
    else:
        cc = build_example(name).cc
        graded_identity_suite(cc, 3, name)
    oa, oh = cc.omega_A, cc.omega_H
    # the chi, sigma and sigma^-1 pieces are tuples of flat terms
    for cache, legs in ((cc._chibul_cache, (oa, oh)),
                        (cc._sigbul_cache, (oa, oa)),
                        (cc._siginv_cache, (oa, oa))):
        assert cache
        for piece in cache.values():
            assert type(piece) is tuple
            if piece:
                _assert_flat_keys([key for key, _ in piece], legs)
    assert cc._delta_cache
    for t in cc._delta_cache.values():
        assert t.legs == (oa, oh)
        if t.terms:
            _assert_flat_keys(t.terms, t.legs)
    # a tensor of the braid loop: sigma on legs (0, 1), then on (1, 2)
    x = [x for _, x in _generator_elements(cc, 1)]
    t3 = GradedTensor.of((oa, oa, oa), x[0], x[-1], x[1])
    s01 = triple_apply(cc, triple_apply(cc, t3, sigma_piece, 0),
                       sigma_piece, 1)
    _assert_flat_keys(s01.terms, s01.legs)


def test_graded_suite_classical(t2):
    rep = graded_identity_suite(t2.cc, 3, "classical_t2")
    assert rep.ok(), [w.input for w in rep.witnesses[:4]]


# -- memoised pieces and the staged triple canonicalisation ------------------------

def _nested_canonical_triple(cc, t3):
    """canonical_triple_graded as first written: the outer chi once per
    inner term, each key wrapped in a one-term tensor."""
    oa, oh = cc.omega_A, cc.omega_H
    legs2 = (oa, oa)
    out = {}
    for (m1, m2, m3), c in t3.scalar_terms().items():
        inner = chi_bullet(cc, GradedTensor.from_scalars(legs2,
                                                         {(m2, m3): one}))
        for (p, th), c2 in inner.scalar_terms().items():
            outer = chi_bullet(cc, GradedTensor.from_scalars(legs2,
                                                             {(m1, p): one}))
            for (x0, x1), c3 in outer.scalar_terms().items():
                add_term(out, (x0, x1, th), c * c2 * c3)
    return GradedTensor.from_scalars((oa, oh, oh), out)


@pytest.mark.parametrize("name", ["torus", "podles"])
def test_staged_canonical_triple_matches_nested(name):
    cc = build_example(name).cc
    oa = cc.omega_A
    small = [x for _, x in _generator_elements(cc, 1)]
    for x1, x2, x3 in itertools.product(small, repeat=3):
        t3 = GradedTensor.of((oa, oa, oa), x1, x2, x3)
        # the two-sigma triples have many terms; on podles some of their
        # (m1, p, theta) keys meet after the inner chi and are merged
        s01 = triple_apply(cc, triple_apply(cc, t3, sigma_piece, 0),
                           sigma_piece, 1)
        for t in (t3, s01):
            assert (canonical_triple_graded(cc, t)
                    == _nested_canonical_triple(cc, t))


def _fresh_torus():
    """A torus bundle of its own, so its memos can be corrupted."""
    return parse((DATA / "torus.qpb").read_text(encoding="utf-8")).cc


def _failed_inputs(cc):
    rep = graded_identity_suite(cc, 3, "torus")
    assert rep.status == FAIL
    return [w.input for w in rep.witnesses]


def _id_pair(calc, m1, m2):
    """The memo key of a pair of monomials of calc: their ids."""
    return calc.intern(m1), calc.intern(m2)


def _flipped(piece):
    """A memoised piece, a tuple of flat terms, with every sign flipped."""
    return tuple((key, -c) for key, c in piece)


def test_flipped_sigma_piece_fails_braid_or_hexagon():
    cc = _fresh_torus()
    key = _id_pair(cc.omega_A, (("u",), ()), ((), ("du",)))
    cc._sigbul_cache[key] = _flipped(sigma_piece(cc, key))
    failed = _failed_inputs(cc)
    assert "hex2(u,u,du)" in failed and "braid(u,ui,du)" in failed


def test_flipped_sigma_inverse_piece_fails_sigma_inverse():
    cc = _fresh_torus()
    key = _id_pair(cc.omega_A, (("u",), ()), ((), ("du",)))
    cc._siginv_cache[key] = _flipped(sigma_inv_piece(cc, key))
    failed = _failed_inputs(cc)
    assert failed == ["sigma-inverse(u,du)", "sigma-inverse(du,u)"]


def test_flipped_mono_mul_entry_fails_the_graded_suite():
    cc = _fresh_torus()
    oa = cc.omega_A
    key = _id_pair(oa, ((), ("du",)), (("u",), ()))
    oa._mono_mul_cache[key] = tuple((m, -c) for m, c in oa.mono_mul(*key))
    failed = _failed_inputs(cc)
    assert any(w.startswith(("braid(", "hex")) for w in failed), failed


# -- one-sided and two-sided lifts -------------------------------------------------

def _wedge_lift(legs, p, t, q, c):
    """c (p (x) 1) t (1 (x) q) as first written: each monomial wrapped in a
    one-term tensor and multiplied in by GradedTensor.wedge."""
    left = GradedTensor.from_scalars(legs, {(p, UNIT): one})
    right = GradedTensor.from_scalars(legs, {(UNIT, q): one})
    return left.wedge(t).wedge(right).scale(c)


def _small_monomials(calc):
    """The unit, the generators and the basis forms of degree <= 2."""
    return ([UNIT] + [((g.name,), ()) for g in calc.pres.generators]
            + [((), F) for k in (1, 2) for F in calc.basis_forms(k)])


def _assert_lifts_match(tensors, c, two_sided=True):
    for t in tensors:
        left, right = t.legs
        ps, qs = _small_monomials(left), _small_monomials(right)
        # left lifts (q = 1), right lifts (p = 1), two-sided ones
        if two_sided:
            pairs = itertools.product(ps, qs)
        else:
            pairs = [(p, UNIT) for p in ps] + [(UNIT, q) for q in qs]
        for p, q in pairs:
            # add_lift takes monomial ids and the flat terms of t
            got = GradedTensor.zero(t.legs)
            for e, a in flat_coeff(c):
                add_lift(got.terms, t.legs, left.intern(p), t.terms.items(),
                         right.intern(q), e, a)
            assert got == _wedge_lift(t.legs, p, t, q, c), (p, t, q)


def test_lift_matches_one_term_wedges_torus(torus):
    cc = torus.cc
    graded_identity_suite(cc, 3, "torus")
    _assert_lifts_match(list(cc._taubul_cache.values())
                        + list(cc._delta_cache.values()), -L / 2)


def test_lift_matches_one_term_wedges_podles(podles_suite):
    cc = podles_suite[2]
    # every pair on the translation pieces, the only tensors the suite lifts
    # on both sides; left and right lifts on the hundreds of coaction pieces
    _assert_lifts_match(cc._taubul_cache.values(), -q / 2)
    _assert_lifts_match(cc._delta_cache.values(), qi, two_sided=False)


# -- coefficients off the flat path --------------------------------------------------

def test_non_laurent_coefficients_fall_back_to_scalars(torus):
    # a Fraction and a non-unit denominator ride through the flat maps as
    # Scalars: nothing is dropped, and the result is the Scalar-path sum of
    # the memoised pieces
    cc = torus.cc
    oa = cc.omega_A
    rational = one / (L + one)
    terms = {
        ((("u",), ()), ((), ("dv",))): -L / 2,
        (((), ("du",)), (("v",), ())): rational,
        ((("v",), ()), (("u",), ())): L * L - Li}
    x = GradedTensor.from_scalars((oa, oa), terms)
    for apply, piece in ((chi_bullet, chi_piece), (sigma_bullet, sigma_piece),
                         (sigma_bullet_inv, sigma_inv_piece)):
        got = apply(cc, x)
        want = {}
        for key, c in terms.items():
            ids = _id_pair(oa, *key)
            # a memoised piece is a tuple of flat terms of the result's legs
            flat = GradedTensor(got.legs, dict(piece(cc, ids)))
            for k2, c2 in flat.scalar_terms().items():
                add_term(want, k2, c * c2)
        want = GradedTensor.from_scalars(got.legs, want)
        assert got == want and str(got) == str(want)
        assert any(not c.unit_den for c in got.scalar_terms().values())
    assert x.terms[(*_id_pair(oa, ((), ("du",)), (("v",), ())), 0)] is rational
    assert x.scalar_terms() == terms
