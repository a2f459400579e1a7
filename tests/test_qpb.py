import collections
import gc
import json
import pathlib
import weakref

import pytest

from qpbcalc import linalg
from qpbcalc.calculus import GradedTensor, lambda_element
from qpbcalc.cli import SUITES
from qpbcalc.examples import build_example
from qpbcalc.fileformat import parse
from qpbcalc.linalg import kernel, rref
from qpbcalc.ncalg import NCPoly
from qpbcalc.qpb import h_complete_delta
from qpbcalc.scalars import Scalar

q = Scalar.param("q")
one = Scalar.one()


@pytest.fixture(scope="module")
def torus():
    return build_example("torus")


@pytest.fixture(scope="module")
def podles():
    return build_example("podles")


@pytest.fixture(scope="module")
def u1():
    return build_example("u1_q")


@pytest.fixture(scope="module")
def t2():
    return build_example("classical_t2")


# -- extended coaction ------------------------------------------------------------

def test_delta_bullet_e0(podles):
    cc = podles.cc
    oa, oh = cc.omega_A, cc.omega_H
    got = cc.delta_bullet(oa.form("e0"))
    want = (GradedTensor.of((oa, oh), oa.form("e0"), oh.unit())
            + GradedTensor.of((oa, oh), oa.unit(),
                              oh.of_poly(NCPoly.gen("ti"), ("dt",))))
    assert got == want


def test_delta_bullet_coinvariant(torus):
    cc = torus.cc
    oa, oh = cc.omega_A, cc.omega_H
    b = oa.of_poly(NCPoly.word(("u", "v")))
    assert cc.delta_bullet(b) == GradedTensor.of((oa, oh), b, oh.unit())


def test_delta_bullet_du(torus):
    cc = torus.cc
    oa, oh = cc.omega_A, cc.omega_H
    got = cc.delta_bullet(oa.form("du"))
    want = (GradedTensor.of((oa, oh), oa.form("du"),
                            oh.of_poly(NCPoly.gen("t")))
            + GradedTensor.of((oa, oh), oa.of_poly(NCPoly.gen("u")),
                              oh.form("dt")))
    assert got == want


def test_completeness(u1, torus, podles):
    for bundle in (u1, torus, podles):
        rep = bundle.cc.completeness_check(2, bundle.name)
        assert rep.ok(), (bundle.name, [w.input for w in rep.witnesses[:3]])


# -- vertical projection ------------------------------------------------------------

def test_pi_v_values(torus, podles):
    cc = torus.cc
    oa = cc.omega_A
    got = cc.pi_v(oa.form("du"))
    assert got == {(("u",), ("dt",)): one}
    # coinvariant differentials are killed
    b = NCPoly.word(("u", "v"))
    dbb = oa.mul(oa.of_poly(b), oa.d_poly(b))
    assert cc.pi_v(dbb) == {}
    cc2 = podles.cc
    assert cc2.pi_v(cc2.omega_A.form("ep")) == {}
    assert cc2.pi_v(cc2.omega_A.form("em")) == {}


def test_horizontal_and_base(torus, podles):
    cc = torus.cc
    oa = cc.omega_A
    b = NCPoly.word(("u", "v"))
    el = oa.mul(oa.of_poly(b), oa.d_poly(b))
    # a base form coacts as x (x) 1, so it is horizontal too
    assert cc.delta_bullet(el) == GradedTensor.of(cc.legs, el,
                                                  cc.omega_H.unit())
    cc2 = podles.cc
    oa2 = cc2.omega_A
    vol = oa2.form("ep", "em")
    assert cc2.delta_bullet(vol) == GradedTensor.of(cc2.legs, vol,
                                                    cc2.omega_H.unit())
    # e0 has a vertical part, so it is not horizontal
    assert not cc2.ver(0, 1, oa2.form("e0")).is_zero()


# -- suites -----------------------------------------------------------------------

def test_atiyah(torus, podles, u1):
    assert torus.cc.atiyah_check(3).ok()
    assert podles.cc.atiyah_check(2).ok()
    assert u1.cc.atiyah_check(3).ok()


def test_atiyah_broken_table_fails(torus):
    # corrupt the vertical table of du and watch exactness fail
    from qpbcalc.qpb import CompleteCalculus

    cc = torus.cc
    oa, oh = cc.omega_A, cc.omega_H
    bad = CompleteCalculus("torus-broken", cc.ca, oa, oh,
                           dict(cc.delta_letter), cc.td)
    # vertical leg (t - 1) dt is invisible to the coinvariant projection,
    # so the kernel of pi_v strictly contains the horizontal forms
    bad.delta_letter["du"] = (
        GradedTensor.of((oa, oh), oa.form("du"), oh.of_poly(NCPoly.gen("t")))
        + GradedTensor.of((oa, oh), oa.of_poly(NCPoly.gen("u")),
                          oh.of_poly(NCPoly.gen("t") - NCPoly.one(), ("dt",))))
    rep = bad.atiyah_check(2)
    assert not rep.ok()
    # the witness names the form in ker pi_v that is not horizontal
    assert [(w.input, w.got) for w in rep.witnesses] == [
        ("ker pi_v = hor1", "du outside hor1")]


def test_bm(torus, podles, u1):
    assert torus.cc.bm_check(3).ok()
    assert podles.cc.bm_check(2).ok()
    assert u1.cc.bm_check(3).ok()


def test_bm_names_the_horizontal_form_no_row_reaches(monkeypatch):
    cc = build_example("crossed_demo").cc
    real = cc.base_form_basis
    # dx is the base 1-form that no A-multiple of x*dx and x*x*dx reaches
    assert str(real(1, 2)[0]) == "dx"
    monkeypatch.setattr(cc, "base_form_basis",
                        lambda k, n: real(k, n)[1:])
    rep = cc.bm_check(2)
    assert (rep.status, rep.checks) == ("fail", 2)
    assert [(w.input, w.got) for w in rep.witnesses] == [
        ("hor1 = A Omega1(B) A", "dx reached by no row")]


def test_bm_names_the_row_that_is_not_horizontal(torus, monkeypatch):
    cc = torus.cc
    real = cc.base_form_basis
    du = cc.omega_A.form("du")
    monkeypatch.setattr(cc, "base_form_basis",
                        lambda k, n: real(k, n) + [du] * (k == 1))
    rep = cc.bm_check(2)
    assert (rep.status, rep.checks) == ("fail", 2)
    assert [(w.input, w.got) for w in rep.witnesses] == [
        ("hor1 = A Omega1(B) A", "row 1 (du) 1 not horizontal")]


def _span_reports(names):
    """The atiyah, bm, connection and crossed reports at word length 2,
    without their durations."""
    return [dict(r.to_dict(), duration=0) for name in names
            for suite in ("atiyah", "bm", "connection", "crossed")
            for r in SUITES[suite](build_example(name), 2, None)]


@pytest.mark.parametrize("guess", ["none", "short"])
def test_a_wrong_residue_guess_changes_no_report(monkeypatch, guess):
    names = ("torus", "crossed_demo")
    want = _span_reports(names)
    assert {r["status"] for r in want} == {"pass"}
    real = linalg._support_mod_p
    calls = []

    def wrong(row, n, targets):
        # no rows at all, or the rows found less the last: every target
        # that needs the dropped row is left to the full exact elimination
        calls.append(n)
        support = real(row, n, targets)
        return None if guess == "none" or not support else support[:-1]

    monkeypatch.setattr(linalg, "_support_mod_p", wrong)
    assert _span_reports(names) == want
    assert calls


def test_vertical(torus, podles, u1):
    for bundle in (torus, podles, u1):
        rep = bundle.cc.vertical_check(2, bundle.name)
        assert rep.ok(), (bundle.name, [w.input for w in rep.witnesses[:3]])


def test_vertical_values(torus):
    cc = torus.cc
    # d_v(u (x) 1) = u (x) theta
    got = cc.ver_d({(("u",), ()): one})
    assert got == {(("u",), ("dt",)): one}
    # (1 (x) theta)(1 (x) theta) = 1 (x) theta^theta = 0 in degree 2
    prod = cc.ver_wedge({((), ("dt",)): one}, {((), ("dt",)): one})
    assert prod == {}


def test_connection(torus, podles, u1):
    assert torus.cc.connection_check(torus.connection, 3).ok()
    assert podles.cc.connection_check(podles.connection, 2).ok()
    assert u1.cc.connection_check(u1.connection, 3).ok()


def test_zero_section_fails(torus):
    cc = torus.cc
    zero_s = {("dt",): cc.omega_A.zero()}
    rep = cc.connection_check(zero_s, 2)
    assert not rep.ok()
    assert any(w.input.startswith("section") for w in rep.witnesses)


def test_strong_connection(torus, podles, u1):
    assert torus.cc.strong_connection_check(torus.ell, 3).ok()
    rep = podles.cc.strong_connection_check(podles.ell, 3)
    assert rep.ok(), [w.input for w in rep.witnesses[:3]]
    assert u1.cc.strong_connection_check(u1.ell, 3).ok()


def test_strong_connection_evaluates_ell_once_per_word(torus):
    # a counting ell: splitting, both colinearities and the tau agreement
    # share one evaluation per word, and the report is the frozen one of
    # `check all --example torus`
    calls = collections.Counter()

    def ell(w):
        calls[w] += 1
        return torus.ell(w)

    rep = torus.cc.strong_connection_check(ell, 4, "torus")
    assert set(calls) >= set(torus.ca.H.base.irreducible_words(4))
    assert set(calls.values()) == {1}
    fields = ("status", "checks", "truncation", "witnesses", "notes")
    root = pathlib.Path(__file__).resolve().parents[1]
    frozen = json.loads((root / "perfbench/expected.json").read_text())
    want = next(r for r in frozen["torus:all"] if r["suite"] == "strong")
    got = rep.to_dict()
    assert {f: got[f] for f in fields} == {f: want[f] for f in fields}


# -- structure-calculus decomposition ----------------------------------------------

def test_xi_values(u1):
    cc = u1.cc
    oh = cc.omega_H
    for n in range(-2, 3):
        w = ("t",) * n if n >= 0 else ("ti",) * (-n)
        x = oh.of_poly(NCPoly.word(w), ("dt",))
        got = cc.xi_decomposition(x)
        w1 = ("t",) * (n + 1) if n + 1 >= 0 else ("ti",) * (-(n + 1))
        assert got == {(w1, ("dt",)): one}, n
        assert cc.xi_inverse(got) == x


def test_xi_degree0(u1):
    cc = u1.cc
    oh = cc.omega_H
    h = oh.of_poly(NCPoly.word(("t", "t")))
    assert cc.xi_decomposition(h) == {(("t", "t"), ()): one}


def test_xi_transported_product(u1):
    # (h (x) theta)(h' (x) theta') = h h'_1 (x) (theta <- h'_2) theta'
    cc = u1.cc
    oh = cc.omega_H
    x = oh.of_poly(NCPoly.gen("t"), ("dt",))
    y = oh.of_poly(NCPoly.gen("t"))
    lhs = cc.xi_decomposition(oh.mul(x, y))
    xs = cc.xi_decomposition(x)
    ys = cc.xi_decomposition(y)
    rhs = {}
    for (h1, F1), c1 in xs.items():
        for (h2, F2), c2 in ys.items():
            acted = cc.lambda_act(F1, h2)
            for Fm, c3 in acted.items():
                wed = cc.lambda_wedge(Fm, F2)
                for Ff, c4 in wed.items():
                    word = oh.pres.normal_word(h1 + h2)
                    for wf, c5 in word.terms.items():
                        key = (wf, Ff)
                        rhs[key] = rhs.get(key, Scalar.zero()) + \
                            c1 * c2 * c3 * c4 * c5
    rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
    assert lhs == rhs


def test_dropped_bundle_frees_its_structure_calculus():
    # the memoised extension of the comultiplication lives on the calculus,
    # and expression evaluation keeps no presentation in module state, so
    # a dropped bundle frees its calculus and both of its algebras
    data = pathlib.Path(__file__).resolve().parents[1] / "src/qpbcalc/data"
    for name in ("torus", "u1_q", "crossed_demo"):
        bundle = parse((data / f"{name}.qpb").read_text())
        oh = bundle.cc.omega_H
        theta = oh.form(oh.letters[0])
        assert h_complete_delta(oh, theta) == h_complete_delta(oh, theta)
        refs = {"omega_H": weakref.ref(oh),
                "A": weakref.ref(bundle.ca.A),
                "H.base": weakref.ref(bundle.ca.H.base)}
        del bundle, oh, theta
        gc.collect()
        assert [k for k, ref in refs.items() if ref() is not None] == [], \
            name


def test_horizontal_basis_is_the_kernel_of_ver01(torus, podles):
    # at degree 1 the terms with Omega(H) letters are the (0, 1) component
    for bundle, n in ((torus, 3), (podles, 2)):
        cc = bundle.cc
        domain = list(cc.omega_basis(1, n))
        want = [{domain[i]: c for i, c in combo.items()} for combo in
                kernel([cc.ver(0, 1, cc.element_of(*m)).scalar_terms()
                        for m in domain])]
        got = [x.scalar_terms() for x in cc.horizontal_basis(1, n)]
        assert want and rref(got) == rref(want), bundle.name


# -- the corrected DGA extension on the classical 2-torus ---------------------------

def test_corrected_extension_is_dga_morphism(t2):
    oh = t2.cc.omega_H
    tds = oh.of_poly(NCPoly.gen("t"), ("ds",))
    lhs = h_complete_delta(oh, oh.d(tds))
    rhs = h_complete_delta(oh, tds).d()
    assert lhs == rhs


def test_corrected_extension_value(t2):
    # Delta(dt^ds) = dt^ds (x) ts + s dt (x) t ds - t ds (x) s dt
    #                + ts (x) dt^ds
    oh = t2.cc.omega_H
    got = h_complete_delta(oh, oh.form("dt", "ds"))
    legs = (oh, oh)
    ts = oh.of_poly(NCPoly.word(("t", "s")))
    sdt = oh.of_poly(NCPoly.gen("s"), ("dt",))
    tds = oh.of_poly(NCPoly.gen("t"), ("ds",))
    want = (GradedTensor.of(legs, oh.form("dt", "ds"), ts)
            + GradedTensor.of(legs, sdt, tds)
            - GradedTensor.of(legs, tds, sdt)
            + GradedTensor.of(legs, ts, oh.form("dt", "ds")))
    assert got == want


def test_lambda_act_scalars(podles):
    cc = podles.cc
    # theta <- t^n = q^(2n) theta for the sphere structure calculus
    got = cc.lambda_act(("dt",), ("t",))
    assert got == {("dt",): q * q}
    got = cc.lambda_act(("dt",), ("ti",))
    assert got == {("dt",): (q ** -2)}


def test_yetter_drinfeld_compatibility(podles, torus):
    # (theta <- h)_[1] (x) (theta <- h)_[2] = theta_[1] <- h2 (x) S(h1) theta_[2] h3
    # for grouplike h both sides are leg-wise conjugations
    from qpbcalc.calculus import Element, lambda_element
    from qpbcalc.qpb import h_complete_delta

    for bundle in (podles, torus):
        cc = bundle.cc
        oh = cc.omega_H
        hopf = oh.hopf

        for F in oh.basis_forms(1):
            theta = lambda_element(oh, F)
            for g in oh.pres.generators:
                h = (g.name,)
                hinv = hopf.grouplike_inverse_word(h)

                def conj(el):
                    return oh.product(oh.of_poly(NCPoly.word(hinv)), el,
                                      oh.of_poly(NCPoly.word(h)))

                lhs = h_complete_delta(oh, conj(theta))
                rhs = {}
                for (m1, m2), c in \
                        h_complete_delta(oh, theta).scalar_terms().items():
                    e1 = conj(Element.from_scalars(oh, {m1: Scalar.one()}))
                    e2 = conj(Element.from_scalars(oh, {m2: Scalar.one()}))
                    for k1, c1 in e1.scalar_terms().items():
                        for k2, c2 in e2.scalar_terms().items():
                            key = (k1, k2)
                            rhs[key] = rhs.get(key, Scalar.zero()) + c * c1 * c2
                rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
                assert lhs.scalar_terms() == rhs, (bundle.name, F, g.name)
