"""Acceptance criteria, one test per criterion, exact comparisons throughout.

Each test prints a PASS/FAIL line (visible with pytest -s); the stated
truncations are pinned here and nowhere else.
"""

import itertools
import random
import time

import pytest

from qpbcalc.braidext import (
    GradedBalancedTensor,
    chi_bullet,
    chi_bullet_inv,
    graded_identity_suite,
    raw_pair,
    sigma_bullet,
    sigma_squared_is_identity,
)
from qpbcalc.calculus import GradedTensor, bc_coproduct
from qpbcalc.comodule import BalancedTensor, tau_identity_suite
from qpbcalc.examples import (
    EXAMPLE_NAMES,
    build_example,
    crossed_structure_check,
    crossed_validation,
    oracle_crosscheck,
)
from qpbcalc.hopf import verify_hopf_axioms
from qpbcalc.ncalg import NCPoly
from qpbcalc.qpb import h_complete_delta
from qpbcalc.scalars import Scalar


def report(num, ok, label):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


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
def crossed():
    return build_example("crossed_demo")


def test_criterion_1_tau_identities(torus, podles):
    t0 = time.perf_counter()
    rep_t = tau_identity_suite(torus.ca, torus.td, 4, "torus")
    t_torus = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep_p = tau_identity_suite(podles.ca, podles.td, 3, "podles")
    t_podles = time.perf_counter() - t0
    ok = rep_t.ok() and rep_p.ok() and t_torus < 10.0 and t_podles < 10.0
    report(1, ok, f"translation identities: torus bound 4 ({t_torus:.1f}s), "
           f"podles bound 3 ({t_podles:.1f}s), exact")


def test_criterion_2_braiding_tables(torus, podles):
    rep_t = oracle_crosscheck(torus)
    rep_p = oracle_crosscheck(podles)
    keyed_t = {e.args[:2] for e in torus.oracles if e.kind == "sigma"}
    keyed_p = {e.args[:2] for e in podles.oracles if e.kind == "sigma"}
    coverage = (("du", "dv") in keyed_t and ("du*dv", "du") in keyed_t
                and ("alpha", "delta") in keyed_p and ("e0", "ep") in keyed_p)
    ok = rep_t.ok() and rep_p.ok() and coverage
    report(2, ok, f"braiding tables reproduced: torus {len(keyed_t)} entries,"
           f" podles {len(keyed_p)} entries, exact")


def test_criterion_3_translation_closed_form(podles):
    ca, td = podles.ca, podles.td
    ok = True
    for n in (1, 2, 3, -1, -2, -3):
        w = ("t",) * n if n > 0 else ("ti",) * (-n)
        computed = BalancedTensor(ca, raw=td.tau_word(w))
        closed = BalancedTensor(ca, raw=podles.ell(w))
        ok = ok and computed == closed
    report(3, ok, "computed translation map equals the deformed-binomial "
           "closed form for |n| <= 3, exact")


def test_criterion_4_completeness(u1, torus, podles):
    reps = [b.cc.completeness_check(2, b.name) for b in (u1, torus, podles)]
    # the stored mixed vertical values (volume forms, top form) match
    ver_t = [e for e in torus.oracles if e.kind == "ver" and e.args[:2] == (1, 1)]
    ver_p = [e for e in podles.oracles if e.kind == "ver"
             and e.args[:2] in ((1, 1), (2, 1))]
    ok = all(r.ok() for r in reps) and ver_t and len(ver_p) >= 3
    ok = ok and oracle_crosscheck(torus).ok() and oracle_crosscheck(podles).ok()
    report(4, ok, "extended coactions are well-defined DGA morphisms; "
           "mixed vertical components match the stored tables")


def test_criterion_5_atiyah(torus, podles):
    rep_t = torus.cc.atiyah_check(4, "torus")
    rep_p = podles.cc.atiyah_check(3, "podles")
    ok = rep_t.ok() and rep_p.ok()
    report(5, ok, "Atiyah sequence exact: kernel of the vertical projection "
           "is the horizontal forms, projection onto the vertical forms "
           "surjective (torus at 4, podles at 3)")


def test_criterion_6_bm_comparison(torus, podles):
    rep_t = torus.cc.bm_check(4, example="torus")
    rep_p = podles.cc.bm_check(3, example="podles")
    ok = rep_t.ok() and rep_p.ok()
    report(6, ok, "horizontal forms equal A Omega(B) A at truncation, "
           "degrees 1 and 2, span equality exact")


def test_criterion_7_connections(torus, podles):
    rep_t = torus.cc.connection_check(torus.connection, 4, "torus")
    rep_p = podles.cc.connection_check(podles.connection, 3, "podles")
    rep_l = podles.cc.strong_connection_check(podles.ell, 3, "podles")
    ok = rep_t.ok() and rep_p.ok() and rep_l.ok()
    report(7, ok, "connection forms pass section/colinearity/projector/"
           "strongness; the deformed-binomial strong connection passes its "
           "four axioms for n <= 3")


def test_criterion_8_counterexample_fidelity():
    bundle = build_example("classical_t2")
    oh = bundle.cc.omega_H
    tds = oh.of_poly(NCPoly.gen("t"), ("ds",))
    bc_broken = bc_coproduct(oh, oh.d(tds)) != bc_coproduct(oh, tds).d()
    corrected_ok = (h_complete_delta(oh, oh.d(tds))
                    == h_complete_delta(oh, tds).d())
    ts = oh.of_poly(NCPoly.word(("t", "s")))
    sdt = oh.of_poly(NCPoly.gen("s"), ("dt",))
    legs = (oh, oh)
    corrected_value = (GradedTensor.of(legs, oh.form("dt", "ds"), ts)
                       + GradedTensor.of(legs, sdt, tds)
                       - GradedTensor.of(legs, tds, sdt)
                       + GradedTensor.of(legs, ts, oh.form("dt", "ds")))
    value_ok = h_complete_delta(oh, oh.form("dt", "ds")) == corrected_value
    ok = bc_broken and corrected_ok and value_ok
    report(8, ok, "canonical bicovariant extension fails the DGA property "
           "on t ds while the corrected extension satisfies it")


def test_criterion_9_graded_hopf_galois(torus, podles):
    ok = True
    for bundle in (torus, podles):
        cc = bundle.cc
        oa, oh = cc.omega_A, cc.omega_H
        gens = [oa.of_poly(NCPoly.gen(g.name)) for g in cc.ca.A.generators]
        forms = [oa.form(*F) for k in range(1, oa.top_degree + 1)
                 for F in oa.basis_forms(k)]
        for x in gens + forms:
            for y in gens + forms:
                if max(x.degrees() or {0}) + max(y.degrees() or {0}) > 3:
                    continue
                raw = raw_pair(cc, x, y)
                ok = ok and chi_bullet_inv(cc, chi_bullet(cc, raw)) == \
                    GradedBalancedTensor(cc, raw=raw)
        hforms = [oh.unit()] + [oh.of_poly(NCPoly.gen(g.name))
                                for g in oh.pres.generators]
        hforms += [oh.form(f) for f in oh.letters]
        for x in gens + forms:
            for th in hforms:
                if max(x.degrees() or {0}) + max(th.degrees() or {0}) > 3:
                    continue
                y = GradedTensor.of((oa, oh), x, th)
                ok = ok and chi_bullet(cc, chi_bullet_inv(cc, y).raw) == y
        rep = graded_identity_suite(cc, 3, bundle.name)
        ok = ok and rep.ok()
    report(9, ok, "canonical map on forms is bijective up to total degree 3;"
           " graded translation identities, braid equation and hexagons "
           "pass exhaustively")


def test_criterion_10_symmetry_dichotomy(torus, podles):
    cc = torus.cc
    oa = cc.omega_A
    items = [oa.of_poly(NCPoly.gen(g.name)) for g in cc.ca.A.generators]
    items += [oa.form(f) for f in oa.letters]
    items += [oa.form(*F) for F in oa.basis_forms(2)]
    ok = True
    for x in items:
        for y in items:
            if max(x.degrees() or {0}) + max(y.degrees() or {0}) > 2:
                continue
            ok = ok and sigma_squared_is_identity(cc, x, y)
    cc2 = podles.cc
    oa2 = cc2.omega_A
    witness = not sigma_squared_is_identity(cc2, oa2.form("e0"),
                                            oa2.form("ep"))
    ok = ok and witness
    report(10, ok, "torus braiding squares to the identity on pairs of "
           "degree <= 2; the sphere braiding does not (witness e0, e+)")


def test_criterion_11_crossed_products(crossed):
    rep_val = crossed_validation(crossed.crossed)
    rep_struct = crossed_structure_check(crossed, 3)
    rep_oracle = oracle_crosscheck(crossed)
    ok = rep_val.ok() and rep_struct.ok() and rep_oracle.ok()
    report(11, ok, "crossed product passes twisted-module and cocycle "
           "validation, base/vertical/horizontal shape checks, and the "
           "closed braiding formula on generator pairs")


def test_criterion_12_substrate(torus, podles, u1, crossed):
    ok = True
    bundles = [build_example(n) for n in EXAMPLE_NAMES]
    presentations = []
    for b in bundles:
        presentations.append(b.ca.A)
        if b.ca.H.base is not b.ca.A:
            presentations.append(b.ca.H.base)
    for pres in presentations:
        ok = ok and pres.confluence_check(5).ok()
    rng = random.Random(20260810)
    cases = 0
    for pres in presentations:
        names = [g.name for g in pres.generators]
        for _ in range(150):
            w = tuple(rng.choice(names) for _ in range(rng.randint(0, 5)))
            p = pres.reduce(NCPoly.word(w))
            ok = ok and pres.reduce(p) == p
            cases += 1
        for _ in range(60):
            a, b, c = (NCPoly.word(tuple(
                rng.choice(names) for _ in range(rng.randint(0, 3))))
                for _ in range(3))
            lhs = pres.multiply(pres.multiply(a, b), c)
            rhs = pres.multiply(a, pres.multiply(b, c))
            ok = ok and lhs == rhs
            cases += 1
    ok = ok and cases >= 1000
    for b in (torus, podles, u1):
        ok = ok and verify_hopf_axioms(b.ca.H, 4, b.name).ok()
    report(12, ok, f"confluence on every shipped presentation; "
           f"{cases} randomized idempotence/associativity cases; "
           f"Hopf axioms at word length 4")
