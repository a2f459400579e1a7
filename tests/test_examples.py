import pytest

from qpbcalc.comodule import BalancedTensor, sigma
from qpbcalc.examples import (
    EXAMPLE_NAMES,
    CrossedProductData,
    ExampleError,
    _sigma_d_formula,
    build_example,
    crossed_product,
    crossed_structure_check,
    crossed_validation,
    oracle_crosscheck,
)
from qpbcalc.ncalg import NCPoly
from qpbcalc.scalars import Scalar
from qpbcalc.tensors import TensorPoly

q = Scalar.param("q")
mu = Scalar.param("mu")
one = Scalar.one()


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_bundles_validate(name):
    bundle = build_example(name)
    for rep in bundle.structural_validation(2):
        assert rep.ok(), (name, rep.suite, rep.witnesses[:2])


@pytest.mark.parametrize("name, suites", [
    ("u1_q", ["hopf", "confluence", "comodule", "calculus"]),
    ("classical_t2", ["hopf", "confluence", "comodule", "calculus"]),
    ("torus", ["hopf", "confluence", "confluence", "comodule", "calculus",
               "calculus"]),
])
def test_structural_validation_checks_each_object_once(name, suites):
    # a total = hopf bundle has one algebra and one calculus
    reps = build_example(name).structural_validation(2)
    assert [rep.suite for rep in reps] == suites


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_oracles(name):
    bundle = build_example(name)
    rep = oracle_crosscheck(bundle)
    assert rep.ok(), (name, [w.input for w in rep.witnesses[:4]])
    assert rep.checks == len(bundle.oracles)


def test_unknown_example():
    with pytest.raises(ExampleError):
        build_example("moebius")


# -- crossed products ----------------------------------------------------------

def test_crossed_validation():
    rep = crossed_validation(build_example("crossed_demo").crossed)
    assert rep.ok(), rep.witnesses[:3]


def test_crossed_memo_belongs_to_one_instance():
    # cocycle and measure_word are memoised per instance: data with one
    # measure entry negated must not read the shipped data's values, nor
    # leave its own behind for them
    data = build_example("crossed_demo").crossed
    shipped = crossed_validation(data)
    measure = dict(data.measure)
    measure[("t", "x")] = -measure[("t", "x")]
    broken = CrossedProductData(data.B, data.omega_B, data.H, data.omega_H,
                                measure, data.cocycle_base, "broken_demo")
    rep = crossed_validation(broken)
    assert rep.status == "fail"
    assert [w.input for w in rep.witnesses if w.input.startswith(
        ("measure-respects", "twisted"))]
    again = crossed_validation(data)
    assert again.ok() and again.checks == shipped.checks > 0


def test_crossed_structure():
    bundle = build_example("crossed_demo")
    rep = crossed_structure_check(bundle, 3)
    assert rep.ok(), [(w.input, w.got) for w in rep.witnesses[:3]]


def test_crossed_calculus_copies_the_b_tables_by_monomial():
    # monomial ids are given per calculus, so the right actions and
    # differentials that Omega(A) copies from Omega(B) are read there as
    # monomials and interned again in Omega(A)
    bundle = build_example("crossed_demo")
    data, oa = bundle.crossed, bundle.omega_A
    ob = data.omega_B
    copies = [(oa.raction, ob.raction, (f, g.name))
              for f in ob.letters for g in data.B.generators]
    copies += [(oa.d_gen, ob.d_gen, g.name) for g in data.B.generators]
    copies += [(oa.d_letter, ob.d_letter, f) for f in ob.letters]
    for mine, theirs, key in copies:
        assert mine[key].calc is oa and theirs[key].calc is ob
        assert mine[key].scalar_terms() == theirs[key].scalar_terms(), key
    assert any(not table[key].is_zero() for table, _, key in copies)


def test_crossed_relations():
    bundle = build_example("crossed_demo")
    A = bundle.ca.A
    # T x = q x T and T Ti = mu^-1
    assert A.normal_word(("T", "x")) == NCPoly.word(("x", "T"), q)
    assert A.normal_word(("T", "Ti")) == NCPoly.one().scale(mu ** -1)


def test_crossed_translation_map():
    bundle = build_example("crossed_demo")
    td = bundle.td
    A = bundle.ca.A
    # tau(t) = mu Ti (x) T  (cocycle-corrected cleaving)
    got = td.tau_word(("t",))
    want = TensorPoly.from_polys((A, A), NCPoly.gen("Ti", mu),
                                 NCPoly.gen("T"))
    assert got == want
    ca = bundle.ca
    assert BalancedTensor(ca, raw=got).canonical == TensorPoly.from_polys(
        (A, ca.H.base), NCPoly.one(), NCPoly.gen("t"))


def test_smash_case_matches_general_formula():
    # trivial cocycle: sigma is the closed braiding formula on the smash
    # product
    data = build_example("crossed_demo").crossed
    trivial = CrossedProductData(
        data.B, data.omega_B, data.H, data.omega_H, data.measure,
        Scalar.one(), "smash_demo")
    bundle = crossed_product(trivial)
    ca, td = bundle.ca, bundle.td
    j = lambda w: td.cleaving[0](w)
    gens = [(("x",), 0), ((), 1), ((), -1)]
    for bw1, a in gens:
        for bw2, c in gens:
            lhs_raw = TensorPoly.from_polys(
                (ca.A, ca.A),
                ca.A.reduce(_as_element(ca.A, trivial, j, bw1, a)),
                ca.A.reduce(_as_element(ca.A, trivial, j, bw2, c)))
            got = sigma(BalancedTensor(ca, raw=lhs_raw), td)
            want = BalancedTensor(ca, raw=_sigma_d_formula(
                trivial, ca.A, j, bw1, a, bw2, c))
            assert got == want, (bw1, a, bw2, c)


def _as_element(A, data, j, bw, n):
    hg = data.H.base.generators[0]
    w = (hg.name,) * n if n >= 0 else ((hg.inverse_of,) * (-n))
    jp = j(w) if n else NCPoly.one()
    return A.multiply(NCPoly.word(bw), jp)


def test_trivial_measure_and_cocycle_gives_tensor_calculus():
    # fully degenerate data: the total calculus is the plain tensor product
    data = build_example("crossed_demo").crossed
    trivial = CrossedProductData(
        data.B, data.omega_B, data.H, data.omega_H,
        {("t", "x"): NCPoly.gen("x"), ("ti", "x"): NCPoly.gen("x")},
        Scalar.one(), "tensor_demo")
    bundle = crossed_product(trivial)
    oa = bundle.cc.omega_A
    A = bundle.ca.A
    # commutative total space, classical-looking relations
    assert A.normal_word(("T", "x")) == NCPoly.word(("x", "T"))
    got = oa.mul(oa.form("dx"), oa.of_poly(NCPoly.gen("T")))
    assert got == oa.of_poly(NCPoly.gen("T"), ("dx",))
    assert oa.swap[("dt", "dx")] == -one


def test_crossed_suites_pass():
    bundle = build_example("crossed_demo")
    cc = bundle.cc
    assert cc.completeness_check(2).ok()
    assert cc.atiyah_check(2).ok()
    assert cc.vertical_check(2).ok()
    assert cc.connection_check(bundle.connection, 2).ok()
    assert cc.strong_connection_check(bundle.ell, 2).ok()


def test_crossed_graded_suite():
    from qpbcalc.braidext import graded_identity_suite

    bundle = build_example("crossed_demo")
    rep = graded_identity_suite(bundle.cc, 2, bundle.name)
    assert rep.ok(), [w.input for w in rep.witnesses[:3]]
