import pytest

from qpbcalc.comodule import ComoduleAlgebra
from qpbcalc.examples import build_example
from qpbcalc.hopf import HopfPresentation
from qpbcalc.ncalg import NCPoly
from qpbcalc.scalars import Scalar
from qpbcalc.tensors import TensorPoly

q = Scalar.param("q")
qi = Scalar.param("q", -1)
one = Scalar.one()


@pytest.fixture(scope="module")
def u1():
    return build_example("u1_q").ca.H


def _tp(base, *pairs):
    out = TensorPoly.zero((base, base))
    for x, y in pairs:
        out.add_scaled(TensorPoly.from_polys((base, base), NCPoly.gen(x),
                                             NCPoly.gen(y)))
    return out


@pytest.fixture(scope="module")
def sl2():
    """Matrix comultiplication on the q-deformed 2x2 quantum group, over
    the total space algebra of the podles bundle."""
    base = build_example("podles").ca.A
    delta = {
        "alpha": _tp(base, ("alpha", "alpha"), ("beta", "gamma")),
        "beta": _tp(base, ("alpha", "beta"), ("beta", "delta")),
        "gamma": _tp(base, ("gamma", "alpha"), ("delta", "gamma")),
        "delta": _tp(base, ("gamma", "beta"), ("delta", "delta")),
    }
    eps = {"alpha": one, "delta": one, "beta": Scalar.zero(),
           "gamma": Scalar.zero()}
    s = {
        "alpha": NCPoly.gen("delta"),
        "beta": NCPoly.gen("beta", -q),
        "gamma": NCPoly.gen("gamma", -qi),
        "delta": NCPoly.gen("alpha"),
    }
    sinv = {
        "alpha": NCPoly.gen("delta"),
        "beta": NCPoly.gen("beta", -qi),
        "gamma": NCPoly.gen("gamma", -q),
        "delta": NCPoly.gen("alpha"),
    }
    return HopfPresentation(base, delta, eps, s, sinv)


def test_coproduct_grouplike_powers(u1):
    H = u1.base
    for n in range(-3, 4):
        w = ("t",) * n if n >= 0 else ("ti",) * (-n)
        p = NCPoly.word(w)
        assert u1.coproduct(p) == TensorPoly.from_polys((H, H), p, p)


def test_coproduct_unit(u1):
    assert u1.coproduct(NCPoly.one()) == TensorPoly.unit((u1.base, u1.base))


def test_coproduct_product_of_generators(sl2):
    # Delta(alpha*beta) computed by multiplying the generator tables and
    # reducing; frozen expected value from the brute-force expansion:
    # q^-1 a^2 (x) ba + (q^-2+1) ba (x) bg + q^-1 ba (x) 1 + b^2 (x) gd
    H = sl2.base
    p = H.normal_word(("alpha", "beta"))
    got = sl2.coproduct(p)
    direct = sl2.coproduct(NCPoly.gen("alpha")).tensor_mul(
        sl2.coproduct(NCPoly.gen("beta")))
    assert got == direct
    expected = (
        TensorPoly.from_polys((H, H), NCPoly.word(("alpha", "alpha"), qi),
                              NCPoly.word(("beta", "alpha")))
        + TensorPoly.from_polys((H, H),
                                NCPoly.word(("beta", "alpha"), qi * qi + one),
                                NCPoly.word(("beta", "gamma")))
        + TensorPoly.from_polys((H, H), NCPoly.word(("beta", "alpha"), qi),
                                NCPoly.one())
        + TensorPoly.from_polys((H, H), NCPoly.word(("beta", "beta")),
                                NCPoly.word(("gamma", "delta"))))
    assert got == expected


def test_antipode_values(sl2, u1):
    assert sl2.antipode(NCPoly.gen("alpha")) == NCPoly.gen("delta")
    assert sl2.antipode(NCPoly.one()) == NCPoly.one()
    assert u1.antipode(NCPoly.gen("ti")) == NCPoly.gen("t")
    for n in range(1, 4):
        assert u1.antipode(NCPoly.word(("t",) * n)) == NCPoly.word(("ti",) * n)


def test_antipode_antimultiplicative(sl2):
    H = sl2.base
    for g1 in H.generators:
        for g2 in H.generators:
            lhs = sl2.antipode(H.normal_word((g1.name, g2.name)))
            rhs = H.multiply(sl2.antipode(NCPoly.gen(g2.name)),
                             sl2.antipode(NCPoly.gen(g1.name)))
            assert lhs == rhs, (g1.name, g2.name)


def test_antipode_inverse_roundtrip(sl2):
    H = sl2.base
    for w in H.irreducible_words(3):
        p = NCPoly.word(w)
        assert sl2.antipode_inv(sl2.antipode(p)) == H.reduce(p)
        assert sl2.antipode(sl2.antipode_inv(p)) == H.reduce(p)


def test_pi_epsilon(u1):
    t = NCPoly.gen("t")
    assert u1.pi_epsilon(t) == t - NCPoly.one()
    assert u1.pi_epsilon(NCPoly.one()) == NCPoly.zero()


def test_hopf_axioms_u1(u1):
    rep = u1.verify_hopf_axioms(max_word_len=6, example="u1")
    assert rep.ok(), rep.witnesses[:2]


def test_hopf_axioms_sl2(sl2):
    rep = sl2.verify_hopf_axioms(max_word_len=3, example="sl2q")
    assert rep.ok(), rep.witnesses[:2]


def test_regular_coaction_coinvariants_are_scalars(sl2):
    # Delta itself as a coaction of sl2 on its algebra: not diagonal, and
    # its coinvariants are the multiples of 1 (a in A with Delta(a) =
    # a (x) 1 gives a = eps(a) 1 by the counit law)
    ca = ComoduleAlgebra("sl2-regular", sl2.base, sl2, sl2.delta_tab)
    for n in (2, 3):
        assert ca.coinvariant_basis(n) == [NCPoly.one()]


def test_non_coassociative_coproduct_fails():
    # t -> t (x) (t + t^2) on torus's structure group
    H = build_example("torus").ca.H
    delta = dict(H.delta_tab)
    delta["t"] = TensorPoly.from_polys(
        (H.base, H.base), NCPoly.gen("t"),
        NCPoly.gen("t") + NCPoly.word(("t", "t")))
    bad = HopfPresentation(H.base, delta, H.eps_tab, H.s_tab, H.sinv_tab)
    rep = bad.verify_hopf_axioms(2, "mutant")
    assert rep.status == "fail"
    assert rep.witnesses[0].input == "coassoc(t)"


def test_mutated_antipode_fails(sl2):
    good = sl2
    bad_s = dict(good.s_tab)
    bad_s["alpha"] = NCPoly.gen("alpha")
    bad = HopfPresentation(good.base, good.delta_tab, good.eps_tab,
                           bad_s, good.sinv_tab)
    rep = bad.verify_hopf_axioms(max_word_len=1, example="mutated")
    assert not rep.ok()
    assert any("alpha" in w.input for w in rep.witnesses)
