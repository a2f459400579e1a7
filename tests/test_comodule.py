import itertools

import pytest

from qpbcalc.braidext import (
    GradedBalancedTensor,
    canonical_triple_graded,
    chi_bullet,
    chi_bullet_inv,
    raw_pair,
    sigma_bullet,
    sigma_bullet_inv,
    sigma_piece,
    tau_bullet,
    triple_apply,
    triple_wedge,
)
from qpbcalc.calculus import GradedTensor
from qpbcalc.comodule import (
    BalancedTensor,
    ComoduleAlgebra,
    TranslationData,
    chi,
    chi_inv,
    collapse,
    sigma,
    tau,
    tau_identity_suite,
)
from qpbcalc.examples import EXAMPLE_NAMES, build_example
from qpbcalc.ncalg import NCPoly
from qpbcalc.scalars import Scalar, q_binomial
from qpbcalc.tensors import TensorPoly

q = Scalar.param("q")
qi = Scalar.param("q", -1)
L = Scalar.param("L")
Li = Scalar.param("L", -1)


def _comodule(name):
    bundle = build_example(name)
    return bundle.ca, bundle.td


@pytest.fixture(scope="module")
def torus():
    return _comodule("torus")


@pytest.fixture(scope="module")
def podles():
    return _comodule("podles")


@pytest.fixture(scope="module")
def u1():
    return _comodule("u1_q")


def test_coact_values(torus, podles):
    ca, _ = torus
    A, H = ca.A, ca.H.base
    assert ca.coact(NCPoly.gen("u")) == TensorPoly.from_polys(
        (A, H), NCPoly.gen("u"), NCPoly.gen("t"))
    assert ca.coact(NCPoly.one()) == TensorPoly.unit((A, H))
    ca2, _ = podles
    ab = ca2.A.normal_word(("alpha", "beta"))
    assert ca2.coact(ab) == TensorPoly.from_polys(
        (ca2.A, ca2.H.base), ab, NCPoly.one())


def test_comodule_validation(torus, podles, u1):
    for ca, _ in (torus, podles, u1):
        assert ca.validate(max_word_len=2).ok()


def test_non_coassociative_coaction_fails(torus):
    # u -> u (x) (t + t^2) is built directly, since parsing validates it;
    # the comodule suite names the broken identities
    ca, _ = torus
    A, Hb = ca.A, ca.H.base
    tab = dict(ca.coact_tab)
    tab["u"] = TensorPoly.from_polys(
        (A, Hb), NCPoly.gen("u"), NCPoly.gen("t") + NCPoly.word(("t", "t")))
    rep = ComoduleAlgebra("mutant", A, ca.H, tab).validate(3)
    assert rep.status == "fail"
    inputs = [w.input for w in rep.witnesses]
    assert "coassoc(u)" in inputs and "counit(u)" in inputs


def test_coinvariant_basis_torus(torus):
    ca, _ = torus
    words = {tuple(next(iter(p.terms))) for p in ca.coinvariant_basis(4)}
    assert words == {(), ("u", "v"), ("ui", "vi"),
                     ("u", "u", "v", "v"), ("ui", "ui", "vi", "vi")}


def test_coinvariant_basis_podles(podles):
    ca, _ = podles
    words = {tuple(next(iter(p.terms))) for p in ca.coinvariant_basis(2)}
    assert words == {(), ("beta", "alpha"), ("gamma", "delta"),
                     ("beta", "gamma")}


def test_coinvariant_basis_u1(u1):
    ca, _ = u1
    basis = ca.coinvariant_basis(4)
    assert len(basis) == 1 and basis[0] == NCPoly.one()


def test_chi_unit(torus):
    ca, _ = torus
    A, H = ca.A, ca.H.base
    assert chi(ca, TensorPoly.unit((A, A))) == TensorPoly.unit((A, H))


def test_chi_inv_values(torus, podles):
    ca, td = torus
    A, H = ca.A, ca.H.base
    got = chi_inv(ca, td, TensorPoly.from_polys(
        (A, H), NCPoly.one(), NCPoly.gen("t")))
    assert got.raw == TensorPoly.from_polys((A, A), NCPoly.gen("ui"),
                                            NCPoly.gen("u"))
    ca2, td2 = podles
    A2, H2 = ca2.A, ca2.H.base
    got2 = chi_inv(ca2, td2, TensorPoly.from_polys(
        (A2, H2), NCPoly.one(), NCPoly.gen("t")))
    want2 = (TensorPoly.from_polys((A2, A2), NCPoly.gen("delta"),
                                   NCPoly.gen("alpha"))
             + TensorPoly.from_polys((A2, A2), NCPoly.gen("beta", -q),
                                     NCPoly.gen("gamma")))
    assert got2.raw == want2


def test_chi_roundtrip(torus, podles, u1):
    for ca, td in (torus, podles, u1):
        A, H = ca.A, ca.H.base
        for wa in ca.A.irreducible_words(2):
            for wh in ca.H.base.irreducible_words(2):
                y = TensorPoly.from_polys((A, H), NCPoly.word(wa),
                                          NCPoly.word(wh))
                back = chi_inv(ca, td, y)
                assert back.canonical == y, (wa, wh)


def test_chi_shifts_coinvariants(torus):
    # a b (x)_B a' and a (x)_B b a' have the same chi image for coinvariant b
    ca, td = torus
    A = ca.A
    b = NCPoly.word(("u", "v"))
    for g1 in ("u", "vi"):
        for g2 in ("v", "ui"):
            left = TensorPoly.from_polys(
                (A, A), A.multiply(NCPoly.gen(g1), b), NCPoly.gen(g2))
            right = TensorPoly.from_polys(
                (A, A), NCPoly.gen(g1), A.multiply(b, NCPoly.gen(g2)))
            assert chi(ca, left) == chi(ca, right)


def test_tau_unit(torus):
    ca, td = torus
    assert tau(NCPoly.one(), td).raw == TensorPoly.unit((ca.A, ca.A))


def test_tau_torus_values(torus):
    ca, td = torus
    A = ca.A
    assert td.tau_word(("ti",)) == TensorPoly.from_polys(
        (A, A), NCPoly.gen("vi"), NCPoly.gen("v"))


def podles_tau_closed_form(ca, n):
    """Independent oracle: the deformed-binomial closed form for tau(t^n)."""
    A = ca.A
    out = TensorPoly.zero((A, A))
    base = q * q
    sign = Scalar.from_fraction(-1)
    for k in range(abs(n) + 1):
        m = abs(n)
        coeff = q_binomial(m, k, base) * (sign ** k)
        if n >= 0:
            coeff = coeff * (q ** k)
            left = ("beta",) * k + ("delta",) * (m - k)
            right = ("alpha",) * (m - k) + ("gamma",) * k
        else:
            coeff = coeff * (qi ** k)
            left = ("alpha",) * (m - k) + ("gamma",) * k
            right = ("beta",) * k + ("delta",) * (m - k)
        out = out + TensorPoly.from_polys(
            (A, A), A.normal_word(left), A.normal_word(right)).scale(coeff)
    return out


def test_tau_podles_qbinomial(podles):
    ca, td = podles
    for n in (1, 2, 3, -1, -2, -3):
        w = ("t",) * n if n > 0 else ("ti",) * (-n)
        got = td.tau_word(w)
        want = podles_tau_closed_form(ca, n)
        # same balanced tensor; the raw representatives agree here too
        assert BalancedTensor(ca, raw=got) == BalancedTensor(ca, raw=want), n


def test_tau_suites(torus, podles, u1):
    ca, td = torus
    assert tau_identity_suite(ca, td, 4, "torus").ok()
    ca, td = podles
    assert tau_identity_suite(ca, td, 3, "podles").ok()
    ca, td = u1
    assert tau_identity_suite(ca, td, 4, "u1_q").ok()


def test_cleft_inverse_agrees(torus):
    ca, td = torus
    A, H = ca.A, ca.H.base

    def cleave(u, v):
        # the torus cleaving: t^n -> u^n, ti^n -> v^n (inverse: ui^n, vi^n)
        return lambda w: NCPoly.word(tuple(u if g == "t" else v for g in w))

    j, jinv = cleave("u", "v"), cleave("ui", "vi")
    for wa in A.irreducible_words(2):
        for wh in H.irreducible_words(2):
            via_tau = chi_inv(ca, td, TensorPoly.from_polys(
                (A, H), NCPoly.word(wa), NCPoly.word(wh)))
            via_j = BalancedTensor(ca, raw=TensorPoly.from_polys(
                (A, A), A.multiply(NCPoly.word(wa), jinv(wh)), j(wh)))
            assert via_tau == via_j, (wa, wh)


# -- braiding ------------------------------------------------------------------

def bt(ca, w1, w2, c=None):
    t = TensorPoly.from_polys((ca.A, ca.A), NCPoly.word(w1), NCPoly.word(w2))
    if c is not None:
        t = t.scale(c)
    return BalancedTensor(ca, raw=t)


def test_sigma_torus_value(torus):
    ca, td = torus
    got = sigma(bt(ca, ("u",), ("v",)), td)
    assert got == bt(ca, ("v",), ("u",), Li)


def test_sigma_podles_value(podles):
    ca, td = podles
    got = sigma(bt(ca, ("alpha",), ("delta",)), td)
    want = BalancedTensor(ca, raw=(
        TensorPoly.from_polys((ca.A, ca.A), NCPoly.gen("delta"),
                              NCPoly.gen("alpha"))
        + TensorPoly.from_polys((ca.A, ca.A), NCPoly.gen("beta", qi - q),
                                NCPoly.gen("gamma"))))
    assert got == want


def test_sigma_unit(torus):
    ca, td = torus
    assert sigma(bt(ca, (), ()), td) == bt(ca, (), ())


def test_sigma_braided_commutativity(torus, podles):
    for ca, td in (torus, podles):
        for g1 in ca.A.generators:
            for g2 in ca.A.generators:
                x = bt(ca, (g1.name,), (g2.name,))
                assert collapse(sigma(x, td)) == collapse(x), (g1.name, g2.name)


def _graded_generators(cc):
    oa = cc.omega_A
    return [(g.name, oa.of_poly(NCPoly.gen(g.name)))
            for g in cc.ca.A.generators]


def _balanced(cc, raw):
    return GradedBalancedTensor(cc, raw=raw)


def test_sigma_inverse():
    for name in ("torus", "podles"):
        cc = build_example(name).cc
        gens = _graded_generators(cc)
        for (n1, x1), (n2, x2) in itertools.product(gens, repeat=2):
            x = raw_pair(cc, x1, x2)
            back = sigma_bullet_inv(cc, sigma_bullet(cc, x))
            fwd = sigma_bullet(cc, sigma_bullet_inv(cc, x))
            assert _balanced(cc, back) == _balanced(cc, x), (name, n1, n2)
            assert _balanced(cc, fwd) == _balanced(cc, x), (name, n1, n2)


def test_sigma_squared_torus(torus):
    ca, td = torus
    for g1 in ca.A.generators:
        for g2 in ca.A.generators:
            x = bt(ca, (g1.name,), (g2.name,))
            assert sigma(sigma(x, td), td) == x


def _generator_triples(cc):
    oa = cc.omega_A
    gens = _graded_generators(cc)
    for (a, x), (b, y), (c, z) in itertools.product(gens, repeat=3):
        yield (a, b, c), GradedTensor.of((oa,) * 3, x, y, z)


def test_braid_equation():
    for name in ("torus", "podles"):
        cc = build_example(name).cc
        for names, t3 in _generator_triples(cc):
            lhs = triple_apply(cc, triple_apply(cc, triple_apply(
                cc, t3, sigma_piece, 0), sigma_piece, 1), sigma_piece, 0)
            rhs = triple_apply(cc, triple_apply(cc, triple_apply(
                cc, t3, sigma_piece, 1), sigma_piece, 0), sigma_piece, 1)
            assert (canonical_triple_graded(cc, lhs)
                    == canonical_triple_graded(cc, rhs)), (name, names)


def test_hexagons():
    for name in ("torus", "podles"):
        cc = build_example(name).cc
        for names, t3 in _generator_triples(cc):
            # sigma(xy (x) z) = (id (x) m)(sigma (x) id)(id (x) sigma)
            lhs1 = sigma_bullet(cc, triple_wedge(cc, t3, 0))
            step = triple_apply(cc, t3, sigma_piece, 1)
            step = triple_apply(cc, step, sigma_piece, 0)
            rhs1 = triple_wedge(cc, step, 1)
            assert _balanced(cc, lhs1) == _balanced(cc, rhs1), (name, names)
            # sigma(x (x) yz) = (m (x) id)(id (x) sigma)(sigma (x) id)
            lhs2 = sigma_bullet(cc, triple_wedge(cc, t3, 1))
            step = triple_apply(cc, t3, sigma_piece, 0)
            step = triple_apply(cc, step, sigma_piece, 1)
            rhs2 = triple_wedge(cc, step, 0)
            assert _balanced(cc, lhs2) == _balanced(cc, rhs2), (name, names)


def test_balanced_product_pullback(torus):
    # chi is an algebra morphism for the product pulled back through chi:
    # chi(chi^-1(chi(x) chi(y))) = chi(x) chi(y)
    ca, td = torus
    x = bt(ca, ("u",), ("v",))
    y = bt(ca, ("vi",), ("ui",))
    product = x.canonical.tensor_mul(y.canonical)
    z = chi_inv(ca, td, product)
    assert chi(ca, z.raw) == product
    assert z == BalancedTensor(ca, canonical=product)


# -- the degree-zero maps are the graded maps restricted to degree zero ----------

def _degree_zero(t: TensorPoly) -> dict:
    """The terms of a plain tensor, keyed as graded-tensor monomials."""
    return {tuple((w, ()) for w in ws): c for ws, c in t.terms.items()}


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_graded_maps_restrict_to_degree_zero_maps(name):
    bundle = build_example(name)
    cc, ca, td = bundle.cc, bundle.ca, bundle.td
    A, H = ca.A, ca.H.base
    oa, oh = cc.omega_A, cc.omega_H
    awords = list(A.irreducible_words(2))
    hwords = list(H.irreducible_words(2))
    for wh in hwords:
        got = tau_bullet(cc, oh.of_poly(NCPoly.word(wh)))
        assert got.scalar_terms() == _degree_zero(td.tau_word(wh)), wh
    for w1, w2 in itertools.product(awords, repeat=2):
        x = TensorPoly.from_polys((A, A), NCPoly.word(w1), NCPoly.word(w2))
        gx = GradedTensor.from_scalars((oa, oa), _degree_zero(x))
        assert (sigma_bullet(cc, gx).scalar_terms()
                == _degree_zero(sigma(BalancedTensor(ca, raw=x), td).raw))
        assert chi_bullet(cc, gx).scalar_terms() == _degree_zero(chi(ca, x))
    for wa, wh in itertools.product(awords, hwords):
        y = TensorPoly.from_polys((A, H), NCPoly.word(wa), NCPoly.word(wh))
        gy = GradedTensor.from_scalars((oa, oh), _degree_zero(y))
        assert (chi_bullet_inv(cc, gy).raw.scalar_terms()
                == _degree_zero(chi_inv(ca, td, y).raw)), (wa, wh)
