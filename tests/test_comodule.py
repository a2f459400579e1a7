import itertools

import pytest

from qpbcalc.comodule import (
    BalancedTensor,
    TranslationData,
    canonical_triple,
    chi,
    chi_inv,
    collapse,
    multiply_balanced,
    sigma,
    sigma_inv,
    tau,
    tau_identity_suite,
    triple_map,
)
from qpbcalc.examples import build_example
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


def test_coinvariants_linear_solve_agrees(torus):
    ca, _ = torus
    direct = {tuple(next(iter(p.terms))) for p in ca.coinvariant_basis(3)}
    solved = ca._coinvariants_by_solve(3)
    words = set()
    for p in solved:
        words.update(p.terms)
    assert words == direct


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
    sign = Scalar.from_int(-1)
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


def test_sigma_inverse(torus, podles):
    for ca, td in (torus, podles):
        for g1 in ca.A.generators:
            for g2 in ca.A.generators:
                x = bt(ca, (g1.name,), (g2.name,))
                assert sigma_inv(sigma(x, td), td) == x
                assert sigma(sigma_inv(x, td), td) == x


def test_sigma_squared_torus(torus):
    ca, td = torus
    for g1 in ca.A.generators:
        for g2 in ca.A.generators:
            x = bt(ca, (g1.name,), (g2.name,))
            assert sigma(sigma(x, td), td) == x


def test_braid_equation(torus, podles):
    for ca, td in (torus, podles):
        gens = [g.name for g in ca.A.generators]
        s = lambda x: sigma(x, td)
        for a, b, c in itertools.product(gens, repeat=3):
            t3 = TensorPoly.from_polys(
                (ca.A,) * 3, NCPoly.gen(a), NCPoly.gen(b), NCPoly.gen(c))
            lhs = triple_map(ca, triple_map(ca, triple_map(
                ca, t3, s, 0), s, 1), s, 0)
            rhs = triple_map(ca, triple_map(ca, triple_map(
                ca, t3, s, 1), s, 0), s, 1)
            assert canonical_triple(ca, lhs) == canonical_triple(ca, rhs), \
                (a, b, c)


def test_hexagons(torus, podles):
    for ca, td in (torus, podles):
        A = ca.A
        gens = [g.name for g in A.generators]
        for a, b, c in itertools.product(gens, repeat=3):
            # sigma(xy (x) z) = (id (x) m)(sigma (x) id)(id (x) sigma)
            xy = A.normal_word((a, b))
            lhs1 = TensorPoly.zero((A, A))
            for w, cc in xy.terms.items():
                lhs1 = lhs1 + sigma(bt(ca, w, (c,)), td).raw.scale(cc)
            t3 = TensorPoly.from_polys(
                (A,) * 3, NCPoly.gen(a), NCPoly.gen(b), NCPoly.gen(c))
            step = triple_map(ca, t3, lambda x: sigma(x, td), 1)
            step = triple_map(ca, step, lambda x: sigma(x, td), 0)
            rhs1 = TensorPoly.zero((A, A))
            for (w1, w2, w3), cc in step.terms.items():
                rhs1 = rhs1 + TensorPoly.from_polys(
                    (A, A), NCPoly.word(w1),
                    A.normal_word(w2 + w3)).scale(cc)
            assert BalancedTensor(ca, raw=lhs1) == BalancedTensor(ca, raw=rhs1)
            # sigma(x (x) yz) = (m (x) id)(id (x) sigma)(sigma (x) id)
            yz = A.normal_word((b, c))
            lhs2 = TensorPoly.zero((A, A))
            for w, cc in yz.terms.items():
                lhs2 = lhs2 + sigma(bt(ca, (a,), w), td).raw.scale(cc)
            step = triple_map(ca, t3, lambda x: sigma(x, td), 0)
            step = triple_map(ca, step, lambda x: sigma(x, td), 1)
            rhs2 = TensorPoly.zero((A, A))
            for (w1, w2, w3), cc in step.terms.items():
                rhs2 = rhs2 + TensorPoly.from_polys(
                    (A, A), A.normal_word(w1 + w2),
                    NCPoly.word(w3)).scale(cc)
            assert BalancedTensor(ca, raw=lhs2) == BalancedTensor(ca, raw=rhs2)


def test_balanced_product_pullback(torus):
    # chi is an algebra morphism for the pulled-back product
    ca, td = torus
    x = bt(ca, ("u",), ("v",))
    y = bt(ca, ("vi",), ("ui",))
    z = multiply_balanced(x, y)
    assert z.canonical == x.canonical.tensor_mul(y.canonical)
