import json
import pathlib
from fractions import Fraction

import pytest

from qpbcalc import calculus, linalg
from qpbcalc.calculus import (
    Element,
    GradedTensor,
    bc_coproduct,
    cartan_maurer,
    cartan_maurer_equation_check,
    graded_antipode,
    lambda_element,
    max_prolongation_degree2,
    pi_lambda,
    to_lambda,
)
from qpbcalc.cli import main
from qpbcalc.examples import EXAMPLE_NAMES, build_example
from qpbcalc.fileformat import parse
from qpbcalc.ncalg import NCPoly, add_term, flat_of, scalars_of
from qpbcalc.scalars import Scalar, residue_point
from scalar_product import ScalarProduct

q = Scalar.param("q")
qi = Scalar.param("q", -1)
L = Scalar.param("L")
Li = Scalar.param("L", -1)
one = Scalar.one()
DATA = pathlib.Path(__file__).resolve().parents[1] / "src/qpbcalc/data"


@pytest.fixture(scope="module")
def u1q():
    return build_example("u1_q").omega_A


@pytest.fixture(scope="module")
def torus_calc():
    return build_example("torus").omega_A


@pytest.fixture(scope="module")
def sl2_calc():
    return build_example("podles").omega_A


@pytest.fixture(scope="module")
def two_var():
    return build_example("classical_t2").omega_A


# -- normal form / right action -------------------------------------------------

def test_move_coefficients_left(torus_calc, sl2_calc):
    got = torus_calc.mul(torus_calc.form("du"),
                         torus_calc.of_poly(NCPoly.gen("v")))
    assert got == torus_calc.of_poly(NCPoly.gen("v", Li), ("du",))
    got2 = sl2_calc.mul(sl2_calc.form("ep"),
                        sl2_calc.of_poly(NCPoly.gen("alpha")))
    assert got2 == sl2_calc.of_poly(NCPoly.gen("alpha", q), ("ep",))


def test_unit_acts_trivially(sl2_calc):
    assert sl2_calc.mul(sl2_calc.unit(), sl2_calc.form("e0")) == \
        sl2_calc.form("e0")


# -- differential ----------------------------------------------------------------

def test_d_of_unit(torus_calc):
    assert torus_calc.d(torus_calc.unit()).is_zero()


def test_q_difference_formula(u1q):
    # d(t^2) = (1+q) t dt, the q-difference quotient at work
    got = u1q.d_poly(NCPoly.word(("t", "t")))
    assert got == u1q.of_poly(NCPoly.gen("t", one + q), ("dt",))
    # d(t^n) = [n]_q t^(n-1) dt against the quotient formula oracle
    for n in range(1, 5):
        got = u1q.d_poly(NCPoly.word(("t",) * n))
        bracket = sum((q ** k for k in range(1, n)), one)
        assert got == u1q.of_poly(NCPoly.word(("t",) * (n - 1), bracket),
                                  ("dt",))


def test_d_e0_table(sl2_calc):
    got = sl2_calc.d(sl2_calc.form("e0"))
    assert got == sl2_calc.form("ep", "em").scale(q ** 3)


def test_d_squared_zero(u1q, torus_calc, sl2_calc, two_var):
    for calc in (u1q, torus_calc, sl2_calc, two_var):
        rep = calc.calculus_check(max_word_len=2, example=calc.name)
        assert rep.ok(), [str(w.input) for w in rep.witnesses[:3]]


def test_wrong_right_action_rule_fails_the_calculus_check():
    # du . v gains a v*dv term; the parser's structural validation rejects
    # this mutant in a file, so it is made on a torus parsed in-process.
    # The check multiplies du by each rule's word unreduced, so the rules
    # whose words move v past du now disagree with their right sides.
    text = (DATA / "torus.qpb").read_text(encoding="utf-8")
    oa = parse(text).omega_A
    oa.raction[("du", "v")] = oa.raction[("du", "v")] + oa.of_poly(
        NCPoly.gen("v"), ("dv",))
    oa._act_cache.clear()
    oa._mono_mul_cache.clear()
    rep = oa.calculus_check(2)
    assert rep.status == "fail"
    assert [w.input for w in rep.witnesses] == [
        "raction(du,v*u)", "raction(du,v*ui)", "raction(du,v*vi)",
        "raction(du,vi*v)"]


def test_d_squared_on_sl2_generators(sl2_calc):
    # the three-dimensional calculus closes: dd(f) = 0 needs the e-tables
    for g in ("alpha", "beta", "gamma", "delta"):
        got = sl2_calc.d(sl2_calc.d_poly(NCPoly.gen(g)))
        assert got.is_zero(), g


# -- wedge ------------------------------------------------------------------------

def test_wedge_relations(sl2_calc, torus_calc):
    ep, em = sl2_calc.form("ep"), sl2_calc.form("em")
    lhs = sl2_calc.mul(ep, em)
    rhs = sl2_calc.mul(em, ep).scale(-(qi ** 2))
    assert lhs == rhs
    du = torus_calc.form("du")
    assert torus_calc.mul(du, du).is_zero()
    w = torus_calc.form("du", "dv")
    assert torus_calc.mul(w, torus_calc.unit()) == w


def test_top_degree_truncation(torus_calc):
    vol = torus_calc.form("du", "dv")
    assert torus_calc.mul(vol, torus_calc.form("du")).is_zero()


# -- Cartan-Maurer -----------------------------------------------------------------

def test_cartan_maurer_values(u1q):
    t = NCPoly.gen("t")
    assert cartan_maurer(u1q, t) == u1q.of_poly(NCPoly.gen("ti"), ("dt",))
    assert cartan_maurer(u1q, NCPoly.one()).is_zero()


def test_cartan_maurer_equation(u1q, two_var):
    assert cartan_maurer_equation_check(u1q, 4).ok()
    assert cartan_maurer_equation_check(two_var, 3).ok()


# -- coinvariant forms --------------------------------------------------------------

def test_lambda_basis_u1(u1q):
    def lam(k):
        return [lambda_element(u1q, F) for F in u1q.basis_forms(k)]

    lam1 = lam(1)
    assert len(lam1) == 1
    assert lam1[0] == u1q.of_poly(NCPoly.gen("ti"), ("dt",))
    assert lam(0) == [u1q.unit()]
    assert lam(2) == []


def test_pi_lambda_collapses(u1q):
    x = u1q.of_poly(NCPoly.word(("t", "t"), q), ("dt",))
    assert pi_lambda(u1q, x) == {("dt",): q}


def test_to_lambda_roundtrip(two_var):
    el = lambda_element(two_var, ("dt", "ds"))
    dec = to_lambda(two_var, el)
    assert dec == {("dt", "ds"): one}


# -- maximal prolongation -------------------------------------------------------------

def test_prolongation_u1(u1q):
    rep = max_prolongation_degree2(u1q, 3)
    assert rep.ok() and rep.status == "pass", rep.witnesses


def test_prolongation_torus(torus_calc):
    rep = max_prolongation_degree2(torus_calc, 2)
    assert rep.ok(), rep.witnesses


def test_prolongation_classical(two_var):
    rep = max_prolongation_degree2(two_var, 2)
    assert rep.ok(), rep.witnesses


def test_prolongation_podles(capsys):
    # the one bundle whose prolongation runs elimination over Q(q) on
    # rational functions: the report must match the frozen one
    fields = ("status", "checks", "truncation", "witnesses", "notes")
    root = pathlib.Path(__file__).resolve().parents[1]
    frozen = json.loads((root / "perfbench/expected.json").read_text())
    code = main(["check", "prolong", "--example", "podles", "--format",
                 "json"])
    got = json.loads(capsys.readouterr().out)
    assert code == 0
    assert ([{f: r[f] for f in fields} for r in got]
            == [{f: r[f] for f in fields} for r in frozen["podles:prolong"]])


@pytest.mark.parametrize("n", [4, 5])
def test_prolongation_podles_at_deeper_truncations(sl2_calc, n):
    # the witnesses lie among the short pairs, so the deeper truncations
    # give the report of length 3, at a cost close to it
    def fields(rep):
        return rep.status, rep.checks, rep.notes, [
            (w.input, w.ref) for w in rep.witnesses]

    rep = max_prolongation_degree2(sl2_calc, n)
    assert rep.truncation == {"max_word_len": n}
    assert fields(rep) == fields(max_prolongation_degree2(sl2_calc, 3))
    assert fields(rep) == ("pass", 6, [], [])


def test_corrupted_span_witness_is_not_a_pass(torus_calc, monkeypatch):
    real = calculus.span_witnesses

    def corrupted(row, n, targets):
        out = real(row, n, targets)
        # +1 at a pair the witness names: that pair's row is nonzero, so
        # the combination no longer gives (0 || relation)
        lam = out[0]
        i = min(lam)
        lam[i] = lam[i] + one
        return out

    monkeypatch.setattr(calculus, "span_witnesses", corrupted)
    rep = max_prolongation_degree2(torus_calc, 2)
    assert rep.status != "pass"
    assert [w.ref for w in rep.witnesses] == ["span certificate"]


def test_corrupted_echelon_row_is_not_a_pass(torus_calc, monkeypatch):
    real = linalg._echelon
    du2 = (1, ((), ("du", "du")))
    calls = []
    fp_calls = []

    def corrupted(rows, pivot, field, relations=False, pending=()):
        echelon = real(rows, pivot, field, relations, pending)
        if field is not linalg._QQ:
            fp_calls.append(pivot)
            return echelon
        calls.append(pivot)
        basis = echelon[0]
        # add the last basis row to the one pivoting at du(x)du: the basis
        # still spans the same rows in echelon form, so every span answer
        # is unchanged, but its recorded steps no longer build it
        j = next(j for j, b in enumerate(basis) if b[0] == du2)
        p, row, i, scale, steps = basis[j]
        row = dict(row)
        for k, a in basis[-1][1].items():
            add_term(row, k, a)
        basis[j] = (p, row, i, scale, steps)
        return echelon

    monkeypatch.setattr(linalg, "_echelon", corrupted)
    rep = max_prolongation_degree2(torus_calc, 2)
    assert rep.status != "pass"
    assert [(w.input, w.ref) for w in rep.witnesses] == [
        ("du(x)du", "span certificate")]
    # the corrupted echelon is the one exact solve, on the rows found at
    # the residue point, and its witness is the one the certificate judged
    assert len(calls) == 1
    # the rows were found by the one F_p pass, through the same core
    assert len(fp_calls) == 1


def test_corrupted_residue_records_are_not_a_pass(torus_calc, monkeypatch):
    # dv(x)du + L0 du(x)dv, with L0 the residue point of L: true at the
    # residue point, false over Q(L)
    c = Scalar.from_fraction(-residue_point("L"))
    monkeypatch.setitem(torus_calc.swap, ("dv", "du"), c)

    def verdict():
        rep = max_prolongation_degree2(torus_calc, 2)
        return rep.status, rep.checks, [(w.input, w.ref)
                                        for w in rep.witnesses]

    with monkeypatch.context() as m:
        # no rows found at the residue point: the full exact elimination
        m.setattr(linalg, "_support_mod_p", lambda row, n, targets: None)
        exact = verdict()
    assert exact == ("inconclusive", 3, [
        (f"dv(x)du - ({c})*du(x)dv", "larger truncation may be required")])
    assert verdict() == exact

    real = linalg._echelon
    corrupted_fp = []

    def corrupted(rows, pivot, field, relations=False, pending=()):
        echelon = real(rows, pivot, field, relations, pending)
        if field is linalg._FP and echelon is not None:
            # every record names input row 0 and no steps, so every support
            # found at the residue point is wrong
            echelon[0][:] = [(p, row, 0, scale, [])
                             for p, row, _, scale, _ in echelon[0]]
            corrupted_fp.append(len(echelon[0]))
        return echelon

    monkeypatch.setattr(linalg, "_echelon", corrupted)
    assert verdict() == exact
    # the F_p pass ran through the corrupted records, so the verdict is
    # not the exact one merely because the records were never read
    assert corrupted_fp and all(corrupted_fp)


# -- the flat pair rows against the Scalar builder they replaced ---------------


def reference_pair_row(product, a, b):
    """(a db || da (x) db) built in Scalar arithmetic by the ScalarProduct
    of the calculus, its columns tagged 0 and 1: the pair row
    max_prolongation_degree2 built before its rows were flat."""
    calc = product.calc
    d = {w: calc.d_poly(NCPoly.word(w)) for w in (a, b)}
    db = d[b].scalar_terms().items()
    a_db = {}
    for m2, c2 in db:
        product.expand(a_db, (a, ()), m2, c2)
    row = {(0, k): c for k, c in a_db.items()}
    for (w1, F1), c1 in d[a].scalar_terms().items():
        for (w2, F2), c2 in db:
            moved = product.act_word(F1, w2)
            for (w3, F3), c3 in moved.items():
                prod = product.normal_word(w1 + w3)
                for w4, c4 in prod.terms.items():
                    add_term(row, (1, (w4, F3 + F2)), c1 * c2 * c3 * c4)
    return row


@pytest.mark.parametrize("name, n", [
    ("u1_q", 3), ("torus", 2), ("classical_t2", 2), ("podles", 3)])
def test_flat_pair_rows_equal_the_scalar_rows(name, n, monkeypatch):
    calc = build_example(name).omega_A
    real = calculus.span_witnesses
    calls = []

    def spy(row, count, targets):
        targets = list(targets)
        out = real(row, count, targets)
        calls.append((row, count, targets, out))
        return out

    monkeypatch.setattr(calculus, "span_witnesses", spy)
    assert max_prolongation_degree2(calc, n).status == "pass"
    ((row, count, targets, got),) = calls
    words = list(calc.pres.irreducible_words(n))
    # shortest pairs first, a-major within a total length
    pairs = [(a, b) for k in range(2 * n + 1)
             for a in words for b in words if len(a) + len(b) == k]
    assert count == len(pairs)
    product = ScalarProduct(calc)
    reference = [reference_pair_row(product, a, b) for a, b in pairs]
    for i in range(count):
        assert scalars_of(row(i), lambda k: k) == reference[i], pairs[i]
    if name == "podles":
        # the rows of the elimination over Q(q): the same witnesses
        assert real(lambda i: flat_of(reference[i], lambda k: k), count,
                    targets) == got


# -- bicovariant coproduct and counterexample -------------------------------------------

def test_bc_coproduct_dt(u1q):
    got = bc_coproduct(u1q, u1q.form("dt"))
    want = (GradedTensor.of((u1q, u1q), u1q.form("dt"),
                            u1q.of_poly(NCPoly.gen("t")))
            + GradedTensor.of((u1q, u1q), u1q.of_poly(NCPoly.gen("t")),
                              u1q.form("dt")))
    assert got == want


def test_bc_coproduct_degree0_is_coproduct(u1q):
    got = bc_coproduct(u1q, u1q.of_poly(NCPoly.word(("t", "t"))))
    want = GradedTensor.of((u1q, u1q),
                           u1q.of_poly(NCPoly.word(("t", "t"))),
                           u1q.of_poly(NCPoly.word(("t", "t"))))
    assert got == want


def test_bc_coproduct_tds(two_var):
    tds = two_var.of_poly(NCPoly.gen("t"), ("ds",))
    ts = two_var.of_poly(NCPoly.word(("t", "s")))
    got = bc_coproduct(two_var, tds)
    want = (GradedTensor.of((two_var, two_var), tds, ts)
            + GradedTensor.of((two_var, two_var), ts, tds))
    assert got == want


def test_bc_bimodule_compatibility(two_var, u1q):
    # algebra-generator times form-letter pairs
    for calc in (two_var, u1q):
        H = calc.pres
        for g in H.generators:
            for f in calc.letters:
                net = GradedTensor.of(
                    (calc, calc),
                    Element.from_scalars(calc, {((g.name,), ()): one}),
                    calc.unit())
                dgen = bc_coproduct(calc, calc.of_poly(NCPoly.gen(g.name)))
                dform = bc_coproduct(calc, calc.form(f))
                lhs = bc_coproduct(
                    calc, calc.mul(calc.of_poly(NCPoly.gen(g.name)),
                                   calc.form(f)))
                assert lhs == dgen.wedge(dform), (g.name, f)
                rhs = bc_coproduct(
                    calc, calc.mul(calc.form(f),
                                   calc.of_poly(NCPoly.gen(g.name))))
                assert rhs == dform.wedge(dgen), (g.name, f)


def test_bc_fails_dga_property_on_tds(two_var):
    # the canonical bicovariant extension does not intertwine differentials
    tds = two_var.of_poly(NCPoly.gen("t"), ("ds",))
    lhs = bc_coproduct(two_var, two_var.d(tds))
    rhs = bc_coproduct(two_var, tds).d()
    assert lhs != rhs
    diff = lhs - rhs
    # the discrepancy is the mixed bidegree (1,1) part
    assert not diff.component((1, 1)).is_zero()
    assert diff.component((2, 0)).is_zero()
    assert diff.component((0, 2)).is_zero()


# -- graded antipode ----------------------------------------------------------------

def test_graded_antipode(u1q):
    # S(t^n dt) = d(t^-1) t^-n
    x = u1q.of_poly(NCPoly.gen("t"), ("dt",))
    got = graded_antipode(u1q, x)
    want = u1q.mul(u1q.d_poly(NCPoly.gen("ti")),
                   u1q.of_poly(NCPoly.gen("ti")))
    assert got == want
    # inverse property through the bicovariant convolution:
    # S(w_(1)) w_(2) = 0 in positive degree
    for f in u1q.letters:
        conv = u1q.zero()
        for key, c in bc_coproduct(u1q, u1q.form(f)).scalar_terms().items():
            w1 = Element.from_scalars(u1q, {key[0]: one})
            w2 = Element.from_scalars(u1q, {key[1]: one})
            conv = conv + u1q.mul(graded_antipode(u1q, w1), w2).scale(c)
        assert conv.is_zero(), f


# -- Koszul-signed graded tensors: ring axioms ------------------------------------

def test_graded_tensor_associativity_and_d(two_var, u1q):
    legs = (two_var, u1q)
    items = [
        GradedTensor.of(legs, two_var.form("dt"),
                        u1q.of_poly(NCPoly.gen("t"))),
        GradedTensor.of(legs, two_var.of_poly(NCPoly.gen("s")),
                        u1q.form("dt")),
        GradedTensor.of(legs, two_var.form("ds"),
                        u1q.of_poly(NCPoly.gen("ti"))),
    ]
    for a in items:
        for b in items:
            for c in items:
                assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
    for a in items:
        for b in items:
            x = a.wedge(b) + a - b
            assert x.d().d().is_zero()
            # graded Leibniz across legs
            lhs = a.wedge(b).d()
            deg = sum(len(F) for _, F in next(iter(a.scalar_terms())))
            sign = Scalar.from_fraction(-1) ** (deg % 2)
            rhs = a.d().wedge(b) + a.wedge(b.d()).scale(sign)
            assert lhs == rhs


def test_graded_antipode_antimultiplicative(two_var):
    # S(x ^ y) = (-1)^{|x||y|} S(y) ^ S(x) on one-form monomials
    x = two_var.of_poly(NCPoly.gen("t"), ("dt",))
    y = two_var.of_poly(NCPoly.gen("s"), ("ds",))
    lhs = graded_antipode(two_var, two_var.mul(x, y))
    rhs = two_var.mul(graded_antipode(two_var, y),
                      graded_antipode(two_var, x)).scale(
        Scalar.from_fraction(-1))
    assert lhs == rhs


def test_graded_antipode_degree1_matches_bicovariant_convolution(u1q):
    # -S(w_-1) w_0 S(w_1) on a one-form equals the reversal formula
    hopf = u1q.hopf
    for n in (-2, -1, 0, 1, 2):
        w = ("t",) * n if n >= 0 else ("ti",) * (-n)
        x = u1q.of_poly(NCPoly.word(w), ("dt",))
        # bicovariant tags of t^n dt: left t^(n+1), right t^(n+1)
        tagl = hopf.antipode(NCPoly.word(
            u1q.pres.normal_word(w + ("t",)).terms and
            next(iter(u1q.pres.normal_word(w + ("t",)).terms))))
        mid = x
        tagr = hopf.antipode(NCPoly.word(
            next(iter(u1q.pres.normal_word(w + ("t",)).terms))))
        bc = u1q.product(u1q.of_poly(tagl), mid,
                         u1q.of_poly(tagr)).scale(Scalar.from_fraction(-1))
        assert graded_antipode(u1q, x) == bc, n


def _written_out_product(product, x, y):
    """x y on Scalar terms {(w, F): c}, as the product is defined by the
    ScalarProduct of the calculus: the coefficient word of each right
    monomial moved left past the letters, the letters straightened, the
    words reduced (see scalar_product)."""
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            product.expand(out, m1, m2, c1 * c2)
    return out


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_mono_mul_matches_mul(name):
    # the product of forms reads the memoised monomial tables; both agree
    # with the product written out in Scalars on every pair of basis
    # monomials (words of length <= 2 times letter words of degree <= 2,
    # in both calculi of the bundle), the left one carrying a Fraction
    cc = build_example(name).cc
    half = Scalar.from_fraction(Fraction(1, 2))
    for calc in dict.fromkeys((cc.omega_A, cc.omega_H)):
        product = ScalarProduct(calc)
        monos = [(w, F) for w in calc.pres.irreducible_words(2)
                 for k in range(3) for F in calc.basis_forms(k)]
        for m1 in monos:
            for m2 in monos:
                table = calc.mono_mul(calc.intern(m1), calc.intern(m2))
                assert isinstance(table, tuple)
                want = _written_out_product(product, {m1: half},
                                            {m2: one})
                got = calc.mul(Element.from_scalars(calc, {m1: half}),
                               Element.from_scalars(calc, {m2: one}))
                assert got.scalar_terms() == want, (m1, m2)
                # the table holds flat terms ((monomial id, e), c) of the
                # product with coefficient 1, twice the one carrying 1/2
                assert scalars_of(dict(table), calc.monos.__getitem__) == {
                    m: c * 2 for m, c in want.items()}, (m1, m2)
