import functools
import os

import pytest
from hypothesis import given, settings, strategies as st

from qpbcalc.braidext import chi_piece
from qpbcalc.comodule import TruncationError
from qpbcalc.examples import EXAMPLE_NAMES, build_example
from qpbcalc.ncalg import (
    AlgebraPresentation,
    BudgetExceededError,
    GeneratorSymbol,
    INHOMOGENEOUS,
    NCAlgError,
    NCPoly,
    UndeclaredSymbolError,
    memo,
    same_key,
    scalars_of,
)
from qpbcalc.scalars import Scalar

from scalar_product import brute_force_reduce

q = Scalar.param("q")
qi = Scalar.param("q", -1)
L = Scalar.param("L")
one = Scalar.one()


@pytest.fixture(scope="module")
def torus():
    return build_example("torus").ca.A


@pytest.fixture(scope="module")
def sl2():
    return build_example("podles").ca.A


# -- reduce -------------------------------------------------------------------

def test_torus_basic_relation(torus):
    assert torus.normal_word(("v", "u")) == NCPoly.word(("u", "v"), L)


def test_inverse_pair_rule(torus):
    assert torus.normal_word(("u", "ui")) == NCPoly.one()
    assert torus.normal_word(("ui", "u")) == NCPoly.one()


def test_sl2_chained_determinant(sl2):
    # delta*alpha = alpha*delta + (q - q^-1) beta*gamma with
    # alpha*delta = 1 + q^-1 beta*gamma collapses to 1 + q beta*gamma
    got = sl2.normal_word(("delta", "alpha"))
    expected = NCPoly.one() + NCPoly.word(("beta", "gamma"), q)
    assert got == expected


def test_reduce_matches_brute_force_oracle(sl2, torus):
    words = [("delta", "alpha"), ("alpha", "delta", "alpha"),
             ("delta", "delta", "alpha"), ("gamma", "beta", "alpha", "delta")]
    for w in words:
        p = NCPoly.word(w)
        for seed in range(3):
            assert brute_force_reduce(sl2, p, seed) == sl2.reduce(p), w
    words = [("v", "u"), ("v", "v", "u"), ("vi", "u", "v", "ui")]
    for w in words:
        p = NCPoly.word(w)
        for seed in range(3):
            assert brute_force_reduce(torus, p, seed) == torus.reduce(p), w


# -- the flat normal-form engine against brute force --------------------------


def _fresh(pres):
    """A copy of pres with an empty normal-form memo."""
    return AlgebraPresentation(pres.name, pres.generators,
                               [(r.lhs, r.rhs) for r in pres.rules])


@functools.cache
def _presentation(name, side):
    """A fresh copy of the algebra A or H of a shipped bundle, made once per
    module, so the memo fills only through the words this suite draws."""
    ca = build_example(name).ca
    return _fresh(ca.A if side == "A" else ca.H.base)


def _read_back(pres, w):
    """flat_normal_word(w) as Scalar terms {word: Scalar}, by from_flat."""
    return scalars_of(dict(pres.flat_normal_word(w)), same_key)


@st.composite
def bundle_words(draw):
    name = draw(st.sampled_from(EXAMPLE_NAMES))
    side = draw(st.sampled_from(["A", "H"]))
    pres = _presentation(name, side)
    names = [g.name for g in pres.generators]
    n = draw(st.integers(min_value=0, max_value=5))
    return pres, tuple(draw(st.sampled_from(names)) for _ in range(n))


@given(bundle_words(), st.integers(min_value=0, max_value=2))
@settings(max_examples=200, deadline=None)
def test_flat_normal_word_matches_brute_force(case, seed):
    # every bundle's A and H, crossed_demo's over two parameters (mu, q)
    pres, w = case
    nf = pres.flat_normal_word(w)
    assert isinstance(nf, tuple)
    assert _read_back(pres, w) == brute_force_reduce(
        pres, NCPoly.word(w), seed).terms, (pres.name, w)
    assert pres.normal_word(w).terms == _read_back(pres, w)


def test_crossed_demo_has_two_parameters():
    names = set()
    for side in "AH":
        for rule in _presentation("crossed_demo", side).rules:
            for c in rule.rhs.terms.values():
                names.update(c.names)
    assert {"mu", "q"} <= names


def test_flat_normal_word_carries_coefficients_with_no_flat_form():
    # 1/2 and 1/(q + 1) have no flat form: the rule's flat side and the
    # memoised normal forms carry them as Scalars
    half = Scalar.from_fraction(2) ** -1
    inv = Scalar.one() / (q + Scalar.one())
    pres = AlgebraPresentation(
        "carried", [GeneratorSymbol("x"), GeneratorSymbol("y")],
        [(("y", "x"), NCPoly.word(("x", "y"), half)
          + NCPoly.word(("x",), inv) + NCPoly.word(("y",), q))])
    (rule,) = pres.rules
    assert any(type(c) is not int for _, c in rule.flat_rhs)
    carried = False
    for n in range(5):
        for i in range(2 ** n):
            w = tuple("xy"[(i >> k) & 1] for k in range(n))
            assert _read_back(pres, w) == brute_force_reduce(
                pres, NCPoly.word(w)).terms, w
            assert pres.normal_word(w).terms == _read_back(pres, w)
            carried |= any(type(c) is not int
                           for _, c in pres.flat_normal_word(w))
    assert carried


def test_flat_normal_word_drops_a_cancelled_key():
    # z -> q x - y + 1 and y -> q x: the two paths to x cancel at the
    # exponent of q, so no term of x is kept
    x, y, z = (GeneratorSymbol(g) for g in "xyz")
    pres = AlgebraPresentation("cancel", [x, y, z], [
        (("z",), NCPoly.word(("x",), q) - NCPoly.word(("y",))
         + NCPoly.one()),
        (("y",), NCPoly.word(("x",), q))])
    assert pres.flat_normal_word(("z",)) == ((((), 0), 1),)
    assert pres.flat_normal_word(("x", "z")) == (((("x",), 0), 1),)
    for w in [("z",), ("x", "z"), ("z", "z")]:
        assert _read_back(pres, w) == brute_force_reduce(
            pres, NCPoly.word(w)).terms, w


def test_flat_normal_word_hit_returns_the_stored_tuple(torus):
    pres = _fresh(torus)
    w = ("vi", "u", "v", "ui")
    first = pres.flat_normal_word(w)
    assert pres._nf_cache[w] is first
    assert pres.flat_normal_word(w) is first
    # the NCPoly boundary reads the same memo and adds no entry
    size = len(pres._nf_cache)
    assert pres.normal_word(w).terms == _read_back(pres, w)
    assert pres.reduce(NCPoly.word(w)) == pres.normal_word(w)
    assert len(pres._nf_cache) == size


def test_undeclared_symbol(torus):
    with pytest.raises(UndeclaredSymbolError):
        torus.reduce(NCPoly.word(("w",)))


def test_budget_guard(sl2, monkeypatch):
    # a fresh presentation has no normal forms memoised; building the
    # bundle validates it, which cannot run under a budget of 1
    podles = build_example("podles").ca.A
    fresh = AlgebraPresentation(podles.name, podles.generators,
                                [(r.lhs, r.rhs) for r in podles.rules])
    monkeypatch.setenv("QPBCALC_REDUCE_BUDGET", "1")
    with pytest.raises(BudgetExceededError):
        fresh.reduce(NCPoly.word(("delta", "delta", "alpha", "alpha")))


def test_rule_orientation_validated():
    # rhs not smaller than lhs must be rejected at construction
    with pytest.raises(NCAlgError):
        AlgebraPresentation(
            "bad", [GeneratorSymbol("x"), GeneratorSymbol("y")],
            [(("x", "y"), NCPoly.word(("y", "x", "x")))])


# -- multiply -----------------------------------------------------------------

def test_multiply_unit(torus):
    p = torus.reduce(NCPoly.word(("u", "v")) + NCPoly.word(("vi",), L))
    assert torus.multiply(NCPoly.one(), p) == p
    assert torus.multiply(p, NCPoly.one()) == p


def test_multiply_stable_under_rereduction(torus):
    uv = NCPoly.word(("u", "v"))
    p = torus.multiply(uv, uv)
    assert torus.reduce(p) == p


def test_sl2_manin_relation(sl2):
    # beta*alpha = q*alpha*beta as algebra elements
    lhs = sl2.multiply(NCPoly.gen("beta"), NCPoly.gen("alpha"))
    rhs = sl2.reduce(NCPoly.word(("alpha", "beta"), q))
    assert lhs == rhs


def test_multiply_associative_on_generator_triples(torus, sl2):
    for pres in (torus, sl2):
        gens = [NCPoly.gen(g.name) for g in pres.generators]
        for a in gens:
            for b in gens:
                for c in gens:
                    assert pres.multiply(pres.multiply(a, b), c) == \
                        pres.multiply(a, pres.multiply(b, c))


# -- weight ------------------------------------------------------------------

def test_weights(torus, sl2):
    assert sl2.weight(sl2.reduce(NCPoly.word(("alpha", "beta")))) == 0
    assert torus.weight(NCPoly.word(("u", "v"))) == 0
    assert torus.weight(NCPoly.gen("u") + NCPoly.gen("v")) == INHOMOGENEOUS
    assert sl2.weight(NCPoly.word(("gamma", "alpha"))) == 2


# -- confluence ---------------------------------------------------------------

def test_torus_confluent(torus):
    rep = torus.confluence_check(max_overlap_len=4)
    assert rep.ok(), rep.witnesses


def test_sl2_confluent(sl2):
    rep = sl2.confluence_check(max_overlap_len=5)
    assert rep.ok(), rep.witnesses


def test_u1_and_2var_confluent():
    assert build_example("u1_q").ca.A.confluence_check(4).ok()
    assert build_example("classical_t2").ca.A.confluence_check(4).ok()


def test_inconsistent_system_reported():
    pres = AlgebraPresentation(
        "broken", [GeneratorSymbol("x"), GeneratorSymbol("y")],
        [(("x", "y"), NCPoly.one()),
         (("x", "y"), NCPoly.one().scale(Scalar.from_fraction(2)))])
    rep = pres.confluence_check(4)
    assert not rep.ok()
    assert len(rep.witnesses) == 1


# -- PBW bases ----------------------------------------------------------------

def brute_irreducible(pres, max_len):
    """Independent scan: enumerate every word, keep those without a redex."""
    out = {()}
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for g in pres.generators:
                nxt.append(w + (g.name,))
        for w in nxt:
            if all(pres._find_redex(w[i:j]) is None or (i, None) == (None, j)
                   for i in range(len(w)) for j in range(i + 1, len(w) + 1)):
                if pres._find_redex(w) is None:
                    out.add(w)
        frontier = nxt
    return {w for w in out if pres._find_redex(w) is None}


def test_torus_pbw(torus):
    got = set(torus.irreducible_words(4))
    expected = set()
    for a in range(-4, 5):
        for b in range(-4, 5):
            if abs(a) + abs(b) <= 4:
                wu = ("u",) * a if a >= 0 else ("ui",) * (-a)
                wv = ("v",) * b if b >= 0 else ("vi",) * (-b)
                expected.add(wu + wv)
    assert got == expected
    scan = {w for w in brute_irreducible(torus, 4)}
    assert got == scan


def test_sl2_pbw(sl2):
    got = set(sl2.irreducible_words(4))
    expected = set()
    for n in range(5):
        for j in range(n + 1):
            for k in range(n - j + 1):
                i = n - j - k
                expected.add(("beta",) * j + ("gamma",) * k + ("alpha",) * i)
                if i >= 1:
                    expected.add(("beta",) * j + ("gamma",) * k + ("delta",) * i)
    assert got == expected
    # per-length dimensions match the standard quantum-sphere-bundle counts
    for n in range(5):
        count = sum(1 for w in got if len(w) == n)
        from math import comb
        assert count == comb(n + 2, 2) + comb(n + 1, 2)


# -- randomized idempotence ----------------------------------------------------

@st.composite
def torus_words(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    return tuple(draw(st.sampled_from(["u", "ui", "v", "vi"])) for _ in range(n))


@given(torus_words())
@settings(max_examples=150, deadline=None)
def test_reduce_idempotent(w):
    pres = build_example("torus").ca.A
    p = pres.reduce(NCPoly.word(w))
    assert pres.reduce(p) == p


# -- the memo helper --------------------------------------------------------------

class _Counted:
    def __init__(self):
        self._one_cache = {}
        self._two_cache = {}
        self.fills = 0

    @memo("_one_cache")
    def one(self, a):
        self.fills += 1
        return [a]

    @memo("_two_cache")
    def two(self, a, b):
        self.fills += 1
        return [a, b]


def test_memo_hit_returns_the_stored_object():
    o = _Counted()
    x = o.one(("a",))
    assert o.one(("a",)) is x
    y = o.two(("a",), ("b",))
    assert o.two(("a",), ("b",)) is y
    assert o.fills == 2
    # on the calculus: a product table and a coaction of a monomial
    cc = build_example("torus").cc
    oa = cc.omega_A
    # both keyed by monomial ids
    m = oa.intern((("u",), ()))
    assert oa.mono_mul(m, m) is oa.mono_mul(m, m)
    v = oa.intern((("v",), ()))
    assert cc._delta_mono(v) is cc._delta_mono(v)


def test_memo_keys_one_argument_by_it_and_two_by_the_pair():
    o = _Counted()
    x, y = o.one(("a",)), o.two(("a",), ("b",))
    assert o._one_cache == {("a",): x}
    assert o._two_cache == {(("a",), ("b",)): y}
    cc = build_example("torus").cc
    oa = cc.omega_A
    key = (oa.intern((("u",), ())), oa.intern((("v",), ())))
    piece = chi_piece(cc, key)
    assert cc._chibul_cache[key] is piece
    uv = oa.intern((("u", "v"), ()))
    coact = cc._delta_mono(uv)
    assert cc._delta_cache[uv] is coact
    acted = oa.act_word((), ("u",))
    assert oa._act_cache[((), ("u",))] is acted
    tau = cc.td.tau_word(("t",))
    assert cc.td._cache[("t",)] is tau


def test_memo_stores_nothing_when_the_fill_raises():
    td = build_example("torus").td
    before = dict(td._cache)
    with pytest.raises(TruncationError):
        td.tau_word(("nope",))
    assert td._cache.keys() == before.keys()
    assert all(td._cache[w] is t for w, t in before.items())
    with pytest.raises(TruncationError):
        td.tau_word(("t", "nope"))
    assert ("t", "nope") not in td._cache
    assert ("nope",) not in td._cache


def test_memo_takes_one_or_two_arguments():
    with pytest.raises(TypeError):
        memo("_cache")(lambda owner, a, b, c: None)
