"""The shared sparse-sum arithmetic of NCPoly, Element, TensorPoly and
GradedTensor: in-place accumulation agrees with the copying operators."""

import functools
from fractions import Fraction

import pytest

from qpbcalc.calculus import Element, GradedTensor
from qpbcalc.examples import build_example
from qpbcalc.ncalg import NCPoly, add_term
from qpbcalc.scalars import Scalar, flat_coeff
from qpbcalc.tensors import TensorPoly

q = Scalar.param("q")
one = Scalar.one()
half = Scalar.from_fraction(Fraction(1, 2))


def _sums(kind):
    """(a, b) of one kind whose keys overlap in one place."""
    bundle = build_example("torus")
    oa = bundle.omega_A
    A = bundle.ca.A
    ka, kb, kc = {
        "ncpoly": (("u",), ("v",), ("u", "v")),
        "element": ((("u",), ()), ((), ("du",)), (("v",), ("dv",))),
        "tensor": ((("u",), ()), ((), ("v",)), (("u",), ("v",))),
        "graded": (((("u",), ()), ((), ("dv",))),
                   (((), ("du",)), (("v",), ())),
                   (((), ()), ((), ()))),
    }[kind]
    ta = {ka: one, kb: q + one}
    tb = {kb: half, kc: -q}
    make = {
        "ncpoly": lambda t: NCPoly(t),
        "element": lambda t: Element.from_scalars(oa, t),
        "tensor": lambda t: TensorPoly((A, A), t),
        "graded": lambda t: GradedTensor.from_scalars((oa, oa), t),
    }[kind]
    return make(ta), make(tb)


KINDS = ("ncpoly", "element", "tensor", "graded")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("c", [q, -one, Scalar.zero(), None])
def test_add_scaled_matches_copying_sum(kind, c):
    a, b = _sums(kind)
    a0, b0 = _sums(kind)
    want = a0 + (b0 if c is None else b0.scale(c))
    before = dict(b.terms)
    got = a.add_scaled(b, c)
    assert got is a
    assert a == want and str(a) == str(want)
    assert b.terms == before


@pytest.mark.parametrize("kind", KINDS)
def test_add_scaled_drops_cancelled_terms(kind):
    a, _ = _sums(kind)
    a0, _ = _sums(kind)
    a.add_scaled(a0, -one)
    assert a.terms == {} and a.is_zero() and str(a) == "0"


def test_flat_sums_compare_by_value():
    # equal flat terms are equal sums; a carried Scalar and int terms of
    # the same value are equal through their Scalar terms, and other
    # values are not
    flat, _ = _sums("graded")
    assert flat == flat._new(dict(flat.terms))
    scalars = flat.scalar_terms()
    # its coefficient is q + 1
    kb = flat._key_to_id()(((((), ("du",)), (("v",), ()))))
    carried = flat._new({k: c for k, c in flat.terms.items()
                         if k[:-1] != kb})
    carried.terms[kb + (0,)] = q + one
    assert carried.terms != flat.terms
    assert carried == flat and flat == carried
    assert carried.scalar_terms() == scalars
    carried.terms[kb + (0,)] = q + half
    assert carried != flat and flat != carried
    # the same keys as the int terms, one value carried
    carried = flat._new(dict(flat.terms))
    carried.terms[kb + (0,)] = half
    assert carried.terms.keys() == flat.terms.keys()
    assert carried != flat and flat != carried


def test_non_flat_terms_are_rejected_at_construction():
    # a dict of Scalar terms, the input of from_scalars, or a key of the
    # wrong shape is refused when the sum is built, not deep in a product
    oa = build_example("torus").omega_A
    m, f = (("u",), ()), ((), ("du",))
    i, j = oa.intern(m), oa.intern(f)
    with pytest.raises(TypeError, match="Element.from_scalars"):
        Element(oa, {m: one})
    with pytest.raises(TypeError, match="GradedTensor.from_scalars"):
        GradedTensor((oa, oa), {(m, f): one})
    # nested (ids, e) keys, the wrong width, a non-int exponent or id
    for bad in ({((i,), 0): 1}, {(i, j, 0): 1}, {(i, half): 1},
                {(m, 0): 1}):
        with pytest.raises(TypeError, match="Element.from_scalars"):
            Element(oa, bad)
    for bad in ({((i, j), 0): 1}, {(i, 0): 1}, {(i, j, i, 0): 1},
                {(i, j, 0.0): 1}, {(i, m, 0): 1}):
        with pytest.raises(TypeError, match="GradedTensor.from_scalars"):
            GradedTensor((oa, oa), bad)
    # flat terms of the right width are adopted as given
    terms = {(i, j, 0): 1}
    assert GradedTensor((oa, oa), terms).terms is terms
    assert Element(oa, {(j, 0): 1}) == oa.form("du")
    assert GradedTensor((oa, oa), {}).is_zero() and Element(oa).is_zero()


def test_flat_sums_are_zero_by_value():
    # a carried Scalar can cancel against the terms of another exponent at
    # its key: r q at exponent 0 and -r at the exponent of q, r = 1/(1+q)
    oa = build_example("podles").omega_A
    p = Scalar.param("q")
    r = one / (one + p)
    unit = ((), ())
    x = (Element.from_scalars(oa, {unit: r * p})
         - Element.from_scalars(oa, {unit: r}).scale(p))
    ((e, _),) = flat_coeff(p)
    assert x.terms.keys() == {(0, 0), (0, e)}
    assert x == oa.zero() and x.is_zero()
    assert not (x + oa.unit()).is_zero()
    assert not Element.from_scalars(oa, {unit: r}).is_zero()
    assert oa.zero().is_zero() and not oa.unit().is_zero()


def _memo_snapshot(memo):
    # a mono_mul table is a tuple of flat ((monomial id, e), c) terms
    return {key: dict(getattr(value, "terms", value))
            for key, value in memo.items()}


@pytest.mark.parametrize("which", ["delta_bullet", "tau_bullet", "mono_mul",
                                   "mul", "chi_piece", "sigma_piece",
                                   "sigma_inv_piece"])
def test_memoised_pieces_are_not_accumulators(which):
    # Torus suites only feed these maps single-term inputs; a two-term
    # input with non-unit coefficients shows an accumulator that aliases
    # the memoised piece of its first term.
    from qpbcalc.braidext import (chi_bullet, sigma_bullet,
                                  sigma_bullet_inv, tau_bullet)

    cc = build_example("torus").cc
    oa, oh = cc.omega_A, cc.omega_H
    L = Scalar.param("L")
    pair = GradedTensor.from_scalars((oa, oa), {
        (((), ("du",)), (("v",), ())): L,
        ((("u",), ("dv",)), ((), ("du",))): -half})
    form = Element.from_scalars(
        oa, {((), ("du",)): L, (("v",), ("dv",)): -half})
    if which == "delta_bullet":
        x = form
        apply, memo = cc.delta_bullet, cc._delta_cache
    elif which == "tau_bullet":
        x = Element.from_scalars(
            oh, {(("t",), ()): L, ((), ("dt",)): -half})
        apply = lambda y: tau_bullet(cc, y)
        memo = cc._taubul_cache
    elif which == "mono_mul":
        # GradedTensor.wedge reads one mono_mul table per leg
        x = pair
        right = GradedTensor.from_scalars(
            (oa, oa), {(((), ("dv",)), (("u",), ())): q})
        apply = lambda y: y.wedge(right)
        memo = oa._mono_mul_cache
    elif which == "mul":
        # so does the product of forms
        x = form
        right = Element.from_scalars(oa, {(("u",), ("dv",)): q})
        apply = lambda y: oa.mul(y, right)
        memo = oa._mono_mul_cache
    elif which == "chi_piece":
        x = pair
        apply = lambda y: chi_bullet(cc, y)
        memo = cc._chibul_cache
    elif which == "sigma_piece":
        x = pair
        apply = lambda y: sigma_bullet(cc, y)
        memo = cc._sigbul_cache
    else:
        x = pair
        apply = lambda y: sigma_bullet_inv(cc, y)
        memo = cc._siginv_cache

    def single(key):
        """The term of x at the Scalar key, with coefficient 1."""
        if isinstance(x, Element):
            return Element.from_scalars(x.calc, {key: one})
        return GradedTensor.from_scalars(x.legs, {key: one})

    # memoise every term's piece, then freeze them
    for key in x.scalar_terms():
        apply(single(key))
    before = _memo_snapshot(memo)
    if which not in ("mono_mul", "mul"):
        # the memos are keyed by monomial ids: a form's id, or a tensor's
        # ids before the exponent that ends its flat key
        ids = (lambda key: key[0]) if isinstance(x, Element) else (
            lambda key: key[:-1])
        assert all(ids(key) in before for key in x.terms)
    first = apply(x)
    second = apply(x)
    assert first == second
    assert _memo_snapshot(memo) == before
    want = first._new({})
    for key, c in x.scalar_terms().items():
        want.add_scaled(apply(single(key)), c)
    assert first == want


# -- add_mapped: one linear extension for whole keys and for some legs ----------


def _splice_reference(x, fn, slot, width):
    """id (x) fn (x) id written out on Scalar terms (fn on whole keys when
    slot is None)."""
    out = {}
    for key, c in x.scalar_terms().items():
        if slot is None:
            pre, legs, post = (), key, ()
        else:
            pre, post = key[:slot], key[slot + width:]
            legs = key[slot] if width == 1 else key[slot:slot + width]
        for k2, c2 in fn(legs).scalar_terms().items():
            add_term(out, k2 if slot is None else pre + k2 + post, c * c2)
    return out


def _mapped_cases():
    """(x, fn, slot, width, an empty sum for the result, the map from the
    legs fn reads to the keys fn takes) for every slot and width the
    package uses, on torus.  A Scalar sum hands fn its keys, and a graded
    one the monomial ids of its flat keys.  The chi and sigma pieces, given
    as partial(piece, cc), map pairs of ids: braidext._apply_pieces splices
    them, on whole keys or on two legs."""
    from qpbcalc.braidext import chi_piece, sigma_piece

    bundle = build_example("torus")
    cc, H = bundle.cc, bundle.ca.H
    oa, oh, Hb = cc.omega_A, cc.omega_H, H.base
    L = Scalar.param("L")
    h = NCPoly({("t",): L, ("t", "t"): half})
    dh = H.coproduct(h)
    u = oa.of_poly(NCPoly.gen("u"))
    x1 = u.scale(L) + oa.form("du").scale(half)
    x2 = oa.of_poly(NCPoly.gen("v")) - oa.form("dv").scale(q)
    x3 = oa.form("du") + u
    pair = GradedTensor.of((oa, oa), x1, x2)
    triple = GradedTensor.of((oa, oa, oa), x1, x2, x3)
    delta = cc._delta_mono
    sigma = functools.partial(sigma_piece, cc)
    chi = functools.partial(chi_piece, cc)
    g = lambda *legs: GradedTensor(legs)
    same = lambda key: key
    pair_ids = lambda key: (oa.intern(key[0]), oa.intern(key[1]))
    return {
        "coproduct": (h, H._delta_word, None, 1, TensorPoly((Hb, Hb)), same),
        "antipode": (h, H._s_word, None, 1, NCPoly(), same),
        "delta": (x1, delta, None, 1, g(oa, oh), oa.intern),
        "chi": (pair, chi, None, 1, g(oa, oh), pair_ids),
        "coassoc-0": (dh, H._delta_word, 0, 1, TensorPoly((Hb,) * 3), same),
        "coassoc-1": (dh, H._delta_word, 1, 1, TensorPoly((Hb,) * 3), same),
        "delta-0": (pair, delta, 0, 1, g(oa, oh, oa), oa.intern),
        "delta-1": (pair, delta, 1, 1, g(oa, oa, oh), oa.intern),
        "sigma-0": (triple, sigma, 0, 2, g(oa, oa, oa), pair_ids),
        "sigma-1": (triple, sigma, 1, 2, g(oa, oa, oa), pair_ids),
        "chi-1": (triple, chi, 1, 2, g(oa, oa, oh), pair_ids),
    }


@pytest.mark.parametrize("case", ["coproduct", "antipode", "delta", "chi",
                                  "coassoc-0", "coassoc-1", "delta-0",
                                  "delta-1", "sigma-0", "sigma-1", "chi-1"])
def test_add_mapped_is_the_written_out_splice(case):
    # add_mapped gives the written-out sum: a Scalar self reads Scalar
    # terms and hands fn keys; a graded self reads the flat terms of x, a
    # form's included, and hands fn monomial ids
    from qpbcalc.braidext import _apply_pieces

    x, fn, slot, width, zero, to_id = _mapped_cases()[case]
    if isinstance(fn, functools.partial):
        # a memoised piece is a tuple of flat terms of its two legs, read
        # from its memo dict by _apply_pieces
        cc, piece = fn.args[0], fn.func
        legs = zero.legs if slot is None else zero.legs[slot:slot + width]
        want = _splice_reference(
            x, lambda k: GradedTensor(legs, dict(fn(to_id(k)))), slot,
            width)
        assert want
        got = _apply_pieces(cc, x, piece, zero.legs, slot)
    else:
        want = _splice_reference(x, lambda k: fn(to_id(k)), slot, width)
        assert want
        out = zero._new({})
        got = out.add_mapped(x, fn, slot)
        assert got is out
    assert got.scalar_terms() == want
    if isinstance(zero, GradedTensor):
        assert got == GradedTensor.from_scalars(zero.legs, want)
    else:
        assert got == zero._new(dict(want))
