"""The shared sparse-sum arithmetic of NCPoly, Element, TensorPoly and
GradedTensor: in-place accumulation agrees with the copying operators."""

from fractions import Fraction

import pytest

from qpbcalc.calculus import Element, GradedTensor
from qpbcalc.examples import build_example
from qpbcalc.ncalg import NCPoly
from qpbcalc.scalars import Scalar
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
        "element": lambda t: Element(oa, t),
        "tensor": lambda t: TensorPoly((A, A), t),
        "graded": lambda t: GradedTensor((oa, oa), t),
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


def _memo_snapshot(memo):
    # a mono_mul table is a tuple of flat ((monomial, e), c) terms
    return {key: dict(getattr(value, "terms", value))
            for key, value in memo.items()}


@pytest.mark.parametrize("which", ["delta_bullet", "tau_bullet", "mono_mul",
                                   "chi_piece", "sigma_piece",
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
    pair = {(((), ("du",)), (("v",), ())): L,
            ((("u",), ("dv",)), ((), ("du",))): -half}
    if which == "delta_bullet":
        x = Element(oa, {((), ("du",)): L, (("v",), ("dv",)): -half})
        apply, memo = cc.delta_bullet, cc._delta_cache
    elif which == "tau_bullet":
        x = Element(oh, {(("t",), ()): L, ((), ("dt",)): -half})
        apply = lambda y: tau_bullet(cc, y)
        memo = cc._taubul_cache
    elif which == "mono_mul":
        # GradedTensor.wedge reads one mono_mul table per leg
        x = GradedTensor((oa, oa), pair)
        right = GradedTensor((oa, oa), {(((), ("dv",)), (("u",), ())): q})
        apply = lambda y: y.wedge(right)
        memo = oa._mono_mul_cache
    elif which == "chi_piece":
        x = GradedTensor((oa, oa), pair)
        apply = lambda y: chi_bullet(cc, y)
        memo = cc._chibul_cache
    elif which == "sigma_piece":
        x = GradedTensor((oa, oa), pair)
        apply = lambda y: sigma_bullet(cc, y)
        memo = cc._sigbul_cache
    else:
        x = GradedTensor((oa, oa), pair)
        apply = lambda y: sigma_bullet_inv(cc, y)
        memo = cc._siginv_cache
    # memoise every term's piece, then freeze them
    for key in x.terms:
        apply(x._new({key: one}))
    before = _memo_snapshot(memo)
    if which != "mono_mul":
        assert all(key in before for key in x.terms)
    first = apply(x)
    second = apply(x)
    assert first == second
    assert _memo_snapshot(memo) == before
    want = GradedTensor.zero(first.legs)
    for key, c in x.terms.items():
        want.add_scaled(apply(x._new({key: one})), c)
    assert first == want
