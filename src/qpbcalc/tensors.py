"""Tensor products of presented algebras (plain, degree-zero legs).

A TensorPoly is a finite sum of scalar-weighted tuples of normal-form words,
one word per leg.  Leg-wise multiplication gives the tensor product algebra.
The sum arithmetic is ncalg.SparseSum's, whose add_mapped extends a map on
words or on one leg linearly: coproducts, coactions, id (x) f (x) id and
Sweedler-style contractions.
"""

from __future__ import annotations

from .ncalg import NCPoly, SparseSum
from .scalars import Scalar


class TensorPoly(SparseSum):
    __slots__ = ("legs",)
    _context = "legs"

    def __init__(self, legs, terms=None):
        self.legs = tuple(legs)
        SparseSum.__init__(self, terms)

    # -- constructors

    @staticmethod
    def zero(legs) -> "TensorPoly":
        return TensorPoly(legs)

    @staticmethod
    def unit(legs) -> "TensorPoly":
        return TensorPoly(legs, {((),) * len(legs): Scalar.one()})

    @staticmethod
    def from_polys(legs, *polys: NCPoly) -> "TensorPoly":
        """The single tensor p1 (x) p2 (x) ... with each leg reduced."""
        legs = tuple(legs)
        assert len(legs) == len(polys)
        reduced = [leg.reduce(p) for leg, p in zip(legs, polys)]
        return TensorPoly(legs).add_product(reduced, Scalar.one())

    # -- ring structure

    def tensor_mul(self, other: "TensorPoly") -> "TensorPoly":
        """Leg-wise product (a (x) h)(a' (x) h') = aa' (x) hh'."""
        assert self.legs == other.legs
        out = TensorPoly(self.legs)
        for ws1, c1 in self.terms.items():
            for ws2, c2 in other.terms.items():
                pieces = [leg.normal_word(w1 + w2)
                          for leg, w1, w2 in zip(self.legs, ws1, ws2)]
                out.add_product(pieces, c1 * c2)
        return out

    @staticmethod
    def _key_str(ws):
        return "(x)".join(NCPoly._key_str(w) or "1" for w in ws)

    @staticmethod
    def _sort_key(ws):
        return tuple(NCPoly._sort_key(w) for w in ws)

