"""Hopf algebra structure on a presented algebra.

Coproduct and counit are given on generators and extended as algebra
morphisms; the antipode and its inverse extend anti-multiplicatively.
All structure maps are checked against the defining relations, which is
what makes the generator tables well defined on the quotient.
"""

from __future__ import annotations

from .ncalg import (
    AlgebraPresentation,
    NCPoly,
    UndeclaredSymbolError,
    add_term,
    memo,
)
from .report import CheckReport, timed
from .scalars import Scalar
from .tensors import TensorPoly


class HopfError(Exception):
    pass


class HopfPresentation:
    def __init__(self, base: AlgebraPresentation, delta, epsilon, antipode,
                 antipode_inv):
        self.base = base
        self.delta_tab = dict(delta)
        self.eps_tab = dict(epsilon)
        self.s_tab = dict(antipode)
        self.sinv_tab = dict(antipode_inv)
        for g in base.generators:
            for tab, what in ((self.delta_tab, "delta"),
                              (self.eps_tab, "epsilon"),
                              (self.s_tab, "antipode"),
                              (self.sinv_tab, "antipode_inv")):
                if g.name not in tab:
                    raise HopfError(f"missing {what} entry for {g.name}")
        self._delta_cache: dict = {(): TensorPoly.unit((base, base))}
        self._s_cache: dict = {(): NCPoly.one()}
        self._sinv_cache: dict = {(): NCPoly.one()}

    # -- structure maps (multiplicative / anti-multiplicative extensions)

    def coproduct(self, p: NCPoly) -> TensorPoly:
        return TensorPoly.zero((self.base, self.base)).add_mapped(
            self.base.reduce(p), self._delta_word)

    @memo("_delta_cache")
    def _delta_word(self, w) -> TensorPoly:
        head = self._delta_word(w[:-1])
        g = w[-1]
        if g not in self.delta_tab:
            raise UndeclaredSymbolError(f"no coproduct table for {g!r}")
        return head.tensor_mul(self.delta_tab[g])

    def counit(self, p: NCPoly) -> Scalar:
        out = Scalar.zero()
        for w, c in self.base.reduce(p).terms.items():
            e = Scalar.one()
            for g in w:
                e = e * self.eps_tab[g]
            out = out + e * c
        return out

    def antipode(self, p: NCPoly) -> NCPoly:
        return NCPoly.zero().add_mapped(self.base.reduce(p), self._s_word)

    def antipode_inv(self, p: NCPoly) -> NCPoly:
        return NCPoly.zero().add_mapped(self.base.reduce(p), self._sinv_word)

    @memo("_s_cache")
    def _s_word(self, w) -> NCPoly:
        return self._anti_step(w, self.s_tab, self._s_word)

    @memo("_sinv_cache")
    def _sinv_word(self, w) -> NCPoly:
        return self._anti_step(w, self.sinv_tab, self._sinv_word)

    def _anti_step(self, w, tab, anti_word) -> NCPoly:
        """S(g w') = S(w') S(g) for the antipode given by tab on
        generators and by anti_word on shorter words."""
        g = w[0]
        if g not in tab:
            raise UndeclaredSymbolError(f"no antipode table for {g!r}")
        return self.base.multiply(anti_word(w[1:]), tab[g])

    # -- derived maps

    def pi_epsilon(self, p: NCPoly) -> NCPoly:
        """h - eps(h) 1, the projection onto the counit kernel."""
        return self.base.reduce(p) - NCPoly.one().scale(self.counit(p))

    # -- grouplike structure (structure groups are group algebras here)

    def grouplike_inverse_word(self, w):
        """S(w) for a grouplike basis word, as a word."""
        s = self.antipode(NCPoly.word(w))
        if len(s.terms) != 1:
            raise HopfError(f"not grouplike: {w}")
        ((w2, c),) = s.terms.items()
        if not c.is_one():
            raise HopfError(f"not grouplike: {w}")
        return w2

    # -- axioms

    def verify_hopf_axioms(self, max_word_len: int = 4,
                           example: str = "") -> CheckReport:
        H = self.base
        rep = CheckReport(
            suite="hopf", example=example or H.name,
            truncation={"max_word_len": max_word_len},
            ref="coassociativity, counitality, antipode axioms, "
                "morphism property on relations")
        with timed(rep):
            legs3 = (H, H, H)
            for w in H.irreducible_words(max_word_len):
                p = NCPoly.word(w)
                name = "*".join(w) or "1"
                d = self.coproduct(p)
                lhs = TensorPoly(legs3).add_mapped(d, self._delta_word,
                                                   slot=0)
                rhs = TensorPoly(legs3).add_mapped(d, self._delta_word,
                                                   slot=1)
                rep.record(lhs == rhs, f"coassoc({name})", "equal legs",
                           "mismatch", ref="(Delta (x) id)Delta = (id (x) Delta)Delta")
                left = _apply_counit(self, d, 0)
                right = _apply_counit(self, d, 1)
                pn = H.reduce(p)
                rep.record(left == pn and right == pn, f"counit({name})",
                           pn, f"{left} / {right}",
                           ref="(eps (x) id)Delta = id = (id (x) eps)Delta")
                e1 = NCPoly.one().scale(self.counit(p))
                s_left = _convolve(self, d, anti_left=True)
                s_right = _convolve(self, d, anti_left=False)
                rep.record(s_left == e1 and s_right == e1,
                           f"antipode({name})", e1,
                           f"{s_left} / {s_right}",
                           ref="S(h1)h2 = eps(h)1 = h1 S(h2)")
                rep.record(self.antipode_inv(self.antipode(p)) == pn
                           and self.antipode(self.antipode_inv(p)) == pn,
                           f"antipode_inverse({name})", pn, "mismatch",
                           ref="S^-1 S = id = S S^-1")
            # morphism property on the defining relations
            for rule in H.rules:
                lw = NCPoly.word(rule.lhs)
                rep.record(self._delta_word(rule.lhs) == self.coproduct(rule.rhs),
                           f"delta-respects({'*'.join(rule.lhs)})",
                           "equal tensors", "mismatch",
                           ref="Delta well defined on the quotient")
                rep.record(self.counit(lw) == self.counit(rule.rhs),
                           f"eps-respects({'*'.join(rule.lhs)})",
                           "equal scalars", "mismatch",
                           ref="eps well defined on the quotient")
                rep.record(self._s_word(rule.lhs) == self.antipode(rule.rhs),
                           f"antipode-respects({'*'.join(rule.lhs)})",
                           "equal elements", "mismatch",
                           ref="S well defined on the quotient")
            # counit is a character on generator pairs
            for g1 in H.generators:
                for g2 in H.generators:
                    prod = H.normal_word((g1.name, g2.name))
                    rep.record(self.counit(prod) ==
                               self.eps_tab[g1.name] * self.eps_tab[g2.name],
                               f"eps-char({g1.name},{g2.name})",
                               "eps(gh)=eps(g)eps(h)", "mismatch",
                               ref="counit is an algebra character")
        return rep


def _apply_counit(hopf, t: TensorPoly, leg: int) -> NCPoly:
    out = NCPoly.zero()
    for ws, c in t.terms.items():
        e = hopf.counit(NCPoly.word(ws[leg]))
        keep = ws[1 - leg]
        add_term(out.terms, keep, e * c)
    return hopf.base.reduce(out)


def _convolve(hopf, d: TensorPoly, anti_left: bool) -> NCPoly:
    out = NCPoly.zero()
    for (w1, w2), c in d.terms.items():
        if anti_left:
            prod = hopf.base.multiply(hopf.antipode(NCPoly.word(w1)),
                                      NCPoly.word(w2))
        else:
            prod = hopf.base.multiply(NCPoly.word(w1),
                                      hopf.antipode(NCPoly.word(w2)))
        out.add_scaled(prod, c)
    return out


# -- operation fronts ---------------------------------------------------------

def verify_hopf_axioms(hopf: HopfPresentation, max_word_len: int = 4,
                       example: str = "") -> CheckReport:
    return hopf.verify_hopf_axioms(max_word_len, example)
