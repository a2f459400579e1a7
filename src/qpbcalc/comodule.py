"""Right comodule algebras, coinvariants, the Hopf-Galois canonical map and
the degree-zero braiding.

The coinvariant subalgebra B = A^{co H} is computed on the truncated word
basis as the kernel of Delta_A - id (x) 1, diagonal coaction or not.

Equality in the balanced tensor product A (x)_B A is decided on canonical
representatives: the images under the canonical map chi(a (x) a') =
a a'_0 (x) a'_1, which is bijective for a Hopf-Galois extension.  The
translation map tau = chi^-1(1 (x) -) is stored on the grouplike generators
of the structure Hopf algebra and extended to arbitrary grouplike words by
the product identity tau(hg) = g<1> h<1> (x) h<2> g<2>.  The colinearity
identities hold for tau and for any strong connection lifting it; the tau
suite and the strong-connection check share one implementation of each.
"""

from __future__ import annotations

from .hopf import HopfPresentation
from .linalg import kernel_on
from .ncalg import NCPoly, add_term, memo
from .report import CheckReport, timed
from .tensors import TensorPoly


class ComoduleError(Exception):
    pass


class TruncationError(ComoduleError):
    pass


class ComoduleAlgebra:
    def __init__(self, name, A, H: HopfPresentation, coaction):
        self.name = name
        self.A = A
        self.H = H
        self.coact_tab = dict(coaction)
        for g in A.generators:
            if g.name not in self.coact_tab:
                raise ComoduleError(f"missing coaction entry for {g.name}")
        self._coact_cache = {(): TensorPoly.unit((A, H.base))}

    # -- coaction

    def coact(self, p: NCPoly) -> TensorPoly:
        return TensorPoly.zero((self.A, self.H.base)).add_mapped(
            self.A.reduce(p), self._coact_word)

    @memo("_coact_cache")
    def _coact_word(self, w) -> TensorPoly:
        return self._coact_word(w[:-1]).tensor_mul(self.coact_tab[w[-1]])

    # -- coinvariants

    def coinvariant_basis(self, max_word_len: int) -> list:
        """A basis of B = A^{co H} on the words of length <= max_word_len:
        the kernel of Delta_A - id (x) 1."""
        def image(w):
            return dict((self._coact_word(w) - TensorPoly.from_polys(
                (self.A, self.H.base), NCPoly.word(w), NCPoly.one())).terms)
        return [NCPoly(combo) for combo in
                kernel_on(self.A.irreducible_words(max_word_len), image)]

    # -- validation

    def validate(self, max_word_len: int = 3, example: str = "") -> CheckReport:
        rep = CheckReport(
            suite="comodule", example=example or self.name,
            truncation={"max_word_len": max_word_len},
            ref="coaction is an algebra morphism, coassociative and counital")
        with timed(rep):
            for rule in self.A.rules:
                lhs = self._coact_word(rule.lhs)
                rep.record(lhs == self.coact(rule.rhs),
                           f"coact-respects({'*'.join(rule.lhs)})",
                           "equal tensors", "mismatch",
                           ref="well defined on the quotient")
            legs = (self.A, self.H.base, self.H.base)
            for w in self.A.irreducible_words(max_word_len):
                p = NCPoly.word(w)
                d = self.coact(p)
                lhs = TensorPoly(legs).add_mapped(d, self._coact_word,
                                                  slot=0)
                rhs = TensorPoly(legs).add_mapped(d, self.H._delta_word,
                                                  slot=1)
                rep.record(lhs == rhs, f"coassoc({'*'.join(w) or '1'})",
                           "equal", "mismatch",
                           ref="(Delta_A (x) id)Delta_A = (id (x) Delta)Delta_A")
                collapsed = NCPoly.zero()
                for (wa, wh), c in d.terms.items():
                    add_term(collapsed.terms, wa,
                             c * self.H.counit(NCPoly.word(wh)))
                rep.record(self.A.reduce(collapsed) == self.A.reduce(p),
                           f"counit({'*'.join(w) or '1'})", "identity",
                           "mismatch", ref="(id (x) eps)Delta_A = id")
        return rep


class TranslationData:
    """tau on the grouplike generators, extended by the product identity."""

    def __init__(self, ca: ComoduleAlgebra, tau_table, cleaving=None,
                 label=""):
        self.ca = ca
        self.tab = {g: t for g, t in tau_table.items()}
        self.cleaving = cleaving  # optional (j, jinv) callables on H-words
        self.label = label
        self._cache = {(): TensorPoly.unit((ca.A, ca.A))}

    @staticmethod
    def from_cleaving(ca: ComoduleAlgebra, j, jinv, label="") -> "TranslationData":
        """Cleft case: tau(g) = jinv(g) (x) j(g) on grouplike generators."""
        tab = {}
        for g in ca.H.base.generators:
            w = (g.name,)
            tab[g.name] = TensorPoly.from_polys((ca.A, ca.A), jinv(w), j(w))
        return TranslationData(ca, tab, cleaving=(j, jinv), label=label)

    @memo("_cache")
    def tau_word(self, w) -> TensorPoly:
        if len(w) == 1:
            t = self.tab.get(w[0])
            if t is None:
                raise TruncationError(
                    f"{self.label}: no translation data for {w[0]!r}")
            return t
        return self.product(self.tau_word(w[:-1]), self.tau_word(w[-1:]))

    def product(self, th: TensorPoly, tg: TensorPoly) -> TensorPoly:
        """tau(hg) = g<1> h<1> (x) h<2> g<2> from th = tau(h), tg = tau(g)."""
        A = self.ca.A
        out = TensorPoly.zero((A, A))
        for (x1, x2), cx in tg.terms.items():
            for (y1, y2), cy in th.terms.items():
                piece = TensorPoly.from_polys(
                    (A, A), A.normal_word(x1 + y1), A.normal_word(y2 + x2))
                out.add_scaled(piece, cx * cy)
        return out

    def tau(self, h: NCPoly) -> TensorPoly:
        return TensorPoly.zero((self.ca.A, self.ca.A)).add_mapped(
            self.ca.H.base.reduce(h), self.tau_word)


class BalancedTensor:
    """Element of A (x)_B A: raw representative plus canonical chi-image."""

    __slots__ = ("ca", "raw", "_canonical")

    def __init__(self, ca: ComoduleAlgebra, raw: TensorPoly | None = None,
                 canonical: TensorPoly | None = None):
        self.ca = ca
        self.raw = raw
        self._canonical = canonical

    @property
    def canonical(self) -> TensorPoly:
        if self._canonical is None:
            self._canonical = chi(self.ca, self.raw)
        return self._canonical

    def __eq__(self, other):
        return (isinstance(other, BalancedTensor) and self.ca is other.ca
                and self.canonical == other.canonical)

    def __str__(self):
        if self.raw is not None:
            return f"[{self.raw}]"
        return f"chi^-1[{self.canonical}]"

    __repr__ = __str__


# -- canonical map and friends -------------------------------------------------

def chi(ca: ComoduleAlgebra, x: TensorPoly) -> TensorPoly:
    """chi(a (x)_B a') = a a'_0 (x) a'_1, raw pairs to (A, H)."""
    A, H = ca.A, ca.H.base
    out = TensorPoly.zero((A, H))
    for (wa, wb), c in x.terms.items():
        for (w0, w1), c2 in ca._coact_word(wb).terms.items():
            piece = TensorPoly.from_polys((A, H), A.normal_word(wa + w0),
                                          NCPoly.word(w1))
            out.add_scaled(piece, c * c2)
    return out


def chi_inv(ca: ComoduleAlgebra, td: TranslationData,
            y: TensorPoly) -> BalancedTensor:
    """chi^-1(a (x) h) = a tau(h); raw representative built from tau."""
    A = ca.A
    out = TensorPoly.zero((A, A))
    for (wa, wh), c in y.terms.items():
        for (x1, x2), c2 in td.tau_word(wh).terms.items():
            piece = TensorPoly.from_polys((A, A), A.normal_word(wa + x1),
                                          NCPoly.word(x2))
            out.add_scaled(piece, c * c2)
    return BalancedTensor(ca, raw=out, canonical=None)


def tau(h: NCPoly, td: TranslationData) -> BalancedTensor:
    return BalancedTensor(td.ca, raw=td.tau(h))


def sigma(x: BalancedTensor, td: TranslationData) -> BalancedTensor:
    """sigma(a (x)_B a') = a_0 a' tau(a_1)."""
    ca = td.ca
    A = ca.A
    out = TensorPoly.zero((A, A))
    for (wa, wb), c in x.raw.terms.items():
        for (w0, w1), c2 in ca._coact_word(wa).terms.items():
            for (x1, x2), c3 in td.tau_word(w1).terms.items():
                piece = TensorPoly.from_polys(
                    (A, A), A.normal_word(w0 + wb + x1), NCPoly.word(x2))
                out.add_scaled(piece, c * c2 * c3)
    return BalancedTensor(ca, raw=out)


def collapse(x: BalancedTensor) -> NCPoly:
    """Multiplication map A (x)_B A -> A on the raw representative."""
    A = x.ca.A
    out = NCPoly.zero()
    for (wa, wb), c in x.raw.terms.items():
        out.add_scaled(A.normal_word(wa + wb), c)
    return out


# -- colinearity of a lift of the translation map ------------------------------
#
# fn maps structure basis words to raw A (x) A tensors (tau_word, or a strong
# connection ell).  Each helper returns both sides of one identity as raw
# (A, A, H) tensors.


def right_colinear(ca: ComoduleAlgebra, fn, w) -> tuple:
    """fn(h)<1> (x) fn(h)<2>_0 (x) fn(h)<2>_1 and fn(h<1>) (x) h<2>."""
    legs = (ca.A, ca.A, ca.H.base)
    lhs = TensorPoly(legs).add_mapped(fn(w), ca._coact_word, slot=1)
    rhs = TensorPoly(legs).add_mapped(ca.H._delta_word(w), fn, slot=0)
    return lhs, rhs


def left_colinear(ca: ComoduleAlgebra, fn, w) -> tuple:
    """fn(h)<1>_0 (x) fn(h)<2> (x) fn(h)<1>_1 and fn(h<2>) (x) S(h<1>)."""
    A, H = ca.A, ca.H
    legs = (A, A, H.base)
    lhs = TensorPoly.zero(legs)
    for (x1, x2), c in fn(w).terms.items():
        for (y0, y1), c2 in ca._coact_word(x1).terms.items():
            lhs.add_scaled(TensorPoly.from_polys(
                legs, NCPoly.word(y0), NCPoly.word(x2), NCPoly.word(y1)),
                c * c2)
    rhs = TensorPoly.zero(legs)
    for (h1, h2), c in H._delta_word(w).terms.items():
        s = H.antipode(NCPoly.word(h1))
        for (x1, x2), c2 in fn(h2).terms.items():
            for ws, c3 in s.terms.items():
                rhs.add_scaled(TensorPoly.from_polys(
                    legs, NCPoly.word(x1), NCPoly.word(x2), NCPoly.word(ws)),
                    c * c2 * c3)
    return lhs, rhs


# -- the identity suite ---------------------------------------------------------

def tau_identity_suite(ca: ComoduleAlgebra, td: TranslationData,
                       max_word_len: int = 3, example: str = "") -> CheckReport:
    A, H = ca.A, ca.H
    rep = CheckReport(
        suite="tau", example=example or ca.name,
        truncation={"max_word_len": max_word_len},
        ref="translation map identities: chi tau = unit tensor, "
            "anti-multiplicativity, counit collapse, coaction shifts, "
            "coinvariant centrality")
    rep.notes.append("faithful flatness of the extension is assumed, not tested")
    with timed(rep):
        hw = list(H.base.irreducible_words(max_word_len))
        for w in hw:
            name = "*".join(w) or "1"
            t = td.tau_word(w)
            bt = BalancedTensor(ca, raw=t)
            got = bt.canonical
            want = TensorPoly.from_polys((A, H.base), NCPoly.one(),
                                         NCPoly.word(w))
            rep.record(got == want, f"tau6({name})", want, got,
                       ref="chi(tau(h)) = 1 (x) h")
            prod = collapse(bt)
            want1 = NCPoly.one().scale(H.counit(NCPoly.word(w)))
            rep.record(prod == want1, f"tau1({name})", want1, prod,
                       ref="h<1> h<2> = eps(h) 1")
        # tau5: a_0 tau(a_1) = 1 (x)_B a on A basis words
        for w in A.irreducible_words(max_word_len):
            name = "*".join(w) or "1"
            try:
                lhs = chi_inv(ca, td, ca._coact_word(w))
            except TruncationError:
                rep.mark_inconclusive(f"tau5({name})",
                                      "translation data out of range")
                continue
            rhs = BalancedTensor(ca, raw=TensorPoly.from_polys(
                (A, A), NCPoly.one(), NCPoly.word(w)))
            rep.record(lhs == rhs, f"tau5({name})", rhs.canonical,
                       lhs.canonical, ref="a0 tau(a1) = 1 (x)_B a")
        # tau2 on pairs of H words
        for w1 in hw:
            for w2 in hw:
                if len(w1) + len(w2) > max_word_len:
                    continue
                lhs = TensorPoly.zero((A, A)).add_mapped(
                    H.base.normal_word(w1 + w2), td.tau_word)
                rhs = td.product(td.tau_word(w1), td.tau_word(w2))
                name = f"{'*'.join(w1) or '1'},{'*'.join(w2) or '1'}"
                rep.record(BalancedTensor(ca, raw=lhs) ==
                           BalancedTensor(ca, raw=rhs),
                           f"tau2({name})", "equal balanced tensors",
                           "mismatch",
                           ref="tau(hg) = g<1>h<1> (x) h<2>g<2>")
        # tau3 / tau4 as three-leg identities (A, H, H after canonicalizing)
        for w in hw:
            name = "*".join(w) or "1"
            lhs3, rhs3 = right_colinear(ca, td.tau_word, w)
            rep.record(_canon12(ca, lhs3) == _canon12(ca, rhs3),
                       f"tau3({name})", "equal", "mismatch",
                       ref="tau then coact on second leg = coproduct then tau")
            lhs4, rhs4 = left_colinear(ca, td.tau_word, w)
            rep.record(_canon12(ca, lhs4) == _canon12(ca, rhs4),
                       f"tau4({name})", "equal", "mismatch",
                       ref="coact on first leg twists by the antipode")
        # tau7: centrality over the coinvariant basis
        coinv = ca.coinvariant_basis(max_word_len)
        for b in coinv:
            for w in hw:
                t = td.tau_word(w)
                left = TensorPoly.zero((A, A))
                right = TensorPoly.zero((A, A))
                for (x1, x2), c in t.terms.items():
                    left.add_scaled(TensorPoly.from_polys(
                        (A, A), A.multiply(b, NCPoly.word(x1)),
                        NCPoly.word(x2)), c)
                    right.add_scaled(TensorPoly.from_polys(
                        (A, A), NCPoly.word(x1),
                        A.multiply(NCPoly.word(x2), b)), c)
                rep.record(BalancedTensor(ca, raw=left) ==
                           BalancedTensor(ca, raw=right),
                           f"tau7({b},{'*'.join(w) or '1'})",
                           "b tau(h) = tau(h) b", "mismatch",
                           ref="centrality over coinvariants")
    return rep


def _canon12(ca, t3: TensorPoly) -> TensorPoly:
    """Canonicalize the balanced pair in legs (0, 1), keeping leg 2."""
    A, H = ca.A, ca.H.base
    out = TensorPoly.zero((A, H, H))
    for (wa, wb, wh), c in t3.terms.items():
        for (w0, w1), c2 in ca._coact_word(wb).terms.items():
            piece = TensorPoly.from_polys(
                (A, H, H), A.normal_word(wa + w0), NCPoly.word(w1),
                NCPoly.word(wh))
            out.add_scaled(piece, c * c2)
    return out
