"""Graded Hopf-Galois machinery: extended translation map, canonical map on
forms, the extended braiding, and the graded identity suite.

Equality of graded balanced tensors is decided on canonical representatives,
the images under chi(omega (x) eta) = omega ^ eta_[0] (x) eta_[1], unless
the raw pairs already have equal terms.  The extended translation map is
generated from degree 0 and 1 by the product identity tau(theta ^ xi) =
(-1)^{|theta||xi<1>|} xi<1> ^ theta<1> (x) theta<2> ^ xi<2>, which
reproduces the displayed two-form scheme and extends it to degree three;
higher degrees are rejected.

The maps take forms and graded tensors, both flat Laurent-int terms keyed
by monomial ids (calculus.Element, calculus.GradedTensor, ncalg.FlatSum),
and return graded tensors.  The memoised chi, sigma, sigma^-1 and tau
pieces of one monomial are keyed by ids, built from the flat coaction and
mono_mul tables, and read their Koszul signs from the calculi's id degrees
(mono_deg).  A chi, sigma or sigma^-1 piece is a read-only tuple of flat
terms ((p, q, e), c), as a mono_mul table is, and _apply_pieces reads it
from its memo dict.  Scalars and monomials appear only in witnesses.
"""

from __future__ import annotations

import functools

from .calculus import UNIT_ID, Element, GradedTensor, graded_antipode
from .ncalg import NCPoly, add_flat, memo
from .qpb import CompleteCalculus, h_complete_delta
from .report import CheckReport, timed


class UnsupportedDegreeError(Exception):
    pass


MAX_TAU_DEGREE = 3


class GradedBalancedTensor:
    """Raw pair of total-space forms, compared by its canonical chi image,
    computed once on demand.  Two raw pairs with equal terms have equal
    images, so they compare equal without chi."""

    __slots__ = ("cc", "raw", "_canonical")

    def __init__(self, cc: CompleteCalculus, raw: GradedTensor):
        self.cc = cc
        self.raw = raw
        self._canonical = None

    @property
    def canonical(self) -> GradedTensor:
        if self._canonical is None:
            self._canonical = chi_bullet(self.cc, self.raw)
        return self._canonical

    def __eq__(self, other):
        if not (isinstance(other, GradedBalancedTensor)
                and self.cc is other.cc):
            return False
        return (self.raw.terms == other.raw.terms
                or self.canonical == other.canonical)

    def __str__(self):
        return f"[{self.raw}]"

    __repr__ = __str__


def raw_pair(cc, x: Element, y: Element) -> GradedTensor:
    return GradedTensor.of((cc.omega_A, cc.omega_A), x, y)


def add_lift(terms: dict, legs, p, items, q, e: int, c: int) -> None:
    """terms += c x^e (p (x) 1) t (1 (x) q) for the flat terms items
    ((t1, t2, e1), c1) of a two-leg tensor t (a piece, or a tensor's
    terms.items()), a flat term (e, c) and monomial ids p of legs[0] and q
    of legs[1], either of which may be UNIT_ID.

    Each leg reads the flat mono_mul table of its monomial by id; a UNIT_ID
    leg is left as it is.  The unit legs have degree 0, so the product
    carries no Koszul sign.  terms is a flat dict the caller owns."""
    lmul = None if p == UNIT_ID else legs[0].mono_mul
    rmul = None if q == UNIT_ID else legs[1].mono_mul
    get = terms.get
    for (t1, t2, e1), c1 in items:
        e1 += e
        c1 *= c
        if rmul is None:
            if lmul is None:
                key = t1, t2, e1
                v = c1 + get(key, 0)
                if v:
                    terms[key] = v
                else:
                    del terms[key]
                continue
            for (m1, e2), c2 in lmul(p, t1):
                key = m1, t2, e1 + e2
                v = c1 * c2 + get(key, 0)
                if v:
                    terms[key] = v
                else:
                    del terms[key]
        elif lmul is None:
            for (m2, e3), c3 in rmul(t2, q):
                key = t1, m2, e1 + e3
                v = c1 * c3 + get(key, 0)
                if v:
                    terms[key] = v
                else:
                    del terms[key]
        else:
            right = rmul(t2, q)
            for (m1, e2), c2 in lmul(p, t1):
                e2 += e1
                c2 *= c1
                for (m2, e3), c3 in right:
                    key = m1, m2, e2 + e3
                    v = c2 * c3 + get(key, 0)
                    if v:
                        terms[key] = v
                    else:
                        del terms[key]


def _apply_pieces(cc, x, piece, legs, slot=None) -> GradedTensor:
    """The linear extension of the memoised pieces piece(cc, (m1, m2))
    over x: on whole keys of a two-leg x (slot None), or spliced into legs
    (slot, slot+1) of a three-leg x, id (x) piece (x) id.

    Each piece is read from its memo dict, and filled through piece only
    when missing; the keys are unpacked at their fixed width and the sums
    accumulated in place.  With a call per term to the memo wrapper and to
    ncalg.add_flat, and nested (ids, e) keys, the warm podles braid loop
    took 0.19 s against 0.13 s (Python 3.11 on a 2-core x86_64 VM)."""
    cache = getattr(cc, piece.memo_attr)
    look = cache.get
    out = GradedTensor.zero(legs)
    terms = out.terms
    get = terms.get
    items = x.terms.items()
    if slot is None:
        for (a, b, e), c in items:
            p = look((a, b))
            if p is None:
                p = piece(cc, (a, b))
            for (m1, m2, e2), c2 in p:
                key = m1, m2, e + e2
                v = c * c2 + get(key, 0)
                if v:
                    terms[key] = v
                else:
                    del terms[key]
    elif slot:
        for (a, b, d, e), c in items:
            p = look((b, d))
            if p is None:
                p = piece(cc, (b, d))
            for (m1, m2, e2), c2 in p:
                key = a, m1, m2, e + e2
                v = c * c2 + get(key, 0)
                if v:
                    terms[key] = v
                else:
                    del terms[key]
    else:
        for (a, b, d, e), c in items:
            p = look((a, b))
            if p is None:
                p = piece(cc, (a, b))
            for (m1, m2, e2), c2 in p:
                key = m1, m2, d, e + e2
                v = c * c2 + get(key, 0)
                if v:
                    terms[key] = v
                else:
                    del terms[key]
    return out


# -- extended translation map ----------------------------------------------------


def tau_bullet(cc: CompleteCalculus, theta: Element) -> GradedTensor:
    """tau on structure-calculus forms of degree <= 3, raw pairs."""
    oa = cc.omega_A
    return GradedTensor.zero((oa, oa)).add_mapped(
        theta, functools.partial(_tau_mono, cc))


@memo("_taubul_cache")
def _tau_mono(cc, i) -> GradedTensor:
    """The memoised tau of the monomial of id i of Omega(H); read-only."""
    oh, oa = cc.omega_H, cc.omega_A
    legs = (oa, oa)
    w, F = oh.monos[i]
    if len(F) > MAX_TAU_DEGREE:
        raise UnsupportedDegreeError(
            f"translation map implemented for degree <= {MAX_TAU_DEGREE}")
    # degree-0 seed: tau of the coefficient word
    cur = GradedTensor.degree_zero(legs, cc.td.tau_word(w))
    deg = oa.mono_deg
    for k, f in enumerate(F):
        pairs = oh.expansion[f]
        if len(pairs) != 1 or pairs[0][0] != NCPoly.one():
            raise UnsupportedDegreeError(
                f"letter {f} is not a differential of a generator")
        xi = _tau_one_letter(cc, tuple(sorted(pairs[0][1].terms.items())))
        nxt = GradedTensor.zero(legs)
        items = cur.terms.items()
        for (p, q, e), c_xi in xi.terms.items():
            if k * deg[p] & 1:
                c_xi = -c_xi
            add_lift(nxt.terms, legs, p, items, q, e, c_xi)
        cur = nxt
    return cur


@memo("_tauletter_cache")
def _tau_one_letter(cc, b_terms) -> GradedTensor:
    """tau^1(d b) = d(b<1>) (x) b<2> + b<1> (x) d(b<2>) for a generator b
    given by its sorted terms, memoised."""
    oa = cc.omega_A
    legs = (oa, oa)
    out = GradedTensor.zero(legs)
    for wb, cb in cc.ca.H.base.reduce(NCPoly(dict(b_terms))).terms.items():
        for (x1, x2), c in cc.td.tau_word(wb).terms.items():
            dx1 = oa.d_poly(NCPoly.word(x1))
            dx2 = oa.d_poly(NCPoly.word(x2))
            out.add_scaled(GradedTensor.of(
                legs, dx1, oa.of_poly(NCPoly.word(x2))), c * cb)
            out.add_scaled(GradedTensor.of(
                legs, oa.of_poly(NCPoly.word(x1)), dx2), c * cb)
    return out


# -- canonical map on forms -------------------------------------------------------


@memo("_chibul_cache")
def chi_piece(cc: CompleteCalculus, key) -> tuple:
    """The memoised chi of one pair of monomial ids (m1, m2), a tuple of
    flat terms; read-only."""
    m1, m2 = key
    terms = {}
    add_lift(terms, cc.legs, m1, cc._delta_mono(m2).terms.items(), UNIT_ID,
             0, 1)
    return tuple(terms.items())


def chi_bullet(cc: CompleteCalculus, x: GradedTensor) -> GradedTensor:
    """chi(omega (x) eta) = omega ^ eta_[0] (x) eta_[1]."""
    return _apply_pieces(cc, x, chi_piece, (cc.omega_A, cc.omega_H))


def chi_bullet_inv(cc: CompleteCalculus, y: GradedTensor) -> GradedBalancedTensor:
    """omega (x) theta -> omega ^ tau(theta)."""
    oa = cc.omega_A
    legs = (oa, oa)
    out = GradedTensor.zero(legs)
    for (m1, m2, e), c in y.terms.items():
        add_lift(out.terms, legs, m1, _tau_mono(cc, m2).terms.items(),
                 UNIT_ID, e, c)
    return GradedBalancedTensor(cc, raw=out)


# -- extended braiding --------------------------------------------------------------


@memo("_sigbul_cache")
def sigma_piece(cc: CompleteCalculus, key) -> tuple:
    """The memoised sigma of one pair of monomial ids (m1, m2), a tuple of
    flat terms; read-only."""
    oa = cc.omega_A
    legs = (oa, oa)
    m1, m2 = key
    terms = {}
    deg_h = cc.omega_H.mono_deg
    deg_eta = oa.mono_deg[m2]
    for (m0, h, e2), c2 in cc._delta_mono(m1).terms.items():
        t = _tau_mono(cc, h).terms.items()
        if deg_h[h] * deg_eta & 1:
            c2 = -c2
        for (m, e3), c3 in oa.mono_mul(m0, m2):
            add_lift(terms, legs, m, t, UNIT_ID, e2 + e3, c2 * c3)
    return tuple(terms.items())


def sigma_bullet(cc: CompleteCalculus, x: GradedTensor) -> GradedTensor:
    """sigma(omega (x) eta) =
    (-1)^{|omega_[1]||eta|} omega_[0] ^ eta ^ tau(omega_[1])."""
    oa = cc.omega_A
    return _apply_pieces(cc, x, sigma_piece, (oa, oa))


@memo("_tausinv_cache")
def _tau_antipode_inv(cc: CompleteCalculus, h) -> GradedTensor:
    """The memoised tau(S^-1(h)) of the monomial of id h of Omega(H);
    read-only."""
    oh = cc.omega_H
    return tau_bullet(cc, graded_antipode(
        oh, Element(oh, {(h, 0): 1}), inverse=True))


@memo("_siginv_cache")
def sigma_inv_piece(cc: CompleteCalculus, key) -> tuple:
    """The memoised sigma^-1 of one pair of monomial ids (m1, m2), a tuple
    of flat terms; read-only."""
    oa, oh = cc.omega_A, cc.omega_H
    legs = (oa, oa)
    m1, m2 = key
    terms = {}
    deg_a = oa.mono_deg
    deg_omega = deg_a[m1]
    for (m0, h1, e2), c2 in cc._delta_mono(m2).terms.items():
        t = _tau_antipode_inv(cc, h1).terms.items()
        if (deg_omega + deg_a[m0]) * oh.mono_deg[h1] & 1:
            c2 = -c2
        for (m, e3), c3 in oa.mono_mul(m1, m0):
            add_lift(terms, legs, UNIT_ID, t, m, e2 + e3, c2 * c3)
    return tuple(terms.items())


def sigma_bullet_inv(cc: CompleteCalculus, x: GradedTensor) -> GradedTensor:
    """sigma^-1(omega (x) eta) = (-1)^{(|omega|+|eta_[0]|)|eta_[1]|}
    tau((S^-1)(eta_[1])) ^ omega ^ eta_[0] (on the second leg)."""
    oa = cc.omega_A
    return _apply_pieces(cc, x, sigma_inv_piece, (oa, oa))


# -- identity suite -------------------------------------------------------------------


def _generator_elements(cc, max_degree):
    """Algebra generators and basis forms up to max_degree, as elements."""
    oa = cc.omega_A
    out = []
    for g in cc.ca.A.generators:
        out.append((g.name, oa.of_poly(NCPoly.gen(g.name))))
    for k in range(1, min(max_degree, oa.top_degree) + 1):
        for F in oa.basis_forms(k):
            out.append(("^".join(F), oa.form(*F)))
    return out


def _h_elements(cc, max_degree, max_word_len=2):
    """Structure-calculus forms: words times letter words."""
    oh = cc.omega_H
    out = []
    for w in oh.pres.irreducible_words(max_word_len):
        for k in range(0, min(max_degree, oh.top_degree) + 1):
            for F in oh.basis_forms(k):
                name = "*".join(w + sum(((f,) for f in F), ())) or "1"
                out.append((name, oh.of_poly(NCPoly.word(w), F)))
    return out


def _element_degree(x: Element) -> int:
    degs = x.degrees()
    return max(degs) if degs else 0


def canonical_triple_graded(cc, t3: GradedTensor) -> GradedTensor:
    """Iterated canonical embedding into Omega(A) (x) Omega(H) (x) Omega(H).

    The inner chi runs first over all terms, so that equal (m1, p, theta)
    keys are merged before the outer chi is applied to them once."""
    oa, oh = cc.omega_A, cc.omega_H
    inner = _apply_pieces(cc, t3, chi_piece, (oa, oa, oh), 1)
    return _canon12_graded(cc, inner)


def triple_apply(cc, t3: GradedTensor, piece, slot: int) -> GradedTensor:
    """Apply a raw-pair map, given by its memoised pieces piece(cc, key),
    to legs (slot, slot+1) of a triple."""
    oa = cc.omega_A
    return _apply_pieces(cc, t3, piece, (oa, oa, oa), slot)


def triple_wedge(cc, t3: GradedTensor, slot: int) -> GradedTensor:
    """Multiply legs (slot, slot+1) of a triple into one leg."""
    oa = cc.omega_A
    mono_mul = oa.mono_mul
    out = GradedTensor.zero((oa, oa))
    terms = out.terms
    get = terms.get
    items = t3.terms.items()
    if slot:
        for (a, b, d, e), c in items:
            for (m, e2), c2 in mono_mul(b, d):
                key = a, m, e + e2
                v = c * c2 + get(key, 0)
                if v:
                    terms[key] = v
                else:
                    del terms[key]
    else:
        for (a, b, d, e), c in items:
            for (m, e2), c2 in mono_mul(a, b):
                key = m, d, e + e2
                v = c * c2 + get(key, 0)
                if v:
                    terms[key] = v
                else:
                    del terms[key]
    return out


def graded_identity_suite(cc: CompleteCalculus, max_degree: int = 3,
                          example: str = "") -> CheckReport:
    oa, oh = cc.omega_A, cc.omega_H
    legs2 = (oa, oa)
    rep = CheckReport(
        suite="graded", example=example or cc.name,
        truncation={"max_degree": max_degree},
        ref="extended translation identities, canonical-map roundtrips, "
            "braid equation and hexagons on generator tuples")
    rep.notes.append("degree-3 translation values use the product recursion "
                     "seeded by the displayed low-degree formulas")
    rep.notes.append("the first-leg coaction identity is checked as "
                     "displayed for structure forms of degree <= 1; its "
                     "higher-degree content is covered by the braiding "
                     "inverse checks")
    with timed(rep):
        gens = _generator_elements(cc, 2)
        hels = _h_elements(cc, max_degree)
        # canonical roundtrips and TauBul1/2
        for hname, theta in hels:
            y = GradedTensor.of((oa, oh), oa.unit(), theta)
            got = chi_bullet_inv(cc, y)
            rep.record(got.canonical == y, f"TauBul1({hname})",
                       y, got.canonical,
                       ref="chi tau = unit (x) identity")
        for aname, om in gens:
            raw = raw_pair(cc, oa.unit(), om)
            back = chi_bullet_inv(cc, chi_bullet(cc, raw))
            rep.record(back == GradedBalancedTensor(cc, raw=raw),
                       f"TauBul2({aname})", "identity roundtrip", "mismatch",
                       ref="chi^-1 chi = id on balanced tensors")
        taus = {hname: tau_bullet(cc, theta) for hname, theta in hels}
        # TauBul3: translation of a product
        for n1, t1m in hels:
            for n2, t2m in hels:
                dsum = _element_degree(t1m) + _element_degree(t2m)
                if dsum > min(max_degree, oh.top_degree):
                    continue
                lhs = tau_bullet(cc, oh.mul(t1m, t2m))
                rhs = GradedTensor.zero(legs2)
                ta = taus[n1].terms.items()
                d1 = _element_degree(t1m)
                for (b1, b2, e), cb in taus[n2].terms.items():
                    add_lift(rhs.terms, legs2, b1, ta, b2, e,
                             -cb if d1 * oa.mono_deg[b1] & 1 else cb)
                ok = (GradedBalancedTensor(cc, raw=lhs)
                      == GradedBalancedTensor(cc, raw=rhs))
                rep.record(ok, f"TauBul3({n1};{n2})", "product rule holds",
                           "mismatch", ref="translation map of a product")
        # TauBul4: multiplication collapse
        for hname, theta in hels:
            col = collapse_pair(cc, taus[hname])
            if _element_degree(theta) == 0:
                want = oa.of_poly(NCPoly.one().scale(
                    oh.hopf.counit(theta.coefficient_poly(()))))
            else:
                want = oa.zero()
            rep.record(col == want, f"TauBul4({hname})", want, col,
                       ref="wedge collapse equals the graded counit")
        # TauBul5 / TauBul6: coaction shifts across the translation map
        legs3 = (oa, oa, oh)
        for hname, theta in hels:
            t = taus[hname]
            lhs5 = GradedTensor.zero(legs3).add_mapped(
                t, cc._delta_mono, slot=1)
            dtheta = h_complete_delta(oh, theta)
            rhs5 = GradedTensor.zero(legs3).add_mapped(
                dtheta, functools.partial(_tau_mono, cc), slot=0)
            rep.record(_canon12_graded(cc, lhs5) == _canon12_graded(cc, rhs5),
                       f"TauBul5({hname})", "equal", "mismatch",
                       ref="coaction on the second translation leg")
            if _element_degree(theta) > 1:
                # the first-leg coaction identity is stated without the
                # braided reordering signs it needs beyond degree one; its
                # content at higher degree is the invertibility of the
                # extended braiding, checked below
                continue
            lhs6 = GradedTensor.zero(legs3)
            for (m1, m2, e), c in t.terms.items():
                for (p0, p1, e2), c2 in cc._delta_mono(m1).terms.items():
                    add_flat(lhs6.terms, (p0, m2, p1, e + e2), c * c2)
            rhs6 = GradedTensor.zero(legs3)
            for (h1, h2, e), c in dtheta.terms.items():
                s = graded_antipode(oh, Element(oh, {(h1, 0): 1}))
                for (x1, x2, e2), c2 in _tau_mono(cc, h2).terms.items():
                    for (ms, e3), c3 in s.terms.items():
                        add_flat(rhs6.terms, (x1, x2, ms, e + e2 + e3),
                                 c * c2 * c3)
            rep.record(_canon12_graded(cc, lhs6) == _canon12_graded(cc, rhs6),
                       f"TauBul6({hname})", "equal", "mismatch",
                       ref="coaction on the first leg twists by the antipode")
        # graded centrality over base forms
        base_forms = [cc.omega_A.unit()] + cc.base_form_basis(1, 2)
        for hname, theta in hels:
            t = taus[hname].terms.items()
            dt = _element_degree(theta)
            for i, xi in enumerate(base_forms):
                odd = _element_degree(xi) * dt & 1
                left = GradedTensor.zero(legs2)
                right = GradedTensor.zero(legs2)
                for (m, e), c in xi.terms.items():
                    add_lift(left.terms, legs2, m, t, UNIT_ID, e, c)
                    add_lift(right.terms, legs2, UNIT_ID, t, m, e,
                             -c if odd else c)
                ok = (GradedBalancedTensor(cc, raw=left)
                      == GradedBalancedTensor(cc, raw=right))
                rep.record(ok, f"central({hname};base{i})",
                           "graded centrality", "mismatch",
                           ref="base forms commute with translations")
        # braid equation and hexagons on generator triples
        import itertools
        small = [(n, x) for n, x in gens if _element_degree(x) <= 1]
        for (n1, x1), (n2, x2), (n3, x3) in itertools.product(small, repeat=3):
            if (_element_degree(x1) + _element_degree(x2)
                    + _element_degree(x3)) > max_degree:
                continue
            t3 = GradedTensor.of((oa, oa, oa), x1, x2, x3)
            s01 = triple_apply(cc, triple_apply(cc, t3, sigma_piece, 0),
                               sigma_piece, 1)
            s10 = triple_apply(cc, triple_apply(cc, t3, sigma_piece, 1),
                               sigma_piece, 0)
            lhs = triple_apply(cc, s01, sigma_piece, 0)
            rhs = triple_apply(cc, s10, sigma_piece, 1)
            rep.record(lhs.terms == rhs.terms
                       or canonical_triple_graded(cc, lhs)
                       == canonical_triple_graded(cc, rhs),
                       f"braid({n1},{n2},{n3})", "braid equation",
                       "mismatch", ref="third Reidemeister move")
            lhs1 = sigma_bullet(cc, triple_wedge(cc, t3, 0))
            rhs1 = triple_wedge(cc, s10, 1)
            rep.record(GradedBalancedTensor(cc, raw=lhs1)
                       == GradedBalancedTensor(cc, raw=rhs1),
                       f"hex1({n1},{n2},{n3})", "first hexagon", "mismatch",
                       ref="braiding of a product, left")
            lhs2 = sigma_bullet(cc, triple_wedge(cc, t3, 1))
            rhs2 = triple_wedge(cc, s01, 0)
            rep.record(GradedBalancedTensor(cc, raw=lhs2)
                       == GradedBalancedTensor(cc, raw=rhs2),
                       f"hex2({n1},{n2},{n3})", "second hexagon", "mismatch",
                       ref="braiding of a product, right")
        # braided commutativity and invertibility on generator pairs
        for (n1, x1), (n2, x2) in itertools.product(gens, repeat=2):
            if _element_degree(x1) + _element_degree(x2) > max_degree:
                continue
            pair = raw_pair(cc, x1, x2)
            sp = sigma_bullet(cc, pair)
            got = collapse_pair(cc, sp)
            want = collapse_pair(cc, pair)
            rep.record(got == want, f"wedge-sigma({n1},{n2})", want, got,
                       ref="multiplication absorbs the braiding")
            back = sigma_bullet_inv(cc, sp)
            fwd = sigma_bullet(cc, sigma_bullet_inv(cc, pair))
            ok = (GradedBalancedTensor(cc, raw=back)
                  == GradedBalancedTensor(cc, raw=pair)
                  and GradedBalancedTensor(cc, raw=fwd)
                  == GradedBalancedTensor(cc, raw=pair))
            rep.record(ok, f"sigma-inverse({n1},{n2})",
                       "two-sided inverse", "mismatch",
                       ref="inverse braiding")
    return rep


def _canon12_graded(cc, t3: GradedTensor) -> GradedTensor:
    """Canonicalize the balanced pair in slots (0, 1) of a triple, keep
    slot 2."""
    oa, oh = cc.omega_A, cc.omega_H
    return _apply_pieces(cc, t3, chi_piece, (oa, oh, oh), 0)


def collapse_pair(cc, t: GradedTensor) -> Element:
    """Multiplication map on a raw pair, a form."""
    oa = cc.omega_A
    terms = {}
    for (m1, m2, e), c in t.terms.items():
        oa.add_mono_mul(terms, m1, m2, e, c)
    return Element(oa, terms)


def sigma_squared_is_identity(cc, x1: Element, x2: Element) -> bool:
    pair = raw_pair(cc, x1, x2)
    twice = sigma_bullet(cc, sigma_bullet(cc, pair))
    return (GradedBalancedTensor(cc, raw=twice)
            == GradedBalancedTensor(cc, raw=pair))
