"""The complete-calculus layer on a quantum principal bundle.

Wraps a comodule algebra with calculi on the total space and the structure
Hopf algebra.  The extended coaction is computed multiplicatively from
per-letter tensor tables; well-definedness against every calculus relation
is the completeness check.  Vertical forms are A (x) Lambda with the
twisted product; horizontal and base forms are bidegree conditions.

The coactions take forms and return graded tensors, both flat sums keyed
by monomial ids (calculus.Element, calculus.GradedTensor); the vertical
maps, the kernels and the checks that read coefficients take their
scalar_terms.  Every span verdict is a set of inclusions, each decided by
linalg.span_witnesses on flat terms: witnessed and unreached test
inclusions, and span_gap tests an equality as two of them.
"""

from __future__ import annotations

import functools

from .calculus import (
    DiffCalculus,
    Element,
    GradedTensor,
    cartan_maurer,
    lambda_element,
    left_tag,
    to_lambda,
)
from .comodule import (
    BalancedTensor,
    ComoduleAlgebra,
    TranslationData,
    chi,
    left_colinear,
    right_colinear,
)
from .linalg import kernel_on, span_witnesses
from .ncalg import NCPoly, add_term, flat_of, memo, same_key
from .report import CheckReport, timed
from .scalars import Scalar
from .tensors import TensorPoly


class QPBError(Exception):
    pass


def witnessed(rows, targets) -> list:
    """For each target, whether a combination of rows reaches it: lists of
    flat sums of one context, each inclusion decided by span_witnesses."""
    found = span_witnesses(lambda i: rows[i].terms, len(rows),
                           [t.terms for t in targets])
    return [lam is not None for lam in found]


def unreached(rows, keys) -> list:
    """The keys k whose unit vector {(k, 0): 1} no combination of the flat
    rows reaches."""
    found = span_witnesses(rows.__getitem__, len(rows),
                           [{(k, 0): 1} for k in keys])
    return [k for k, lam in zip(keys, found) if lam is None]


def span_gap(a, name_a, b, name_b) -> str:
    """"" when the lists of flat sums a and b span one space, as two
    inclusions; else names the first of either outside the other's span."""
    for targets, rows, name in ((a, b, name_b), (b, a, name_a)):
        for t, ok in zip(targets, witnessed(rows, targets)):
            if not ok:
                return f"{t} outside {name}"
    return ""


# -- complete coaction on the structure calculus (regular bundle over itself) --


def _extend(legs, seed, letters) -> GradedTensor:
    """Delta(w) ^ Delta(f_1) ^ ... ^ Delta(f_k) from the word coaction seed
    (a TensorPoly) and the letter coactions in order."""
    acc = GradedTensor.degree_zero(legs, seed)
    for t in letters:
        acc = acc.wedge(t)
    return acc


def _letter_id(calc: DiffCalculus, f) -> int:
    """The id of the monomial of the one letter f."""
    return calc.intern(((), (f,)))


@memo("_hdelta_cache")
def _hdelta_mono(calc: DiffCalculus, i) -> GradedTensor:
    """The memoised DGA extension of the comultiplication on the monomial
    of id i of Omega(H); read-only.  A single letter's entry is
    its table, sum Delta(a_i) d(Delta(b_i)) over the letter's expansion."""
    hopf = calc.hopf
    legs = (calc, calc)
    w, F = calc.monos[i]
    if w or len(F) != 1:
        return _extend(legs, hopf._delta_word(w),
                       (_hdelta_mono(calc, _letter_id(calc, f)) for f in F))
    acc = GradedTensor.zero(legs)
    for a, b in calc.expansion[F[0]]:
        acc.add_scaled(
            GradedTensor.degree_zero(legs, hopf.coproduct(a)).wedge(
                GradedTensor.degree_zero(legs, hopf.coproduct(b)).d()))
    return acc


def h_delta_letter_table(calc: DiffCalculus) -> dict:
    """Letter tables of the DGA extension of the comultiplication,
    Delta(letter) = sum Delta(a_i) d_x(Delta(b_i)) from the expansions."""
    return {f: _hdelta_mono(calc, _letter_id(calc, f)) for f in calc.letters}


def h_complete_delta(calc: DiffCalculus, x: Element) -> GradedTensor:
    """The DGA morphism extension of the comultiplication on Omega(H)."""
    return GradedTensor.zero((calc, calc)).add_mapped(
        x, functools.partial(_hdelta_mono, calc))


# -- the bundle object ----------------------------------------------------------


class CompleteCalculus:
    def __init__(self, name, ca: ComoduleAlgebra, omega_A: DiffCalculus,
                 omega_H: DiffCalculus, delta_letter, td: TranslationData):
        self.name = name
        self.ca = ca
        self.omega_A = omega_A
        self.omega_H = omega_H
        self.delta_letter = dict(delta_letter)  # A-letter -> GradedTensor
        self.td = td
        self.legs = (omega_A, omega_H)
        self._delta_cache = {}
        self._lam_act_cache = {}
        self._lam_wedge_cache = {}
        self._lam_d_cache = {}
        self._cm_cache = {}
        self._chibul_cache = {}
        self._sigbul_cache = {}
        self._siginv_cache = {}
        self._tausinv_cache = {}
        self._taubul_cache = {}
        self._tauletter_cache = {}

    # -- extended coaction

    def delta_bullet(self, x: Element) -> GradedTensor:
        """The extended coaction."""
        return GradedTensor.zero(self.legs).add_mapped(x, self._delta_mono)

    @memo("_delta_cache")
    def _delta_mono(self, i) -> GradedTensor:
        """The memoised coaction of the monomial of id i of Omega(A);
        read-only."""
        w, F = self.omega_A.monos[i]
        return _extend(self.legs, self.ca._coact_word(w),
                       (self.delta_letter[f] for f in F))

    def ver(self, k: int, l: int, x: Element) -> GradedTensor:
        """Bidegree-(k, l) component of the extended coaction."""
        return self.delta_bullet(x).component((k, l))

    # -- vertical projection and vertical forms

    def pi_v(self, x: Element) -> dict:
        """Vertical projection into A (x) Lambda, keyed (word, letter word)."""
        out = {}
        for key, c in self.delta_bullet(x).scalar_terms().items():
            (wa, fa), (wh, fh) = key
            if fa:
                continue
            add_term(out, (wa, fh), c)
        return out

    @memo("_lam_act_cache")
    def lambda_act(self, F, hword) -> dict:
        """theta_F <- h = S(h) theta_F h decomposed over the lambda basis."""
        oh = self.omega_H
        inv = oh.hopf.grouplike_inverse_word(hword)
        return to_lambda(oh, oh.product(oh.of_poly(NCPoly.word(inv)),
                                        lambda_element(oh, F),
                                        oh.of_poly(NCPoly.word(hword))))

    @memo("_lam_wedge_cache")
    def lambda_wedge(self, F1, F2) -> dict:
        oh = self.omega_H
        return to_lambda(oh, oh.mul(lambda_element(oh, F1),
                                    lambda_element(oh, F2)))

    @memo("_lam_d_cache")
    def lambda_d(self, F) -> dict:
        oh = self.omega_H
        return to_lambda(oh, oh.d(lambda_element(oh, F)))

    @memo("_cm_cache")
    def cm_lambda(self, hword) -> dict:
        """varpi(pi_eps(h)) over the lambda basis."""
        return to_lambda(self.omega_H,
                         cartan_maurer(self.omega_H, NCPoly.word(hword)))

    def ver_wedge(self, x: dict, y: dict) -> dict:
        """(a (x) theta)(a' (x) theta') = a a'_0 (x) (theta <- a'_1) theta'."""
        A = self.ca.A
        out = {}
        for (w1, F1), c1 in x.items():
            for (w2, F2), c2 in y.items():
                for (a0, a1), c3 in self.ca._coact_word(w2).terms.items():
                    acted = self.lambda_act(F1, a1)
                    for Fm, c4 in acted.items():
                        wed = self.lambda_wedge(Fm, F2)
                        for Ff, c5 in wed.items():
                            prod = A.normal_word(w1 + a0)
                            for wf, c6 in prod.terms.items():
                                add_term(out, (wf, Ff),
                                         c1 * c2 * c3 * c4 * c5 * c6)
        return out

    def ver_d(self, x: dict) -> dict:
        """d_v(a (x) theta) = a (x) d theta + a_0 (x) varpi(pi(a_1)) theta."""
        out = {}
        for (w, F), c in x.items():
            for F2, c2 in self.lambda_d(F).items():
                add_term(out, (w, F2), c * c2)
            for (a0, a1), c2 in self.ca._coact_word(w).terms.items():
                cm = self.cm_lambda(a1)
                for Fcm, c3 in cm.items():
                    for Ff, c4 in self.lambda_wedge(Fcm, F).items():
                        add_term(out, (a0, Ff), c * c2 * c3 * c4)
        return out

    def delta_v(self, x: dict) -> dict:
        """Extended coaction on vertical forms, keyed
        ((word, lambda letters), (H word, H letters))."""
        oh = self.omega_H
        out = {}
        for (w, F), c in x.items():
            g = h_complete_delta(oh, lambda_element(oh, F))
            bucket = {}
            for (m1, m2), c2 in g.scalar_terms().items():
                bucket.setdefault(m2, {})[m1] = c2
            for (w2, F2), piece in bucket.items():
                lam = to_lambda(oh, Element.from_scalars(oh, piece))
                for (a0, a1), c3 in self.ca._coact_word(w).terms.items():
                    tail = oh.pres.normal_word(a1 + w2)
                    for wt, c4 in tail.terms.items():
                        for Fl, c5 in lam.items():
                            add_term(out, ((a0, Fl), (wt, F2)),
                                     c * c3 * c4 * c5)
        return out

    # -- truncated bases

    def omega_basis(self, degree: int, max_word_len: int):
        for w in self.ca.A.irreducible_words(max_word_len):
            for F in self.omega_A.basis_forms(degree):
                yield (w, F)

    def element_of(self, w, F) -> Element:
        oa = self.omega_A
        return Element(oa, {(oa.intern((tuple(w), tuple(F))), 0): 1})

    def kernel_forms(self, degree: int, max_word_len: int, image):
        """The kernel of the map image, given on the monomials (w, F) of
        omega_basis as Scalar terms, as forms."""
        return [Element.from_scalars(self.omega_A, combo) for combo in
                kernel_on(self.omega_basis(degree, max_word_len), image)]

    def base_form_basis(self, degree: int, max_word_len: int):
        """Basis of base forms of a given degree over the truncated words:
        the kernel of Delta - id (x) 1."""
        def image(m):
            x = self.element_of(*m)
            return (self.delta_bullet(x) - GradedTensor.of(
                self.legs, x, self.omega_H.unit())).scalar_terms()
        return self.kernel_forms(degree, max_word_len, image)

    def lettered(self, x: Element) -> GradedTensor:
        """The terms of the extended coaction of x whose Omega(H) leg has
        letters: zero exactly when x is horizontal."""
        deg = self.omega_H.mono_deg
        return GradedTensor(self.legs, {
            key: c for key, c in self.delta_bullet(x).terms.items()
            if deg[key[1]]})

    def horizontal_basis(self, degree: int, max_word_len: int):
        """Basis of horizontal forms of a given degree over the truncated
        words: the kernel of lettered."""
        return self.kernel_forms(degree, max_word_len, lambda m: self.lettered(
            self.element_of(*m)).scalar_terms())

    # -- suites --------------------------------------------------------------

    def completeness_check(self, max_word_len: int = 2,
                           example: str = "") -> CheckReport:
        oa, oh = self.omega_A, self.omega_H
        rep = CheckReport(
            suite="complete", example=example or self.name,
            truncation={"max_word_len": max_word_len},
            ref="extended coaction is a well-defined DGA morphism; "
                "vertical components decompose multiplicatively")
        with timed(rep):
            # right-action relations
            for f in oa.letters:
                for g in self.ca.A.generators:
                    lhs = self.delta_bullet(
                        oa.mul(oa.form(f), oa.of_poly(NCPoly.gen(g.name))))
                    gen = self._delta_mono(oa.intern(((g.name,), ())))
                    rhs = self.delta_letter[f].wedge(gen)
                    rep.record(lhs == rhs, f"raction({f},{g.name})",
                               "equal", "mismatch",
                               ref="coaction respects the bimodule relations")
            # wedge straightening relations
            for f1 in oa.letters:
                for f2 in oa.letters:
                    lhs = self.delta_bullet(oa.mul(oa.form(f1), oa.form(f2)))
                    rhs = self.delta_letter[f1].wedge(self.delta_letter[f2])
                    rep.record(lhs == rhs, f"wedge({f1},{f2})",
                               "equal", "mismatch",
                               ref="coaction respects the wedge relations")
            # differential compatibility
            for g in self.ca.A.generators:
                lhs = self.delta_bullet(oa.d_gen[g.name])
                rhs = self._delta_mono(oa.intern(((g.name,), ()))).d()
                rep.record(lhs == rhs, f"d({g.name})", "equal", "mismatch",
                           ref="coaction intertwines the differentials")
            for f in oa.letters:
                lhs = self.delta_bullet(oa.d(oa.form(f)))
                rhs = self.delta_letter[f].d()
                rep.record(lhs == rhs, f"d({f})", "equal", "mismatch",
                           ref="coaction intertwines the differentials")
            # counitality and the coaction square on letters
            legs3 = (oa, oh, oh)
            for f in oa.letters:
                x = oa.form(f)
                dx = self.delta_bullet(x)
                collapsed = {}
                for ((wa, fa), (wh, fh)), c in dx.scalar_terms().items():
                    if fh:
                        continue
                    e = oh.hopf.counit(NCPoly.word(wh))
                    add_term(collapsed, (wa, fa), c * e)
                collapsed = Element.from_scalars(oa, collapsed)
                rep.record(collapsed == x, f"counit({f})", x, collapsed,
                           ref="(id (x) eps) Delta = id")
                lhs3 = GradedTensor.zero(legs3).add_mapped(
                    dx, self._delta_mono, slot=0)
                rhs3 = GradedTensor.zero(legs3).add_mapped(
                    dx, functools.partial(_hdelta_mono, oh), slot=1)
                rep.record(lhs3 == rhs3, f"coassoc({f})", "equal", "mismatch",
                           ref="coaction square commutes")
            # higher vertical maps decompose on letter pairs
            for f1 in oa.letters:
                for f2 in oa.letters:
                    prod = oa.mul(oa.form(f1), oa.form(f2))
                    full = self.delta_bullet(prod)
                    d1 = self.delta_letter[f1]
                    d2 = self.delta_letter[f2]
                    for k in range(0, 3):
                        for l in range(0, 3):
                            lhs = full.component((k, l))
                            rhs = GradedTensor.zero(self.legs)
                            for m in range(0, 2):
                                a = d1.component((m, 1 - m))
                                b = d2.component((k - m, l - (1 - m)))
                                rhs.add_scaled(a.wedge(b))
                            rep.record(lhs == rhs,
                                       f"ver{k}{l}({f1},{f2})",
                                       "decomposes", "mismatch",
                                       ref="vertical components of a product")
        return rep

    def atiyah_check(self, max_word_len: int = 3,
                     example: str = "") -> CheckReport:
        rep = CheckReport(
            suite="atiyah", example=example or self.name,
            truncation={"max_word_len": max_word_len},
            ref="0 -> hor1 -> Omega1 -> ver1 -> 0 exact at truncation")
        with timed(rep):
            ker_piv = self.kernel_forms(
                1, max_word_len, lambda m: self.pi_v(self.element_of(*m)))
            gap = span_gap(ker_piv, "ker pi_v",
                           self.horizontal_basis(1, max_word_len), "hor1")
            rep.record(not gap, "ker pi_v = hor1", "equal spans", gap,
                       ref="kernel of the vertical projection")
            # surjectivity onto A (x) Lambda^1 at truncation
            wide = [flat_of(self.pi_v(self.element_of(w, F)), same_key)
                    for w, F in self.omega_basis(1, max_word_len + 1)]
            missing = unreached(wide, [
                (w, F) for w in self.ca.A.irreducible_words(max_word_len)
                for F in self.omega_H.basis_forms(1)])
            rep.record(not missing, "pi_v surjective",
                       "all targets reached",
                       f"missing {missing[:3]}",
                       ref="vertical projection onto the truncated target")
        return rep

    def bm_check(self, max_word_len: int = 3,
                 example: str = "") -> CheckReport:
        rep = CheckReport(
            suite="bm", example=example or self.name,
            truncation={"max_word_len": max_word_len, "degrees": [1, 2]},
            ref="horizontal forms coincide with A Omega(B) A at truncation")
        oa = self.omega_A
        with timed(rep):
            words = list(self.ca.A.irreducible_words(max_word_len + 2))
            for k in (1, 2):
                if k > oa.top_degree:
                    continue
                # the rows w1 xi w2: each must be horizontal, and together
                # they must reach every horizontal form of the truncation
                rows, names = [], []
                for xi in self.base_form_basis(k, min(max_word_len, 2)):
                    for w1 in words:
                        for w2 in words:
                            if len(w1) + len(w2) > max_word_len + 2:
                                continue
                            prod = oa.product(oa.of_poly(NCPoly.word(w1)), xi,
                                              oa.of_poly(NCPoly.word(w2)))
                            if not prod.is_zero():
                                rows.append(prod)
                                names.append(("*".join(w1) or "1", xi,
                                              "*".join(w2) or "1"))
                hor = self.horizontal_basis(k, max_word_len)
                missing = [x for x, ok in zip(hor, witnessed(rows, hor))
                           if not ok]
                if missing:
                    got = f"{missing[0]} reached by no row"
                else:
                    got = next((f"row {w1} ({xi}) {w2} not horizontal"
                                for (w1, xi, w2), row in zip(names, rows)
                                if not self.lettered(row).is_zero()), "")
                rep.record(not got, f"hor{k} = A Omega{k}(B) A",
                           "every horizontal form reached by horizontal rows",
                           got, ref="certified inclusions at truncation")
        return rep

    def vertical_check(self, max_word_len: int = 3,
                       example: str = "") -> CheckReport:
        rep = CheckReport(
            suite="vertical", example=example or self.name,
            truncation={"max_word_len": max_word_len},
            ref="vertical forms: d_v squares to zero and the extended "
                "coaction intertwines pi_v")
        with timed(rep):
            lam_degrees = [k for k in range(self.omega_H.top_degree + 1)]
            for w in self.ca.A.irreducible_words(max_word_len):
                for k in lam_degrees:
                    for F in self.omega_H.basis_forms(k):
                        x = {(w, F): Scalar.one()}
                        got = self.ver_d(self.ver_d(x))
                        rep.record(not got, f"dd({'*'.join(w) or '1'},{F})",
                                   "0", got,
                                   ref="square of the vertical differential")
            # (pi_v (x) id) Delta = Delta_v pi_v on generators and letters
            items = [self.omega_A.of_poly(NCPoly.gen(g.name))
                     for g in self.ca.A.generators]
            items += [self.omega_A.form(f) for f in self.omega_A.letters]
            for x in items:
                lhs = {}
                for ((wa, fa), (wh, fh)), c in \
                        self.delta_bullet(x).scalar_terms().items():
                    piv = self.pi_v(self.element_of(wa, fa))
                    for vkey, c2 in piv.items():
                        add_term(lhs, (vkey, (wh, fh)), c * c2)
                rhs = self.delta_v(self.pi_v(x))
                rep.record(lhs == rhs, f"diagram({x})", "commutes",
                           "mismatch", ref="compatibility of the coactions")
            # pi_v is a morphism of differential graded algebras
            for x in items:
                lhs = self.pi_v(self.omega_A.d(x))
                rhs = self.ver_d(self.pi_v(x))
                rep.record(lhs == rhs, f"pi_v-d({x})", "commutes",
                           "mismatch",
                           ref="vertical projection intertwines the "
                               "differentials")
                for y in items:
                    lhs2 = self.pi_v(self.omega_A.mul(x, y))
                    rhs2 = self.ver_wedge(self.pi_v(x), self.pi_v(y))
                    rep.record(lhs2 == rhs2, f"pi_v-mul({x};{y})",
                               "multiplicative", "mismatch",
                               ref="vertical projection respects products")
        return rep

    # -- connections -----------------------------------------------------------

    def connection_map(self, s: dict, x: Element) -> Element:
        """Pi(a d a') = a a'_0 s(varpi(pi(a'_1))), via letter expansions."""
        oa = self.omega_A
        out = Element(oa)
        for (w, F), c in x.scalar_terms().items():
            if len(F) != 1:
                raise QPBError("connection projector acts on 1-forms")
            f = F[0]
            for a, b in oa.expansion[f]:
                ab = oa.pres.multiply(NCPoly.word(w), a)
                for wb, cb in oa.pres.reduce(b).terms.items():
                    for (b0, b1), c2 in self.ca._coact_word(wb).terms.items():
                        cm = self.cm_lambda(b1)
                        for Fl, c3 in cm.items():
                            piece = oa.mul(oa.of_poly(
                                oa.pres.multiply(ab, NCPoly.word(b0))), s[Fl])
                            out.add_scaled(piece, c * cb * c2 * c3)
        return out

    def connection_check(self, s: dict, max_word_len: int = 3,
                         example: str = "") -> CheckReport:
        oa, oh = self.omega_A, self.omega_H
        rep = CheckReport(
            suite="connection", example=example or self.name,
            truncation={"max_word_len": max_word_len},
            ref="section property, colinearity, induced projector, "
                "strongness")
        with timed(rep):
            one = Scalar.one()
            for F in oh.basis_forms(1):
                got = self.pi_v(s[F])
                rep.record(got == {((), F): one}, f"section({F})",
                           f"1 (x) theta_{F}", got,
                           ref="pi_v after the connection form is the unit")
                gt = self.delta_bullet(s[F]).component((1, 0))
                want = GradedTensor.of(self.legs, s[F], oh.unit())
                rep.record(gt == want, f"colinear({F})",
                           "s(theta) (x) 1", gt,
                           ref="adjoint colinearity (trivial adjoint tags)")
            # induced projector: idempotent with kernel hor1
            domain = list(self.omega_basis(1, max_word_len))
            projected = {}
            for w, F in domain:
                px = projected[w, F] = self.connection_map(
                    s, self.element_of(w, F))
                ppx = self.connection_map(s, px)
                rep.record(ppx == px, f"idempotent({'*'.join(w) or '1'},{F})",
                           "Pi Pi = Pi", "mismatch",
                           ref="projector property")
            ker_pi = self.kernel_forms(
                1, max_word_len, lambda m: projected[m].scalar_terms())
            gap = span_gap(ker_pi, "ker Pi",
                           self.horizontal_basis(1, max_word_len), "hor1")
            rep.record(not gap, "ker Pi = hor1", "equal spans", gap,
                       ref="kernel comparison at truncation")
            # strongness: (id - Pi)(d a) inside Omega1(B) A
            base1 = self.base_form_basis(1, min(max_word_len, 2))
            rows = []
            words = list(self.ca.A.irreducible_words(max_word_len))
            for xi in base1:
                for w2 in words:
                    prod = oa.mul(xi, oa.of_poly(NCPoly.word(w2)))
                    if not prod.is_zero():
                        rows.append(prod)
            words = [w for w in words if w]
            resids = []
            for w in words:
                da = oa.d_poly(NCPoly.word(w))
                resids.append(da - self.connection_map(s, da))
            for w, resid, ok in zip(words, resids,
                                    witnessed(rows, resids)):
                rep.record(ok, f"strong({'*'.join(w)})",
                           "(id - Pi) d a in Omega1(B) A",
                           f"{resid} outside span",
                           ref="strongness of the induced connection")
        return rep

    def strong_connection_check(self, ell, max_n: int = 3,
                                example: str = "") -> CheckReport:
        """ell: callable on structure basis words returning raw A (x) A."""
        ca = self.ca
        A, H = ca.A, ca.H
        rep = CheckReport(
            suite="strong", example=example or self.name,
            truncation={"max_n": max_n},
            ref="unitality, splitting of the canonical surjection, "
                "colinearity on both legs, translation-map agreement")
        # each word's ell is computed once across the checks below
        ell_once = functools.cache(ell)
        with timed(rep):
            l1 = ell_once(())
            rep.record(l1 == TensorPoly.unit((A, A)), "ell(1)",
                       "1 (x) 1", l1, ref="unital normalization")
            for w in H.base.irreducible_words(max_n):
                if not w:
                    continue
                name = "*".join(w)
                lw = ell_once(w)
                got = chi(ca, lw)
                want = TensorPoly.from_polys((A, H.base), NCPoly.one(),
                                             NCPoly.word(w))
                rep.record(got == want, f"splitting({name})", want, got,
                           ref="chi' ell = 1 (x) h")
                lhs, rhs = right_colinear(ca, ell_once, w)
                rep.record(lhs == rhs, f"right-colinear({name})",
                           "equal raw tensors", "mismatch",
                           ref="coaction on the second leg")
                lhs2, rhs2 = left_colinear(ca, ell_once, w)
                rep.record(lhs2 == rhs2, f"left-colinear({name})",
                           "equal raw tensors", "mismatch",
                           ref="antipode twist on the first leg")
                lhs3 = BalancedTensor(ca, raw=lw)
                rhs3 = BalancedTensor(ca, raw=self.td.tau_word(w))
                rep.record(lhs3 == rhs3, f"tau-agreement({name})",
                           "pi_B ell = tau", "mismatch",
                           ref="projection to the balanced tensor product")
        return rep

    # -- structure-calculus decomposition ---------------------------------------

    def xi_decomposition(self, x: Element) -> dict:
        """Omega(H) -> H (x) Lambda, keyed (word, lambda letters)."""
        oh = self.omega_H
        if x.calc is not oh:
            raise QPBError("xi acts on structure-calculus elements")
        out = {}
        for (w, F), c in x.scalar_terms().items():
            if F:
                tag = oh.pres.normal_word(w + left_tag(oh, F))
            else:
                tag = oh.pres.normal_word(w)
            for wt, c2 in tag.terms.items():
                add_term(out, (wt, F), c * c2)
        return out

    def xi_inverse(self, pairs: dict) -> Element:
        oh = self.omega_H
        out = Element(oh)
        for (w, F), c in pairs.items():
            out.add_scaled(oh.mul(oh.of_poly(NCPoly.word(w)),
                                  lambda_element(oh, F)), c)
        return out
