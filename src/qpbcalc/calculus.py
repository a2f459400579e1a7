"""Graded differential calculi with a free left-module basis of forms.

A calculus is presented by degree-one basis letters, straightening
coefficients between letters (wedge relations), right-action rules moving
generators left past letters, and differential tables for generators and
letters.  Higher basis forms are strictly increasing letter words; a single
product covers algebra multiplication and the wedge.

A monomial is a pair (w, F) of a coefficient word and a letter word.
Forms (Element) and graded tensors (GradedTensor) are flat sums
(ncalg.FlatSum): they key each monomial by a small int id that its
calculus gives (DiffCalculus.intern), id 0 the unit ((), ()) and the others
in the order the monomials are first met, so a form's term is keyed (id,
e) and a tensor's (id, ..., id, e), one id a leg.  They read the Koszul
signs of their products and differentials from the ids' degrees
(DiffCalculus.mono_deg).  The product of two monomials is memoised as a
flat table (DiffCalculus.mono_mul), which every product of forms and of
graded tensors reads.  Scalar terms {(w, F): Scalar} enter a form by
Element.from_scalars and leave it by scalar_terms.  The tables that fill
mono_mul are flat as well: act_word moves a coefficient word left past a
letter word and straighten sorts a letter word, each a memoised read-only
tuple of flat terms; the words are reduced by pres.flat_normal_word, the
presentation's one normal-form memo, which act_word, _expand, of_poly and
max_prolongation_degree2 read.
"""

from __future__ import annotations

import itertools

from .linalg import kernel_on, span_witnesses
from .ncalg import (FlatSum, NCPoly, add_flat, add_term, flat_of, memo,
                    same_key, scalars_of)
from .report import CheckReport, timed
from .scalars import Scalar, flat_coeff, sign


UNIT = ((), ())   # the unit monomial: the empty word with no letters
UNIT_ID = 0       # its id in every calculus


class CalculusError(Exception):
    pass


class MissingActionError(CalculusError):
    pass


class Element(FlatSum):
    """A form: flat terms (monomial id, e) -> int in its calculus."""

    __slots__ = ("calc",)
    _context = "calc"

    def __init__(self, calc, terms=None):
        self.calc = calc
        FlatSum.__init__(self, terms, 1)

    @staticmethod
    def from_scalars(calc, terms) -> "Element":
        """The form of Scalar terms {(w, F): Scalar} of calc."""
        return Element(calc, flat_of(terms, calc.intern))

    def _id_to_key(self):
        return self.calc.monos.__getitem__

    def degrees(self):
        deg = self.calc.mono_deg
        return {deg[i] for i, _ in self.terms}

    def coefficient_poly(self, F) -> NCPoly:
        F = tuple(F)
        return NCPoly({w: c for (w, F2), c in self.scalar_terms().items()
                       if F2 == F})

    @staticmethod
    def _key_str(key):
        w, F = key
        return "*".join((*w, *F))

    @staticmethod
    def _sort_key(key):
        w, F = key
        return (len(F), F, len(w), w)


class DiffCalculus:
    """Calculus presentation plus the normal-form engine for forms."""

    def __init__(self, name, pres, letters, top_degree, swap, raction,
                 d_gen, d_letter, expansion=None, rco=None, lco=None,
                 hopf=None):
        self.name = name
        self.pres = pres
        self.letters = tuple(letters)
        self.letter_index = {f: i for i, f in enumerate(self.letters)}
        self.top_degree = top_degree
        self.swap = dict(swap)            # (a, b) -> Scalar with a after b
        self.raction = dict(raction)      # (letter, gen) -> Element
        self.d_gen = dict(d_gen)          # gen -> Element degree 1
        self.d_letter = dict(d_letter)    # letter -> Element degree 2
        self.expansion = dict(expansion or {})
        self.rco = dict(rco or {})        # letter -> grouplike word (right)
        self.lco = dict(lco or {})        # letter -> grouplike word (left)
        self.hopf = hopf                  # set for structure-group calculi
        self._act_cache = {}
        self._straight_cache = {}
        self._dword_cache = {(): Element(self)}
        self._dletters_cache = {}
        self._mono_mul_cache = {}
        self._hdelta_cache = {}           # qpb._hdelta_mono, on Omega(H)
        # the monomial ids: mono_id maps a monomial to its id, monos and
        # mono_deg give an id's monomial and its degree len(F)
        self.mono_id = {UNIT: UNIT_ID}
        self.monos = [UNIT]
        self.mono_deg = [0]

    def intern(self, m) -> int:
        """The id of the monomial m = (w, F), given on first sight."""
        i = self.mono_id.get(m)
        if i is None:
            i = self.mono_id[m] = len(self.monos)
            self.monos.append(m)
            self.mono_deg.append(len(m[1]))
        return i

    # -- constructors

    def zero(self) -> Element:
        return Element(self)

    def unit(self) -> Element:
        return Element(self, {(UNIT_ID, 0): 1})

    def of_poly(self, p: NCPoly, letters=()) -> Element:
        """The form p F, read from the presentation's normal-form memo."""
        letters = tuple(letters)
        nf, intern = self.pres.flat_normal_word, self.intern
        terms = {}
        for w, s in p.terms.items():
            for e, c in flat_coeff(s):
                for (w2, e2), c2 in nf(w):
                    add_flat(terms, (intern((w2, letters)), e + e2), c * c2)
        return Element(self, terms)

    def form(self, *letters) -> Element:
        return self.of_poly(NCPoly.one(), tuple(letters))

    def basis_forms(self, k: int):
        """Strictly increasing letter words of length k."""
        if k > self.top_degree:
            return []
        return list(itertools.combinations(self.letters, k))

    # -- the tables of the monomial product, flat terms (see ncalg.FlatSum)

    @memo("_straight_cache")
    def straighten(self, letters):
        """Sort a letter word by the swap rules: a read-only tuple of flat
        terms (sorted letters, e, c), empty when the word vanishes."""
        if len(letters) > self.top_degree:
            return ()
        coeff = {0: 1}
        word = list(letters)
        changed = True
        while changed:
            changed = False
            for i in range(len(word) - 1):
                a, b = word[i], word[i + 1]
                ia, ib = self.letter_index[a], self.letter_index[b]
                if ia == ib:
                    return ()
                if ia > ib:
                    c = self.swap.get((a, b))
                    if c is None:
                        raise CalculusError(
                            f"{self.name}: missing swap rule for ({a},{b})")
                    prod = {}
                    for e1, c1 in coeff.items():
                        for e2, c2 in flat_coeff(c):
                            add_flat(prod, e1 + e2, c1 * c2)
                    coeff = prod
                    word[i], word[i + 1] = b, a
                    changed = True
        word = tuple(word)
        return tuple((word, e, c) for e, c in coeff.items())

    def _act_gen(self, F, g) -> dict:
        """F . g as flat terms {((word, letter word of the same length),
        e): c}."""
        if not F:
            return {(((g,), ()), 0): 1}
        last = F[-1]
        rule = self.raction.get((last, g))
        if rule is None:
            raise MissingActionError(
                f"{self.name}: no right-action rule for ({last}, {g})")
        out = {}
        monos = rule.calc.monos
        for (i, er), cr in rule.terms.items():
            wr, Fr = monos[i]
            for (w2, F2), e2, c2 in self.act_word(F[:-1], wr):
                add_flat(out, ((w2, F2 + Fr), er + e2), cr * c2)
        return out

    @memo("_act_cache")
    def act_word(self, F, w) -> tuple:
        """F . w as a read-only tuple of flat terms ((w', F'), e, c), the
        coefficients moved fully to the left (letters unsorted)."""
        if not w:
            return ((((), F), 0, 1),)
        out = {}
        nf = self.pres.flat_normal_word
        for ((w1, F1), e1), c1 in self._act_gen(F, w[0]).items():
            for (w2, F2), e2, c2 in self.act_word(F1, w[1:]):
                e, c = e1 + e2, c1 * c2
                for (w3, e3), c3 in nf(w1 + w2):
                    add_flat(out, ((w3, F2), e + e3), c * c3)
        return tuple((m, e, c) for (m, e), c in out.items())

    # -- product (algebra multiplication and wedge in one)

    def _expand(self, terms, m1, m2, e, c):
        """Flat terms {(id, e): c} += c x^e m1 m2 for monomials m1 = (w1,
        F1), m2 = (w2, F2), the word w2 not necessarily reduced: the fill
        of mono_mul."""
        (w1, F1), (w2, F2) = m1, m2
        if len(F1) + len(F2) > self.top_degree:
            return
        intern, nf = self.intern, self.pres.flat_normal_word
        get = terms.get
        for (w3, F3), e3, c3 in self.act_word(F1, w2):
            for F4, e4, c4 in self.straighten(F3 + F2):
                e5, c5 = e + e3 + e4, c * c3 * c4
                for (w5, e6), c6 in nf(w1 + w3):
                    key = intern((w5, F4)), e5 + e6
                    v = c5 * c6 + get(key, 0)
                    if v:
                        terms[key] = v
                    else:
                        del terms[key]

    @memo("_mono_mul_cache")
    def mono_mul(self, i1, i2) -> tuple:
        """The memoised product of the monomials of ids i1 and i2, as a
        tuple of flat terms ((id, e), c) (see ncalg.FlatSum): read-only,
        never an accumulator."""
        terms = {}
        monos = self.monos
        self._expand(terms, monos[i1], monos[i2], 0, 1)
        return tuple(terms.items())

    def add_mono_mul(self, terms, i1, i2, e, c):
        """terms += c x^e (monomial i1)(monomial i2), for a flat term (e, c)
        and a flat dict terms the caller owns."""
        for (m, e2), c2 in self.mono_mul(i1, i2):
            key = m, e + e2
            v = c * c2 + terms.get(key, 0)
            if v:
                terms[key] = v
            else:
                del terms[key]

    def mul(self, x: Element, y: Element) -> Element:
        terms = {}
        right = y.terms.items()
        for (i1, e1), c1 in x.terms.items():
            for (i2, e2), c2 in right:
                self.add_mono_mul(terms, i1, i2, e1 + e2, c1 * c2)
        return Element(self, terms)

    def product(self, *xs: Element) -> Element:
        out = self.unit()
        for x in xs:
            out = self.mul(out, x)
        return out

    # -- differential

    @memo("_dword_cache")
    def d_word(self, w) -> Element:
        g, rest = w[0], w[1:]
        dg = self.d_gen.get(g)
        if dg is None:
            raise CalculusError(f"{self.name}: no differential table for {g}")
        return self.mul(dg, self.of_poly(NCPoly.word(rest))) + \
            self.mul(self.of_poly(NCPoly.gen(g)), self.d_word(rest))

    @memo("_dletters_cache")
    def d_letters(self, F) -> Element:
        out = Element(self)
        for i, f in enumerate(F):
            df = self.d_letter.get(f)
            if df is None:
                raise CalculusError(f"{self.name}: no differential for {f}")
            piece = self.product(self.form(*F[:i]), df, self.form(*F[i + 1:]))
            out.add_scaled(piece, sign(i))
        return out

    def d_mono(self, i) -> Element:
        """d of the monomial of id i."""
        w, F = self.monos[i]
        out = self.mul(self.d_word(w), self.form(*F))
        if F:
            out.add_scaled(self.mul(self.of_poly(NCPoly.word(w)),
                                    self.d_letters(F)))
        return out

    def d(self, x: Element) -> Element:
        return Element(self).add_mapped(x, self.d_mono)

    def d_poly(self, p: NCPoly) -> Element:
        return self.d(self.of_poly(p))

    # -- expansions

    def expansion_element(self, letter) -> Element:
        pairs = self.expansion.get(letter)
        if pairs is None:
            raise CalculusError(f"{self.name}: no expansion for {letter}")
        out = Element(self)
        for a, b in pairs:
            out.add_scaled(self.mul(self.of_poly(a), self.d_poly(b)))
        return out

    # -- structural checks

    def calculus_check(self, max_word_len: int = 3,
                       example: str = "") -> CheckReport:
        rep = CheckReport(
            suite="calculus", example=example or self.name,
            truncation={"max_word_len": max_word_len},
            ref="d squared zero, graded Leibniz, wedge associativity, "
                "right action respects relations, expansions reproduce forms")
        with timed(rep):
            for w in self.pres.irreducible_words(max_word_len):
                x = self.of_poly(NCPoly.word(w))
                got = self.d(self.d(x))
                rep.record(got.is_zero(), f"dd({'*'.join(w) or '1'})", "0",
                           got, ref="d 1-form of algebra element")
            for f in self.letters:
                got = self.d(self.d(self.form(f)))
                rep.record(got.is_zero(), f"dd({f})", "0", got,
                           ref="d squared on letters")
            # graded Leibniz on (form, generator) pairs
            for f in self.letters:
                for g in self.pres.generators:
                    x = self.form(f)
                    y = self.of_poly(NCPoly.gen(g.name))
                    lhs = self.d(self.mul(x, y))
                    rhs = self.mul(self.d(x), y) - self.mul(x, self.d(y))
                    rep.record(lhs == rhs, f"leibniz({f},{g.name})",
                               rhs, lhs,
                               ref="d(w y) = dw y + (-1)^|w| w dy")
            # wedge associativity on letter triples
            for a, b, c in itertools.product(self.letters, repeat=3):
                lhs = self.mul(self.mul(self.form(a), self.form(b)),
                               self.form(c))
                rhs = self.mul(self.form(a),
                               self.mul(self.form(b), self.form(c)))
                rep.record(lhs == rhs, f"assoc({a},{b},{c})",
                           rhs, lhs, ref="wedge associativity")
            # right action respects the algebra relations: f times the
            # rule's word, left unreduced, against f times its right side
            for f in self.letters:
                form = ((), (f,))
                for rule in self.pres.rules:
                    lhs, rhs = Element(self), Element(self)
                    self._expand(lhs.terms, form, (rule.lhs, ()), 0, 1)
                    for (w, e), c in rule.flat_rhs:
                        self._expand(rhs.terms, form, (w, ()), e, c)
                    rep.record(lhs == rhs,
                               f"raction({f},{'*'.join(rule.lhs)})",
                               "relation respected", "mismatch",
                               ref="module structure well defined")
            # expansions reproduce the basis letters
            for f in self.letters:
                if f in self.expansion:
                    got = self.expansion_element(f)
                    want = self.form(f)
                    rep.record(got == want, f"expansion({f})", want, got,
                               ref="sum a_i d(b_i) = form")
        return rep

    def __repr__(self):
        return f"DiffCalculus({self.name}, letters={self.letters})"


# -- graded tensors over several calculi ----------------------------------------


class GradedTensor(FlatSum):
    """Sum of tensors of form monomials with Koszul-signed product, flat:
    terms map (id, ..., id, e) -> int, one monomial id per leg."""

    __slots__ = ("legs",)
    _context = "legs"

    def __init__(self, legs, terms=None):
        self.legs = tuple(legs)
        FlatSum.__init__(self, terms, len(self.legs))

    @staticmethod
    def zero(legs):
        return GradedTensor(legs)

    @staticmethod
    def unit(legs):
        return GradedTensor(legs, {(UNIT_ID,) * len(legs) + (0,): 1})

    @staticmethod
    def from_scalars(legs, terms):
        """The tensor of Scalar terms {(monomial, ...): Scalar}."""
        out = GradedTensor(legs)
        to_ids = out._key_to_id()
        out.terms = {to_ids(key) + (e,): a for key, c in terms.items()
                     for e, a in flat_coeff(c)}
        return out

    @staticmethod
    def degree_zero(legs, t):
        """The TensorPoly t read as a tensor of degree-0 forms."""
        return GradedTensor.from_scalars(legs, {
            tuple((w, ()) for w in key): c for key, c in t.terms.items()})

    @staticmethod
    def of(legs, *elements):
        """Pure tensor of (independent) graded elements."""
        partial = [((), 0, 1)]
        for leg, x in zip(legs, elements):
            assert x.calc is leg
            items = x.terms.items()
            partial = [(k + (m,), e + e2, c * c2)
                       for k, e, c in partial for (m, e2), c2 in items]
        terms = {}
        for k, e, c in partial:
            add_flat(terms, k + (e,), c)
        return GradedTensor(legs, terms)

    def _key_to_id(self):
        interns = [leg.intern for leg in self.legs]
        return lambda key: tuple([f(m) for f, m in zip(interns, key)])

    def _id_to_key(self):
        monos = [leg.monos for leg in self.legs]
        return lambda *ids: tuple([t[i] for t, i in zip(monos, ids)])

    def wedge(self, other) -> "GradedTensor":
        """(x1 (x) ... (x) xn)(y1 (x) ... (x) yn) with Koszul signs, read
        from the flat mono_mul tables and the legs' id degrees."""
        assert self.legs == other.legs
        legs = self.legs
        mono_degs = [leg.mono_deg for leg in legs]
        right = other.terms.items()
        terms = {}
        get = terms.get
        # zip over the legs stops before the exponent that ends each key
        for key1, c1 in self.terms.items():
            e1 = key1[-1]
            degs1 = [d[i] for d, i in zip(mono_degs, key1)]
            for key2, c2 in right:
                degs2 = [d[i] for d, i in zip(mono_degs, key2)]
                s = sum(degs1[i] * degs2[j]
                        for i in range(len(legs)) for j in range(i))
                c = c1 * c2
                partial = [((), e1 + key2[-1], -c if s & 1 else c)]
                for leg, m1, m2 in zip(legs, key1, key2):
                    partial = [(k + (m,), e + e3, a * a3)
                               for k, e, a in partial
                               for (m, e3), a3 in leg.mono_mul(m1, m2)]
                for k, e, a in partial:
                    k += (e,)
                    v = a + get(k, 0)
                    if v:
                        terms[k] = v
                    else:
                        del terms[k]
        return GradedTensor(legs, terms)

    def d(self) -> "GradedTensor":
        """Tensor differential with graded Leibniz signs across legs; each
        leg's differential of a monomial is taken once per call."""
        legs = self.legs
        dleg = [{} for _ in legs]
        terms = {}
        get = terms.get
        for key, c in self.terms.items():
            e = key[-1]
            odd = 0
            for i, leg in enumerate(legs):
                m = key[i]
                dm = dleg[i].get(m)
                if dm is None:
                    dm = dleg[i][m] = leg.d_mono(m).terms.items()
                cs = -c if odd else c
                pre, post = key[:i], key[i + 1:-1]
                for (m2, e2), c2 in dm:
                    k = pre + (m2,) + post + (e + e2,)
                    v = cs * c2 + get(k, 0)
                    if v:
                        terms[k] = v
                    else:
                        del terms[k]
                odd ^= leg.mono_deg[m] & 1
        return GradedTensor(legs, terms)

    def component(self, degrees) -> "GradedTensor":
        """The terms whose legs have the given degrees."""
        degrees = tuple(degrees)
        mono_degs = [leg.mono_deg for leg in self.legs]
        return GradedTensor(self.legs, {
            key: c for key, c in self.terms.items()
            if tuple([d[i] for d, i in zip(mono_degs, key)]) == degrees})

    @staticmethod
    def _key_str(key):
        return "(x)".join(Element._key_str(m) or "1" for m in key)

    @staticmethod
    def _sort_key(key):
        return tuple(Element._sort_key(m) for m in key)


# -- Cartan-Maurer form and coinvariant forms ------------------------------------


def cartan_maurer(calc: DiffCalculus, h: NCPoly) -> Element:
    """varpi(pi_eps(h)) = S(h1) d(h2) for the composed form on all of H."""
    hopf = calc.hopf
    if hopf is None:
        raise CalculusError("Cartan-Maurer form needs a Hopf structure")
    pe = hopf.pi_epsilon(h)
    out = calc.zero()
    for (w1, w2), c in hopf.coproduct(pe).terms.items():
        s = hopf.antipode(NCPoly.word(w1))
        out.add_scaled(calc.mul(calc.of_poly(s),
                                calc.d_poly(NCPoly.word(w2))), c)
    return out


def cartan_maurer_equation_check(calc: DiffCalculus, max_word_len: int = 4,
                                 example: str = "") -> CheckReport:
    """d varpi(pi(h)) + varpi(pi(h1)) ^ varpi(pi(h2)) = 0 on basis words,
    and the coinvariant-form relations on the reconstructed ideal."""
    hopf = calc.hopf
    rep = CheckReport(
        suite="cartan", example=example or calc.name,
        truncation={"max_word_len": max_word_len},
        ref="structure equation of the coinvariant-valued form; quadratic "
            "relations on the kernel of that form")
    rep.notes.append("the classifying right ideal is reconstructed at "
                     "truncation as the kernel of the coinvariant-valued "
                     "form on basis words")

    def add_square(out, h):
        """out += varpi(pi(h1)) ^ varpi(pi(h2)); returns out."""
        for (w1, w2), c in hopf.coproduct(h).terms.items():
            out.add_scaled(calc.mul(cartan_maurer(calc, NCPoly.word(w1)),
                                    cartan_maurer(calc, NCPoly.word(w2))), c)
        return out

    with timed(rep):
        words = list(hopf.base.irreducible_words(max_word_len))
        for w in words:
            p = NCPoly.word(w)
            got = add_square(calc.d(cartan_maurer(calc, p)), p)
            rep.record(got.is_zero(), f"cm({'*'.join(w) or '1'})", "0",
                       got)
        # ideal reconstruction: combinations killed by the form must also
        # be killed by wedge(form (x) form) after the coproduct
        for combo in kernel_on(words, lambda w: cartan_maurer(
                calc, NCPoly.word(w)).scalar_terms()):
            h = NCPoly(combo)
            quad = add_square(calc.zero(), h)
            rep.record(quad.is_zero(), f"ideal-relation({h})", "0", quad,
                       ref="quadratic coinvariant-form relations on the "
                           "reconstructed ideal")
    return rep


def _grouplike_tag(calc: DiffCalculus, tags, F, side) -> tuple:
    """The normal form of F's tag words: one word with coefficient one."""
    nf = calc.pres.flat_normal_word(sum((tags[f] for f in F), ()))
    if len(nf) != 1 or nf[0][0][1] or nf[0][1] != 1:
        raise CalculusError(f"{side} tag not grouplike")
    return nf[0][0][0]


def left_tag(calc: DiffCalculus, F) -> tuple:
    """Left coaction tag of a letter word (grouplike structure groups)."""
    return _grouplike_tag(calc, calc.lco, F, "left")


def right_tag(calc: DiffCalculus, F) -> tuple:
    return _grouplike_tag(calc, calc.rco, F, "right")


def lambda_element(calc: DiffCalculus, F) -> Element:
    """The left-coinvariant form lw(F)^-1 . F."""
    F = tuple(F)
    if not F:
        return calc.unit()
    inv = calc.hopf.grouplike_inverse_word(left_tag(calc, F))
    return calc.of_poly(NCPoly.word(inv), F)


def pi_lambda(calc: DiffCalculus, x: Element) -> dict:
    """Projection S(w_-1) w_0; collapses coefficients, keyed by letter word."""
    out = {}
    for (w, F), c in x.scalar_terms().items():
        add_term(out, F, c)
    return out


def to_lambda(calc: DiffCalculus, x: Element) -> dict:
    """Decompose a left-coinvariant element over the lambda basis; errors if
    the element is not coinvariant."""
    out = pi_lambda(calc, x)
    rebuilt = calc.zero()
    for F, c in out.items():
        rebuilt.add_scaled(lambda_element(calc, F), c)
    if rebuilt != x:
        raise CalculusError(f"not left-coinvariant: {x}")
    return out


# -- canonical bicovariant coproduct (graded-algebra, not DGA, morphism) --------


def bc_coproduct(calc: DiffCalculus, x: Element) -> GradedTensor:
    """Right-plus-left coaction extension of the comultiplication."""
    hopf = calc.hopf
    terms = {}
    for (w, F), c in x.scalar_terms().items():
        if not F:
            for (w1, w2), c2 in hopf._delta_word(w).terms.items():
                add_term(terms, (((w1), ()), ((w2), ())), c * c2)
            continue
        rt = hopf.base.normal_word(w + right_tag(calc, F))
        for wr, cr in rt.terms.items():
            add_term(terms, ((w, F), (wr, ())), c * cr)
        lt = hopf.base.normal_word(w + left_tag(calc, F))
        for wl, cl in lt.terms.items():
            add_term(terms, ((wl, ()), (w, F)), c * cl)
    return GradedTensor.from_scalars((calc, calc), terms)


def graded_antipode(calc: DiffCalculus, x: Element, inverse=False) -> Element:
    """S on forms: h0 d(h1)...d(hk) -> +- d(S(hk))...d(S(h1)) S(h0).

    Reversing k mutually anticommuting differentials costs the Koszul sign
    (-1)^(k(k-1)/2); with it the convolution antipode axiom holds in all
    degrees (the unsigned reversal only works for k <= 1)."""
    hopf = calc.hopf
    anti = hopf.antipode_inv if inverse else hopf.antipode
    out = calc.zero()
    for (w, F), c in x.scalar_terms().items():
        gens = []
        for f in F:
            pairs = calc.expansion[f]
            if len(pairs) != 1 or pairs[0][0] != NCPoly.one():
                raise CalculusError(
                    f"graded antipode needs d(generator) letters, got {f}")
            gens.append(pairs[0][1])
        k = len(gens)
        piece = calc.unit()
        for p in reversed(gens):
            piece = calc.mul(piece, calc.d_poly(anti(p)))
        piece = calc.mul(piece, calc.of_poly(anti(NCPoly.word(w))))
        out.add_scaled(piece, c * sign(k * (k - 1) // 2))
    return out


# -- maximal prolongation: degree-2 relations from first order -------------------


def max_prolongation_degree2(calc: DiffCalculus, max_word_len: int = 3,
                             example: str = "") -> CheckReport:
    """Check the declared degree-2 wedge relations lie in d(x)d(ker V),
    V: a (x) b -> a d(b) over the truncated word basis.

    R lies there exactly when (0 || R) is in the row span of the pair rows
    (a db || da (x) db), so span_witnesses decides every relation, finding
    the pair rows of each witness modulo p and solving on them exactly.
    Each witness it gives is certified by substitution.  The pairs come
    shortest first, by len(a) + len(b) and a-major within a length, and
    span_witnesses builds rows only until every relation is witnessed mod
    p: the short rows that hold the witnesses are built, the rest only for
    a relation they do not reach.  d w is computed on a word's first use.

    A pair row is built as flat terms {((tag, (w, F)), e): c} (see
    ncalg.FlatSum), with no Scalar product and no mono_mul table: a db is
    normal_word(a + w2) with F2 appended over the terms (w2, F2) of db,
    and da (x) db multiplies the flat terms of da, db, act_word(F1, w2)
    and normal_word(w1 + w3), read from the calculus's flat memos.  Rows
    become Scalar rows only for the exact solve and the certificate."""
    pres = calc.pres
    rep = CheckReport(
        suite="prolong", example=example or calc.name,
        truncation={"max_word_len": max_word_len},
        ref="degree-2 relations of the universal extension contain the "
            "declared wedge relations")
    with timed(rep):
        words = list(pres.irreducible_words(max_word_len))
        # shortest pairs first, a-major within a total length: their rows
        # are the cheapest, and they hold the witnesses
        pairs = sorted(((a, b) for a in words for b in words),
                       key=lambda ab: len(ab[0]) + len(ab[1]))
        monos = calc.monos
        d_memo = {}

        def d(w):
            """d w as flat terms ((w', F), e, c), on first use."""
            dw = d_memo.get(w)
            if dw is None:
                dw = d_memo[w] = [(monos[i], e, c) for (i, e), c in
                                  calc.d_poly(NCPoly.word(w)).terms.items()]
            return dw
        acts, nfs = calc.act_word, pres.flat_normal_word

        def pair_row(a, b):
            """(a db || da (x) db) as flat terms, its columns tagged 0 and
            1."""
            row = {}
            get = row.get
            db = d(b)
            for (w2, F2), e2, c2 in db:
                for (w3, e3), c3 in nfs(a + w2):
                    key = ((0, (w3, F2)), e2 + e3)
                    row[key] = get(key, 0) + c2 * c3
            for (w1, F1), e1, c1 in d(a):
                for (w2, F2), e2, c2 in db:
                    for (w3, F3), e3, c3 in acts(F1, w2):
                        F, e, c = F3 + F2, e1 + e2 + e3, c1 * c2 * c3
                        for (w4, e4), c4 in nfs(w1 + w3):
                            key = ((1, (w4, F)), e + e4)
                            row[key] = get(key, 0) + c * c4
            # int terms at one key may cancel
            return {k: c for k, c in row.items() if c}

        # declared degree-2 relations as tensor-square elements
        relations = []
        for a in calc.letters:
            relations.append((f"{a}(x){a}", {(1, ((), (a, a))): Scalar.one()}))
        for (a, b), cswap in calc.swap.items():
            vec = {(1, ((), (a, b))): Scalar.one(), (1, ((), (b, a))): -cswap}
            relations.append((f"{a}(x){b} - ({cswap})*{b}(x){a}", vec))
        witnesses = span_witnesses(
            lambda i: pair_row(*pairs[i]), len(pairs),
            [flat_of(vec, same_key) for _, vec in relations])
        for (name, vec), lam in zip(relations, witnesses):
            if lam is None:
                rep.mark_inconclusive(
                    name, "not witnessed at this truncation",
                    ref="larger truncation may be required")
                continue
            # certificate: rebuild the named pair rows, so a faulty
            # elimination or span test gives INCONCLUSIVE, never a false
            # PASS
            image = {}
            for i, c in lam.items():
                for k, v in scalars_of(pair_row(*pairs[i]), same_key).items():
                    add_term(image, k, v * c)
            if image == vec:
                rep.record(True, name, "in span", "in span")
            else:
                rep.mark_inconclusive(
                    name, "sum of c_i (a_i db_i || da_i (x) db_i) is not "
                    "(0 || relation)", ref="span certificate")
    return rep
