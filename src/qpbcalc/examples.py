"""Built-in bundles and the crossed-product construction.

Each shipped bundle is the presentation file ``data/<name>.qpb``: the
structure group over itself, the noncommutative 2-torus, the quantum Hopf
fibration over the q-sphere, a two-parameter classical torus and a grouplike
crossed product.  A bundle carries its translation data, calculi, extended
coaction tables, a connection form, optional strong-connection data, and
oracle tables of expected braiding/vertical values for double-entry checks.
"""

from __future__ import annotations

import functools
import pathlib
from dataclasses import dataclass, field

from .braidext import GradedBalancedTensor, raw_pair, sigma_bullet
from .calculus import DiffCalculus, Element, GradedTensor
from .comodule import ComoduleAlgebra, TranslationData
from .exprs import eval_form, eval_tensor
from .hopf import HopfPresentation
from .ncalg import (AlgebraPresentation, GeneratorSymbol, NCPoly, add_term,
                    flat_of, same_key)
from .qpb import CompleteCalculus, span_gap, unreached
from .report import CheckReport, timed
from .scalars import Parameter, Scalar, q_binomial, sign
from .tensors import TensorPoly


class ExampleError(Exception):
    pass


@dataclass
class OracleEntry:
    kind: str          # "sigma" or "ver"
    args: tuple        # sigma: (x_expr, y_expr); ver: (k, l, x_expr)
    expected: object   # expression string or prebuilt TensorPoly
    ref: str = ""


@dataclass
class ExampleBundle:
    name: str
    ca: ComoduleAlgebra
    td: TranslationData
    cc: CompleteCalculus
    params: dict
    connection: dict
    ell: object = None
    oracles: list = field(default_factory=list)
    strong_form: str = "none"   # the [strong] form the bundle was read with
    crossed: CrossedProductData | None = None   # input of crossed_product

    @property
    def omega_A(self):
        return self.cc.omega_A

    @property
    def omega_H(self):
        return self.cc.omega_H

    def structural_validation(self, max_word_len=2):
        """Hopf axioms, confluence, comodule and calculus checks, each object
        once: a ``total = hopf`` bundle's total space is the structure
        group, with one algebra and one calculus."""
        ca, name = self.ca, self.name
        algebras = (ca.A,) if ca.A is ca.H.base else (ca.A, ca.H.base)
        calculi = ((self.omega_A,) if self.omega_A is self.omega_H
                   else (self.omega_A, self.omega_H))
        return ([ca.H.verify_hopf_axioms(max_word_len, name)]
                + [a.confluence_check(4, name) for a in algebras]
                + [ca.validate(max_word_len, name)]
                + [c.calculus_check(max_word_len, name) for c in calculi])


def _gt(cc, *pairs):
    legs = (cc.omega_A, cc.omega_H)
    out = GradedTensor.zero(legs)
    for a, h in pairs:
        out.add_scaled(GradedTensor.of(legs, a, h))
    return out


# -- the quantum Hopf fibration -----------------------------------------------------


def qbinomial_strong_connection(ca: ComoduleAlgebra, q: Scalar):
    """The deformed-binomial strong connection on grouplike powers of the
    quantum Hopf fibration with deformation parameter q, bound to the given
    total space algebra."""
    A = ca.A

    def ell(w):
        if not w:
            return TensorPoly.unit((A, A))
        n = len(w) if w[0] == "t" else -len(w)
        out = TensorPoly.zero((A, A))
        base = q * q
        step = q if n > 0 else q.inverse()
        m = abs(n)
        for k in range(m + 1):
            coeff = q_binomial(m, k, base) * sign(k) * (step ** k)
            if n > 0:
                left = ("beta",) * k + ("delta",) * (m - k)
                right = ("alpha",) * (m - k) + ("gamma",) * k
            else:
                left = ("alpha",) * (m - k) + ("gamma",) * k
                right = ("beta",) * k + ("delta",) * (m - k)
            out.add_scaled(TensorPoly.from_polys(
                (A, A), A.normal_word(left), A.normal_word(right)), coeff)
        return out

    return ell


# -- crossed products ---------------------------------------------------------------


@dataclass
class CrossedProductData:
    """Grouplike-driven crossed product input.

    B with its calculus, a Laurent structure group on one generator, a
    measure given per generator (diagonal on the B generators), and a
    bicharacter 2-cocycle on grouplike powers, sigma(m, n) = base^(m n)."""

    B: AlgebraPresentation
    omega_B: DiffCalculus
    H: HopfPresentation
    omega_H: DiffCalculus
    measure: dict           # (hgen_name, bgen_name) -> NCPoly
    cocycle_base: Scalar
    name: str = "crossed"

    def cocycle(self, m: int, n: int) -> Scalar:
        return self.cocycle_base ** (m * n)

    def measure_word(self, n: int, word) -> NCPoly:
        """t^n acting on a B word, generator-wise."""
        hgen = self.H.base.generators[0].name
        hinv = self.H.base.generators[0].inverse_of
        out = NCPoly.word(word)
        step = hgen if n >= 0 else hinv
        for _ in range(abs(n)):
            acc = NCPoly.zero()
            for w, c in out.terms.items():
                piece = NCPoly.one().scale(c)
                for g in w:
                    piece = self.B.multiply(piece, self.measure[(step, g)])
                acc.add_scaled(piece)
            out = self.B.reduce(acc)
        return out


def crossed_validation(data: CrossedProductData, bound: int = 2,
                       example: str = "") -> CheckReport:
    """Twisted-module and 2-cocycle conditions on grouplike triples."""
    rep = CheckReport(
        suite="crossed", example=example or data.name,
        truncation={"power_bound": bound},
        ref="twisted module law, cocycle identity, measure respects "
            "products and differentials")
    with timed(rep):
        s = data.cocycle
        one = Scalar.one()
        rng = range(-bound, bound + 1)
        for a in rng:
            rep.record((s(a, 0) == one) and (s(0, a) == one),
                       f"normalized({a})", "1", f"{s(a, 0)},{s(0, a)}",
                       ref="unital cocycle")
        for a in rng:
            for b in rng:
                for c in rng:
                    lhs = s(a, b) * s(a + b, c)
                    rhs = s(b, c) * s(a, b + c)
                    rep.record(lhs == rhs, f"cocycle({a},{b},{c})",
                               rhs, lhs, ref="cocycle identity")
                    for g in data.B.generators:
                        # twisted module with central scalar cocycle values:
                        # h (h' b) = sigma(h, h') (hh' b) sigma^-1(h, h')
                        lhs2 = data.B.reduce(_measure_poly(
                            data, a, data.measure_word(b, (g.name,))))
                        rhs2 = data.measure_word(a + b, (g.name,))
                        rep.record(lhs2 == rhs2,
                                   f"twisted({a},{b},{g.name})", rhs2, lhs2,
                                   ref="scalar cocycles drop out of the "
                                       "twisted-module law")
        # measure is multiplicative across the B relations
        for rule in data.B.rules:
            for n in (-1, 1):
                lhs = data.measure_word(n, rule.lhs)
                rhs = _measure_poly(data, n, rule.rhs)
                rep.record(lhs == rhs, f"measure-respects({n},"
                           f"{'*'.join(rule.lhs)})", rhs, lhs,
                           ref="module algebra law on relations")
        # measure commutes with the B differential on generators
        for g in data.B.generators:
            moved = data.omega_B.zero()
            for w, c in data.measure_word(1, (g.name,)).terms.items():
                moved.add_scaled(data.omega_B.d_poly(NCPoly.word(w)), c)
            want = moved
            got = data.omega_B.d_poly(data.measure_word(1, (g.name,)))
            rep.record(got == want, f"d-measure({g.name})", want, got,
                       ref="differential intertwines the measure")
    return rep


def _measure_poly(data, n, p: NCPoly) -> NCPoly:
    measure = functools.partial(data.measure_word, n)
    return NCPoly.zero().add_mapped(p, measure)


def crossed_product(data: CrossedProductData) -> ExampleBundle:
    rep = crossed_validation(data)
    if not rep.ok():
        raise ExampleError(
            f"crossed product data fails validation: "
            f"{rep.witnesses[0].input}")
    B, H = data.B, data.H
    s = data.cocycle
    hg = H.base.generators[0]

    # total-space presentation: B generators then T, Ti
    symbols = [GeneratorSymbol(g.name, 0, g.inverse_of)
               for g in B.generators]
    symbols += [GeneratorSymbol("T", 1), GeneratorSymbol("Ti", -1)]
    rules = [(r.lhs, r.rhs) for r in B.rules]
    for cap, n in (("T", 1), ("Ti", -1)):
        for g in B.generators:
            acted = data.measure_word(n, (g.name,))
            rhs = NCPoly.zero()
            for w, c in acted.terms.items():
                add_term(rhs.terms, w + (cap,), c)
            rules.append(((cap, g.name), rhs))
    rules.append((("T", "Ti"), NCPoly.one().scale(s(1, -1))))
    rules.append((("Ti", "T"), NCPoly.one().scale(s(-1, 1))))
    A = AlgebraPresentation(data.name, symbols, rules, auto_inverses=False)

    # normalization scalars: 1 (x) t^n = nu(n) * T^n (resp. Ti^|n|)
    def nu(n: int) -> Scalar:
        out = Scalar.one()
        if n >= 0:
            for k in range(1, n):
                out = out * s(1, k).inverse()
        else:
            for k in range(1, -n):
                out = out * s(-1, -k).inverse()
        return out

    def iota_word(n: int):
        return ("T",) * n if n >= 0 else ("Ti",) * (-n)

    def exponent_of(w) -> int:
        if all(g == hg.name for g in w):
            return len(w)
        if all(g == hg.inverse_of for g in w):
            return -len(w)
        raise ExampleError(f"not a grouplike power: {w}")

    def j(w):
        n = exponent_of(w)
        return NCPoly.word(iota_word(n), nu(n))

    def jinv(w):
        n = exponent_of(w)
        coeff = s(-n, n).inverse() * nu(-n)
        return NCPoly.word(iota_word(-n), coeff)

    coaction = {}
    for g in B.generators:
        coaction[g.name] = TensorPoly.from_polys(
            (A, H.base), NCPoly.gen(g.name), NCPoly.one())
    coaction["T"] = TensorPoly.from_polys(
        (A, H.base), NCPoly.gen("T"), NCPoly.gen(hg.name))
    coaction["Ti"] = TensorPoly.from_polys(
        (A, H.base), NCPoly.gen("Ti"), NCPoly.gen(hg.inverse_of))
    ca = ComoduleAlgebra(data.name, A, H, coaction)
    td = TranslationData.from_cleaving(ca, j, jinv, label=data.name)

    # total-space calculus: B letters then the structure letter
    hletter = data.omega_H.letters[0]
    letters = tuple(data.omega_B.letters) + (hletter,)
    oa = DiffCalculus(f"Omega({data.name})", A, letters,
                      data.omega_B.top_degree + data.omega_H.top_degree,
                      swap={}, raction={}, d_gen={}, d_letter={},
                      expansion={})
    for pair, c in data.omega_B.swap.items():
        oa.swap[pair] = c
    for f in data.omega_B.letters:
        tact = _diagonal_coeff(data, f)
        oa.swap[(hletter, f)] = -tact
    # right actions
    for f in data.omega_B.letters:
        for g in B.generators:
            oa.raction[(f, g.name)] = Element.from_scalars(
                oa, data.omega_B.raction[(f, g.name)].scalar_terms())
        cf = _diagonal_coeff(data, f)
        oa.raction[(f, "T")] = oa.of_poly(NCPoly.gen("T", cf.inverse()), (f,))
        oa.raction[(f, "Ti")] = oa.of_poly(NCPoly.gen("Ti", cf), (f,))
    hcal = data.omega_H
    c1 = _h_action_coeff(hcal, hg.name)
    cm1 = _h_action_coeff(hcal, hg.inverse_of)
    for g in B.generators:
        acted = data.measure_word(1, (g.name,))
        el = oa.zero()
        for w, c in acted.terms.items():
            el.add_scaled(oa.of_poly(NCPoly.word(w, c), (hletter,)))
        oa.raction[(hletter, g.name)] = el
    oa.raction[(hletter, "T")] = oa.of_poly(NCPoly.gen("T", c1), (hletter,))
    ratio = s(1, -1) * s(-1, 1).inverse()
    oa.raction[(hletter, "Ti")] = oa.of_poly(
        NCPoly.gen("Ti", ratio * cm1), (hletter,))
    # differentials
    for g in B.generators:
        oa.d_gen[g.name] = Element.from_scalars(
            oa, data.omega_B.d_gen[g.name].scalar_terms())
    oa.d_gen["T"] = oa.form(hletter)
    (((wte, fte), ce),) = hcal.d_gen[hg.inverse_of].scalar_terms().items()
    n_e = -len(wte)
    coeff = ce * s(n_e, 1).inverse() * nu(n_e)
    oa.d_gen["Ti"] = oa.of_poly(NCPoly.word(iota_word(n_e), coeff), (hletter,))
    for f in data.omega_B.letters:
        oa.d_letter[f] = Element.from_scalars(
            oa, data.omega_B.d_letter[f].scalar_terms())
    oa.d_letter[hletter] = oa.zero()
    for f in data.omega_B.letters:
        oa.expansion[f] = list(data.omega_B.expansion[f])
    oa.expansion[hletter] = [(NCPoly.one(), NCPoly.gen("T"))]

    cc = CompleteCalculus(data.name, ca, oa, data.omega_H, {}, td)
    for f in data.omega_B.letters:
        cc.delta_letter[f] = _gt(cc, (oa.form(f), data.omega_H.unit()))
    cc.delta_letter[hletter] = _gt(
        cc, (oa.form(hletter), data.omega_H.of_poly(NCPoly.gen(hg.name))),
        (oa.of_poly(NCPoly.gen("T")), data.omega_H.form(hletter)))

    connection = {(hletter,): oa.mul(oa.of_poly(jinv((hg.name,))),
                                     oa.d_poly(j((hg.name,))))}

    def ell(w):
        return TensorPoly.from_polys((A, A), jinv(w), j(w))

    # braiding oracle from the closed crossed-product formula
    oracles = []
    gens_spec = [(g.name, (g.name,), 0) for g in B.generators]
    gens_spec += [("T", (), 1), ("Ti", (), -1)]
    for n1, bw1, a in gens_spec:
        for n2, bw2, c in gens_spec:
            expected = _sigma_d_formula(data, A, j, bw1, a, bw2, c)
            oracles.append(OracleEntry(
                "sigma", (n1, n2), expected,
                "closed braiding formula for crossed products"))
    bundle = ExampleBundle(data.name, ca, td, cc,
                           {"q": Parameter("q", True),
                            "mu": Parameter("mu", True)},
                           connection, ell, oracles, crossed=data)
    return bundle


def _diagonal_coeff(data, f) -> Scalar:
    """Scalar c with t . (letter f) = c (letter f); needs a diagonal measure."""
    b = data.omega_B.expansion[f][0][1]  # f = a d(b): act on b
    ((w, _),) = b.terms.items()
    acted = data.measure_word(1, w)
    if len(acted.terms) != 1:
        raise ExampleError("crossed products need a diagonal measure")
    ((w2, c),) = acted.terms.items()
    if w2 != w:
        raise ExampleError("crossed products need a diagonal measure")
    return c


def _h_action_coeff(hcal, gname) -> Scalar:
    el = hcal.raction[(hcal.letters[0], gname)]
    ((key, c),) = el.scalar_terms().items()
    return c


def _sigma_d_formula(data, A, j, bw1, a, bw2, c) -> TensorPoly:
    """sigma_D((b (x) t^a) (x) (b' (x) t^c)) on grouplike legs:
    scalar * (b (t^a . b') (x) t^c) (x) (1 (x) t^a), the scalar being
    sigma(a,c) sigma(-a,a)^-1 sigma(a+c,-a)."""
    s = data.cocycle
    scalar = s(a, c) * s(-a, a).inverse() * s(a + c, -a)
    left = A.multiply(NCPoly.word(bw1),
                      _embed(data, A, j, data.measure_word(a, bw2), c))
    right = _embed(data, A, j, NCPoly.one(), a)
    return TensorPoly.from_polys((A, A), left, right).scale(scalar)


def _embed(data, A, j, bpoly: NCPoly, n: int) -> NCPoly:
    """b (x) t^n as an element of the presented total space."""
    hg = data.H.base.generators[0]
    w = (hg.name,) * n if n >= 0 else (hg.inverse_of,) * (-n)
    out = NCPoly.zero()
    jp = j(w) if n else NCPoly.one()
    for wb, c in bpoly.terms.items():
        out.add_scaled(A.multiply(NCPoly.word(wb, c), jp))
    return A.reduce(out)


def crossed_structure_check(bundle: ExampleBundle, max_word_len: int = 3,
                            example: str = "") -> CheckReport:
    """Base forms are the B forms, vertical forms match B (x) Omega(H),
    horizontal forms match Omega(B) (x) H at truncation."""
    data = bundle.crossed
    cc = bundle.cc
    oa = cc.omega_A
    A = bundle.ca.A
    rep = CheckReport(
        suite="crossed", example=example or bundle.name,
        truncation={"max_word_len": max_word_len},
        ref="base = Omega(B), ver = B (x) Omega(H), hor = Omega(B) (x) H")
    rep.notes.append("structure groups restricted to grouplike generators")
    hg = data.H.base.generators[0]

    def jpoly(n):
        w = (hg.name,) * n if n >= 0 else (hg.inverse_of,) * (-n)
        return bundle.td.cleaving[0](w) if n else NCPoly.one()

    with timed(rep):
        bwords = [w for w in data.B.irreducible_words(max_word_len)]
        # base forms agree with Omega^1(B)
        base1 = cc.base_form_basis(1, max_word_len)
        rows_b = [oa.mul(oa.of_poly(NCPoly.word(w)), oa.form(f))
                  for w in bwords for f in data.omega_B.letters]
        gap = span_gap(base1, "base1", rows_b, "Omega1(B)")
        rep.record(not gap, "base1 = Omega1(B)", "span equality", gap,
                   ref="coinvariant horizontal forms")
        # vertical forms: images of B (x) Omega(H) basis span ver1 targets
        emax = max_word_len
        rows_v = []
        for w in bwords:
            for n in range(-emax, emax + 1):
                el = A.reduce(A.multiply(NCPoly.word(w), jpoly(n)))
                vec = {}
                for ww, cw in el.terms.items():
                    for F in cc.omega_H.basis_forms(1):
                        vec[(ww, F)] = cw
                if vec:
                    rows_v.append(flat_of(vec, same_key))
        missing = unreached(rows_v, [
            (w, F) for w in A.irreducible_words(max_word_len)
            for F in cc.omega_H.basis_forms(1)])
        rep.record(not missing, "ver1 = B (x) Omega1(H)", "span covers the "
                   "truncated vertical forms", f"missing {missing[:3]}",
                   ref="fundamental-theorem shape of the vertical forms")
        # horizontal forms: hor1 = Omega1(B) (x) H at truncation
        rows_h = []
        for w in bwords:
            for f in data.omega_B.letters:
                for n in range(-emax, emax + 1):
                    el = oa.product(oa.of_poly(NCPoly.word(w)), oa.form(f),
                                    oa.of_poly(jpoly(n)))
                    vec = el.scalar_terms()
                    if vec and all(len(ww) <= max_word_len
                                   for ww, _ in vec):
                        rows_h.append(el)
        # every horizontal basis form has words of length <= max_word_len
        gap = span_gap(cc.horizontal_basis(1, max_word_len), "hor1",
                       rows_h, "Omega1(B) (x) H")
        rep.record(not gap, "hor1 = Omega1(B) (x) H", "span equality", gap,
                   ref="horizontal forms of the crossed product")
    return rep


# -- registry and oracle crosscheck --------------------------------------------------


EXAMPLE_NAMES = ("u1_q", "torus", "podles", "classical_t2", "crossed_demo")
_DATA = pathlib.Path(__file__).with_name("data")
_CACHE = {}


def build_example(name: str) -> ExampleBundle:
    """The shipped bundle ``data/<name>.qpb``, parsed once per process."""
    if name not in EXAMPLE_NAMES:
        raise ExampleError(f"unknown example {name!r}; "
                           f"available: {', '.join(EXAMPLE_NAMES)}")
    cached = _CACHE.get(name)
    if cached is not None:
        return cached
    from .fileformat import parse  # fileformat imports this module

    text = (_DATA / f"{name}.qpb").read_text(encoding="utf-8")
    bundle = _CACHE[name] = parse(text)
    return bundle


def oracle_crosscheck(bundle: ExampleBundle,
                      example: str = "") -> CheckReport:
    """Every stored braiding/vertical table entry matches the engine."""
    cc = bundle.cc
    oa, oh = cc.omega_A, cc.omega_H
    rep = CheckReport(
        suite="oracle", example=example or bundle.name,
        truncation={},
        ref="double-entry comparison against transcribed tables")
    with timed(rep):
        for entry in bundle.oracles:
            if entry.kind == "sigma":
                xs, ys = entry.args
                x = eval_form(xs, bundle.params, oa)
                y = eval_form(ys, bundle.params, oa)
                got = sigma_bullet(cc, raw_pair(cc, x, y))
                if isinstance(entry.expected, str):
                    want = eval_tensor(entry.expected, bundle.params,
                                       (oa, oa))
                else:
                    want = GradedTensor.degree_zero((oa, oa),
                                                    entry.expected)
                ok = (GradedBalancedTensor(cc, raw=got)
                      == GradedBalancedTensor(cc, raw=want))
                rep.record(ok, f"sigma({xs},{ys})", want, got, ref=entry.ref)
            elif entry.kind == "ver":
                k, l, xs = entry.args
                x = eval_form(xs, bundle.params, oa)
                got = cc.ver(k, l, x)
                want = eval_tensor(entry.expected, bundle.params, (oa, oh))
                rep.record(got == want, f"ver{k}{l}({xs})", want, got,
                           ref=entry.ref)
            else:
                raise ExampleError(f"unknown oracle kind {entry.kind!r}")
    return rep
