"""Shared presented algebras: the generator/relation data behind the bundles.

Generator orders are chosen so every relation orients into a deglex-decreasing
rule and the resulting systems are confluent.  For the q-deformed 2x2 special
linear quantum group that forces the order beta < gamma < delta < alpha with
both determinant orientations present; normal words are beta^j gamma^k alpha^i
and beta^j gamma^k delta^l.
"""

from __future__ import annotations

from .ncalg import AlgebraPresentation, GeneratorSymbol, NCPoly
from .scalars import Scalar


def _g(name, weight=0, inv=None):
    return GeneratorSymbol(name, weight, inv)


def group_algebra(name: str, gens: list[str], weights=None) -> AlgebraPresentation:
    """Commutative Laurent algebra on invertible generators g, gi."""
    weights = weights or [1] * len(gens)
    symbols = []
    for g, w in zip(gens, weights):
        symbols.append(_g(g, w, g + "i"))
        symbols.append(_g(g + "i", -w, g))
    rules = []
    names = [s.name for s in symbols]
    inverse_pairs = {frozenset((names[2 * k], names[2 * k + 1]))
                     for k in range(len(gens))}
    # commutation rules: move the lex-later generator rightwards
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = names[i], names[j]
            if frozenset((a, b)) in inverse_pairs:
                continue  # cancellation handled by auto-added inverse rules
            rules.append(((b, a), NCPoly.word((a, b))))
    return AlgebraPresentation(name, symbols, rules)


def u1_algebra(gen: str = "t") -> AlgebraPresentation:
    """Laurent polynomials on one invertible generator (structure group)."""
    return group_algebra(f"O(U(1))[{gen}]", [gen])


def torus_algebra() -> AlgebraPresentation:
    """Noncommutative 2-torus: invertible u, v with v*u = L*u*v (L a unit)."""
    L = Scalar.param("L")
    Li = Scalar.param("L", -1)
    symbols = [_g("u", 1, "ui"), _g("ui", -1, "u"),
               _g("v", -1, "vi"), _g("vi", 1, "v")]
    rules = [
        (("v", "u"), NCPoly.word(("u", "v"), L)),
        (("v", "ui"), NCPoly.word(("ui", "v"), Li)),
        (("vi", "u"), NCPoly.word(("u", "vi"), Li)),
        (("vi", "ui"), NCPoly.word(("ui", "vi"), L)),
    ]
    return AlgebraPresentation("torus", symbols, rules)


def sl2q_algebra() -> AlgebraPresentation:
    """q-deformed special linear 2x2 matrices.

    Declared order beta < gamma < delta < alpha; the two determinant rules
    alpha*delta -> 1 + q^-1 beta*gamma and delta*alpha -> 1 + q beta*gamma
    close all critical pairs.
    """
    q = Scalar.param("q")
    qi = Scalar.param("q", -1)
    one = Scalar.one()
    symbols = [_g("beta", -1), _g("gamma", 1), _g("delta", -1), _g("alpha", 1)]
    unit = NCPoly.one()
    rules = [
        (("alpha", "beta"), NCPoly.word(("beta", "alpha"), qi)),
        (("alpha", "gamma"), NCPoly.word(("gamma", "alpha"), qi)),
        (("gamma", "beta"), NCPoly.word(("beta", "gamma"), one)),
        (("delta", "beta"), NCPoly.word(("beta", "delta"), q)),
        (("delta", "gamma"), NCPoly.word(("gamma", "delta"), q)),
        (("alpha", "delta"), unit + NCPoly.word(("beta", "gamma"), qi)),
        (("delta", "alpha"), unit + NCPoly.word(("beta", "gamma"), q)),
    ]
    return AlgebraPresentation("O_q(SL2)", symbols, rules)


def laurent_2var_algebra() -> AlgebraPresentation:
    """Commutative Laurent polynomials in two invertible generators t, s."""
    return group_algebra("O(T^2)", ["t", "s"])


def poly_line_algebra() -> AlgebraPresentation:
    """Polynomials in a single (non-invertible) generator x."""
    return AlgebraPresentation("k[x]", [_g("x")], [])


# -- Hopf structures -----------------------------------------------------------

def hopf_group_algebra(base: AlgebraPresentation) -> "HopfPresentation":
    """Grouplike structure on a commutative Laurent algebra: every generator
    g gets Delta(g) = g (x) g, eps(g) = 1, S(g) = g^-1."""
    from .hopf import HopfPresentation
    from .tensors import TensorPoly

    delta, eps, s, sinv = {}, {}, {}, {}
    for g in base.generators:
        if g.inverse_of is None:
            raise ValueError(f"group algebra generator {g.name} needs an inverse")
        delta[g.name] = TensorPoly.from_polys(
            (base, base), NCPoly.gen(g.name), NCPoly.gen(g.name))
        eps[g.name] = Scalar.one()
        s[g.name] = NCPoly.gen(g.inverse_of)
        sinv[g.name] = NCPoly.gen(g.inverse_of)
    return HopfPresentation(base, delta, eps, s, sinv)


def hopf_u1(gen: str = "t") -> "HopfPresentation":
    return hopf_group_algebra(u1_algebra(gen))


def hopf_laurent_2var() -> "HopfPresentation":
    return hopf_group_algebra(laurent_2var_algebra())


# -- differential calculi ----------------------------------------------------


def u1_calculus(hopf, commutation_exponent: int, name=None) -> "DiffCalculus":
    """Bicovariant calculus on the Laurent structure group: free on dt with
    dt t = q^c t dt.  c = 1 gives the q-difference calculus, c = 0 the
    classical one, c = 2 the quantum-sphere-bundle choice (the orientation
    is pinned by well-definedness of the vertical maps)."""
    from .calculus import DiffCalculus
    from .ncalg import NCPoly as P

    H = hopf.base
    c = commutation_exponent
    q = Scalar.param("q")
    gen = H.generators[0].name
    geni = H.generators[0].inverse_of
    dt = "d" + gen
    calc = DiffCalculus(
        name or f"Omega({H.name},c={c})", H, (dt,), 1,
        swap={}, raction={}, d_gen={}, d_letter={dt: None},
        expansion={dt: [(P.one(), P.gen(gen))]},
        rco={dt: (gen,)}, lco={dt: (gen,)}, hopf=hopf)
    calc.raction[(dt, gen)] = calc.of_poly(P.gen(gen, q ** c), (dt,))
    calc.raction[(dt, geni)] = calc.of_poly(P.gen(geni, q ** (-c)), (dt,))
    calc.d_gen[gen] = calc.form(dt)
    calc.d_gen[geni] = calc.of_poly(
        P.word((geni, geni), -(q ** (-c))), (dt,))
    calc.d_letter[dt] = calc.zero()
    return calc


def laurent_2var_calculus(hopf=None) -> "DiffCalculus":
    """Classical calculus on the Laurent algebra in t and s."""
    from .calculus import DiffCalculus
    from .ncalg import NCPoly as P

    hopf = hopf or hopf_laurent_2var()
    H = hopf.base
    one = Scalar.one()
    calc = DiffCalculus(
        "Omega(O(T^2))", H, ("dt", "ds"), 2,
        swap={("ds", "dt"): -one}, raction={}, d_gen={}, d_letter={},
        expansion={"dt": [(P.one(), P.gen("t"))],
                   "ds": [(P.one(), P.gen("s"))]},
        rco={"dt": ("t",), "ds": ("s",)},
        lco={"dt": ("t",), "ds": ("s",)}, hopf=hopf)
    for f in ("dt", "ds"):
        for g in ("t", "ti", "s", "si"):
            calc.raction[(f, g)] = calc.of_poly(P.gen(g), (f,))
    calc.d_gen["t"] = calc.form("dt")
    calc.d_gen["s"] = calc.form("ds")
    calc.d_gen["ti"] = calc.of_poly(P.word(("ti", "ti"), -one), ("dt",))
    calc.d_gen["si"] = calc.of_poly(P.word(("si", "si"), -one), ("ds",))
    calc.d_letter["dt"] = calc.zero()
    calc.d_letter["ds"] = calc.zero()
    return calc


def torus_total_calculus(A) -> "DiffCalculus":
    """The two-generator calculus on the noncommutative torus."""
    from .calculus import DiffCalculus
    from .ncalg import NCPoly as P

    L = Scalar.param("L")
    Li = Scalar.param("L", -1)
    one = Scalar.one()
    calc = DiffCalculus(
        "Omega(torus)", A, ("du", "dv"), 2,
        swap={("dv", "du"): -L}, raction={}, d_gen={}, d_letter={},
        expansion={"du": [(P.one(), P.gen("u"))],
                   "dv": [(P.one(), P.gen("v"))]})
    action = {("du", "u"): one, ("du", "ui"): one,
              ("du", "v"): Li, ("du", "vi"): L,
              ("dv", "v"): one, ("dv", "vi"): one,
              ("dv", "u"): L, ("dv", "ui"): Li}
    for (f, g), c in action.items():
        calc.raction[(f, g)] = calc.of_poly(P.gen(g, c), (f,))
    calc.d_gen["u"] = calc.form("du")
    calc.d_gen["v"] = calc.form("dv")
    calc.d_gen["ui"] = calc.of_poly(P.word(("ui", "ui"), -one), ("du",))
    calc.d_gen["vi"] = calc.of_poly(P.word(("vi", "vi"), -one), ("dv",))
    calc.d_letter["du"] = calc.zero()
    calc.d_letter["dv"] = calc.zero()
    return calc


def sl2q_total_calculus(A) -> "DiffCalculus":
    """The left-covariant three-dimensional calculus on the q-deformed
    quantum group, free on e+ (ep), e- (em), e0."""
    from .calculus import DiffCalculus
    from .ncalg import NCPoly as P

    q = Scalar.param("q")
    qi = Scalar.param("q", -1)
    one = Scalar.one()
    calc = DiffCalculus(
        "Omega(O_q(SL2))", A, ("ep", "em", "e0"), 3,
        swap={("em", "ep"): -(q ** 2),
              ("e0", "ep"): -(q ** 4),
              ("e0", "em"): -(qi ** 4)},
        raction={}, d_gen={}, d_letter={},
        expansion={
            "ep": [(P.gen("alpha", qi), P.gen("gamma")),
                   (P.gen("gamma", -(qi ** 2)), P.gen("alpha"))],
            "em": [(P.gen("delta"), P.gen("beta")),
                   (P.gen("beta", -q), P.gen("delta"))],
            "e0": [(P.gen("delta"), P.gen("alpha")),
                   (P.gen("beta", -q), P.gen("gamma"))],
        })
    for g in A.generators:
        w = g.weight
        calc.raction[("ep", g.name)] = calc.of_poly(P.gen(g.name, q ** w), ("ep",))
        calc.raction[("em", g.name)] = calc.of_poly(P.gen(g.name, q ** w), ("em",))
        calc.raction[("e0", g.name)] = calc.of_poly(
            P.gen(g.name, q ** (2 * w)), ("e0",))
    calc.d_gen["alpha"] = (calc.of_poly(P.gen("alpha"), ("e0",))
                           + calc.of_poly(P.gen("beta", q), ("ep",)))
    calc.d_gen["gamma"] = (calc.of_poly(P.gen("gamma"), ("e0",))
                           + calc.of_poly(P.gen("delta", q), ("ep",)))
    calc.d_gen["beta"] = (calc.of_poly(P.gen("beta", -(qi ** 2)), ("e0",))
                          + calc.of_poly(P.gen("alpha"), ("em",)))
    calc.d_gen["delta"] = (calc.of_poly(P.gen("delta", -(qi ** 2)), ("e0",))
                           + calc.of_poly(P.gen("gamma"), ("em",)))
    calc.d_letter["e0"] = calc.form("ep", "em").scale(q ** 3)
    calc.d_letter["ep"] = calc.form("ep", "e0").scale(-(q ** 2) - one)
    calc.d_letter["em"] = calc.form("em", "e0").scale(qi ** 2 + qi ** 4)
    return calc


# -- comodule structures ---------------------------------------------------


def _diag_coaction(A, H, tags):
    from .ncalg import NCPoly as P
    from .tensors import TensorPoly

    return {g: TensorPoly.from_polys((A, H.base), P.gen(g), P.word(tag))
            for g, tag in tags.items()}


def u1_comodule():
    """The structure Hopf algebra as a bundle over the ground field."""
    from .comodule import ComoduleAlgebra, TranslationData
    from .ncalg import NCPoly as P
    from .tensors import TensorPoly

    H = hopf_u1()
    A = H.base
    ca = ComoduleAlgebra("u1_q", A, H, _diag_coaction(
        A, H, {"t": ("t",), "ti": ("ti",)}))
    # regular bundle: tau(h) = S(h1) (x) h2
    tab = {"t": TensorPoly.from_polys((A, A), P.gen("ti"), P.gen("t")),
           "ti": TensorPoly.from_polys((A, A), P.gen("t"), P.gen("ti"))}
    td = TranslationData(ca, tab, label="u1_q")
    return ca, td


def torus_comodule():
    from .comodule import ComoduleAlgebra, TranslationData
    from .ncalg import NCPoly as P

    H = hopf_u1()
    A = torus_algebra()
    ca = ComoduleAlgebra("torus", A, H, _diag_coaction(
        A, H, {"u": ("t",), "ui": ("ti",), "v": ("ti",), "vi": ("t",)}))

    def j(word):
        if all(s == "t" for s in word):
            return P.word(("u",) * len(word))
        if all(s == "ti" for s in word):
            return P.word(("v",) * len(word))
        raise ValueError(f"not a grouplike power: {word}")

    def jinv(word):
        if all(s == "t" for s in word):
            return P.word(("ui",) * len(word))
        if all(s == "ti" for s in word):
            return P.word(("vi",) * len(word))
        raise ValueError(f"not a grouplike power: {word}")

    td = TranslationData.from_cleaving(ca, j, jinv, label="torus")
    return ca, td


def sl2q_comodule():
    from .comodule import ComoduleAlgebra, TranslationData
    from .ncalg import NCPoly as P
    from .tensors import TensorPoly

    H = hopf_u1()
    A = sl2q_algebra()
    q = Scalar.param("q")
    qi = Scalar.param("q", -1)
    ca = ComoduleAlgebra("podles", A, H, _diag_coaction(
        A, H, {"alpha": ("t",), "gamma": ("t",),
               "beta": ("ti",), "delta": ("ti",)}))
    tab = {
        "t": (TensorPoly.from_polys((A, A), P.gen("delta"), P.gen("alpha"))
              + TensorPoly.from_polys((A, A), P.gen("beta", -q),
                                      P.gen("gamma"))),
        "ti": (TensorPoly.from_polys((A, A), P.gen("alpha"), P.gen("delta"))
               + TensorPoly.from_polys((A, A), P.gen("gamma", -qi),
                                       P.gen("beta"))),
    }
    td = TranslationData(ca, tab, label="podles")
    return ca, td


def hopf_sl2q() -> "HopfPresentation":
    """Matrix comultiplication on the q-deformed 2x2 quantum group."""
    from .hopf import HopfPresentation
    from .tensors import TensorPoly

    base = sl2q_algebra()
    q = Scalar.param("q")
    qi = Scalar.param("q", -1)
    one = Scalar.one()
    zero = Scalar.zero()

    def tp(*pairs):
        out = TensorPoly.zero((base, base))
        for x, y in pairs:
            out.add_scaled(TensorPoly.from_polys((base, base),
                                                 NCPoly.gen(x), NCPoly.gen(y)))
        return out

    delta = {
        "alpha": tp(("alpha", "alpha"), ("beta", "gamma")),
        "beta": tp(("alpha", "beta"), ("beta", "delta")),
        "gamma": tp(("gamma", "alpha"), ("delta", "gamma")),
        "delta": tp(("gamma", "beta"), ("delta", "delta")),
    }
    eps = {"alpha": one, "delta": one, "beta": zero, "gamma": zero}
    s = {
        "alpha": NCPoly.gen("delta"),
        "beta": NCPoly.gen("beta", -q),
        "gamma": NCPoly.gen("gamma", -qi),
        "delta": NCPoly.gen("alpha"),
    }
    sinv = {
        "alpha": NCPoly.gen("delta"),
        "beta": NCPoly.gen("beta", -qi),
        "gamma": NCPoly.gen("gamma", -q),
        "delta": NCPoly.gen("alpha"),
    }
    return HopfPresentation(base, delta, eps, s, sinv)
