"""Line-oriented presentation files for bundles.

INI-style sections with `key = expression` lines in the shared grammar.
Sections: [bundle], [params], [hopf.generators], [hopf.relations],
[hopf.delta], [hopf.epsilon], [hopf.antipode], [hopf.antipode_inv],
[hopf.calculus], then the total space, then [oracle.sigma], [oracle.ver].
The total space is one of:

- [generators], [relations], [coaction], [calculus], [translation] or
  [cleaving], [connection], [strong];
- `total = hopf` under [bundle] (the structure group over itself) with
  [coaction], [translation], [connection], [strong];
- a crossed product: [crossed.generators], [crossed.relations],
  [crossed.calculus] and [crossed] (`measure h b = ...`, `cocycle = ...`),
  handed to `examples.crossed_product`.

Parsing is total with line-anchored diagnostics; the serializer emits
canonical files that round-trip.
"""

from __future__ import annotations

from .calculus import DiffCalculus, Element, GradedTensor
from .comodule import ComoduleAlgebra, TranslationData
from .examples import (
    CrossedProductData,
    ExampleBundle,
    ExampleError,
    OracleEntry,
    crossed_product,
    qbinomial_strong_connection,
)
from .exprs import (
    ExprError,
    _bare_calculus,
    eval_form,
    eval_poly,
    eval_poly_ast,
    eval_scalar,
    eval_tensor,
    parse_ast,
)
from .hopf import HopfPresentation
from .ncalg import AlgebraPresentation, GeneratorSymbol, NCPoly
from .qpb import CompleteCalculus, h_delta_letter_table
from .scalars import Parameter
from .tensors import TensorPoly


class ParseError(Exception):
    def __init__(self, msg, line=None):
        super().__init__(msg if line is None else f"line {line}: {msg}")
        self.line = line


def _split_sections(text):
    """Section name -> its (lineno, key, value) lines, and section name ->
    the line of its first header."""
    sections = {}
    headers = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.strip().startswith("["):
            name = line.strip()
            if not name.endswith("]"):
                raise ParseError(f"malformed section header {name!r}", lineno)
            current = name[1:-1].strip()
            sections.setdefault(current, [])
            headers.setdefault(current, lineno)
            continue
        if current is None:
            raise ParseError("content before the first section", lineno)
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        key, value = line.split("=", 1)
        sections[current].append((lineno, key.strip(), value.strip()))
    return sections, headers


def _generators(lines):
    out = []
    for lineno, key, value in lines:
        toks = value.split()
        weight = 0
        inverse = None
        i = 0
        while i < len(toks):
            if toks[i] == "weight":
                weight = int(toks[i + 1])
                i += 2
            elif toks[i] == "inverse":
                inverse = toks[i + 1]
                i += 2
            else:
                raise ParseError(f"unknown generator attribute {toks[i]!r}",
                                 lineno)
        out.append(GeneratorSymbol(key, weight, inverse))
    return out


def _algebra(name, sections, gen_section, rel_section, params):
    gens = _generators(sections.get(gen_section, []))
    if not gens:
        raise ParseError(f"missing [{gen_section}] section")
    # one degree-0 calculus over the free algebra reads every relation, so
    # its product memo serves them all
    bare = _bare_calculus(AlgebraPresentation(name, gens, []))
    rules = []
    for lineno, key, value in sections.get(rel_section, []):
        try:
            lhs = eval_poly_ast(parse_ast(key, lineno), params, bare,
                                line=lineno)
            rhs = eval_poly_ast(parse_ast(value, lineno), params, bare,
                                line=lineno)
        except ExprError as e:
            raise ParseError(str(e), lineno) from e
        if len(lhs.terms) != 1:
            raise ParseError("relation lhs must be a single word", lineno)
        ((w, c),) = lhs.terms.items()
        if not c.is_one():
            raise ParseError("relation lhs must have coefficient 1", lineno)
        rules.append((w, rhs))
    return AlgebraPresentation(name, gens, rules)


def _gen_table(lines, params, evaluate):
    out = {}
    for lineno, key, value in lines:
        try:
            out[key] = evaluate(value, lineno)
        except ExprError as e:
            raise ParseError(str(e), lineno) from e
    return out


def _tensorpoly(gt: GradedTensor, legs) -> TensorPoly:
    out = TensorPoly.zero(legs)
    for key, c in gt.scalar_terms().items():
        words = []
        for (w, F) in key:
            if F:
                raise ParseError("expected a degree-zero tensor")
            words.append(w)
        out.terms[tuple(words)] = c
    return out


def _calculus(name, section_lines, pres, params, hopf=None):
    basis = None
    top = None
    for lineno, key, value in section_lines:
        if key == "basis":
            basis = tuple(value.split())
        elif key == "top":
            top = int(value)
    if basis is None or top is None:
        raise ParseError(f"calculus section for {name} needs basis and top")
    calc = DiffCalculus(name, pres, basis, top, {}, {}, {}, {},
                        expansion={}, rco={}, lco={}, hopf=hopf)
    deferred_delta = []
    for lineno, key, value in section_lines:
        parts = key.split()
        try:
            if parts[0] in ("basis", "top"):
                continue
            elif parts[0] == "swap" and len(parts) == 3:
                calc.swap[(parts[1], parts[2])] = eval_scalar(
                    value, params, line=lineno)
            elif parts[0] == "raction" and len(parts) == 3:
                calc.raction[(parts[1], parts[2])] = eval_form(
                    value, params, calc, line=lineno)
            elif parts[0] == "d" and len(parts) == 2:
                el = eval_form(value, params, calc, line=lineno)
                if parts[1] in calc.letter_index:
                    calc.d_letter[parts[1]] = el
                else:
                    calc.d_gen[parts[1]] = el
            elif parts[0] == "expansion" and len(parts) == 2:
                calc.expansion[parts[1]] = _expansion_pairs(
                    value, params, calc, lineno)
            elif parts[0] == "rco" and len(parts) == 2:
                calc.rco[parts[1]] = tuple(value.split("*"))
            elif parts[0] == "lco" and len(parts) == 2:
                calc.lco[parts[1]] = tuple(value.split("*"))
            elif parts[0] == "delta" and len(parts) == 2:
                deferred_delta.append((lineno, parts[1], value))
            else:
                raise ParseError(f"unknown calculus key {key!r}", lineno)
        except ExprError as e:
            raise ParseError(str(e), lineno) from e
    return calc, deferred_delta


def _expansion_pairs(value, params, calc, lineno):
    """Parse a sum of (poly) * d(poly) terms into expansion pairs."""
    ast = parse_ast(value, lineno)
    bare = _bare_calculus(calc.pres)
    pairs = []

    def walk(node, sign):
        kind = node[0]
        if kind == "bin" and node[1] in "+-":
            walk(node[2], sign)
            walk(node[3], sign if node[1] == "+" else -sign)
            return
        if kind == "neg":
            walk(node[1], -sign)
            return
        coeff_node, d_node = _split_d_term(node, lineno)
        a = (eval_poly_ast(coeff_node, params, bare, line=lineno)
             if coeff_node is not None else NCPoly.one())
        b = eval_poly_ast(d_node[2][0], params, bare, line=lineno)
        if sign < 0:
            a = -a
        pairs.append((a, b))

    walk(ast, 1)
    return pairs


def _split_d_term(node, lineno):
    """Split a product tree into (coefficient ast, d(...) ast)."""
    if node[0] == "call" and node[1] == "d":
        return None, node
    if node[0] == "bin" and node[1] == "*":
        left, right = node[2], node[3]
        if right[0] == "call" and right[1] == "d":
            return left, right
        c2, d2 = _split_d_term(right, lineno)
        if d2 is not None:
            combined = left if c2 is None else ("bin", "*", left, c2)
            return combined, d2
    raise ParseError("expansion terms must look like a * d(b)", lineno)


def _split_args(text, lineno):
    """Split 'f(a, b)' argument text at the top-level comma."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return text[:i].strip(), text[i + 1:].strip()
    raise ParseError("expected two comma-separated arguments", lineno)


def parse(text: str) -> ExampleBundle:
    sections, headers = _split_sections(text)
    params = {}
    for lineno, key, value in sections.get("params", []):
        params[key] = Parameter(key, value.strip() == "invertible")

    name = "bundle"
    total_line = None
    for lineno, key, value in sections.get("bundle", []):
        if key == "name":
            name = value
        elif key == "total" and value == "hopf":
            total_line = lineno
        else:
            raise ParseError(f"unknown [bundle] entry {key} = {value}",
                             lineno)

    H_alg = _algebra(f"{name}.H", sections, "hopf.generators",
                     "hopf.relations", params)

    def hopf_table(section, evaluate):
        """A [hopf.*] table, which needs an entry for every generator."""
        if section not in sections:
            raise ParseError(f"missing [{section}] section")
        table = _gen_table(sections[section], params, evaluate)
        for g in H_alg.generators:
            if g.name not in table:
                raise ParseError(f"[{section}] has no entry for generator "
                                 f"{g.name}", headers[section])
        return table

    delta = hopf_table(
        "hopf.delta",
        lambda v, ln: _tensorpoly(eval_tensor(
            v, params, _bare_pair(H_alg, H_alg), line=ln), (H_alg, H_alg)))
    eps = hopf_table("hopf.epsilon",
                     lambda v, ln: eval_scalar(v, params, line=ln))
    s_tab = hopf_table("hopf.antipode",
                       lambda v, ln: eval_poly(v, params, H_alg, line=ln))
    sinv_tab = hopf_table("hopf.antipode_inv",
                          lambda v, ln: eval_poly(v, params, H_alg, line=ln))
    hopf = HopfPresentation(H_alg, delta, eps, s_tab, sinv_tab)
    omega_H, _ = _calculus(f"Omega({name}.H)",
                           sections.get("hopf.calculus", []), H_alg, params,
                           hopf=hopf)

    if any(s.split(".")[0] == "crossed" for s in sections):
        if total_line is not None:
            raise ParseError("a crossed product builds its own total space",
                             total_line)
        _reject(sections, headers, _TOTAL_SPACE,
                "a crossed product, which builds its total space")
        bundle = _crossed_bundle(name, sections, headers, hopf, omega_H,
                                 params)
    else:
        if total_line is not None:
            _reject(sections, headers, ("generators", "relations", "calculus"),
                    "total = hopf")
        bundle = _bundle(name, sections, hopf, omega_H, params,
                         total_line is not None)
    for rep in bundle.structural_validation():
        if not rep.ok():
            w = rep.witnesses[0]
            raise ParseError(
                f"{name}: structural validation failed in {rep.suite}: "
                f"{w.input} expected {w.expected} got {w.got}")
    return bundle


_TOTAL_SPACE = ("generators", "relations", "calculus", "coaction",
                "translation", "cleaving", "connection", "strong")


def _reject(sections, headers, names, why):
    for section in names:
        if section in sections:
            raise ParseError(f"[{section}] conflicts with {why}",
                             headers[section])


def _bundle(name, sections, hopf, omega_H, params, total_is_hopf):
    """A bundle whose total space is written out, or is the structure
    group itself (``total = hopf``: one algebra and one calculus)."""
    H_alg = hopf.base
    if total_is_hopf:
        A = H_alg
    else:
        A = _algebra(f"{name}.A", sections, "generators", "relations", params)
    coaction = _gen_table(
        sections.get("coaction", []), params,
        lambda v, ln: _tensorpoly(eval_tensor(
            v, params, _bare_pair(A, H_alg), line=ln), (A, H_alg)))
    ca = ComoduleAlgebra(name, A, hopf, coaction)
    if total_is_hopf:
        omega_A, deferred = omega_H, []
        delta_letter = h_delta_letter_table(omega_H)
    else:
        omega_A, deferred = _calculus(f"Omega({name}.A)",
                                      sections.get("calculus", []), A, params)
        delta_letter = {}

    td = _translation(sections, ca, params, name)
    cc = CompleteCalculus(name, ca, omega_A, omega_H, delta_letter, td)
    for lineno, letter, value in deferred:
        try:
            cc.delta_letter[letter] = eval_tensor(
                value, params, (omega_A, omega_H), line=lineno)
        except ExprError as e:
            raise ParseError(str(e), lineno) from e

    connection = {}
    for lineno, key, value in sections.get("connection", []):
        F = tuple(key.split("*"))
        try:
            connection[F] = eval_form(value, params, omega_A, line=lineno)
        except ExprError as e:
            raise ParseError(str(e), lineno) from e

    form, ell = _strong(sections, ca, td, params)
    return ExampleBundle(name, ca, td, cc, params, connection, ell,
                         _oracles(sections), strong_form=form)


def _crossed_bundle(name, sections, headers, hopf, omega_H, params):
    """The crossed product of [crossed.*] B and Omega(B) by the structure
    group, with the [crossed] measure and bicharacter cocycle."""
    B = _algebra(f"{name}.B", sections, "crossed.generators",
                 "crossed.relations", params)
    omega_B, _ = _calculus(f"Omega({name}.B)",
                           sections.get("crossed.calculus", []), B, params)
    measure, base = {}, None
    for lineno, key, value in sections.get("crossed", []):
        parts = key.split()
        try:
            if parts == ["cocycle"]:
                base = eval_scalar(value, params, line=lineno)
            elif len(parts) == 3 and parts[0] == "measure":
                measure[(parts[1], parts[2])] = eval_poly(
                    value, params, B, line=lineno)
            else:
                raise ParseError(f"unknown [crossed] key {key!r}", lineno)
        except ExprError as e:
            raise ParseError(str(e), lineno) from e
    line = headers.get("crossed")
    g = hopf.base.generators[0]
    for h in (g.name, g.inverse_of):
        for b in B.generators:
            if (h, b.name) not in measure:
                raise ParseError(f"[crossed] needs 'measure {h} {b.name}'",
                                 line)
    if base is None:
        raise ParseError("[crossed] needs 'cocycle'", line)
    data = CrossedProductData(B, omega_B, hopf, omega_H, measure, base, name)
    try:
        bundle = crossed_product(data)
    except ExampleError as e:
        raise ParseError(str(e), line) from e
    bundle.params = params
    bundle.oracles += _oracles(sections)
    return bundle


def _bare_pair(p1, p2):
    return (_bare_calculus(p1), _bare_calculus(p2))


def _translation(sections, ca, params, name):
    A = ca.A
    if "translation" in sections:
        tab = {}
        for lineno, key, value in sections["translation"]:
            try:
                tab[key] = _tensorpoly(eval_tensor(
                    value, params, _bare_pair(A, A), line=lineno), (A, A))
            except ExprError as e:
                raise ParseError(str(e), lineno) from e
        return TranslationData(ca, tab, label=name)
    if "cleaving" in sections:
        j_tab, jinv_tab = {}, {}
        for lineno, key, value in sections["cleaving"]:
            parts = key.split()
            if len(parts) != 2 or parts[0] not in ("j", "jinv"):
                raise ParseError("cleaving keys look like 'j t'", lineno)
            try:
                poly = eval_poly(value, params, A, line=lineno)
            except ExprError as e:
                raise ParseError(str(e), lineno) from e
            (j_tab if parts[0] == "j" else jinv_tab)[parts[1]] = poly

        def extend(tab):
            def fn(word):
                if not word:
                    return NCPoly.one()
                out = NCPoly.one()
                for g in word:
                    out = A.multiply(out, tab[g])
                return out
            return fn

        return TranslationData.from_cleaving(ca, extend(j_tab),
                                             extend(jinv_tab), label=name)
    raise ParseError("need a [translation] or [cleaving] section")


def _strong(sections, ca, td, params):
    """The declared strong-connection form and the map it names.  The
    qbinomial form names its deformation parameter, a scalar expression
    over [params]: qbinomial(q)."""
    form, line = "none", None
    for lineno, key, value in sections.get("strong", []):
        if key == "form":
            form, line = value, lineno
    if form == "none":
        return form, None
    if form == "translation":
        return form, td.tau_word
    if form.startswith("qbinomial(") and form.endswith(")"):
        try:
            q = eval_scalar(form[len("qbinomial("):-1], params, line=line)
        except ExprError as e:
            raise ParseError(str(e), line) from e
        return form, qbinomial_strong_connection(ca, q)
    raise ParseError(f"unknown strong-connection form {form!r}", line)


def _oracles(sections):
    out = []
    for lineno, key, value in sections.get("oracle.sigma", []):
        if not (key.startswith("sigma(") and key.endswith(")")):
            raise ParseError("oracle keys look like sigma(x, y)", lineno)
        x, y = _split_args(key[len("sigma("):-1], lineno)
        out.append(OracleEntry("sigma", (x, y), value,
                               "table entry from the presentation file"))
    for lineno, key, value in sections.get("oracle.ver", []):
        parts = key.split(None, 3)
        if len(parts) != 4 or parts[0] != "ver":
            raise ParseError("oracle keys look like 'ver k l expr'", lineno)
        out.append(OracleEntry("ver", (int(parts[1]), int(parts[2]),
                                       parts[3]), value,
                               "table entry from the presentation file"))
    return out


# -- serialization ------------------------------------------------------------


def _word_str(w):
    return "*".join(w) if w else "1"


def _poly_str(p: NCPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for w in sorted(p.terms, key=lambda w: (len(w), w)):
        c = p.terms[w]
        cs = str(c)
        body = _word_str(w)
        if body == "1":
            parts.append(f"({cs})" if (" " in cs or "/" in cs) else cs)
        elif cs == "1":
            parts.append(body)
        else:
            cs = f"({cs})" if (" " in cs or "/" in cs or cs.startswith("-")
                               ) else cs
            parts.append(f"{cs}*{body}")
    return " + ".join(parts)


def _form_str(el: Element) -> str:
    terms = el.scalar_terms()
    if not terms:
        return "0"
    parts = []
    for (w, F) in sorted(terms, key=lambda k: (k[1], len(k[0]), k[0])):
        c = terms[(w, F)]
        cs = str(c)
        bits = [x for x in (_word_str(w),) if x != "1"] + list(F)
        body = "*".join(bits) if bits else "1"
        if cs == "1" and bits:
            parts.append(body)
        else:
            cs = f"({cs})" if (" " in cs or "/" in cs or
                               cs.startswith("-")) else cs
            parts.append(f"{cs}*{body}" if bits else cs)
    return " + ".join(parts)


def _mono_str(mono):
    w, F = mono
    bits = [x for x in (_word_str(w),) if x != "1"] + list(F)
    return "*".join(bits) if bits else "1"


def _tensor_str(gt) -> str:
    terms = gt.scalar_terms()
    if not terms:
        return "0"
    parts = []
    if isinstance(gt, TensorPoly):
        items = [(((w1, ()), (w2, ())), c) for (w1, w2), c in terms.items()]
    else:
        items = list(terms.items())
    for key, c in sorted(items, key=lambda kc: repr(kc[0])):
        cs = str(c)
        body = f"tensor({_mono_str(key[0])}, {_mono_str(key[1])})"
        if cs == "1":
            parts.append(body)
        else:
            cs = f"({cs})" if (" " in cs or "/" in cs or
                               cs.startswith("-")) else cs
            parts.append(f"{cs}*{body}")
    return " + ".join(parts)


def serialize(bundle: ExampleBundle) -> str:
    lines = []
    out = lines.append
    A = bundle.ca.A
    hopf = bundle.ca.H
    total_is_hopf = A is hopf.base
    out(f"# qpbcalc bundle: {bundle.name}")
    out("[bundle]")
    out(f"name = {bundle.name}")
    if total_is_hopf:
        out("total = hopf")
    out("")
    out("[params]")
    for p in sorted(bundle.params):
        out(f"{p} = {'invertible' if bundle.params[p].invertible else 'formal'}")
    out("")
    _emit_algebra(out, hopf.base, "hopf.generators", "hopf.relations")
    out("")
    out("[hopf.delta]")
    for g in hopf.base.generators:
        out(f"{g.name} = {_tensor_str(hopf.delta_tab[g.name])}")
    out("")
    out("[hopf.epsilon]")
    for g in hopf.base.generators:
        out(f"{g.name} = {hopf.eps_tab[g.name]}")
    out("")
    out("[hopf.antipode]")
    for g in hopf.base.generators:
        out(f"{g.name} = {_poly_str(hopf.s_tab[g.name])}")
    out("")
    out("[hopf.antipode_inv]")
    for g in hopf.base.generators:
        out(f"{g.name} = {_poly_str(hopf.sinv_tab[g.name])}")
    out("")
    _emit_calculus(out, bundle.omega_H, "hopf.calculus", None)
    if bundle.crossed is not None:
        _emit_crossed(out, bundle.crossed)
    else:
        _emit_total_space(out, bundle, total_is_hopf)
    sig = [e for e in bundle.oracles
           if e.kind == "sigma" and isinstance(e.expected, str)]
    ver = [e for e in bundle.oracles if e.kind == "ver"]
    if sig:
        out("")
        out("[oracle.sigma]")
        for e in sig:
            out(f"sigma({e.args[0]}, {e.args[1]}) = {e.expected}")
    if ver:
        out("")
        out("[oracle.ver]")
        for e in ver:
            out(f"ver {e.args[0]} {e.args[1]} {e.args[2]} = {e.expected}")
    out("")
    return "\n".join(lines)


def _emit_total_space(out, bundle, total_is_hopf):
    if not total_is_hopf:
        out("")
        _emit_algebra(out, bundle.ca.A, "generators", "relations")
    out("")
    out("[coaction]")
    for g in bundle.ca.A.generators:
        out(f"{g.name} = {_tensor_str(bundle.ca.coact_tab[g.name])}")
    if not total_is_hopf:
        out("")
        _emit_calculus(out, bundle.omega_A, "calculus",
                       bundle.cc.delta_letter)
    out("")
    out("[translation]")
    for g in bundle.ca.H.base.generators:
        out(f"{g.name} = {_tensor_str(bundle.td.tab[g.name])}")
    out("")
    out("[connection]")
    for F, el in sorted(bundle.connection.items()):
        out(f"{'*'.join(F)} = {_form_str(el)}")
    out("")
    out("[strong]")
    out(f"form = {bundle.strong_form}")


def _emit_crossed(out, data):
    """The crossed-product input; the oracles it generates are implied."""
    out("")
    _emit_algebra(out, data.B, "crossed.generators", "crossed.relations")
    out("")
    _emit_calculus(out, data.omega_B, "crossed.calculus", None)
    out("")
    out("[crossed]")
    for (h, b), p in data.measure.items():
        out(f"measure {h} {b} = {_poly_str(p)}")
    out(f"cocycle = {data.cocycle_base}")


def _emit_algebra(out, pres, gen_section, rel_section):
    out(f"[{gen_section}]")
    for g in pres.generators:
        attrs = [f"weight {g.weight}"]
        if g.inverse_of:
            attrs.append(f"inverse {g.inverse_of}")
        out(f"{g.name} = {' '.join(attrs)}")
    out("")
    out(f"[{rel_section}]")
    auto = set()
    for g in pres.generators:
        if g.inverse_of:
            auto.add((g.name, g.inverse_of))
    for rule in pres.rules:
        if rule.lhs in auto and rule.rhs == NCPoly.one():
            continue  # re-added automatically for inverse pairs
        out(f"{_word_str(rule.lhs)} = {_poly_str(rule.rhs)}")


def _emit_calculus(out, calc, section, delta_letter):
    out(f"[{section}]")
    out(f"basis = {' '.join(calc.letters)}")
    out(f"top = {calc.top_degree}")
    for (a, b), c in sorted(calc.swap.items()):
        out(f"swap {a} {b} = {c}")
    for (f, g), el in sorted(calc.raction.items()):
        out(f"raction {f} {g} = {_form_str(el)}")
    for g in calc.pres.generators:
        if g.name in calc.d_gen:
            out(f"d {g.name} = {_form_str(calc.d_gen[g.name])}")
    for f in calc.letters:
        if f in calc.d_letter:
            out(f"d {f} = {_form_str(calc.d_letter[f])}")
    for f in calc.letters:
        if f in calc.expansion:
            parts = []
            for a, b in calc.expansion[f]:
                pa = _poly_str(a)
                if pa == "1":
                    parts.append(f"d({_poly_str(b)})")
                else:
                    pa = f"({pa})" if ("+" in pa or " " in pa) else pa
                    parts.append(f"{pa}*d({_poly_str(b)})")
            out(f"expansion {f} = {' + '.join(parts)}")
    for f in calc.letters:
        if f in calc.rco:
            out(f"rco {f} = {'*'.join(calc.rco[f])}")
        if f in calc.lco:
            out(f"lco {f} = {'*'.join(calc.lco[f])}")
    if delta_letter:
        for f in calc.letters:
            out(f"delta {f} = {_tensor_str(delta_letter[f])}")
