"""Shared expression grammar for presentation files, oracle tables and the
command line.

Atoms are integers, parameter names, algebra generators and form letters;
`*` is the (noncommutative) product covering both multiplication and wedge,
`/` divides by a scalar, `^` takes signed integer powers, `d(x)` applies the
differential and `tensor(x, y)` builds a two-leg tensor.  Errors carry
line/column positions.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .calculus import DiffCalculus, Element, GradedTensor
from .ncalg import NCPoly, add_term
from .scalars import Scalar, sign


class ExprError(Exception):
    def __init__(self, msg, line=None, col=None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", col {col}" if col else "")
        super().__init__(msg + where)
        self.line = line
        self.col = col


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<op>[-+*/^(),]))")


Token = namedtuple("Token", "kind text col")


def tokenize(text: str, line=None):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprError(f"unexpected character {rest[0]!r}", line, pos + 1)
        pos = m.end()
        for kind in ("int", "name", "op"):
            if m.group(kind) is not None:
                out.append(Token(kind, m.group(kind), m.start(kind) + 1))
                break
    return out


# -- AST ------------------------------------------------------------------------

# nodes: ("int", n) ("name", s) ("call", fname, [args]) ("neg", x)
#        ("bin", op, a, b) ("pow", x, n)


class _Parser:
    def __init__(self, tokens, line=None):
        self.toks = tokens
        self.i = 0
        self.line = line

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, text=None):
        t = self.peek()
        if t is None:
            raise ExprError("unexpected end of expression", self.line)
        if text is not None and t.text != text:
            raise ExprError(f"expected {text!r}, got {t.text!r}", self.line,
                            t.col)
        self.i += 1
        return t

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            t = self.peek()
            raise ExprError(f"trailing input {t.text!r}", self.line, t.col)
        return node

    def expr(self):
        t = self.peek()
        if t and t.text == "-":
            self.take()
            node = ("neg", self.term())
        else:
            node = self.term()
        while True:
            t = self.peek()
            if t and t.kind == "op" and t.text in "+-":
                self.take()
                rhs = self.term()
                node = ("bin", t.text, node, rhs)
            else:
                return node

    def term(self):
        node = self.power()
        while True:
            t = self.peek()
            if t and t.kind == "op" and t.text in "*/":
                self.take()
                rhs = self.power()
                node = ("bin", t.text, node, rhs)
            else:
                return node

    def power(self):
        node = self.atom()
        t = self.peek()
        if t and t.text == "^":
            self.take()
            sign = 1
            t2 = self.peek()
            if t2 and t2.text == "-":
                self.take()
                sign = -1
            t3 = self.take()
            if t3.kind != "int":
                raise ExprError("exponent must be an integer", self.line,
                                t3.col)
            node = ("pow", node, sign * int(t3.text))
        return node

    def atom(self):
        t = self.take()
        if t.kind == "int":
            return ("int", int(t.text))
        if t.kind == "name":
            nxt = self.peek()
            if nxt and nxt.text == "(":
                self.take("(")
                args = [self.expr()]
                while self.peek() and self.peek().text == ",":
                    self.take(",")
                    args.append(self.expr())
                self.take(")")
                return ("call", t.text, args)
            return ("name", t.text)
        if t.text == "(":
            node = self.expr()
            self.take(")")
            return node
        raise ExprError(f"unexpected token {t.text!r}", self.line, t.col)


def parse_ast(text: str, line=None):
    return _Parser(tokenize(text, line), line).parse()


# -- evaluation -------------------------------------------------------------------


class Context:
    """Evaluation context: parameters, one calculus, optional tensor legs."""

    def __init__(self, params=None, calc: DiffCalculus | None = None,
                 tensor_legs=None, line=None):
        self.params = dict(params or {})  # name -> Parameter
        self.calc = calc
        self.tensor_legs = tensor_legs    # (calc_left, calc_right) or None
        self.line = line

    def resolve(self, name):
        if name in self.params:
            return ("scalar", Scalar.param(name))
        if self.calc is not None:
            if name in self.calc.letter_index:
                return ("form", self.calc.form(name))
            if name in self.calc.pres.symbol:
                return ("form", self.calc.of_poly(NCPoly.gen(name)))
        raise ExprError(f"unknown symbol {name!r}", self.line)


def _to_form(ctx, val):
    kind, v = val
    if kind == "form":
        return v
    if kind == "scalar":
        if ctx.calc is None:
            raise ExprError("no calculus in scope for this expression",
                            ctx.line)
        return ctx.calc.unit().scale(v)
    raise ExprError("tensor used where a form was expected", ctx.line)


def _to_tensor(ctx, val):
    kind, v = val
    if kind == "tensor":
        return v
    if ctx.tensor_legs is None:
        raise ExprError("tensor expression outside a tensor context", ctx.line)
    legs = ctx.tensor_legs
    if kind == "scalar":
        return GradedTensor.unit(legs).scale(v)
    raise ExprError("bare form in a tensor expression; wrap in tensor(,)",
                    ctx.line)


def eval_ast(node, ctx: Context):
    kind = node[0]
    if kind == "int":
        return ("scalar", Scalar.from_fraction(Fraction(node[1])))
    if kind == "name":
        return ctx.resolve(node[1])
    if kind == "neg":
        k, v = eval_ast(node[1], ctx)
        return (k, v.scale(sign(1)) if k != "scalar" else -v)
    if kind == "pow":
        base = eval_ast(node[1], ctx)
        n = node[2]
        k, v = base
        if k == "scalar":
            return ("scalar", v ** n)
        if k == "form":
            if n < 0:
                raise ExprError("negative powers only for parameters; "
                                "use the inverse generator", ctx.line)
            out = ctx.calc.unit()
            for _ in range(n):
                out = ctx.calc.mul(out, v)
            return ("form", out)
        raise ExprError("cannot exponentiate a tensor", ctx.line)
    if kind == "bin":
        op, a, b = node[1], node[2], node[3]
        va = eval_ast(a, ctx)
        vb = eval_ast(b, ctx)
        return _binop(op, va, vb, ctx)
    if kind == "call":
        fname, args = node[1], node[2]
        if fname == "d":
            if len(args) != 1:
                raise ExprError("d takes one argument", ctx.line)
            v = _to_form(ctx, eval_ast(args[0], ctx))
            return ("form", ctx.calc.d(v))
        if fname == "tensor":
            if len(args) != 2:
                raise ExprError("tensor takes two arguments", ctx.line)
            if ctx.tensor_legs is None:
                raise ExprError("tensor(...) outside a tensor context",
                                ctx.line)
            left_ctx = Context(ctx.params, ctx.tensor_legs[0],
                               line=ctx.line)
            right_ctx = Context(ctx.params, ctx.tensor_legs[1],
                                line=ctx.line)
            x = _to_form(left_ctx, eval_ast(args[0], left_ctx))
            y = _to_form(right_ctx, eval_ast(args[1], right_ctx))
            return ("tensor", GradedTensor.of(ctx.tensor_legs, x, y))
        raise ExprError(f"unknown function {fname!r}", ctx.line)
    raise ExprError(f"bad expression node {kind!r}", ctx.line)


def _binop(op, va, vb, ctx):
    ka, a = va
    kb, b = vb
    if op == "/":
        if kb != "scalar":
            raise ExprError("division only by scalars", ctx.line)
        inv = b.inverse()
        if ka == "scalar":
            return ("scalar", a * inv)
        return (ka, a.scale(inv))
    if op in "+-":
        if ka == kb == "scalar":
            return ("scalar", a + b if op == "+" else a - b)
        if "tensor" in (ka, kb):
            ta, tb = _to_tensor(ctx, va), _to_tensor(ctx, vb)
            return ("tensor", ta + tb if op == "+" else ta - tb)
        fa, fb = _to_form(ctx, va), _to_form(ctx, vb)
        return ("form", fa + fb if op == "+" else fa - fb)
    if op == "*":
        if ka == kb == "scalar":
            return ("scalar", a * b)
        if ka == "scalar":
            return (kb, b.scale(a))
        if kb == "scalar":
            return (ka, a.scale(b))
        if ka == kb == "form":
            return ("form", ctx.calc.mul(a, b))
        if ka == kb == "tensor":
            return ("tensor", a.wedge(b))
        raise ExprError("cannot mix forms and tensors in a product", ctx.line)
    raise ExprError(f"unknown operator {op!r}", ctx.line)


def eval_scalar(text, params, line=None) -> Scalar:
    ctx = Context(params, None, line=line)
    kind, v = eval_ast(parse_ast(text, line), ctx)
    if kind != "scalar":
        raise ExprError("expected a scalar expression", line)
    return v


def eval_poly(text, params, pres, line=None) -> NCPoly:
    return eval_poly_ast(parse_ast(text, line), params, _bare_calculus(pres),
                         line)


def eval_poly_ast(node, params, bare, line=None) -> NCPoly:
    """eval_poly on an expression parsed by parse_ast, in the degree-0
    calculus bare (_bare_calculus): a caller that evaluates many
    expressions over one algebra builds it once."""
    ctx = Context(params, bare, line=line)
    v = _to_form(ctx, eval_ast(node, ctx))
    out = NCPoly.zero()
    for (w, F), c in v.scalar_terms().items():
        if F:
            raise ExprError("form letters not allowed here", line)
        add_term(out.terms, w, c)
    return out


def eval_form(text, params, calc, line=None) -> Element:
    ctx = Context(params, calc, line=line)
    return _to_form(ctx, eval_ast(parse_ast(text, line), ctx))


def eval_tensor(text, params, legs, line=None) -> GradedTensor:
    ctx = Context(params, None, tensor_legs=legs, line=line)
    return _to_tensor(ctx, eval_ast(parse_ast(text, line), ctx))


def _bare_calculus(pres) -> DiffCalculus:
    """Degree-zero calculus wrapper for evaluating plain algebra text.  It
    is built per call, so no module state keeps pres alive."""
    return DiffCalculus(f"alg({pres.name})", pres, (), 0, {}, {}, {}, {})
