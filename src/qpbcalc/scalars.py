"""Exact coefficient field: rational functions over Q in named formal parameters.

A Scalar is num/den where num is a Laurent polynomial (integer exponents,
possibly negative, so invertible parameters like q, q^-1 need no relation)
and den is an ordinary polynomial in canonical form: primitive, no monomial
factor, positive leading coefficient, gcd(num, den) = 1.  Structural equality
is mathematical equality.

Each coefficient has one spelling: an ``int`` when it is integral, a
``Fraction`` only when it is not.  A ``float`` never appears: a quotient
of coefficients is ``//`` when one int divides another and a ``Fraction``
otherwise.  The common case, a
Laurent polynomial with int coefficients over the shared unit denominator,
stays in machine ints; Fractions arise from non-integral constants and
inside the rational-function path (division and the gcds that follow it).

Each operation has one path: a product or sum of two Laurent polynomials
over the unit denominator is multiplied or added out and its unused
parameters dropped; any other product or sum is cross-multiplied and
reduced by the general constructor.  Two shortcuts come first in a
product.  A product by the shared one returns the other operand, since
most products in the braid checks are of that kind.  A product by a
constant scales the other operand's coefficients and keeps its names and
unit denominator, since the graded checks at a substituted parameter
(q -> 3) make hundreds of thousands of such products.

Reducing num/den takes polynomial gcds over Z.  A univariate gcd is found
by heuristic GCD (Char, Geddes and Gonnet, J. Symb. Comput. 7 (1989)):
the primitive parts are evaluated at a large integer, the integer gcd of
the values is read back as a polynomial, and the candidate is accepted
only if it divides both inputs exactly, so the answer is exact.  When
every evaluation point fails, Euclid over Q (_gcd_univariate) answers.
Multivariate gcds use a primitive PRS whose contents recurse down to the
univariate case.

The graded path works on flat terms instead of Scalars: flat_coeff turns a
Laurent polynomial with int coefficients into ((e, c), ...), with c an int
and e its exponent vector packed into one int (Kronecker substitution, one
balanced base-2**32 digit per parameter, no offset), and from_flat turns
flat terms back into the canonical Scalar.  A coefficient with no such form
(a Fraction, a non-unit denominator, an exponent of 2**16 or more) is never
approximated: flat_coeff hands it back whole, to be carried as a Scalar.
This follows the sparse distributed representation of Monagan and Pearce
(J. Symb. Comput. 46 (2011)).

residue sends a Scalar to F_p, p = 2**61 - 1, each parameter to a fixed
value that depends on its name alone, or to None when it has no image
there, and monomial_residue sends the monomial of a packed exponent there
by the same ring map; linalg uses them to choose rows that it then solves
exactly.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction


class ScalarError(Exception):
    pass


class DivisionByZeroError(ScalarError):
    pass


class Parameter(namedtuple("Parameter", "name invertible", defaults=(True,))):
    """A named formal parameter of the coefficient field."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# raw polynomial helpers: dict[tuple[int, ...] -> int | Fraction], zero
# coeffs absent.  Intermediate coefficients may be integral Fractions; the
# Scalar constructors spell them as ints (_int_coeffs).
# ---------------------------------------------------------------------------


def _exact_div(a, b):
    """Exact quotient of two coefficients: an int when integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    c = Fraction(a, b)
    return c.numerator if c.denominator == 1 else c


def _int_coeffs(f):
    """f with every integral coefficient spelled as an int (f if it is)."""
    for c in f.values():
        if type(c) is not int:
            return {m: c.numerator if c.denominator == 1 else c
                    for m, c in f.items()}
    return f


def _padd(f, g):
    h = dict(f)
    for m, c in g.items():
        c2 = h.get(m, 0) + c
        if c2:
            h[m] = c2
        else:
            h.pop(m, None)
    return h


def _pneg(f):
    return {m: -c for m, c in f.items()}


def _pmul(f, g):
    h = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            c = h.get(m, 0) + c1 * c2
            if c:
                h[m] = c
            else:
                h.pop(m, None)
    return h


def _pdiv_const(f, c):
    """f / c for a nonzero coefficient c, exactly."""
    if c == 1:
        return f
    return {m: _exact_div(a, c) for m, a in f.items()}


def _lead(f):
    """Lex-largest monomial and its coefficient."""
    m = max(f)
    return m, f[m]


def _content(f):
    """Positive c with f/c having coprime integer coefficients: an int when
    integral, else a Fraction."""
    num = 0
    den = 1
    for c in f.values():
        num = math.gcd(num, c.numerator)
        den = den * c.denominator // math.gcd(den, c.denominator)
    return num if den == 1 else Fraction(num, den)


def _min_exps(f, nvars):
    mins = [0] * nvars
    first = True
    for m in f:
        if first:
            mins = list(m)
            first = False
        else:
            mins = [min(a, b) for a, b in zip(mins, m)]
    return tuple(mins)


def _shift(f, delta):
    return {tuple(a + d for a, d in zip(m, delta)): c for m, c in f.items()}


def _degree_in(f, i):
    return max((m[i] for m in f), default=0)


def _coeffs_in(f, i):
    """Split f as a univariate poly in variable i with dict coefficients."""
    out = {}
    for m, c in f.items():
        key = m[i]
        rest = m[:i] + (0,) + m[i + 1:]
        slot = out.setdefault(key, {})
        c2 = slot.get(rest, 0) + c
        if c2:
            slot[rest] = c2
        else:
            slot.pop(rest, None)
    return {k: v for k, v in out.items() if v}


def _dense(f, i):
    """Coefficients of f by degree in variable i, lowest first, when f has
    int coefficients and no other variable; else None."""
    d = [0] * (_degree_in(f, i) + 1)
    for m, c in f.items():
        e = m[i]
        if type(c) is not int or e < 0 or any(m[:i]) or any(m[i + 1:]):
            return None
        d[e] = c
    return d


def _sparse(d, i, nv):
    """Inverse of _dense: the dict of a dense coefficient list."""
    return {(0,) * i + (e,) + (0,) * (nv - i - 1): c
            for e, c in enumerate(d) if c}


def _dense_quo(f, g):
    """f / g for dense int polynomials if g divides f over Z, else None."""
    dg = len(g) - 1
    if len(f) <= dg:
        return None
    r = list(f)
    lc = g[-1]
    q = [0] * (len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + dg], lc)
        if rem:
            return None
        if c:
            q[k] = c
            for j in range(dg):
                r[k + j] -= c * g[j]
    return None if any(r[:dg]) else q


def _pdivexact(f, g):
    """Exact division of ordinary polynomials; raises if not divisible."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not f:
        return {}
    # univariate int divisor and dividend: dense division over Z
    gm = max(g)
    i = next((j for j, e in enumerate(gm) if e), 0)
    dg = _dense(g, i)
    if dg is not None:
        df = _dense(f, i)
        if df is not None:
            q = _dense_quo(df, dg)
            if q is not None:
                return _sparse(q, i, len(gm))
    q = {}
    r = dict(f)
    gm, gc = _lead(g)
    while r:
        rm, rc = _lead(r)
        m = tuple(a - b for a, b in zip(rm, gm))
        if any(e < 0 for e in m):
            raise ScalarError("inexact polynomial division")
        c = _exact_div(rc, gc)
        q[m] = q.get(m, 0) + c
        r = _padd(r, _pneg(_pmul({m: c}, g)))
    return q


_HEU_GCD_TRIES = 6


def _heu_gcd(f, g, i):
    """The primitive gcd of f and g, univariate in variable i, as a dense
    list, lowest degree first, by heuristic GCD over Z (Char, Geddes,
    Gonnet 1989); None if every evaluation point fails.

    The primitive parts are evaluated at xi, the candidate is rebuilt from
    the integer gcd of the values in the symmetric xi-adic representation,
    and it is accepted only if it divides both exactly.  With
    xi >= 2 min(|f|, |g|) + 2 (max norms), a candidate that divides both is
    the gcd."""
    f = _dense(_int_coeffs(_pdiv_const(f, _content(f))), i)
    g = _dense(_int_coeffs(_pdiv_const(g, _content(g))), i)
    if f is None or g is None:
        return None
    if len(f) == 1 or len(g) == 1:
        return [1]
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(_HEU_GCD_TRIES):
        ff = gg = 0
        for c in reversed(f):
            ff = ff * xi + c
        for c in reversed(g):
            gg = gg * xi + c
        if ff and gg:
            v = math.gcd(ff, gg)
            h = []
            while v:
                c = v % xi
                if c > xi // 2:
                    c -= xi
                h.append(c)
                v = (v - c) // xi
            # the top digit of a positive value is positive
            cont = math.gcd(*h)
            h = [c // cont for c in h]
            if (_dense_quo(f, h) is not None
                    and _dense_quo(g, h) is not None):
                return h
        # the next point grows by about xi**1.25, as in Liao and Fateman
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _gcd_univariate(f, g, i):
    """Euclid in variable i; inputs univariate in i over Q.  The exact
    fallback of _heu_gcd."""
    a, b = dict(f), dict(g)
    while b:
        # make b monic, reduce a mod b
        bm, bc = _lead(b)
        while a and _lead(a)[0][i] >= bm[i]:
            am, ac = _lead(a)
            shift = tuple(x - y for x, y in zip(am, bm))
            a = _padd(a, _pneg(_pmul({shift: _exact_div(ac, bc)}, b)))
        a, b = b, a
    c = _content(a)
    a = _pdiv_const(a, c) if c else a
    if a and _lead(a)[1] < 0:
        a = _pneg(a)
    return a


def _nvars_used(f):
    used = set()
    for m in f:
        for i, e in enumerate(m):
            if e:
                used.add(i)
    return used


def _pgcd(f, g):
    """Primitive gcd of ordinary polynomials (positive lex-leading coeff)."""
    if not f and not g:
        return {}
    if not f or not g:
        h = dict(g or f)
        c = _content(h)
        h = _pdiv_const(h, c)
        if _lead(h)[1] < 0:
            h = _pneg(h)
        return h
    used = _nvars_used(f) | _nvars_used(g)
    if not used:
        return {(0,) * len(next(iter(f))): 1}
    i = max(used)
    others = used - {i}
    if not others:
        r = _heu_gcd(f, g, i)
        if r is None:
            return _gcd_univariate(f, g, i)
        return _sparse(r, i, len(next(iter(f))))
    # primitive PRS in variable i, contents handled recursively
    cf = _coeffs_in(f, i)
    cg = _coeffs_in(g, i)
    cont_f = _reduce_gcd(list(cf.values()))
    cont_g = _reduce_gcd(list(cg.values()))
    cont = _pgcd(cont_f, cont_g)
    a = _primitive_wrt(f, i)
    b = _primitive_wrt(g, i)
    if _degree_in(a, i) < _degree_in(b, i):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b, i)
        a, b = b, _primitive_wrt(r, i) if r else {}
    h = _pmul(cont, a)
    c = _content(h)
    h = _pdiv_const(h, c)
    if _lead(h)[1] < 0:
        h = _pneg(h)
    return h


def _gcd_cofactors(f, g):
    """(h, f/h, g/h) for nonzero ordinary polynomials f and g, where h is
    the primitive gcd that _pgcd gives."""
    h = _pgcd(f, g)
    if h == _UNIT_DENS[len(next(iter(f)))]:
        return h, f, g
    return h, _pdivexact(f, h), _pdivexact(g, h)


def _reduce_gcd(polys):
    acc = {}
    for p in polys:
        acc = _pgcd(acc, p)
    return acc


def _primitive_wrt(f, i):
    if not f:
        return {}
    cont = _reduce_gcd(list(_coeffs_in(f, i).values()))
    return _pdivexact(f, cont)


def _pseudo_rem(a, b, i):
    """Pseudo-remainder of a by b in variable i."""
    da, db = _degree_in(a, i), _degree_in(b, i)
    cb = _coeffs_in(b, i)
    lc_b = cb[db]
    r = dict(a)
    while r and _degree_in(r, i) >= db:
        dr = _degree_in(r, i)
        cr = _coeffs_in(r, i)
        lc_r = cr[dr]
        nv = len(next(iter(r)))
        xshift = {tuple(dr - db if j == i else 0 for j in range(nv)): 1}
        r = _padd(_pmul(r, lc_b), _pneg(_pmul(_pmul({m: c for m, c in lc_r.items()}, xshift), b)))
    return r


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------


class Scalar:
    """Canonical rational function over Q in named parameters."""

    __slots__ = ("names", "num", "den", "_hash", "unit_den")

    def __init__(self, names, num, den, _canonical=False):
        if not _canonical:
            names, num, den = _canonicalize(names, num, den)
        self.names = names
        self.num = num
        self.den = den
        self._hash = None
        unit = _UNIT_DENS[len(names)]
        self.unit_den = den is unit or den == unit

    # -- constructors

    @staticmethod
    def from_fraction(c) -> "Scalar":
        c = Fraction(c)
        if not c:
            return _ZERO
        num = {(): c.numerator if c.denominator == 1 else c}
        return Scalar((), num, _UNIT_DENS[0], _canonical=True)

    @staticmethod
    def param(name: str, exponent: int = 1) -> "Scalar":
        if not exponent:
            return _ONE
        return Scalar((name,), {(exponent,): 1}, _UNIT_DENS[1], _canonical=True)

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    # -- predicates

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_one(self) -> bool:
        return self.unit_den and self.num == {(0,) * len(self.names): 1}

    def is_unit(self) -> bool:
        """True for a nonzero constant times a Laurent monomial: the units
        of the Laurent polynomial ring, which divide without leaving it."""
        return self.unit_den and len(self.num) == 1

    # -- arithmetic

    def __add__(self, other):
        other = _coerce(other)
        names, (an, ad), (bn, bd) = _align(self, other)
        if self.unit_den and other.unit_den:
            return _from_laurent(names, _padd(an, bn))
        return Scalar(names, _padd(_pmul(an, bd), _pmul(bn, ad)),
                      _pmul(ad, bd))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.names, _pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        # Most products in the braid checks are by the shared one: answer
        # them before coercion.
        if other is _ONE:
            return self
        if self is _ONE:
            return _coerce(other)
        other = _coerce(other)
        an, bn = self.num, other.num
        if not an or not bn:
            return _ZERO
        if self.unit_den and other.unit_den:
            # Constant times a Laurent polynomial: a scale of its
            # coefficients, keeping its names.
            if not self.names:
                c = an[()]
                return other if c == 1 else _laurent(other.names,
                                                     _scaled(bn, c))
            if not other.names:
                c = bn[()]
                return self if c == 1 else _laurent(self.names,
                                                    _scaled(an, c))
            names, (an, _), (bn, _) = _align(self, other)
            return _from_laurent(names, _pmul(an, bn))
        names, (an, ad), (bn, bd) = _align(self, other)
        return Scalar(names, _pmul(an, bn), _pmul(ad, bd))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise DivisionByZeroError("scalar division by zero")
        names, (an, ad), (bn, bd) = _align(self, other)
        # bn is Laurent: peel its monomial factor into the numerator
        mins = _min_exps(bn, len(names))
        bn0 = _shift(bn, tuple(-e for e in mins))
        num = _pmul(_pmul(an, bd), {tuple(-e for e in mins): 1})
        return Scalar(names, num, _pmul(ad, bn0))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def inverse(self) -> "Scalar":
        return _ONE / self

    def __pow__(self, n: int):
        if n == 0:
            return _ONE
        if n < 0:
            return self.inverse() ** (-n)
        r = self
        for _ in range(n - 1):
            r = r * self
        return r

    # -- equality / hashing / printing

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                other = _coerce(other)
            else:
                return NotImplemented
        return (self.names == other.names and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.names,
                               tuple(sorted(self.num.items())),
                               tuple(sorted(self.den.items()))))
        return self._hash

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if self.is_zero():
            return "0"
        num = _poly_str(self.num, self.names)
        if self.unit_den:
            return num
        den = _poly_str(self.den, self.names)
        if len(self.num) > 1:
            num = f"({num})"
        if len(self.den) > 1:
            den = f"({den})"
        return f"{num}/{den}"


def _coerce(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_fraction(x)
    raise TypeError(f"cannot coerce {x!r} to Scalar")


def _align(a: Scalar, b: Scalar):
    if a.names == b.names:
        return a.names, (a.num, a.den), (b.num, b.den)
    names = tuple(sorted(set(a.names) | set(b.names)))
    return names, _rekey(a, names), _rekey(b, names)


def _rekey(s: Scalar, names):
    idx = [names.index(n) for n in s.names]

    def conv(f):
        out = {}
        for m, c in f.items():
            m2 = [0] * len(names)
            for i, e in zip(idx, m):
                m2[i] = e
            out[tuple(m2)] = c
        return out

    return conv(s.num), conv(s.den)


def _canonicalize(names, num, den):
    num = {m: c for m, c in num.items() if c}
    den = {m: c for m, c in den.items() if c}
    if not den:
        raise DivisionByZeroError("zero denominator")
    if not num:
        return (), {}, _UNIT_DENS[0]
    nv = len(names)
    # den: clear any monomial factor into num
    dmin = _min_exps(den, nv)
    if any(dmin):
        den = _shift(den, tuple(-e for e in dmin))
        num = _shift(num, tuple(-e for e in dmin))
    # num: peel Laurent monomial, reduce the ordinary parts
    nmin = _min_exps(num, nv)
    num0 = _shift(num, tuple(-e for e in nmin))
    _, num0, den = _gcd_cofactors(num0, den)
    # den: primitive, positive leading coefficient
    scale = _content(den)
    if _lead(den)[1] < 0:
        scale = -scale
    den = _int_coeffs(_pdiv_const(den, scale))
    num = _int_coeffs(_shift(_pdiv_const(num0, scale), nmin))
    return _drop_unused(names, num, den)


def _drop_unused(names, num, den):
    """Drop the parameters with zero exponent everywhere (after all
    cancellation), and share the unit denominator."""
    used = sorted(_nvars_used(num) | _nvars_used(den))
    if len(used) != len(names):
        names = tuple(names[i] for i in used)
        num = {tuple(m[i] for i in used): c for m, c in num.items()}
        den = {tuple(m[i] for i in used): c for m, c in den.items()}
    if den == _UNIT_DENS[len(names)]:
        den = _UNIT_DENS[len(names)]
    return names, num, den


def _mono_str(m, names):
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _poly_str(f, names):
    def key(m):
        return (sum(m), m)

    terms = []
    for m in sorted(f, key=key, reverse=True):
        c = f[m]
        mono = _mono_str(m, names)
        if not mono:
            t = str(c)
        elif c == 1:
            t = mono
        elif c == -1:
            t = f"-{mono}"
        else:
            t = f"{c}*{mono}"
        terms.append(t)
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


class _UnitDens(dict):
    """nvars -> the unit denominator {(0,) * nvars: 1}, built on first use.

    One dict per arity is shared by every Scalar with that many parameters
    and a denominator of 1, so no code may mutate a den in place."""

    def __missing__(self, nvars):
        den = self[nvars] = {(0,) * nvars: 1}
        return den


_UNIT_DENS = _UnitDens()


def _laurent(names, num):
    """The Scalar num over the shared unit denominator, built slot by slot.

    num must be canonical already: no zero coefficient, every integral
    coefficient an int, and every parameter of names used."""
    s = object.__new__(Scalar)
    s.names = names
    s.num = num
    s.den = _UNIT_DENS[len(names)]
    s._hash = None
    s.unit_den = True
    return s


def _from_laurent(names, num):
    """Canonical scalar with unit denominator from a Laurent dict.

    num has no zero coefficients: _padd and _pmul drop them.  Over one
    parameter, two or more terms have distinct exponents, so at least one
    is nonzero and the parameter is used."""
    if not num:
        return _ZERO
    if (len(names) != 1 or len(num) == 1) and not all(map(any, zip(*num))):
        used = [i for i, exps in enumerate(zip(*num)) if any(exps)]
        names = tuple(names[i] for i in used)
        num = {tuple(m[i] for i in used): c for m, c in num.items()}
    return _laurent(names, _int_coeffs(num))


def _scaled(f, c):
    """f times a nonzero coefficient c, integral coefficients as ints."""
    return _int_coeffs({m: a * c for m, a in f.items()})


_ZERO = Scalar((), {}, _UNIT_DENS[0], _canonical=True)
_ONE = Scalar((), {(): 1}, _UNIT_DENS[0], _canonical=True)
_MINUS_ONE = Scalar((), {(): -1}, _UNIT_DENS[0], _canonical=True)


def sign(e: int) -> Scalar:
    """(-1)**e for an int e, as the shared constant one or minus one."""
    return _MINUS_ONE if e & 1 else _ONE


# ---------------------------------------------------------------------------
# flat Laurent terms: the boundary converters Scalar <-> ((e, c), ...)
# ---------------------------------------------------------------------------

# A parameter takes the next slot the first time a conversion meets it and
# keeps it for the life of the process.  The exponent of slot i is digit i of
# e in balanced base 2**32 (digits in [-2**31, 2**31)), so packing needs no
# offset and the product of two monomials is the sum of their packed
# exponents.  Exponents enter below _EXP_LIMIT in magnitude (others are
# carried as Scalars), a term of the graded path is a product of a few dozen
# entered factors, so no digit nears 2**31; from_flat still checks the
# digits it reads and raises on one that left the safe range.
_EXP_BITS = 32
_EXP_HALF = 1 << (_EXP_BITS - 1)
_EXP_MASK = (1 << _EXP_BITS) - 1
_EXP_LIMIT = 1 << 16
_EXP_SAFE = 1 << 30
_SLOT_NAMES = []          # parameter names by slot
_SORTED_SLOTS = ((), ())  # (sorted names, their slots)
_WEIGHTS = {(): ()}       # Scalar.names -> packed weight of each name


def _weights(names):
    w = _WEIGHTS.get(names)
    if w is None:
        global _SORTED_SLOTS
        for n in names:
            if n not in _SLOT_NAMES:
                _SLOT_NAMES.append(n)
        order = sorted(range(len(_SLOT_NAMES)), key=_SLOT_NAMES.__getitem__)
        _SORTED_SLOTS = (tuple(_SLOT_NAMES[i] for i in order), tuple(order))
        w = _WEIGHTS[names] = tuple(1 << (_EXP_BITS * _SLOT_NAMES.index(n))
                                    for n in names)
    return w


def flat_coeff(s: Scalar) -> tuple:
    """s as flat terms ((e, c), ...): c an int and e the packed exponent
    vector of its monomial; () for zero.

    A coefficient that is not a Laurent polynomial with int coefficients (a
    Fraction, a non-unit denominator) or has an exponent of _EXP_LIMIT or
    more is never approximated: it comes back whole as ((0, s),), and the
    flat sums it enters carry it as a Scalar (their arithmetic on it is
    Scalar arithmetic)."""
    num = s.num
    if not s.unit_den:
        return ((0, s),)
    names = s.names
    if not names:
        c = num.get(())
        if c is None:
            return ()
        return ((0, c),) if type(c) is int else ((0, s),)
    w = _weights(names)
    out = []
    if len(names) == 1:
        (w,) = w
        for (k,), c in num.items():
            if type(c) is not int or not -_EXP_LIMIT < k < _EXP_LIMIT:
                return ((0, s),)
            out.append((k * w, c))
        return tuple(out)
    for m, c in num.items():
        if type(c) is not int or any(
                not -_EXP_LIMIT < k < _EXP_LIMIT for k in m):
            return ((0, s),)
        out.append((sum(map(operator.mul, m, w)), c))
    return tuple(out)


def _unpack(e, nslots):
    """The exponent digits of a packed e, by slot."""
    digits = []
    for _ in range(nslots):
        d = ((e + _EXP_HALF) & _EXP_MASK) - _EXP_HALF
        if not -_EXP_SAFE < d < _EXP_SAFE:
            raise ScalarError("exponent outside the packed range")
        digits.append(d)
        e = (e - d) >> _EXP_BITS
    if e:
        raise ScalarError("exponent outside the packed range")
    return digits


def from_flat(pairs) -> Scalar:
    """The Scalar sum of flat terms (e, c): the inverse of flat_coeff.  A
    carried Scalar c counts as c times the monomial of e."""
    names, slots = _SORTED_SLOTS
    n = len(slots)
    if len(pairs) == 1:
        # one int term: a constant, or c*x^e over one parameter
        ((e, c),) = pairs
        if type(c) is int:
            if not e:
                return _ONE if c == 1 else _MINUS_ONE if c == -1 else \
                    _laurent((), {(): c})
            if n == 1 and -_EXP_SAFE < e < _EXP_SAFE:
                return _laurent(names, {(e,): c})
    num = {}
    carried = None
    for e, c in pairs:
        if n == 1 and -_EXP_SAFE < e < _EXP_SAFE:
            m = (e,)
        else:
            d = _unpack(e, n)
            m = tuple(d[i] for i in slots)
        if type(c) is not int:
            if any(m):
                c = c * _from_laurent(names, {m: 1})
            carried = c if carried is None else carried + c
            continue
        c += num.get(m, 0)
        if c:
            num[m] = c
        else:
            del num[m]
    out = _from_laurent(names, num)
    return out if carried is None else out + carried


# ---------------------------------------------------------------------------
# residues at a point of F_p
# ---------------------------------------------------------------------------
# Evaluating every parameter at a point of F_p is a ring map from the
# Laurent polynomials, and from every rational function whose denominator
# does not vanish there.  linalg uses it to choose rows and certifies what
# it finds over Q(q), so the point need only be fixed, for runs to repeat.
# Each parameter's value depends on its name alone, never on the order in
# which a process met the names.

RESIDUE_PRIME = (1 << 61) - 1
RESIDUE_POINT = 1234567891


def residue_point(name: str) -> int:
    """The value in F_p of the parameter name: RESIDUE_POINT plus the
    name's UTF-8 bytes read as one big-endian integer."""
    return (RESIDUE_POINT
            + int.from_bytes(name.encode(), "big")) % RESIDUE_PRIME


_POWERS = {}  # (name, exponent) -> residue of the parameter's power


def _power_residue(n, e):
    """The residue of the parameter n to the power e; ValueError when e is
    negative and the parameter vanishes at the residue point."""
    r = _POWERS.get((n, e))
    if r is None:
        r = _POWERS[n, e] = pow(residue_point(n), e, RESIDUE_PRIME)
    return r


def _poly_residue(f, names):
    p = RESIDUE_PRIME
    total = 0
    for m, c in f.items():
        if type(c) is not int:
            c = c.numerator * pow(c.denominator, -1, p)
        for n, e in zip(names, m):
            if e:
                c = c * _power_residue(n, e) % p
        total += c
    return total % p


def residue(s: Scalar):
    """s at the residue point, an int in [0, RESIDUE_PRIME); None when s
    has no image there, because its denominator, the denominator of a
    Fraction coefficient, or a parameter with a negative power vanishes."""
    try:
        num = _poly_residue(s.num, s.names)
        if s.unit_den:
            return num
        return num * pow(_poly_residue(s.den, s.names), -1,
                         RESIDUE_PRIME) % RESIDUE_PRIME
    except ValueError:  # pow(x, -1, p) of an x that is 0 mod p
        return None


_MONOMIALS = {}  # packed exponent -> residue of its monomial, or None


def monomial_residue(e):
    """The monomial of the packed exponent e (see flat_coeff) at the
    residue point, by the ring map of residue, so c * monomial_residue(e)
    summed over flat terms (e, c) with int c is the residue of their
    from_flat sum; memoised by e.  None when a parameter under a negative
    power vanishes there."""
    try:
        return _MONOMIALS[e]
    except KeyError:
        pass
    r = 1
    try:
        for n, k in zip(_SLOT_NAMES, _unpack(e, len(_SLOT_NAMES))):
            if k:
                r = r * _power_residue(n, k) % RESIDUE_PRIME
    except ValueError:  # a negative power of a parameter that is 0 mod p
        r = None
    _MONOMIALS[e] = r
    return r


def q_binomial(n: int, k: int, base: Scalar) -> Scalar:
    """Deformed binomial coefficient via the product formula.

    (n k)_b = prod_{i=k+1}^{n} (b^i - 1) / prod_{i=1}^{n-k} (b^i - 1).
    """
    if k < 0 or k > n:
        raise ScalarError(f"q_binomial requires 0 <= k <= n, got n={n} k={k}")
    one = Scalar.one()
    num = one
    for i in range(k + 1, n + 1):
        num = num * (base ** i - one)
    den = one
    for i in range(1, n - k + 1):
        den = den * (base ** i - one)
    return num / den
