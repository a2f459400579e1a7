"""Free noncommutative polynomials, rewrite systems and normal forms.

Words are tuples of generator names.  A presentation orients its defining
relations as rewrite rules lhs -> rhs where every monomial of rhs is strictly
smaller than lhs in the degree-lexicographic order induced by the declared
generator order; reduction to normal form then terminates and, for the
shipped presentations, is confluent (checked by critical-pair enumeration).
The presentation is the one normal-form engine: flat_normal_word rewrites
in flat ints and holds the one normal-form memo (_nf_cache, read-only
tuples ((w', e), c)); the calculus reads it flat, and normal_word, reduce
and multiply, the NCPoly boundary, read it in Scalar arithmetic.

SparseSum is the finite-sum arithmetic of NCPoly and of the tensor type
(tensors.TensorPoly), whose coefficients are Scalars.  FlatSum, the sum
type of the forms (calculus.Element) and graded tensors
(calculus.GradedTensor), maps one flat tuple of ints to an int: the
monomial ids of the term, one a leg, followed by its packed exponent.  A
form's key is (id, e) and a two-leg tensor's (a, b, e).  A coefficient
with no flat form rides along as a Scalar.  The ids are small ints given
by each calculus (calculus.DiffCalculus.intern), so forms and graded
tensors hash flat tuples of ints, not nested tuples of words and letters.
Scalar terms enter the flat form by flat_of and leave it by scalars_of (a
flat sum's scalar_terms), at the report boundary only.

memo(attr) memoises a map given on monomials, fn(owner, a) or
fn(owner, a, b), in the dict owner.<attr>, keyed by a or by (a, b); the
wrapper's memo_attr names that dict, for loops that read it directly.
The memoised values are shared and read-only, never None, and every memo
dict is named *_cache.
"""

from __future__ import annotations

import functools
import os
import types
from dataclasses import dataclass, field

from .report import CheckReport, timed
from .scalars import Scalar, flat_coeff, from_flat

Word = tuple  # tuple of generator names

INHOMOGENEOUS = "inhomogeneous"


class NCAlgError(Exception):
    pass


class UndeclaredSymbolError(NCAlgError):
    pass


class BudgetExceededError(NCAlgError):
    pass


def reduce_budget() -> int:
    """Rewrite steps allowed per normal-form computation."""
    raw = os.environ.get("QPBCALC_REDUCE_BUDGET", "2000000")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"QPBCALC_REDUCE_BUDGET must be an integer, "
                         f"got {raw!r}") from None


@dataclass(frozen=True)
class GeneratorSymbol:
    name: str
    weight: int = 0
    inverse_of: str | None = None


def add_term(terms, key, c):
    """Add c at key of the dict terms; a key whose sum is zero is dropped."""
    old = terms.get(key)
    if old is not None:
        c = old + c
    if c.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = c


def add_flat(terms, key, c):
    """Add the nonzero flat coefficient c at key = (id, ..., packed
    exponent) of the flat terms dict; a key whose sum is zero is dropped.
    The hot loops of the graded path spell this out in place."""
    c += terms.get(key, 0)
    if c:
        terms[key] = c
    else:
        del terms[key]


# Templates of the memo() wrappers.  memo() copies their code with the
# dict's name in place of _memo_attr and binds fn, the map it memoises, as
# the copy's one global.  So the interpreter specialises owner.<attr> as in
# a hand-written lookup: getattr or attrgetter with the name in a variable
# added about 35 ns to every hit, and compiling a wrapper from source about
# 0.2 ms to each memo at import (Python 3.11 on a 2-core x86_64 VM).

def _memo_one(owner, a):
    cache = owner._memo_attr
    value = cache.get(a)
    if value is None:
        value = cache[a] = fn(owner, a)  # noqa: F821
    return value


def _memo_two(owner, a, b):
    key = (a, b)
    cache = owner._memo_attr
    value = cache.get(key)
    if value is None:
        value = cache[key] = fn(owner, a, b)  # noqa: F821
    return value


def memo(attr):
    """Memoise fn(owner, a) or fn(owner, a, b) in the dict owner.<attr>,
    keyed by a or by (a, b); the wrapper's memo_attr is attr.  A hit
    returns the stored object itself; a fill that raises stores nothing."""
    def decorate(fn):
        arity = fn.__code__.co_argcount - 1
        if arity not in (1, 2):
            raise TypeError(f"memo: {fn.__name__} takes {arity} arguments "
                            f"besides its owner, not 1 or 2")
        code = (_memo_one if arity == 1 else _memo_two).__code__
        code = code.replace(co_names=tuple(
            attr if name == "_memo_attr" else name for name in code.co_names))
        wrapper = functools.wraps(fn)(types.FunctionType(code, {"fn": fn}))
        wrapper.memo_attr = attr
        return wrapper
    return decorate


def flat_of(terms, to_id) -> dict:
    """Scalar terms {key: Scalar} in the one-leg flat form {(to_id(key),
    e): c} (see FlatSum) of a form or of a linalg row; to_id is
    one-to-one."""
    out = {}
    for key, c in terms.items():
        key = to_id(key)
        for e, a in flat_coeff(c):
            out[(key, e)] = a
    return out


def scalars_of(terms, to_key) -> dict:
    """Flat terms {(id, ..., e): c} as Scalar terms {to_key(id, ...):
    Scalar}, zeros left out: the inverse of flat_of and of
    calculus.GradedTensor.from_scalars."""
    by_key = {}
    for key, c in terms.items():
        by_key.setdefault(key[:-1], []).append((key[-1], c))
    out = {}
    for ids, pairs in by_key.items():
        c = from_flat(pairs)
        if c:
            out[to_key(*ids)] = c
    return out


def same_key(k):
    """The identity on keys: flat_of and scalars_of keep them as given."""
    return k


def _paren(cs, chars):
    return f"({cs})" if any(ch in cs for ch in chars) else cs


def _all_int(terms):
    return all(type(c) is int for c in terms.values())


class SparseSum:
    """Finite sum key -> Scalar coefficient with zero coefficients absent.

    A subclass names the slot holding its context (the legs or the
    calculus) in _context; sums combine only within one context.  It also
    gives _key_str, the printed monomial of a key ("" for the unit), and
    _sort_key, the printing order.  Accumulate with add_scaled or add_term
    only into a sum the caller built: memoised sums are handed out shared.
    """

    __slots__ = ("terms",)
    _context = None
    _constant_paren = " /"

    def __init__(self, terms=None):
        """A sum holding a copy of terms, zeros left out."""
        self.terms = {k: c for k, c in terms.items()
                      if not c.is_zero()} if terms else {}

    def _ctx(self):
        return getattr(self, self._context) if self._context else None

    def _new(self, terms):
        """A sum in the same context holding the dict terms as given."""
        out = object.__new__(type(self))
        if self._context:
            setattr(out, self._context, getattr(self, self._context))
        out.terms = terms
        return out

    def scalar_terms(self) -> dict:
        """This sum's terms {key: Scalar}: the dict itself, read-only."""
        return self.terms

    def add_scaled(self, other, c=None):
        """self += c * other in place (c = 1 when None); returns self."""
        assert type(other) is type(self) and self._ctx() == other._ctx()
        if c is not None and c.is_zero():
            return self
        terms = self.terms
        for key, a in other.terms.items():
            add_term(terms, key, a if c is None else a * c)
        return self

    def add_mapped(self, x, fn, slot=None):
        """self += the linear extension of fn over the terms of x; returns
        self.

        With slot None, fn maps a key of x to a sum.  With a slot, the keys
        of x are tuples of legs, and fn maps the leg at slot to a sum keyed
        by tuples of legs, spliced into the place of that leg: id (x) fn
        (x) id.  The values of fn are taken as normal forms; nothing is
        reduced again."""
        terms = self.terms
        if slot is None:
            for key, c in x.terms.items():
                for k2, c2 in fn(key).terms.items():
                    add_term(terms, k2, c * c2)
            return self
        for key, c in x.terms.items():
            pre, post = key[:slot], key[slot + 1:]
            for k2, c2 in fn(key[slot]).terms.items():
                add_term(terms, pre + k2 + post, c * c2)
        return self

    def add_product(self, factors, coeff):
        """self += coeff * (f_1 (x) ... (x) f_n), keyed by tuples of the
        factors' keys.  A factor is a sum or a tuple of (key, coefficient)
        pairs."""
        if coeff.is_zero():
            return self
        partial = [((), coeff)]
        for f in factors:
            items = f.terms.items() if isinstance(f, SparseSum) else f
            partial = [(key + (k,), c * c2)
                       for key, c in partial for k, c2 in items]
        for key, c in partial:
            add_term(self.terms, key, c)
        return self

    def __add__(self, other):
        return self._new(dict(self.terms)).add_scaled(other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar):
        if c.is_zero():
            return self._new({})
        return self._new({k: a * c for k, a in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (type(other) is type(self) and self._ctx() == other._ctx()
                and self.terms == other.terms)

    def __str__(self):
        terms = self.scalar_terms()
        if not terms:
            return "0"
        parts = []
        for key in sorted(terms, key=self._sort_key):
            body = self._key_str(key)
            cs = str(terms[key])
            if cs == "1":
                parts.append(body or "1")
            elif cs == "-1":
                parts.append(f"-{body or '1'}")
            elif body:
                parts.append(f"{_paren(cs, ' /')}*{body}")
            else:
                parts.append(_paren(cs, self._constant_paren))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


class FlatSum(SparseSum):
    """A SparseSum whose terms map (id, ..., e) -> int, in the flat form.

    A key is one flat tuple: the monomial ids of the term, one a leg
    (calculus.DiffCalculus.intern), followed by e, which packs the
    exponent vector of a Laurent monomial (scalars.flat_coeff).  A form's
    key is (id, e), the one-leg case.  So a sum of Laurent polynomials
    with int coefficients is accumulated in machine ints.  A coefficient
    that has no such form enters whole as a Scalar at e = 0 and is
    multiplied and added as a Scalar from then on.  Ids are given per
    calculus, so flat sums of different contexts never share a meaning for
    an id.  The constructor adopts a flat dict as given and checks its
    first key against the subclass's number of ids: a dict of Scalar terms
    enters by the subclass's from_scalars.

    add_mapped has the shapes of the graded path: on whole keys it maps
    the id of a form's term, and with a slot it maps one leg of a two-leg
    key to a two-leg sum, giving three legs.  Its slot loops unpack keys at
    their fixed width and accumulate in place; the cold generic loops
    (add_scaled, add_mapped on whole keys, scalars_of) slice key[:-1] and
    key[-1].

    scalar_terms gives the sum as {key: Scalar} (scalars_of) through the
    subclass's _id_to_key: it is for reports, linear algebra and printing.
    """

    __slots__ = ()

    def __init__(self, terms, width):
        """A sum adopting the flat dict terms as given, a new dict when
        None.  Its first key must be width ids and an int exponent; a dict
        of another shape raises TypeError."""
        if terms:
            for key in terms:
                break
            if type(key) is tuple and len(key) == width + 1:
                for i in key:
                    if type(i) is not int:
                        break
                else:
                    self.terms = terms
                    return
            name = type(self).__name__
            raise TypeError(
                f"{name} takes flat terms {{(id, ..., e): c}} with {width} "
                f"id(s) and an int exponent, not {key!r}: build it from "
                f"Scalar terms with {name}.from_scalars")
        self.terms = {} if terms is None else terms

    def scalar_terms(self) -> dict:
        """This sum's terms as a new dict {key: Scalar}."""
        return scalars_of(self.terms, self._id_to_key())

    def add_scaled(self, other, c=None):
        """self += c * other in place (c = 1 when None); returns self."""
        assert type(other) is type(self) and self._ctx() == other._ctx()
        terms = self.terms
        scale = ((0, 1),) if c is None else flat_coeff(c)
        # a key moves only when the exponent does
        for key, a in other.terms.items():
            for e2, c2 in scale:
                add_flat(terms, key[:-1] + (key[-1] + e2,) if e2 else key,
                         a * c2)
        return self

    def add_mapped(self, x, fn, slot=None):
        """self += the linear extension of fn over the flat terms of x;
        returns self.

        With slot None, x is a form and fn maps the id of each of its
        terms to a flat sum.  With a slot, x has two legs, and fn maps the
        id at slot to a two-leg flat sum, spliced into the place of that
        leg."""
        terms = self.terms
        items = x.terms.items()
        if slot is None:
            for (i, e), c in items:
                for key, c2 in fn(i).terms.items():
                    add_flat(terms, key[:-1] + (key[-1] + e,) if e else key,
                             c * c2)
            return self
        get = terms.get
        if slot:
            for (a, b, e), c in items:
                for (p, q, e2), c2 in fn(b).terms.items():
                    key = a, p, q, e + e2
                    v = c * c2 + get(key, 0)
                    if v:
                        terms[key] = v
                    else:
                        del terms[key]
        else:
            for (a, b, e), c in items:
                for (p, q, e2), c2 in fn(a).terms.items():
                    key = p, q, b, e + e2
                    v = c * c2 + get(key, 0)
                    if v:
                        terms[key] = v
                    else:
                        del terms[key]
        return self

    def is_zero(self) -> bool:
        """Whether the sum is zero in value: a key whose int sum is zero is
        never kept, but a carried Scalar may cancel against the terms of
        other exponents at its ids."""
        terms = self.terms
        return not terms or (not _all_int(terms)
                             and not self.scalar_terms())

    def scale(self, c: Scalar):
        return self._new({}).add_scaled(self, c)

    def __eq__(self, other):
        if type(other) is not type(self) or self._ctx() != other._ctx():
            return False
        a, b = self.terms, other.terms
        # equal flat terms are equal sums; only all-int flat terms are
        # canonical, so unequal ones with a carried Scalar are compared as
        # Scalars
        if a == b:
            return True
        if _all_int(a) and _all_int(b):
            return False
        return self.scalar_terms() == other.scalar_terms()


class NCPoly(SparseSum):
    """Finite map word -> Scalar; zero coefficients absent."""

    __slots__ = ()
    _constant_paren = " "

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly()

    @staticmethod
    def one() -> "NCPoly":
        return NCPoly({(): Scalar.one()})

    @staticmethod
    def word(w, coeff: Scalar | None = None) -> "NCPoly":
        return NCPoly({tuple(w): coeff if coeff is not None else Scalar.one()})

    @staticmethod
    def gen(name: str, coeff: Scalar | None = None) -> "NCPoly":
        return NCPoly.word((name,), coeff)

    @staticmethod
    def _key_str(w):
        return "*".join(w)

    @staticmethod
    def _sort_key(w):
        return (len(w), w)


@dataclass(frozen=True)
class RewriteRule:
    """lhs -> rhs; flat_rhs is rhs as flat terms ((word, e), c), made once."""
    lhs: Word
    rhs: NCPoly
    flat_rhs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "flat_rhs",
                           tuple(flat_of(self.rhs.terms, same_key).items()))


class AlgebraPresentation:
    """Generators, oriented relations, and the normal-form engine."""

    def __init__(self, name, generators, rules, auto_inverses=True):
        self.name = name
        self.generators = tuple(generators)
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        if len(self._index) != len(self.generators):
            raise NCAlgError(f"duplicate generator names in {name}")
        self.symbol = {g.name: g for g in self.generators}
        rules = [RewriteRule(tuple(l), r) for l, r in rules]
        if auto_inverses:
            rules += self._cancellation_rules(rules)
        self.rules = tuple(rules)
        self._by_first = {}
        for rule in self.rules:
            self._by_first.setdefault(rule.lhs[0], []).append(rule)
        for lst in self._by_first.values():
            lst.sort(key=lambda r: (-len(r.lhs), r.lhs))
        self._nf_cache: dict[Word, tuple] = {}
        self._validate()

    # -- construction helpers

    def _cancellation_rules(self, rules):
        have = {r.lhs for r in rules}
        extra = []
        for g in self.generators:
            if g.inverse_of is not None:
                pair = (g.name, g.inverse_of)
                if pair not in have:
                    extra.append(RewriteRule(pair, NCPoly.one()))
                    have.add(pair)
        return extra

    def _validate(self):
        for g in self.generators:
            if g.inverse_of is not None:
                h = self.symbol.get(g.inverse_of)
                if h is None or h.inverse_of != g.name:
                    raise NCAlgError(
                        f"{self.name}: inverse pairing broken for {g.name}")
        for rule in self.rules:
            if len(rule.lhs) < 1:
                raise NCAlgError(f"{self.name}: empty rule lhs")
            self._check_declared(rule.lhs)
            for w in rule.rhs.terms:
                self._check_declared(w)
                if not self.word_less(w, rule.lhs):
                    raise NCAlgError(
                        f"{self.name}: rule {'*'.join(rule.lhs)} has "
                        f"non-decreasing monomial {'*'.join(w) or '1'}")

    def _check_declared(self, word):
        for s in word:
            if s not in self._index:
                raise UndeclaredSymbolError(
                    f"{self.name}: undeclared symbol {s!r}")

    # -- term order

    def word_key(self, w):
        return (len(w), tuple(self._index[s] for s in w))

    def word_less(self, w1, w2) -> bool:
        return self.word_key(w1) < self.word_key(w2)

    # -- reduction

    def _find_redex(self, word):
        for i in range(len(word)):
            for rule in self._by_first.get(word[i], ()):
                n = len(rule.lhs)
                if word[i:i + n] == rule.lhs:
                    return i, rule
        return None

    def flat_normal_word(self, word) -> tuple:
        """Normal form of the word (a tuple) as a read-only tuple of flat
        terms ((w', e), c), memoised in _nf_cache, the one normal-form memo:
        the rewrite loop runs in ints through each rule's flat_rhs."""
        # not a memo(): the rewrite loop below reads _nf_cache for each word
        cache = self._nf_cache
        out = cache.get(word)
        if out is not None:
            return out
        self._check_declared(word)
        budget = reduce_budget()
        acc = {}
        stack = [(word, 0, 1)]
        steps = 0
        while stack:
            w, e, c = stack.pop()
            hit = cache.get(w)
            if hit is not None:
                for (w2, e2), c2 in hit:
                    add_flat(acc, (w2, e + e2), c * c2)
                continue
            m = self._find_redex(w)
            if m is None:
                add_flat(acc, (w, e), c)
                continue
            steps += 1
            if steps > budget:
                raise BudgetExceededError(
                    f"{self.name}: reduction budget exceeded on "
                    f"{'*'.join(word)}")
            i, rule = m
            pre, post = w[:i], w[i + len(rule.lhs):]
            for (mid, e2), c2 in rule.flat_rhs:
                stack.append((pre + mid + post, e + e2, c * c2))
        out = cache[word] = tuple(acc.items())
        return out

    def _scalar_sum(self, terms) -> NCPoly:
        """Sum of c times the normal form of w over the Scalar terms (w, c),
        read from the flat memo in Scalar arithmetic; a flat term with
        coefficient one passes c through unchanged."""
        out = NCPoly()
        for w, c in terms:
            for (w2, e), a in self.flat_normal_word(w):
                add_term(out.terms, w2, c if not e and a == 1 else
                         from_flat(((e, a),)) * c)
        return out

    def normal_word(self, word) -> NCPoly:
        """Normal form of a single word, as an NCPoly."""
        return self._scalar_sum(((tuple(word), Scalar.one()),))

    def reduce(self, p: NCPoly) -> NCPoly:
        return self._scalar_sum(p.terms.items())

    def multiply(self, p: NCPoly, r: NCPoly) -> NCPoly:
        return self._scalar_sum((w1 + w2, c1 * c2)
                                for w1, c1 in p.terms.items()
                                for w2, c2 in r.terms.items())

    def irreducible_words(self, max_len: int):
        """All normal-form words of length <= max_len (irreducible prefixes)."""
        frontier = [()]
        yield ()
        for _ in range(max_len):
            nxt = []
            for w in frontier:
                for g in self.generators:
                    w2 = w + (g.name,)
                    if self._find_redex(w2) is None:
                        nxt.append(w2)
                        yield w2
            frontier = nxt

    # -- grading

    def weight_of_word(self, w) -> int:
        return sum(self.symbol[s].weight for s in w)

    def weight(self, p: NCPoly):
        """Coaction weight of p, or "inhomogeneous" if monomials disagree."""
        if p.is_zero():
            return 0
        weights = {self.weight_of_word(w) for w in p.terms}
        if len(weights) == 1:
            return weights.pop()
        return INHOMOGENEOUS

    # -- diagnostics

    def confluence_check(self, max_overlap_len: int = 6,
                         example: str = "") -> CheckReport:
        """Resolve all critical pairs of overlapping rule left-hand sides."""
        rep = CheckReport(
            suite="confluence", example=example or self.name,
            truncation={"max_overlap_len": max_overlap_len},
            ref="diamond check: both reductions of every overlap word agree")
        with timed(rep):
            for i1, r1 in enumerate(self.rules):
              for i2, r2 in enumerate(self.rules):
                a, b = r1.lhs, r2.lhs
                # overlap: suffix of a = prefix of b, proper on both sides
                for k in range(1, min(len(a), len(b))):
                    if a[-k:] != b[:k]:
                        continue
                    word = a + b[k:]
                    if len(word) > max_overlap_len:
                        continue
                    p1 = self._splice(r1.rhs, (), b[k:])
                    p2 = self._splice(r2.rhs, a[:len(a) - k], ())
                    rep.record(p1 == p2,
                               "*".join(word), "confluent pair",
                               "two distinct normal forms",
                               ref="overlap")
                # containment: b occurs inside a (including equal lhs, r1 != r2)
                if r1 is r2 or (len(a) == len(b) and i1 > i2):
                    continue
                for i in range(len(a) - len(b) + 1):
                    if a[i:i + len(b)] != b or len(a) > max_overlap_len:
                        continue
                    p1 = self._splice(r1.rhs, (), ())
                    p2 = self._splice(r2.rhs, a[:i], a[i + len(b):])
                    rep.record(p1 == p2,
                               "*".join(a), "confluent pair",
                               "two distinct normal forms",
                               ref="containment")
        return rep

    def _splice(self, rhs: NCPoly, pre, post) -> NCPoly:
        """The normal form of pre rhs post."""
        return self._scalar_sum((pre + w + post, c)
                                for w, c in rhs.terms.items())

    def __repr__(self):
        return f"AlgebraPresentation({self.name}, {len(self.rules)} rules)"
