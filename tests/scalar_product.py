"""The product of monomials of a calculus written out in Scalar arithmetic.

The oracles of the flat product tables (DiffCalculus.act_word, straighten
and mono_mul, and the prolongation pair rows) compare them with this
reference.  It reads only the calculus's presentation data: the
right-action rules (raction), the swap coefficients (swap) and the
presentation's rewrite rules.  It reduces words with brute_force_reduce,
which applies the rules one redex at a time in Scalar arithmetic, and
never with the presentation's normal-form engine (flat_normal_word and
its Scalar views normal_word, reduce and multiply), which the oracles
test.
"""

import random

from qpbcalc.ncalg import NCPoly, add_term
from qpbcalc.scalars import Scalar

one = Scalar.one()


def brute_force_reduce(pres, p, seed=0):
    """Rewriting oracle: random redex choices until a fixed point."""
    rng = random.Random(seed)
    terms = dict(p.terms)
    done = False
    while not done:
        done = True
        items = sorted(terms.items(), key=lambda kv: kv[0])
        terms = {}
        for w, c in items:
            matches = []
            for i in range(len(w)):
                for rule in pres.rules:
                    n = len(rule.lhs)
                    if w[i:i + n] == rule.lhs:
                        matches.append((i, rule))
            if not matches:
                c0 = terms.get(w, Scalar.zero()) + c
                terms[w] = c0
                continue
            done = False
            i, rule = rng.choice(matches)
            for mid, c2 in rule.rhs.terms.items():
                w2 = w[:i] + mid + w[i + len(rule.lhs):]
                terms[w2] = terms.get(w2, Scalar.zero()) + c * c2
        terms = {w: c for w, c in terms.items() if not c.is_zero()}
    out = NCPoly()
    out.terms = terms
    return out


class ScalarProduct:
    """The product of the monomials (w, F) of calc as Scalar terms."""

    def __init__(self, calc):
        self.calc = calc
        self._acts = {}
        self._nfs = {}

    def normal_word(self, w):
        """The normal form of the word w by brute_force_reduce."""
        out = self._nfs.get(w)
        if out is None:
            out = self._nfs[w] = brute_force_reduce(self.calc.pres,
                                                    NCPoly.word(w))
        return out

    def straighten(self, letters):
        """Sort a letter word by bubble sort over the swap rules: [(c,
        sorted letters)], or [] when a letter repeats or the word is longer
        than the top degree."""
        calc = self.calc
        if len(letters) > calc.top_degree:
            return []
        index = calc.letter_index
        coeff = one
        word = list(letters)
        changed = True
        while changed:
            changed = False
            for i in range(len(word) - 1):
                a, b = word[i], word[i + 1]
                if index[a] == index[b]:
                    return []
                if index[a] > index[b]:
                    coeff = coeff * calc.swap[(a, b)]
                    word[i], word[i + 1] = b, a
                    changed = True
        return [(coeff, tuple(word))]

    def act_gen(self, F, g):
        """F . g: the last letter's right-action rule for g, its
        coefficient word moved on past the letters before."""
        if not F:
            return {((g,), ()): one}
        out = {}
        rule = self.calc.raction[(F[-1], g)]
        for (wr, Fr), c in rule.scalar_terms().items():
            for (w2, F2), c2 in self.act_word(F[:-1], wr).items():
                add_term(out, (w2, F2 + Fr), c * c2)
        return out

    def act_word(self, F, w):
        """F . w as Scalar terms {(w', F'): c}: the coefficient word moved
        left past the letters one generator at a time, each word reduced."""
        if not w:
            return {((), F): one}
        out = self._acts.get((F, w))
        if out is None:
            out = {}
            for (w1, F1), c1 in self.act_gen(F, w[0]).items():
                for (w2, F2), c2 in self.act_word(F1, w[1:]).items():
                    nf = self.normal_word(w1 + w2)
                    for w3, c3 in nf.terms.items():
                        add_term(out, (w3, F2), c1 * c2 * c3)
            self._acts[F, w] = out
        return out

    def expand(self, terms, m1, m2, c):
        """terms += c m1 m2 for monomials m1 = (w1, F1), m2 = (w2, F2): w2
        moved left past F1, the letters straightened, the words reduced."""
        (w1, F1), (w2, F2) = m1, m2
        if len(F1) + len(F2) > self.calc.top_degree:
            return
        for (w3, F3), c3 in self.act_word(F1, w2).items():
            for c4, F4 in self.straighten(F3 + F2):
                nf = self.normal_word(w1 + w3)
                for w5, c5 in nf.terms.items():
                    add_term(terms, (w5, F4), c * c3 * c4 * c5)
