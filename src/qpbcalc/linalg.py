"""Exact linear algebra over the scalar field, on sparse dict vectors.

Vectors are dicts mapping hashable column keys to nonzero Scalars, except
the rows and targets of span_witnesses, which are flat (see below).
span_witnesses gives every span verdict: an inclusion is a witness for
each target, and a span equality is two inclusions.  kernel gives the
relations among vectors.  rref, a canonical reduced basis of the row
space, decides no verdict.

One elimination core serves two fields, each its arithmetic alone: _QQ,
the scalar field Q(q) on Scalars, and _FP, F_p on ints mod RESIDUE_PRIME.
Each caller takes the field it computes on.  _echelon reads an iterable of
rows once, keeps them in insertion order, reduces each new row in place
(_reduce) and scales it to 1 at its pivot.  _reduce takes the pivots a row
reaches from a heap, smallest basis index first: basis row j is zero at
every earlier pivot, so this takes the steps of a scan of the whole basis
without the scan.  No input row is kept: each basis row records its input
index, its pivot scale and the multiples of earlier basis rows it took,
and _unwind turns the records, from the last basis row down, into a
combination of input rows.  kernel pivots on a unit (a Laurent monomial)
whenever the row has one, so rows of Laurent polynomials mostly stay off
the rational-function path, and unwinds the relation of each dependent
row (unique, so it does not depend on the pivots).  rref eliminates the
independent rows once more, on their lowest-ranked columns, and
back-substitutes.  Columns are ranked on demand by their memoised repr.

span_witnesses finds modulo p and solves exactly on what it found.  Its
rows and targets are flat terms {(column, e): c}, c an int or a carried
Scalar as in ncalg.FlatSum, so a row is built in machine ints.  It sends
every row and target to F_p term by term (scalars.monomial_residue, one
ring map for every parameter, with no Scalar built), keeps the input rows
each witness uses there, and over Q(q) eliminates those rows alone, turned
into Scalar rows, and solves for every target.  A wrong choice of rows
costs time, never a wrong answer.  The full exact elimination answers
every target left unwitnessed, and every target when a row or a target has
no image mod p (a denominator or a Fraction vanishes there) or a target is
outside the span mod p.  This is the certifying pattern of McConnell,
Mehlhorn, Naher and Schweitzer (Comput. Sci. Rev. 5 (2011)); on modular
methods and lucky primes see von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 5.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import mul, neg

from .ncalg import add_term, same_key, scalars_of
from .scalars import RESIDUE_PRIME, Scalar, monomial_residue, residue


class _QQ:
    """The scalar field Q(q), on Scalars."""

    neg = staticmethod(neg)
    mul = staticmethod(mul)
    inverse = staticmethod(Scalar.inverse)
    add_term = staticmethod(add_term)

    @staticmethod
    def axpy(row, b, c, where, heap):
        """row += c b, in place, pushing onto heap the basis index of each
        pivot in where that row reaches anew."""
        for k, a in b.items():
            old = row.get(k)
            if old is None:
                row[k] = a * c
                j = where.get(k)
                if j is not None:
                    heappush(heap, j)
            else:
                a = old + a * c
                if a.is_zero():
                    del row[k]
                else:
                    row[k] = a


class _FP:
    """F_p at p = RESIDUE_PRIME, on ints in [0, p)."""

    neg = staticmethod(lambda c: -c % RESIDUE_PRIME)
    mul = staticmethod(lambda a, b: a * b % RESIDUE_PRIME)
    inverse = staticmethod(lambda a: pow(a, -1, RESIDUE_PRIME))

    @staticmethod
    def add_term(terms, key, c):
        c = (terms.get(key, 0) + c) % RESIDUE_PRIME
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)

    @staticmethod
    def axpy(row, b, c, where, heap):
        """_QQ.axpy mod p."""
        p = RESIDUE_PRIME
        for k, a in b.items():
            old = row.get(k)
            if old is None:
                row[k] = a * c % p
                j = where.get(k)
                if j is not None:
                    heappush(heap, j)
            else:
                a = (old + a * c) % p
                if a:
                    row[k] = a
                else:
                    del row[k]


def _ranker():
    """repr, memoised: it runs once per column, on demand.  Comparing its
    values orders columns as sorting every column by repr would."""
    memo = {}

    def rank(k):
        try:
            return memo[k]
        except KeyError:
            r = memo[k] = repr(k)
            return r
    return rank


def _lowest(rank):
    """The pivot rule taking a row's lowest-ranked column."""
    return lambda row: min(row, key=rank)


def _unit_first(rank):
    """The pivot rule taking a row's lowest-ranked column with a unit
    Scalar coefficient, or its lowest-ranked column when there is none."""
    def pivot(row):
        units = [k for k, a in row.items() if a.is_unit()]
        return min(units or row, key=rank)
    return pivot


def _reduce(row, basis, where, field):
    """Reduce row in place against an echelon basis, where mapping each
    pivot to its basis index; returns the steps [(j, s)], row having become
    row + sum s basis[j]."""
    heap = [j for j in map(where.get, row) if j is not None]
    heapify(heap)
    neg, axpy = field.neg, field.axpy
    steps = []
    while heap:
        j = heappop(heap)
        b = basis[j]
        c = row.get(b[0])
        if c is None:
            continue
        c = neg(c)
        axpy(row, b[1], c, where, heap)
        steps.append((j, c))
    return steps


def _echelon(rows, pivot, field, relations=False):
    """Insertion-order echelon form of rows over field, an iterable read
    once.

    Returns (basis, where, dependent), or None when a row is None (it has
    no image in field).  basis holds (pivot, row, i, scale, steps) for each
    input row i independent of the rows before it: row is (rows[i] + sum s
    basis[j] over steps (j, s)) * scale, reduced against the earlier pivots
    and 1 at its own pivot, chosen by the rule pivot.  where maps each
    pivot to its basis index.  With relations, dependent holds (i, steps)
    for each row i that steps send to zero.  No input row is kept."""
    basis = []
    where = {}
    dependent = []
    mul = field.mul
    for i, v in enumerate(rows):
        if v is None:
            return None
        row = dict(v)
        steps = _reduce(row, basis, where, field)
        if not row:
            if relations:
                dependent.append((i, steps))
            continue
        p = pivot(row)
        inv = field.inverse(row[p])
        where[p] = len(basis)
        basis.append((p, {k: mul(a, inv) for k, a in row.items()}, i, inv,
                      steps))
    return basis, where, dependent


def _unwind(basis, mu, out, field):
    """Add to out the input-row combination equal to sum mu[j] basis[j].

    Each basis row is its scale times its input row plus multiples of
    earlier basis rows, so one pass from the last basis row down moves
    every coefficient onto input rows.  mu is consumed."""
    mul, add = field.mul, field.add_term
    for j in range(max(mu, default=-1), -1, -1):
        c = mu.pop(j, None)
        if c is None:
            continue
        _, _, i, inv, steps = basis[j]
        c = mul(c, inv)
        add(out, i, c)
        for k, s in steps:
            add(mu, k, mul(c, s))
    return out


def _witness(echelon, t, field):
    """The input-row combination equal to the row t over field, or None
    when t is outside the span; t is consumed."""
    basis, where, _ = echelon
    steps = _reduce(t, basis, where, field)
    # t + sum s basis[j] is now zero when t is in the span
    if t:
        return None
    return _unwind(basis, {j: field.neg(s) for j, s in steps}, {}, field)


# No suite calls rref.  It stays because the benchmark's tracer wraps it by
# name (perfbench/tracer.py), and a test checks that every traced name is
# found.
def rref(rows):
    """Canonical reduced row echelon basis of the span of rows, its
    columns ranked by repr."""
    rank = _ranker()
    basis, _, _ = _echelon(rows, _unit_first(rank), _QQ)
    # each independent row again, pivoting on its lowest-ranked column: a
    # row is then zero at every lower-ranked pivot
    basis, _, _ = _echelon((b[1] for b in basis), _lowest(rank), _QQ)
    basis.sort(key=lambda b: rank(b[0]))
    # back substitution from the last pivot: the rows after a row are
    # already zero at each other's pivots, so one reduction clears it
    done, where = [], {}
    for b in reversed(basis):
        _reduce(b[1], done, where, _QQ)
        where[b[0]] = len(done)
        done.append(b)
    return [b[1] for b in reversed(done)]


def kernel(vectors):
    """Kernel of e_i -> vectors[i]; returns coefficient dicts {i: Scalar}.

    There is one vector for each i whose vector depends on the earlier
    ones: the relation with coefficient 1 at i supported on i and the
    earlier independent indices.  It is unique, so the pivots chosen do not
    change it."""
    basis, _, dependent = _echelon(
        vectors, _unit_first(_ranker()), _QQ, relations=True)
    return [_unwind(basis, dict(steps), {i: Scalar.one()}, _QQ)
            for i, steps in dependent]


def kernel_on(domain, image):
    """Kernel of the linear map x -> image(x) on the basis domain, as
    combinations {x: c} keyed by domain elements (see kernel)."""
    domain = list(domain)
    return [{domain[i]: c for i, c in combo.items()}
            for combo in kernel([image(x) for x in domain])]


def _residues(v):
    """The flat row v at the residue point: each column's terms summed in
    F_p, zeros dropped; None when a term has no image there."""
    p = RESIDUE_PRIME
    out = {}
    for (k, e), c in v.items():
        r = monomial_residue(e)
        if r is None:
            return None
        if type(c) is not int:
            c = residue(c)  # a carried Scalar
            if c is None:
                return None
        out[k] = (out.get(k, 0) + c * r) % p
    return {k: r for k, r in out.items() if r}


def _support_mod_p(row, n, targets):
    """The sorted indices of the input rows that the targets' witnesses
    use at the residue point.  None when a row or a target has no image
    there, or a target is outside the span there."""
    echelon = _echelon((_residues(row(i)) for i in range(n)),
                       _lowest(_ranker()), _FP)
    if echelon is None:
        return None
    support = set()
    for t in targets:
        t = _residues(t)
        lam = None if t is None else _witness(echelon, t, _FP)
        if lam is None:
            return None
        support.update(lam)
    return sorted(support)


def _exact_witnesses(rows, targets):
    """span_witnesses by one exact elimination of rows, an iterable read
    once."""
    echelon = _echelon(rows, _unit_first(_ranker()), _QQ)
    return [_witness(echelon, dict(t), _QQ) for t in targets]


def span_witnesses(row, n, targets):
    """For each target in the span of the rows row(0), ..., row(n - 1), a
    combination {i: c} of Scalars with sum c row(i) == target; None for a
    target outside the span.

    Rows and targets are flat, {(column, e): c} with c an int or a carried
    Scalar (see ncalg.FlatSum).  row(i) builds row i, so no row outlives
    its use: each row is built once to be sent to F_p, the rows the
    witnesses use there once more, as Scalar rows, for the exact solve,
    and every row again only when that solve leaves a target
    unwitnessed."""
    targets = list(targets)
    exact_targets = [scalars_of(t, same_key) for t in targets]

    def exact_rows(indices):
        return (scalars_of(row(i), same_key) for i in indices)

    out = [None] * len(targets)
    support = _support_mod_p(row, n, targets)
    if support is not None:
        found = _exact_witnesses(exact_rows(support), exact_targets)
        out = [None if lam is None else
               {support[j]: c for j, c in lam.items()} for lam in found]
    missing = [k for k, lam in enumerate(out) if lam is None]
    if missing:
        found = _exact_witnesses(exact_rows(range(n)),
                                 [exact_targets[k] for k in missing])
        for k, lam in zip(missing, found):
            out[k] = lam
    return out
