"""Exact linear algebra over the scalar field, on sparse dict vectors.

Vectors are dicts mapping hashable column keys to nonzero Scalars.  rref
returns a canonical reduced basis of the row space, so two spans are equal
iff their rrefs are equal.

kernel, rref and span_witnesses share one echelon core (_echelon).  It
reads an iterable of rows once, keeps them in insertion order, reduces
each new row in place against the earlier pivot rows and scales it to 1
at its own pivot, so one pass reduces a vector.  It pivots on a unit (a
Laurent monomial) whenever the row has one, so rows of Laurent polynomials
mostly stay off the rational-function path.  It keeps no input row: for
each basis row it records the input index, the pivot scale and the
multiples of earlier basis rows it took.  _unwind turns those records,
from the last basis row down, into a combination of input rows: kernel
gives the relation of each dependent row (unique, so it does not depend
on the pivots).  kernel_on gives kernel's relations keyed by the elements
of a domain basis instead of by row index.  rref runs its keyed canonical
Gauss-Jordan only on the independent rows the core leaves.  in_span
reduces against an rref basis in one pass.  Columns are ranked on demand
by a memoised key, so the key function runs once per column; only
span_in_window orders them by anything but repr.

span_witnesses finds modulo p and solves exactly on what it found.  It
sends every row and target to F_p at scalars.residue (one ring map for
every parameter), runs the same echelon and unwinding there on ints, and
keeps only the set of input rows each witness uses.  Over the scalar
field it then eliminates those rows alone and solves for every target.
The finite field only chooses rows: a witness is always an exact solve,
so a wrong choice costs time and never a wrong answer.  The full exact
elimination answers every target that this leaves unwitnessed, and every
target when a row or a target has no image mod p (a denominator or a
Fraction vanishes there) or a target is outside the span mod p.  A
target truly outside the span therefore always pays for the full
elimination.  This is the certifying pattern of McConnell, Mehlhorn,
Naher and Schweitzer (Comput. Sci. Rev. 5 (2011)); on modular methods and
lucky primes see von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 5.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .ncalg import add_term
from .scalars import RESIDUE_PRIME, Scalar, residue


def _axpy(u, v, c):
    """u += c v, in place."""
    for k, a in v.items():
        add_term(u, k, a * c)


def vec_add(u, v, c=None):
    out = dict(u)
    for k, a in v.items():
        add_term(out, k, a * c if c is not None else a)
    return out


def vec_scale(u, c):
    if c.is_zero():
        return {}
    return {k: a * c for k, a in u.items()}


def _default_key(k):
    return repr(k)


def _ranker(key):
    """key, memoised: it runs once per column, on demand.  Comparing its
    values orders columns as sorting every column by key would."""
    memo = {}

    def rank(k):
        try:
            return memo[k]
        except KeyError:
            r = memo[k] = key(k)
            return r
    return rank


def _reduce(row, basis):
    """Reduce row in place against an echelon basis; returns the steps
    [(j, s)], row having become row + sum s basis[j]."""
    steps = []
    for j, (p, b, _, _, _) in enumerate(basis):
        c = row.get(p)
        if c is not None:
            c = -c
            _axpy(row, b, c)
            steps.append((j, c))
    return steps


def _echelon(rows, rank, relations=False):
    """Insertion-order echelon form of rows, an iterable read once.

    Returns (basis, dependent).  basis holds (pivot, row, i, scale, steps)
    for each input row i independent of the rows before it: row is
    (rows[i] + sum s basis[j] over steps (j, s)) * scale, reduced against
    the earlier pivots and 1 at its own pivot.  The pivot is the
    lowest-ranked column with a unit coefficient, or the lowest-ranked
    column when there is none.  With relations, dependent holds (i, steps)
    for each row i that steps send to zero.  No input row is kept."""
    basis = []
    dependent = []
    for i, v in enumerate(rows):
        row = dict(v)
        steps = _reduce(row, basis)
        if not row:
            if relations:
                dependent.append((i, steps))
            continue
        units = [k for k, a in row.items() if a.is_unit()]
        p = min(units or row, key=rank)
        inv = row[p].inverse()
        basis.append((p, {k: a * inv for k, a in row.items()}, i, inv,
                      steps))
    return basis, dependent


def _unwind(basis, mu, out):
    """Add to out the input-row combination equal to sum mu[j] basis[j].

    Each basis row is its scale times its input row plus multiples of
    earlier basis rows, so one pass from the last basis row down moves
    every coefficient onto input rows.  mu is consumed."""
    for j in range(max(mu, default=-1), -1, -1):
        c = mu.pop(j, None)
        if c is None:
            continue
        _, _, i, inv, steps = basis[j]
        c = c * inv
        add_term(out, i, c)
        for k, s in steps:
            add_term(mu, k, c * s)
    return out


def rref(rows, key=None):
    """Canonical reduced row echelon basis of the span of rows, its
    columns ranked by key (repr when None)."""
    rank = _ranker(key or _default_key)
    basis, _ = _echelon(rows, rank)
    # keyed Gauss-Jordan on the independent rows: the pivot of each row is
    # its lowest-ranked column, made 1 and cleared from every other row
    pivots = {}
    for _, row, _, _, _ in basis:
        while row:
            p = min(row, key=rank)
            b = pivots.get(p)
            if b is None:
                break
            _axpy(row, b, -row[p])
        if row:
            pivots[p] = vec_scale(row, row[p].inverse())
    ps = sorted(pivots, key=rank)
    # back substitution from the last pivot, whose row is already clear of
    # every later pivot
    for j in range(len(ps) - 1, 0, -1):
        b = pivots[ps[j]]
        for p2 in ps[:j]:
            c = pivots[p2].get(ps[j])
            if c is not None:
                _axpy(pivots[p2], b, -c)
    return [pivots[p] for p in ps]


def in_span(rref_basis, v):
    """Whether v lies in the span of a basis that rref returned with its
    default column order."""
    rank = _ranker(_default_key)
    v = dict(v)
    # each basis row is zero at the other rows' pivots, so one pass in row
    # order reduces v
    for b in rref_basis:
        p = min(b, key=rank)
        c = v.get(p)
        if c is not None:
            _axpy(v, b, -c)
    return not v


def span_equal(rows_a, rows_b):
    return rref(rows_a) == rref(rows_b)


def span_in_window(rows, in_window):
    """Canonical basis of span(rows) intersected with the coordinate
    subspace supported on in-window columns.

    Eliminating with out-of-window columns ordered first leaves the
    in-window pivot rows free of out-of-window support."""
    ordered = lambda k: (0 if not in_window(k) else 1, _default_key(k))
    basis = rref(rows, key=ordered)
    inside = [r for r in basis if all(in_window(k) for k in r)]
    return rref(inside)


def kernel(vectors):
    """Kernel of e_i -> vectors[i]; returns coefficient dicts {i: Scalar}.

    There is one vector for each i whose vector depends on the earlier
    ones: the relation with coefficient 1 at i supported on i and the
    earlier independent indices.  It is unique, so the pivots chosen do not
    change it."""
    basis, dependent = _echelon(vectors, _ranker(_default_key),
                                relations=True)
    return [_unwind(basis, dict(steps), {i: Scalar.one()})
            for i, steps in dependent]


def kernel_on(domain, image):
    """Kernel of the linear map x -> image(x) on the basis domain, as
    combinations {x: c} keyed by domain elements (see kernel)."""
    domain = list(domain)
    return [{domain[i]: c for i, c in combo.items()}
            for combo in kernel([image(x) for x in domain])]


def _residues(v):
    """v with each entry sent to F_p (zeros dropped); None when an entry
    has no image there."""
    out = {}
    for k, a in v.items():
        r = residue(a)
        if r is None:
            return None
        if r:
            out[k] = r
    return out


def _reduce_mod(row, basis, where):
    """_reduce over F_p, on a row of ints mod RESIDUE_PRIME; where maps
    each pivot to its basis index.

    Basis row j is zero at every earlier pivot, so taking the pivots the
    row reaches from a heap, smallest index first, gives _reduce's steps
    without scanning the whole basis."""
    p = RESIDUE_PRIME
    heap = [j for j in map(where.get, row) if j is not None]
    heapify(heap)
    steps = []
    while heap:
        j = heappop(heap)
        piv, b, _, _, _ = basis[j]
        c = row.get(piv)
        if c is None:
            continue
        c = p - c
        for k, a in b.items():
            old = row.get(k)
            if old is None:
                row[k] = a * c % p
                jk = where.get(k)
                if jk is not None:
                    heappush(heap, jk)
            else:
                a = (old + a * c) % p
                if a:
                    row[k] = a
                else:
                    del row[k]
        steps.append((j, c))
    return steps


def _echelon_mod(rows, rank):
    """_echelon over F_p, on rows of ints mod RESIDUE_PRIME: the same basis
    records, and the map from each pivot to its basis index; None when a
    row is None.  Every nonzero entry is a unit, so each pivot is the
    lowest-ranked column."""
    basis = []
    where = {}
    for i, row in enumerate(rows):
        if row is None:
            return None
        steps = _reduce_mod(row, basis, where)
        if row:
            piv = min(row, key=rank)
            inv = pow(row[piv], -1, RESIDUE_PRIME)
            where[piv] = len(basis)
            basis.append((piv, {k: a * inv % RESIDUE_PRIME
                                for k, a in row.items()}, i, inv, steps))
    return basis, where


def _support_mod_p(row, n, targets):
    """The sorted indices of the input rows that the targets' witnesses
    use at the residue point: those _unwind reaches there from each
    target.  None when a row or a target has no image there, or a target
    is outside the span there."""
    echelon = _echelon_mod((_residues(row(i)) for i in range(n)),
                           _ranker(_default_key))
    if echelon is None:
        return None
    basis, where = echelon
    support = set()
    for t in targets:
        t = _residues(t)
        if t is None:
            return None
        mu = {j: RESIDUE_PRIME - s for j, s in _reduce_mod(t, basis, where)}
        if t:
            return None
        for j in range(max(mu, default=-1), -1, -1):
            c = mu.pop(j, 0)
            if c:
                _, _, i, inv, steps = basis[j]
                support.add(i)
                c = c * inv % RESIDUE_PRIME
                for k, s in steps:
                    mu[k] = (mu.get(k, 0) + c * s) % RESIDUE_PRIME
    return sorted(support)


def _exact_witnesses(rows, targets):
    """span_witnesses by one exact elimination of rows, an iterable read
    once."""
    basis, _ = _echelon(rows, _ranker(_default_key))
    out = []
    for t in targets:
        t = dict(t)
        steps = _reduce(t, basis)
        # t + sum s basis[j] is now zero when t is in the span
        out.append(None if t else
                   _unwind(basis, {j: -s for j, s in steps}, {}))
    return out


def span_witnesses(row, n, targets):
    """For each target in the span of the rows row(0), ..., row(n - 1), a
    combination {i: c} with sum c row(i) == target; None for a target
    outside the span.

    row(i) builds row i, so no exact row outlives its use: each row is
    built once to be sent to F_p, the rows the witnesses use there once
    more for the exact solve, and every row again only when that solve
    leaves a target unwitnessed."""
    targets = list(targets)
    out = [None] * len(targets)
    support = _support_mod_p(row, n, targets)
    if support is not None:
        found = _exact_witnesses(map(row, support), targets)
        out = [None if lam is None else
               {support[j]: c for j, c in lam.items()} for lam in found]
    missing = [k for k, lam in enumerate(out) if lam is None]
    if missing:
        found = _exact_witnesses(map(row, range(n)),
                                 [targets[k] for k in missing])
        for k, lam in zip(missing, found):
            out[k] = lam
    return out
