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
on the pivots), and span_witnesses gives, for each target in the span, a
combination that sums to it.  kernel_on gives kernel's relations keyed by
the elements of a domain basis instead of by row index.  rref runs its
keyed canonical Gauss-Jordan only on the independent rows the core
leaves.  in_span reduces against an rref basis in one pass.  Columns are
ranked on demand by a memoised key, so the key function runs once per
column; only span_in_window orders them by anything but repr.
"""

from __future__ import annotations

from .ncalg import add_term
from .scalars import Scalar


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


def span_witnesses(rows, targets):
    """For each target in the span of rows, a combination {i: c} with
    sum c rows[i] == target; None for a target outside the span.

    rows may be a one-shot iterable: the echelon reads each row once and
    keeps only its reduced rows and their recorded steps."""
    basis, _ = _echelon(rows, _ranker(_default_key))
    out = []
    for t in targets:
        t = dict(t)
        steps = _reduce(t, basis)
        # t + sum s basis[j] is now zero when t is in the span
        out.append(None if t else
                   _unwind(basis, {j: -s for j, s in steps}, {}))
    return out
