"""Exact linear algebra over the scalar field, on sparse dict vectors.

Vectors are dicts mapping hashable column keys to nonzero Scalars.  rref
returns a canonical reduced basis of the row space, so two spans are equal
iff their rrefs are equal.

kernel and rref share one echelon core (_echelon).  It keeps the rows in
insertion order, reduces each new row in place against the earlier pivot
rows and scales it to 1 at its own pivot, so one pass reduces a vector.
It pivots on a unit (a Laurent monomial) whenever the row has one, so rows
of Laurent polynomials mostly stay off the rational-function path.  The
kernel it gives does not depend on the pivots, and rref runs its keyed
canonical Gauss-Jordan only on the independent rows the core leaves.
in_span reduces against an rref basis in one pass.  Column keys are ranked
once per call, so the key function runs once per column.
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


def _ranks(rows, key):
    """Column -> position in key order, over every column of rows; key is
    evaluated once per column."""
    cols = {k for row in rows for k in row}
    return {k: r for r, k in enumerate(sorted(cols, key=key))}


def _echelon(rows, rank, track=False):
    """Insertion-order echelon form of rows.

    Returns (basis, relations).  basis holds (pivot, row, combo) for each
    row independent of the rows before it: row is that row reduced against
    the earlier pivots and scaled to 1 at its pivot, and combo (with track)
    gives row as a combination of the input rows.  The pivot is the
    lowest-ranked column with a unit coefficient, or the lowest-ranked
    column when there is none.  With track, relations holds, for each
    dependent row i, the combination that sends it to zero."""
    basis = []
    relations = []
    for i, v in enumerate(rows):
        row = dict(v)
        combo = {i: Scalar.one()} if track else None
        for p, b, b_combo in basis:
            c = row.get(p)
            if c is not None:
                c = -c
                _axpy(row, b, c)
                if track:
                    _axpy(combo, b_combo, c)
        if not row:
            if track:
                relations.append(combo)
            continue
        units = [k for k, a in row.items() if a.is_unit()]
        p = min(units or row, key=rank.__getitem__)
        inv = row[p].inverse()
        row = {k: a * inv for k, a in row.items()}
        if track:
            combo = {k: a * inv for k, a in combo.items()}
        basis.append((p, row, combo))
    return basis, relations


def rref(rows, key=None):
    """Canonical reduced row echelon basis of the span of rows."""
    rank = _ranks(rows, key or _default_key)
    basis, _ = _echelon(rows, rank)
    # keyed Gauss-Jordan on the independent rows: the pivot of each row is
    # its lowest-ranked column, made 1 and cleared from every other row
    pivots = {}
    for _, row, _ in basis:
        while row:
            p = min(row, key=rank.__getitem__)
            b = pivots.get(p)
            if b is None:
                break
            _axpy(row, b, -row[p])
        if row:
            pivots[p] = vec_scale(row, row[p].inverse())
    ps = sorted(pivots, key=rank.__getitem__)
    # back substitution from the last pivot, whose row is already clear of
    # every later pivot
    for j in range(len(ps) - 1, 0, -1):
        b = pivots[ps[j]]
        for p2 in ps[:j]:
            c = pivots[p2].get(ps[j])
            if c is not None:
                _axpy(pivots[p2], b, -c)
    return [pivots[p] for p in ps]


def in_span(rref_basis, v, key=None):
    """Whether v lies in the span of a basis that rref returned."""
    rank = _ranks(rref_basis, key or _default_key)
    v = dict(v)
    # each basis row is zero at the other rows' pivots, so one pass in row
    # order reduces v
    for b in rref_basis:
        p = min(b, key=rank.__getitem__)
        c = v.get(p)
        if c is not None:
            _axpy(v, b, -c)
    return not v


def span_equal(rows_a, rows_b, key=None):
    return rref(rows_a, key) == rref(rows_b, key)


def span_in_window(rows, in_window, key=None):
    """Canonical basis of span(rows) intersected with the coordinate
    subspace supported on in-window columns.

    Eliminating with out-of-window columns ordered first leaves the
    in-window pivot rows free of out-of-window support."""
    key = key or _default_key
    ordered = lambda k: (0 if not in_window(k) else 1, key(k))
    basis = rref(rows, key=ordered)
    inside = [r for r in basis if all(in_window(k) for k in r)]
    return rref(inside, key=key)


def kernel(vectors, key=None):
    """Kernel of e_i -> vectors[i]; returns coefficient dicts {i: Scalar}.

    There is one vector for each i whose vector depends on the earlier
    ones: the relation with coefficient 1 at i supported on i and the
    earlier independent indices.  It is unique, so the pivots chosen do not
    change it."""
    _, relations = _echelon(vectors, _ranks(vectors, key or _default_key),
                            track=True)
    return relations
