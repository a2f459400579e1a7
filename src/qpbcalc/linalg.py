"""Exact linear algebra over the scalar field, on sparse dict vectors.

Vectors are dicts mapping hashable column keys to nonzero Scalars.  rref
returns a canonical reduced basis of the row space, so two spans are equal
iff their rrefs are equal.
"""

from __future__ import annotations

from .ncalg import add_term
from .scalars import Scalar


def vec_add(u, v, c=None):
    out = dict(u)
    for k, a in v.items():
        add_term(out, k, a * c if c is not None else a)
    return out


def vec_scale(u, c):
    if c.is_zero():
        return {}
    return {k: a * c for k, a in u.items()}


def _pivot(v, key):
    return min(v, key=key)


def rref(rows, key=None):
    """Canonical reduced row echelon basis of the span of rows."""
    key = key or _default_key
    pivots = {}
    for row in rows:
        v = dict(row)
        while v:
            p = _pivot(v, key)
            b = pivots.get(p)
            if b is None:
                break
            v = vec_add(v, b, -v[p])
        if not v:
            continue
        p = _pivot(v, key)
        pivots[p] = vec_scale(v, v[p].inverse())
    ps = sorted(pivots, key=key)
    for p in reversed(ps):
        row = pivots[p]
        for p2 in ps:
            if key(p2) >= key(p):
                break
            v2 = pivots[p2]
            c = v2.get(p)
            if c is not None:
                pivots[p2] = vec_add(v2, row, -c)
    return [pivots[p] for p in ps]


def _reduce_vec(v, basis, key):
    for p, b in basis:
        c = v.get(p)
        if c is not None:
            v = vec_add(v, b, -c)
    return v


def _default_key(k):
    return repr(k)


def in_span(rref_basis, v, key=None):
    key = key or _default_key
    pairs = [(_pivot(b, key), b) for b in rref_basis]
    return not _reduce_vec(dict(v), pairs, key)


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
    """Kernel of e_i -> vectors[i]; returns coefficient dicts {i: Scalar}."""
    key = key or _default_key
    basis = []  # (pivot in image cols, image part, coeff part)
    out = []
    for i, v in enumerate(vectors):
        img = dict(v)
        coeff = {i: Scalar.one()}
        for p, b_img, b_coeff in basis:
            c = img.get(p)
            if c is not None:
                img = vec_add(img, b_img, -c)
                coeff = vec_add(coeff, b_coeff, -c)
        if not img:
            out.append(coeff)
            continue
        p = _pivot(img, key)
        inv = img[p].inverse()
        basis.append((p, vec_scale(img, inv), vec_scale(coeff, inv)))
    return out
