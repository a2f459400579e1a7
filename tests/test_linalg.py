"""Exact linear algebra over Q(q): kernel, rref, in_span and span_witnesses.

The rows are sparse dict vectors whose entries are rational functions in q
with non-unit denominators, and some rows are rational combinations of
others, so elimination runs on the rational scalar path.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qpbcalc.linalg import (
    in_span,
    kernel,
    kernel_on,
    rref,
    span_witnesses,
    vec_add,
    vec_scale,
)
from qpbcalc.scalars import Scalar

q = Scalar.param("q")
one = Scalar.one()
POOL = [
    q,
    one / (q + 1),
    (q * q - 1) / (q + 2),
    Scalar.from_fraction(Fraction(2, 3)),
    -(q ** -1),
    (q - 3) / (2 * q + 1),
    Scalar.from_fraction(Fraction(-5, 2)) / (q * q + q + 1),
    1 + q ** 2,
]
COLUMNS = ("a", "b", "c", "d", "e")

entries = st.sampled_from(POOL)
sparse_rows = st.dictionaries(st.sampled_from(COLUMNS), entries,
                              min_size=1, max_size=4)


@st.composite
def row_sets(draw):
    """Free rows followed by rational combinations of them."""
    rows = draw(st.lists(sparse_rows, min_size=1, max_size=4))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        combo = {}
        for row in rows:
            combo = vec_add(combo, row, draw(entries))
        rows.append(combo)
    return rows


def combine(vectors, coeffs):
    out = {}
    for i, c in coeffs.items():
        out = vec_add(out, vectors[i], c)
    return out


@settings(max_examples=60, deadline=None)
@given(row_sets())
def test_kernel_vectors_map_to_zero(rows):
    for combo in kernel(rows):
        assert combo
        assert combine(rows, combo) == {}


@settings(max_examples=60, deadline=None)
@given(row_sets())
def test_kernel_on_is_kernel_keyed_by_the_domain(rows):
    domain = [("x", i) for i in range(len(rows))]
    image = dict(zip(domain, rows))
    # the domain may be a one-shot iterable, as omega_basis is
    got = kernel_on(iter(domain), image.__getitem__)
    assert got == [{domain[i]: c for i, c in combo.items()}
                   for combo in kernel(rows)]
    assert all(set(combo) <= set(domain) for combo in got)
    assert kernel_on([], image.__getitem__) == []


@settings(max_examples=60, deadline=None)
@given(row_sets())
def test_kernel_dimension_is_rows_minus_rank(rows):
    assert len(kernel(rows)) == len(rows) - len(rref(rows))


@settings(max_examples=60, deadline=None)
@given(row_sets(), st.randoms(use_true_random=False), entries)
def test_rref_is_canonical(rows, rnd, c):
    basis = rref(rows)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert rref(shuffled) == basis
    scaled = list(rows)
    k = rnd.randrange(len(rows))
    scaled[k] = vec_scale(scaled[k], c)
    assert rref(scaled) == basis


@settings(max_examples=60, deadline=None)
@given(row_sets(), st.lists(entries, min_size=4, max_size=4), entries)
def test_in_span(rows, coeffs, c):
    basis = rref(rows)
    inside = combine(rows, dict(enumerate(coeffs[:len(rows)])))
    assert in_span(basis, inside)
    # no row has support on column "z"
    outside = vec_add(inside, {"z": c})
    assert not in_span(basis, outside)


def test_in_span_on_a_plane_in_three_columns():
    # span{(1, q, 0), (0, 1/(q+1), 1)}: a plane in Q(q)^3
    r1 = {"a": one, "b": q}
    r2 = {"b": one / (q + 1), "c": one}
    basis = rref([r1, r2])
    assert len(basis) == 2
    assert in_span(basis, vec_add(r1, r2, (q - 1) / q))
    # each would need the coefficient of r1 (read at a) and of r2 (read at
    # c) to produce a different b
    assert not in_span(basis, {"a": one})
    assert not in_span(basis, {"a": one, "b": q, "c": q})
    assert in_span(basis, {"a": one, "b": q + q / (q + 1), "c": q})


# -- the echelon core against the monic Gauss-Jordan it replaced ---------------
#
# The rows below are over Z[q^±1]: a mix of units (signed monomials), which
# the core pivots on, and non-units; some rows have no unit entry at all,
# and some share the polynomial factor 1 + q^2.  kernel and rref must be
# equal to the reference, not merely span the same space.


def reference_vec_add(u, v, c):
    out = dict(u)
    for k, a in v.items():
        b = out.get(k)
        b = a * c if b is None else b + a * c
        if b.is_zero():
            out.pop(k, None)
        else:
            out[k] = b
    return out


def reference_vec_scale(u, c):
    return {k: a * c for k, a in u.items()}


def reference_rref(rows, key=repr):
    pivots = {}
    for row in rows:
        v = dict(row)
        while v:
            p = min(v, key=key)
            b = pivots.get(p)
            if b is None:
                break
            v = reference_vec_add(v, b, -v[p])
        if not v:
            continue
        p = min(v, key=key)
        pivots[p] = reference_vec_scale(v, v[p].inverse())
    ps = sorted(pivots, key=key)
    for p in reversed(ps):
        row = pivots[p]
        for p2 in ps:
            if key(p2) >= key(p):
                break
            c = pivots[p2].get(p)
            if c is not None:
                pivots[p2] = reference_vec_add(pivots[p2], row, -c)
    return [pivots[p] for p in ps]


def reference_kernel(vectors, key=repr):
    basis = []
    out = []
    for i, v in enumerate(vectors):
        img = dict(v)
        coeff = {i: one}
        for p, b_img, b_coeff in basis:
            c = img.get(p)
            if c is not None:
                img = reference_vec_add(img, b_img, -c)
                coeff = reference_vec_add(coeff, b_coeff, -c)
        if not img:
            out.append(coeff)
            continue
        p = min(img, key=key)
        inv = img[p].inverse()
        basis.append((p, reference_vec_scale(img, inv),
                      reference_vec_scale(coeff, inv)))
    return out


def reference_in_span(basis, v, key=repr):
    v = dict(v)
    for b in basis:
        p = min(b, key=key)
        c = v.get(p)
        if c is not None:
            v = reference_vec_add(v, b, -c)
    return not v


UNITS = [one, -one, q, -(q ** -1), Scalar.from_int(2), 3 * q ** 2]
NON_UNITS = [1 + q ** 2, q + 1, q * q - 1, q - 2, (1 + q ** 2) * q,
             2 * q ** -1 + 3, 1 - q ** 3]
FACTOR = 1 + q ** 2

laurent_entries = st.sampled_from(UNITS + NON_UNITS)
unit_free_rows = st.dictionaries(st.sampled_from(COLUMNS),
                                 st.sampled_from(NON_UNITS),
                                 min_size=1, max_size=4)
laurent_rows = st.one_of(
    st.dictionaries(st.sampled_from(COLUMNS), laurent_entries,
                    min_size=1, max_size=4),
    unit_free_rows,
    unit_free_rows.map(lambda r: vec_scale(r, FACTOR)),
)


@st.composite
def laurent_row_sets(draw):
    """Rows over Z[q^±1], then Laurent combinations of them, in a drawn
    order."""
    rows = draw(st.lists(laurent_rows, min_size=1, max_size=5))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        combo = {}
        for row in rows:
            combo = vec_add(combo, row, draw(laurent_entries))
        rows.append(combo)
    return draw(st.permutations(rows))


@settings(max_examples=80, deadline=None)
@given(st.one_of(laurent_row_sets(), row_sets()))
def test_kernel_and_rref_equal_the_reference(rows):
    assert kernel(rows) == reference_kernel(rows)
    assert rref(rows) == reference_rref(rows)


@settings(max_examples=60, deadline=None)
@given(laurent_row_sets(), st.lists(laurent_entries, min_size=5, max_size=5),
       st.sampled_from(COLUMNS + ("z",)), laurent_entries)
def test_in_span_agrees_with_the_reference(rows, coeffs, col, c):
    basis = rref(rows)
    inside = combine(rows, dict(enumerate(coeffs[:len(rows)])))
    for v in (inside, vec_add(inside, {col: c}), {col: c}):
        assert in_span(basis, v) == reference_in_span(basis, v)


@settings(max_examples=60, deadline=None)
@given(st.one_of(laurent_row_sets(), row_sets()),
       st.lists(laurent_entries, min_size=9, max_size=9),
       st.sampled_from(COLUMNS + ("z",)), laurent_entries)
def test_span_witnesses_agree_with_the_reference(rows, coeffs, col, c):
    inside = combine(rows, dict(enumerate(coeffs[:len(rows)])))
    targets = [inside, vec_add(inside, {col: c}), {col: c}, {}]
    got = span_witnesses(rows, targets)
    basis = reference_rref(rows)
    for t, lam in zip(targets, got):
        assert (lam is not None) == reference_in_span(basis, t)
        if lam is not None:
            assert combine(rows, lam) == t
    # a one-shot generator of the rows gives the same witnesses
    assert span_witnesses((dict(r) for r in rows), targets) == got


def test_rows_without_a_unit_entry():
    # every entry is a multiple of 1 + q^2, and no entry is a unit
    r1 = {"a": FACTOR, "b": FACTOR * (q + 1)}
    r2 = {"a": FACTOR * (q - 2), "c": 1 + q ** 2}
    r3 = vec_add(vec_scale(r1, q - 2), r2, -one)
    rows = [r1, r2, r3]
    assert kernel(rows) == reference_kernel(rows)
    assert len(kernel(rows)) == 1
    assert rref(rows) == reference_rref(rows)
