"""Exact linear algebra over Q(q): kernel, rref and in_span.

The rows are sparse dict vectors whose entries are rational functions in q
with non-unit denominators, and some rows are rational combinations of
others, so elimination runs on the rational scalar path.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qpbcalc.linalg import in_span, kernel, rref, vec_add, vec_scale
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
