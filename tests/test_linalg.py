"""Exact linear algebra over Q(q): kernel, rref and span_witnesses, and the
elimination core they share with the residue pass over F_p.

The rows are sparse dict vectors whose entries are rational functions in q
with non-unit denominators, and some rows are rational combinations of
others, so elimination runs on the rational scalar path.  span_witnesses
and the residue pass take flat rows {(column, e): c}; the tests build
their rows as Scalars and convert them with flat().
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qpbcalc import linalg
from qpbcalc.linalg import kernel, kernel_on, rref, span_witnesses
from qpbcalc.ncalg import flat_of
from qpbcalc.scalars import (
    RESIDUE_POINT,
    RESIDUE_PRIME,
    Scalar,
    flat_coeff,
    from_flat,
    monomial_residue,
    residue,
    residue_point,
)

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


def flat(v):
    """The Scalar row v as the flat row that span_witnesses and the
    residue pass take."""
    return flat_of(v, lambda k: k)


def reference_vec_add(u, v, c=one):
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
            combo = reference_vec_add(combo, row, draw(entries))
        rows.append(combo)
    return rows


def combine(vectors, coeffs):
    out = {}
    for i, c in coeffs.items():
        out = reference_vec_add(out, vectors[i], c)
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
    scaled[k] = reference_vec_scale(scaled[k], c)
    assert rref(scaled) == basis


# -- the echelon core against the monic Gauss-Jordan it replaced ---------------
#
# The rows below are over Z[q^±1]: a mix of units (signed monomials), which
# the core pivots on, and non-units; some rows have no unit entry at all,
# and some share the polynomial factor 1 + q^2.  kernel and rref must be
# equal to the reference, not merely span the same space.  reference_rref
# and reference_in_span are also the oracle of span_witnesses.


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


UNITS = [one, -one, q, -(q ** -1), Scalar.from_fraction(2), 3 * q ** 2]
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
    unit_free_rows.map(lambda r: reference_vec_scale(r, FACTOR)),
)


@st.composite
def laurent_row_sets(draw):
    """Rows over Z[q^±1], then Laurent combinations of them, in a drawn
    order."""
    rows = draw(st.lists(laurent_rows, min_size=1, max_size=5))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        combo = {}
        for row in rows:
            combo = reference_vec_add(combo, row, draw(laurent_entries))
        rows.append(combo)
    return draw(st.permutations(rows))


@settings(max_examples=80, deadline=None)
@given(st.one_of(laurent_row_sets(), row_sets()))
def test_kernel_and_rref_equal_the_reference(rows):
    assert kernel(rows) == reference_kernel(rows)
    assert rref(rows) == reference_rref(rows)


# -- the heap reduction against the scan it replaced -------------------------
#
# scan_echelon is the echelon the core ran before it took the pivots a row
# reaches from a heap: each new row is reduced against every earlier basis
# row in order.  ops is the field's arithmetic, written out here: negation,
# product, sum, the zero test, the inverse and the pivot rule.

P = RESIDUE_PRIME
QQ_OPS = (lambda c: -c, lambda a, b: a * b, lambda a, b: a + b,
          Scalar.is_zero, Scalar.inverse,
          lambda row: min([k for k, a in row.items() if a.is_unit()] or row,
                          key=repr))
FP_OPS = (lambda c: P - c, lambda a, b: a * b % P, lambda a, b: (a + b) % P,
          lambda a: a == 0, lambda a: pow(a, -1, P),
          lambda row: min(row, key=repr))


def scan_reduce(row, basis, ops):
    neg, mul, add, is_zero, _, _ = ops
    steps = []
    for j, (p, b, _, _, _) in enumerate(basis):
        c = row.get(p)
        if c is not None:
            c = neg(c)
            for k, a in b.items():
                x = mul(a, c) if k not in row else add(row[k], mul(a, c))
                if is_zero(x):
                    del row[k]
                else:
                    row[k] = x
            steps.append((j, c))
    return steps


def scan_echelon(rows, ops):
    """The records (pivot, row, i, scale, steps) and the dependent rows'
    (i, steps) of the scanning echelon."""
    _, mul, _, _, inverse, pivot = ops
    basis = []
    dependent = []
    for i, v in enumerate(rows):
        row = dict(v)
        steps = scan_reduce(row, basis, ops)
        if not row:
            dependent.append((i, steps))
            continue
        p = pivot(row)
        inv = inverse(row[p])
        basis.append((p, {k: mul(a, inv) for k, a in row.items()}, i, inv,
                      steps))
    return basis, dependent


@settings(max_examples=80, deadline=None)
@given(st.one_of(row_sets(), laurent_row_sets()))
def test_heap_reduction_takes_the_steps_of_the_scan(rows):
    rank = linalg._ranker()
    basis, where, dependent = linalg._echelon(
        rows, linalg._unit_first(rank), linalg._QQ, relations=True)
    assert (basis, dependent) == scan_echelon(rows, QQ_OPS)
    assert where == {b[0]: j for j, b in enumerate(basis)}
    residues = [linalg._residues(flat(r)) for r in rows]
    assume(None not in residues)
    basis, where, dependent = linalg._echelon(
        residues, linalg._lowest(rank), linalg._FP, relations=True)
    assert (basis, dependent) == scan_echelon(residues, FP_OPS)
    assert where == {b[0]: j for j, b in enumerate(basis)}


@settings(max_examples=60, deadline=None)
@given(st.one_of(laurent_row_sets(), row_sets()),
       st.lists(st.one_of(laurent_entries, entries), min_size=9, max_size=9),
       st.sampled_from(COLUMNS + ("z",)), laurent_entries)
def test_span_witnesses_agree_with_the_reference(rows, coeffs, col, c):
    inside = combine(rows, dict(enumerate(coeffs[:len(rows)])))
    targets = [inside, reference_vec_add(inside, {col: c}), {col: c}, {}]
    # the Fraction and rational entries have images at the residue point,
    # so the modular pass finds the rows of the target in the span
    assert all(residue(a) is not None for r in rows for a in r.values())
    flat_rows = [flat(r) for r in rows]
    flat_targets = [flat(t) for t in targets]
    assert linalg._support_mod_p(flat_rows.__getitem__, len(rows),
                                 [flat(inside)]) is not None
    got = span_witnesses(flat_rows.__getitem__, len(rows), flat_targets)
    basis = reference_rref(rows)
    for t, lam in zip(targets, got):
        assert (lam is not None) == reference_in_span(basis, t)
        if lam is not None:
            assert combine(rows, lam) == t
    # building the rows on demand gives the same witnesses
    assert span_witnesses(lambda i: flat(rows[i]), len(rows),
                          flat_targets) == got


# -- span_witnesses: what the modular pass cannot decide, the exact one does

POLE = one / (q - residue_point("q"))         # no image at the residue point
TINY = Scalar.from_fraction(Fraction(1, RESIDUE_PRIME))     # nor has 1/p
PLANE = [{"a": one, "b": q}, {"b": one / (q + 1), "c": one}]
PLANE.append(reference_vec_add(reference_vec_scale(PLANE[0], q), PLANE[1],
                               one / (q + 2)))


def test_span_witnesses_on_a_plane_in_three_columns():
    # span{(1, q, 0), (0, 1/(q+1), 1)}: a plane in Q(q)^3
    rows = PLANE[:2]
    targets = [reference_vec_add(rows[0], rows[1], (q - 1) / q),
               # each would need the coefficient of rows[0] (read at a)
               # and of rows[1] (read at c) to produce a different b
               {"a": one}, {"a": one, "b": q, "c": q},
               {"a": one, "b": q + q / (q + 1), "c": q}]
    got = span_witnesses(lambda i: flat(rows[i]), 2, map(flat, targets))
    assert [lam is not None for lam in got] == [True, False, False, True]
    basis = reference_rref(rows)
    for t, lam in zip(targets, got):
        assert (lam is not None) == reference_in_span(basis, t)
        if lam is not None:
            assert combine(rows, lam) == t


def exact_sizes(monkeypatch):
    """The number of rows of each exact elimination span_witnesses runs."""
    sizes = []
    real = linalg._exact_witnesses

    def spy(rows, targets):
        rows = list(rows)
        sizes.append(len(rows))
        return real(rows, targets)

    monkeypatch.setattr(linalg, "_exact_witnesses", spy)
    return sizes


# -- span_witnesses stops building rows once every target is witnessed --------

LINE_ROWS = PLANE + [{"d": one}, {"e": q}, {"a": one}]


def recording(rows):
    """A row builder over rows, and the list of the indices it was asked
    for, in order."""
    asked = []

    def row(i):
        asked.append(i)
        return flat(rows[i])
    return row, asked


def test_rows_after_the_last_witness_are_never_built():
    rows = LINE_ROWS
    # the first target is reached at row 1 (row 2 depends on rows 0 and
    # 1), the second at row 3, the last one it needs
    targets = [combine(rows, {0: q, 1: one}),
               combine(rows, {3: one / (q + 1)})]
    row, asked = recording(rows)
    got = span_witnesses(row, len(rows), [flat(t) for t in targets])
    for t, lam in zip(targets, got):
        assert combine(rows, lam) == t
    # rows 0 to 3 mod p, then the exact solve on some of them
    assert asked[:4] == [0, 1, 2, 3]
    assert set(asked) == {0, 1, 2, 3}


def test_a_target_outside_the_span_sees_every_row():
    rows = LINE_ROWS
    inside = combine(rows, {1: q, 3: one})
    row, asked = recording(rows)
    got = span_witnesses(row, len(rows), [flat(inside), flat({"z": one})])
    assert got[1] is None
    assert combine(rows, got[0]) == inside
    # every row mod p, then every row in the full exact elimination
    assert asked == list(range(len(rows))) * 2


def test_no_target_builds_no_row():
    row, asked = recording(LINE_ROWS)
    assert span_witnesses(row, len(LINE_ROWS), []) == []
    assert asked == []


def test_residue_is_one_ring_map():
    assert residue(POLE) is None and residue(TINY) is None
    assert residue(q - residue_point("q")) == 0
    assert residue(Scalar.from_fraction(Fraction(2, 3)) / q) == (
        2 * pow(3 * residue_point("q"), -1, RESIDUE_PRIME) % RESIDUE_PRIME)
    # each parameter's value depends on its name alone, whatever other
    # parameters a Scalar has
    assert residue_point("q") == RESIDUE_POINT + ord("q")
    L = Scalar.param("L")
    for x in POOL:
        for y in (L, (q + L) / (L * L + 2), L ** -1 * Fraction(3, 4) + q):
            assert residue(x * y) == residue(x) * residue(y) % RESIDUE_PRIME
            assert residue(x + y) == (residue(x) + residue(y)) % RESIDUE_PRIME


def packed(i, j):
    """The packed exponent of q^i L^j."""
    ((e, _),) = flat_coeff(q ** i * Scalar.param("L") ** j)
    return e


exponents = st.integers(min_value=-6, max_value=6)
flat_terms = st.dictionaries(
    st.one_of(exponents.map(lambda i: (i, 0)),
              st.tuples(exponents, exponents)),
    st.one_of(st.integers(min_value=-50, max_value=50).filter(bool),
              st.fractions(max_denominator=9).filter(
                  lambda f: f.denominator > 1).map(Scalar.from_fraction)),
    max_size=6)


@settings(max_examples=100, deadline=None)
@given(flat_terms)
def test_flat_residues_are_the_ring_map(terms):
    # one- and two-parameter Laurent terms with negative exponents, some
    # of them carrying a Fraction Scalar
    pairs = [(packed(i, j), c) for (i, j), c in terms.items()]
    for e, _ in pairs:
        assert monomial_residue(e) == residue(from_flat(((e, 1),)))
    r = residue(from_flat(pairs)) if pairs else 0
    assert linalg._residues({("a", e): c for e, c in pairs}) == (
        {"a": r} if r else {})
    # a carried Scalar without an image at the residue point has none there
    for bad in (POLE, TINY):
        row = {("a", e): c for e, c in pairs}
        row["b", packed(-1, 1)] = bad
        assert linalg._residues(row) is None


@pytest.mark.parametrize("entry", [POLE, TINY])
@pytest.mark.parametrize("where", ["row", "target"])
def test_an_entry_without_a_residue_takes_the_exact_path(monkeypatch, entry,
                                                        where):
    rows = PLANE + [{"d": one}]
    if where == "row":
        rows[3] = {"c": q, "d": entry}
    inside = combine(rows, {0: q, 2: one / (q + 2), 3: entry})
    sizes = exact_sizes(monkeypatch)
    got = span_witnesses(lambda i: flat(rows[i]), len(rows),
                         [flat(inside), flat({"z": one})])
    assert combine(rows, got[0]) == inside and got[1] is None
    # one elimination, of every row
    assert sizes == [len(rows)]


def test_a_wrong_support_falls_back_to_the_exact_elimination(monkeypatch):
    rows = PLANE + [reference_vec_add(PLANE[0], PLANE[1], q)]
    targets = [combine(rows, {1: q, 2: one}), {"a": q}]
    want = linalg._exact_witnesses(rows, targets)
    monkeypatch.setattr(linalg, "_support_mod_p",
                        lambda row, n, targets: [0])
    sizes = exact_sizes(monkeypatch)
    got = span_witnesses(lambda i: flat(rows[i]), len(rows),
                         [flat(t) for t in targets])
    assert got == want
    assert combine(rows, got[0]) == targets[0] and got[1] is None
    # the rows guessed, then every row
    assert sizes == [1, len(rows)]


@pytest.mark.parametrize("target, sizes_wanted", [
    # outside the span at the residue point too: no rows are guessed
    ({"a": one, "c": one}, [3]),
    # inside it there, by q - c vanishing: rows are guessed and fail
    ({"a": one, "b": q, "d": q - residue_point("q")}, [1, 3]),
])
def test_a_target_outside_the_span_is_none_through_the_exact_path(
        monkeypatch, target, sizes_wanted):
    sizes = exact_sizes(monkeypatch)
    assert span_witnesses(lambda i: flat(PLANE[i]), 3,
                          [flat(target)]) == [None]
    assert sizes == sizes_wanted


def test_rows_without_a_unit_entry():
    # every entry is a multiple of 1 + q^2, and no entry is a unit
    r1 = {"a": FACTOR, "b": FACTOR * (q + 1)}
    r2 = {"a": FACTOR * (q - 2), "c": 1 + q ** 2}
    r3 = reference_vec_add(reference_vec_scale(r1, q - 2), r2, -one)
    rows = [r1, r2, r3]
    assert kernel(rows) == reference_kernel(rows)
    assert len(kernel(rows)) == 1
    assert rref(rows) == reference_rref(rows)
