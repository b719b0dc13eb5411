"""Tests for the guarded integer kernels, chiefly exact_matmul's dispatch.

exact_matmul has a gather path for factors, square or not, with few
nonzeros per row (the diagonal is its r <= 1 case) and a dense path;
prepared_matmul picks between the same paths for a prepared left factor.
The fixed cases below pin each branch of the gather; the property tests
compare every path with the dense product on Python ints, and the last
tests rerun whole reports with the gather switched off.
"""

import itertools
import json
import random
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terwalg import _intops, echelon
from terwalg._intops import INT64_SAFE, exact_matmul
from terwalg.graphs import parse_graph_file
from terwalg.verify import build_graph_report, run_verification


def reference(a, b):
    """The dense product on Python ints."""
    return np.dot(a.astype(object), b.astype(object))


def assert_exact(a, b):
    got = exact_matmul(a, b)
    want = reference(a, b)
    assert got.shape == want.shape
    assert all(int(g) == int(w) for g, w in zip(got.flat, want.flat))
    return got


def diag(values):
    return np.diag(np.array(values, dtype=np.int64))


def dense(rng, rows, cols, lo=-9, hi=9):
    return np.array(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    )


def test_max_abs_is_exact_on_extreme_and_object_entries():
    top = INT64_SAFE - 1
    for size in (1, 2, 20_000):
        for big, small in ((top, -5), (5, -top), (top, -top), (-3, -top), (top, 7)):
            arr = np.zeros(size, dtype=np.int64)
            arr[0] = small
            arr[-1] = big
            want = max(abs(big), abs(small)) if size > 1 else abs(big)
            assert _intops.max_abs(arr) == want
            assert type(_intops.max_abs(arr)) is int
            assert _intops.max_abs(arr.reshape(1, -1)) == want
            assert _intops.max_abs(arr.astype(object)) == want
        obj = np.zeros(size, dtype=object)
        obj[-1] = -(2**80)
        if size > 1:
            obj[0] = 2**70
        assert _intops.max_abs(obj) == 2**80
    for empty in (np.zeros(0, dtype=np.int64), np.zeros((0, 5), dtype=object)):
        assert _intops.max_abs(empty) == 0


# -- the one int64/object dispatch ---------------------------------------------


def _recording(fn):
    """fn, recording the dtypes of the operands of each call."""
    seen = []

    def wrapped(*operands):
        seen.append(tuple(a.dtype for a in operands))
        return fn(*operands)

    return wrapped, seen


def test_guarded_takes_int64_under_the_bound_and_python_ints_at_it():
    a = np.array([[3, -4], [5, 0]], dtype=np.int64)
    b = np.array([[-1, 2], [7, 1]], dtype=np.int64)
    for bound, kind in ((0, np.int64), (INT64_SAFE - 1, np.int64), (INT64_SAFE, object)):
        fn, seen = _recording(np.add)
        got = _intops.guarded(bound, fn, a, b)
        assert seen == [(kind, kind)], bound
        # A small result on Python ints is demoted back to int64.
        assert got.dtype == np.int64 and np.array_equal(got, a + b), bound
    fn, seen = _recording(np.add)
    _intops.guarded(INT64_SAFE + 1, fn, a, b)
    assert seen == [(object, object)]


def test_guarded_object_operand_forces_python_ints():
    a = np.array([1, 2, 3], dtype=np.int64)
    for b in (np.array([4, 5, 6], dtype=object), np.array([2**70, 1, 0], dtype=object)):
        for operands in ((a, b), (b, a)):
            fn, seen = _recording(np.multiply)
            got = _intops.guarded(0, fn, *operands)
            assert seen == [(object, object)]
            want = [int(u) * int(v) for u, v in zip(a, b)]
            assert [int(v) for v in got] == want
            assert got.dtype == (np.int64 if max(map(abs, want)) < INT64_SAFE else object)
    # Every operand is lifted to Python ints, not only the object one.
    entry_types = []
    _intops.guarded(0, lambda x, y: entry_types.extend(map(type, x.flat)) or x, a, b)
    assert entry_types == [int, int, int]


def test_guarded_demotes_tuple_results_one_by_one():
    a = np.array([[1 << 40, 3], [-(1 << 40), 5]], dtype=np.int64)

    def sums_and_square(x):
        return x.sum(axis=0), x.sum(axis=1), x * x

    cols, rows, square = _intops.guarded(INT64_SAFE, sums_and_square, a)
    assert cols.dtype == rows.dtype == np.int64
    assert square.dtype == object  # (2^40)^2 = 2^80 does not fit
    assert [int(v) for v in cols] == [0, 8]
    assert [int(v) for v in rows] == [(1 << 40) + 3, -(1 << 40) + 5]
    assert [int(v) for v in square.flat] == [int(v) ** 2 for v in a.flat]
    # Under the bound the tuple is returned as fn made it.
    small = np.array([[1, 2]], dtype=np.int64)
    out = _intops.guarded(2, lambda x: (x, x.sum()), small)
    assert out[0] is small and out[1] == 3


def test_guarded_exact_runs_on_the_operands_as_they_stand():
    a = np.array([1, 2], dtype=np.int64)
    fast, fast_seen = _recording(np.add)
    exact, exact_seen = _recording(lambda x, y: (x - y).astype(object))
    assert _intops.guarded(INT64_SAFE - 1, fast, a, a, exact=exact).dtype == np.int64
    assert fast_seen == [(np.int64, np.int64)] and exact_seen == []
    got = _intops.guarded(INT64_SAFE, fast, a, a, exact=exact)
    assert fast_seen == [(np.int64, np.int64)] and exact_seen == [(np.int64, np.int64)]
    assert got.dtype == object  # returned as exact made it, not demoted
    _intops.guarded(0, fast, a, a.astype(object), exact=exact)
    assert exact_seen[-1] == (np.int64, object)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(2**64), 2**64), min_size=1, max_size=6),
    st.integers(-(2**64), 2**64),
    st.booleans(),
)
def test_guarded_results_equal_python_int_references(values, k, as_object):
    # Each kernel states its bound and goes through guarded; whichever path
    # it takes, the values are the Python-int ones, and an int64 result
    # never holds a value at or past the bound.
    if not as_object and all(abs(v) < INT64_SAFE for v in values):
        arr = np.array(values, dtype=np.int64)
    else:
        arr = np.array(values, dtype=object)
    other = arr[::-1].copy()
    for got, want in (
        (_intops.exact_add(arr, other), [u + v for u, v in zip(values, values[::-1])]),
        (_intops.exact_sub(arr, other), [u - v for u, v in zip(values, values[::-1])]),
        (_intops.exact_mul_elementwise(arr, other), [u * v for u, v in zip(values, values[::-1])]),
        (_intops.exact_scale(arr, k), [u * k for u in values]),
    ):
        assert [int(v) for v in got] == want
        if got.dtype != object:
            assert got.dtype == np.int64 and max(map(abs, want)) < INT64_SAFE


def test_only_intops_and_echelon_name_the_int64_bound():
    # Every other module states its bound and hands it to _intops.guarded.
    src = Path(__file__).resolve().parents[1] / "src" / "terwalg"
    naming = set()
    for path_ in sorted(src.glob("*.py")):
        with open(path_, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME and tok.string == "INT64_SAFE":
                    naming.add(path_.name)
    assert naming == {"_intops.py", "echelon.py"}


def test_diagonal_left_right_both_and_neither():
    rng = random.Random(1)
    d4 = diag([3, 0, -2, 7])
    d4b = diag([1, -5, 0, 2])
    m = dense(rng, 4, 4)
    assert_exact(d4, dense(rng, 4, 3))  # left
    assert_exact(dense(rng, 3, 4), d4)  # right
    both = assert_exact(d4, d4b)
    assert np.array_equal(both, diag([3, 0, 0, 14]))
    assert_exact(m, dense(rng, 4, 4))  # neither
    assert_exact(m, m)


def test_zero_matrix_is_a_diagonal_factor():
    rng = random.Random(2)
    z = np.zeros((3, 3), dtype=np.int64)
    assert not assert_exact(z, dense(rng, 3, 5)).any()
    assert not assert_exact(dense(rng, 2, 3), z).any()
    assert not assert_exact(z, z).any()


def test_degenerate_shapes():
    rng = random.Random(3)
    one = np.array([[5]], dtype=np.int64)
    assert_exact(one, dense(rng, 1, 4))
    assert_exact(dense(rng, 3, 1), one)
    assert_exact(one, one)
    empty = np.zeros((0, 0), dtype=np.int64)
    assert exact_matmul(empty, np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)
    assert exact_matmul(np.zeros((2, 0), dtype=np.int64), empty).shape == (2, 0)
    assert exact_matmul(empty, empty).shape == (0, 0)
    assert_exact(dense(rng, 2, 3), dense(rng, 3, 4))  # non-square, no diagonal


def test_vector_operands():
    rng = random.Random(4)
    d3 = diag([2, -1, 4])
    v = np.array([7, 8, -9], dtype=np.int64)
    assert assert_exact(d3, v).shape == (3,)
    assert assert_exact(v, d3).shape == (3,)
    assert_exact(dense(rng, 3, 3), v)
    assert_exact(v, dense(rng, 3, 2))


def test_shape_mismatch_still_raises():
    # A 1 x 4 operand would broadcast against a 3 x 3 diagonal; it must not.
    with pytest.raises(ValueError):
        exact_matmul(diag([1, 2, 3]), np.ones((1, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        exact_matmul(np.ones((4, 1), dtype=np.int64), diag([1, 2, 3]))


def test_products_across_the_int64_bound_stay_exact():
    # Entries near 2**31 give products near 2**62, past INT64_SAFE.
    base = 1 << 31
    rng = random.Random(5)
    big = [base + rng.randint(0, 1 << 20) for _ in range(4)]
    d4 = diag(big)
    m = np.array(
        [[base + rng.randint(0, 1 << 20) for _ in range(4)] for _ in range(4)],
        dtype=np.int64,
    )
    for a, b in ((d4, m), (m, d4), (d4, d4), (m, m)):
        got = assert_exact(a, b)
        assert max(abs(int(v)) for v in got.flat) >= INT64_SAFE
        assert got.dtype == object
    # Object operands take the same dispatch and stay exact.
    assert_exact(d4.astype(object) * (1 << 40), m)


def test_scale_by_a_factor_past_int64():
    # A zero int64 array once went to numpy with the wide factor and raised.
    for a in (np.zeros((2, 3), dtype=np.int64), np.array([[0, 1], [-2, 0]])):
        for k in (INT64_SAFE, -(2**70), 2**63 + 5):
            got = _intops.exact_scale(a, k)
            assert [int(v) for v in got.flat] == [int(v) * k for v in a.flat]
    assert _intops.exact_scale(np.zeros(2, dtype=np.int64), 2**70).dtype == np.int64


def test_small_products_stay_int64():
    rng = random.Random(6)
    assert exact_matmul(diag([1, 2, 3]), dense(rng, 3, 3)).dtype == np.int64
    assert exact_matmul(dense(rng, 3, 3), diag([1, 2, 3])).dtype == np.int64


@st.composite
def operands(draw):
    """A pair of compatible matrices, each diagonal or dense at random."""
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    entries = st.one_of(
        st.integers(-50, 50),
        st.integers((1 << 31) - 64, (1 << 31) + 64),
        st.integers(-(1 << 62), 1 << 62),
    )

    def matrix(r, c, may_be_diagonal):
        if may_be_diagonal and r == c and draw(st.booleans()):
            return np.diag(np.array(draw(st.lists(entries, min_size=r, max_size=r)), dtype=object))
        flat = draw(st.lists(entries, min_size=r * c, max_size=r * c))
        return np.array(flat, dtype=object).reshape(r, c)

    a = matrix(rows, inner, True)
    b = matrix(inner, cols if draw(st.booleans()) else inner, True)
    return [m if draw(st.booleans()) else _maybe_int64(m) for m in (a, b)]


def _maybe_int64(m):
    if all(abs(int(v)) < INT64_SAFE for v in m.flat):
        return m.astype(np.int64)
    return m


@settings(max_examples=150, deadline=None)
@given(operands())
def test_dispatch_matches_dense_product(pair):
    a, b = pair
    assert_exact(a, b)


# -- the gather path ----------------------------------------------------------


def cube_adjacency(d):
    """Adjacency matrix of Q_d: d ones in every row."""
    n = 1 << d
    a = np.zeros((n, n), dtype=np.int64)
    for k in range(d):
        a[np.arange(n), np.arange(n) ^ (1 << k)] = 1
    return a


def gathers(a, b):
    """Whether exact_matmul(a, b) takes the gather path."""
    return _intops._gather_product(a, b) is not None


def test_regular_unit_rows_gather_without_multiply():
    rng = random.Random(7)
    a = cube_adjacency(5)
    cols, vals, unit = _intops._row_structure(a)
    assert cols.shape == (32, 5) and unit
    b = dense(rng, 32, 32)
    assert gathers(a, b) and gathers(b, a)
    assert_exact(a, b)
    assert_exact(b, a)
    assert_exact(a, a)


def test_uneven_rows_are_padded_and_still_multiplied():
    # 0/1 rows of different lengths: padded slots gather row 0, so the
    # multiply must stay even though every stored value is 1.
    rng = random.Random(8)
    a = cube_adjacency(5)
    a[0] = 0
    a[3, :] = 0
    a[3, 7] = 1
    a[9, 30] = 0
    cols, vals, unit = _intops._row_structure(a)
    assert cols.shape == (32, 5) and not unit
    b = dense(rng, 32, 6, lo=1, hi=9)  # row 0 has no zero to hide a bad pad
    assert gathers(a, b)
    got = assert_exact(a, b)
    assert not got[0].any()
    assert_exact(dense(rng, 6, 32, lo=1, hi=9), a)
    assert_exact(a.T.copy(), b)


def test_signed_adjacency_minus_theta_identity():
    rng = random.Random(9)
    a = cube_adjacency(5) - 3 * np.eye(32, dtype=np.int64)
    assert not _intops._row_structure(a)[2]
    b = dense(rng, 32, 32)
    assert gathers(a, b) and gathers(b, a)
    assert_exact(a, b)
    assert_exact(b, a)


def skew_sparse(n, rng):
    """A square matrix with three nonzeros per row and per column, not symmetric."""
    m = np.zeros((n, n), dtype=np.int64)
    for shift, lo in ((1, 1), (5, -7), (n - 2, 2)):
        m[np.arange(n), (np.arange(n) + shift) % n] = [rng.randint(lo, 9) or 1 for _ in range(n)]
    return m


def test_sparse_right_factor():
    rng = random.Random(10)
    s = skew_sparse(32, rng)
    assert not np.array_equal(s, s.T)
    for rows in (1, 5, 32, 40):
        a = dense(rng, rows, 32)
        assert gathers(a, s)
        assert_exact(a, s)
    # A diagonal on the right scales columns, not rows.
    got = assert_exact(dense(rng, 3, 4), diag([1, 2, 3, 4]))
    assert got.shape == (3, 4)


def test_vectors_on_either_side():
    rng = random.Random(11)
    for s in (cube_adjacency(5), skew_sparse(32, rng)):
        v = np.array([rng.randint(-9, 9) for _ in range(32)], dtype=np.int64)
        assert gathers(s, v) and gathers(v, s)
        assert assert_exact(s, v).shape == (32,)
        assert assert_exact(v, s).shape == (32,)


def test_object_operands_gather_and_demote():
    rng = random.Random(12)
    a = cube_adjacency(5)
    s = skew_sparse(32, rng)
    b = dense(rng, 32, 32)
    small = assert_exact(a.astype(object), b)
    assert small.dtype == np.int64  # fits, so the object result is demoted
    assert gathers(a.astype(object), b)
    huge = b.astype(object) * (1 << 70)
    assert assert_exact(a, huge).dtype == object
    assert assert_exact(huge, s.astype(object)).dtype == object
    assert assert_exact(s.astype(object) * (1 << 64), b[:, 0]).dtype == object


def test_gather_threshold_boundary():
    # Eight nonzeros per row: 4·8 = 32 gathers at side 32; side 31 is dense.
    rng = random.Random(13)
    for n, expect in ((32, True), (31, False)):
        m = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            m[i, rng.sample(range(n), 8)] = [rng.randint(1, 9) for _ in range(8)]
        b = dense(rng, n, n)
        assert gathers(m, b) is expect
        assert gathers(b, m.T.copy()) is expect
        assert_exact(m, b)
        assert_exact(b, m.T.copy())
    # At most one nonzero per row always gathers, whatever the side.
    perm = np.eye(3, dtype=np.int64)[[2, 0, 1]] * 5
    assert gathers(perm, dense(rng, 3, 3))
    assert_exact(perm, dense(rng, 3, 3))


def test_bound_uses_row_count_not_side(monkeypatch):
    # 32·2**58 = 2**63 would fail a side-based bound; 5·2**58 < 2**62 holds,
    # so the product never leaves int64 (an object detour would be demoted
    # back, so it is caught here instead of by the result's dtype).
    def no_object(arr):
        raise AssertionError("object path taken")

    monkeypatch.setattr(_intops, "to_object", no_object)
    a = cube_adjacency(5)
    b = np.full((32, 4), 1 << 58, dtype=np.int64)
    b[::3] = -(1 << 58) + 17
    assert 32 * (1 << 58) >= INT64_SAFE > 5 * (1 << 58)
    got = assert_exact(a, b)
    assert got.dtype == np.int64
    got = assert_exact(b.T.copy(), a)
    assert got.dtype == np.int64


def test_bound_crossing_row_count_goes_to_object():
    # One entry is below INT64_SAFE, but five of them in a row sum past 2**63.
    a = cube_adjacency(5)
    b = np.full((32, 3), (1 << 61) + 5, dtype=np.int64)
    got = assert_exact(a, b)
    assert got.dtype == object
    assert int(got[0, 0]) == 5 * ((1 << 61) + 5)
    got = assert_exact(b.T.copy(), a)
    assert got.dtype == object
    got = assert_exact(diag([3] * 32), b)
    assert got.dtype == object


@st.composite
def sparse_operands(draw):
    """A square factor of side 8-40 with row density up to 1/2, and a partner."""
    n = draw(st.integers(8, 40))
    density = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5]))
    rng = random.Random(draw(st.integers(0, 1 << 30)))
    magnitude = draw(st.sampled_from([9, 1 << 31, 1 << 61, 1 << 80]))
    values = draw(st.sampled_from(["unit", "signed"]))

    def entry():
        if values == "unit":
            return 1
        return rng.choice([-1, 1]) * rng.randint(1, magnitude)

    sparse = [[entry() if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["square", "wide", "vector"]))
    cols = {"square": n, "wide": draw(st.integers(1, 12)), "vector": None}[shape]
    other_rows = [
        [rng.randint(-magnitude, magnitude) for _ in range(cols or 1)] for _ in range(n)
    ]
    sparse = np.array(sparse, dtype=object)
    other = np.array(other_rows, dtype=object)
    if cols is None:
        other = other[:, 0]
    if draw(st.booleans()):
        sparse, other = _maybe_int64(sparse), _maybe_int64(other)
    if draw(st.booleans()):
        return sparse, other
    return other.T.copy(), sparse.T.copy()


@settings(max_examples=150, deadline=None)
@given(sparse_operands())
def test_gather_matches_dense_product(pair):
    a, b = pair
    assert_exact(a, b)


# -- rectangular factors and prepared left factors ---------------------------


def rect_sparse(rng, n, w, r, values="signed", magnitude=9, empty_rows=0):
    """An n x w matrix with at most r nonzeros in a row and exactly r in
    row 0 (when n > empty_rows); the last empty_rows rows are zero."""
    m = np.zeros((n, w), dtype=object)
    for i in range(n - empty_rows):
        k = r if i == 0 else rng.randint(0, r)
        for c in rng.sample(range(w), k):
            m[i, c] = 1 if values == "unit" else rng.choice([-1, 1]) * rng.randint(1, magnitude)
    return _maybe_int64(m)


def rebuilt(structure, shape):
    """The matrix a row structure stands for, padded slots included."""
    cols, vals, _unit = structure
    m = np.zeros(shape, dtype=object)
    for i in range(cols.shape[0]):
        for c, v in zip(cols[i], vals[i]):
            m[i, c] += int(v)
    return m


def test_rectangular_row_structure():
    rng = random.Random(14)
    # Tall and wide, unit and signed, with padded and empty rows.
    for n, w, r, values, empty in (
        (40, 8, 2, "unit", 0),
        (5, 60, 15, "signed", 2),
        (17, 12, 3, "unit", 5),
        (9, 1, 1, "signed", 3),
        (3, 2, 1, "unit", 0),
    ):
        m = rect_sparse(rng, n, w, r, values, empty_rows=empty)
        structure = _intops._row_structure(m)
        assert structure is not None and structure[0].shape == (n, r)
        assert np.array_equal(rebuilt(structure, (n, w)), m.astype(object))
        counts = (m != 0).sum(axis=1)
        assert structure[2] == bool((counts == r).all() and (m[m != 0] == 1).all())
    # A zero factor has r = 0: an empty structure, and a zero product.
    z = np.zeros((4, 7), dtype=np.int64)
    assert _intops._row_structure(z)[0].shape == (4, 0)
    assert not assert_exact(z, dense(rng, 7, 3)).any()
    assert not assert_exact(dense(rng, 3, 4), z).any()
    assert _intops._row_structure(np.zeros((0, 5), dtype=np.int64)) is None


def test_rectangular_gather_threshold_is_the_inner_width():
    # Two nonzeros per row gather at width 8 = 4·2, not at width 7, for any
    # number of rows; as a right factor the count is per column.
    rng = random.Random(15)
    for n in (3, 8, 50):
        for w, expect in ((8, True), (7, False)):
            m = rect_sparse(rng, n, w, 2)
            b = dense(rng, w, 5)
            assert (_intops._row_structure(m) is not None) is expect
            assert gathers(m, b) is expect
            assert gathers(dense(rng, 4, w), m.T.copy()) is expect
            assert_exact(m, b)
            assert_exact(dense(rng, 4, w), m.T.copy())
    # At most one nonzero per row gathers at every width.
    for w in (1, 2, 3):
        m = rect_sparse(rng, 6, w, 1, empty_rows=2)
        assert gathers(m, dense(rng, w, 4))
        assert_exact(m, dense(rng, w, 4))


def test_rectangular_bound_across_int64(monkeypatch):
    # Five nonzeros in a row of width 20: the bound is 5·max|S|·max|B|, not
    # 20·max|S|·max|B|.  Just under INT64_SAFE the product stays int64 with
    # no object detour; past it the gather runs on Python ints.
    rng = random.Random(16)
    s = rect_sparse(rng, 12, 20, 5, values="unit")
    under = INT64_SAFE // 5 - 1
    b = np.full((20, 3), under, dtype=np.int64)
    b[::4] = -under
    real_to_object = _intops.to_object

    def no_object(arr):
        raise AssertionError("object path taken")

    monkeypatch.setattr(_intops, "to_object", no_object)
    assert 20 * under >= INT64_SAFE
    assert assert_exact(s, b).dtype == np.int64
    assert assert_exact(b.T.copy(), s.T.copy()).dtype == np.int64
    monkeypatch.setattr(_intops, "to_object", real_to_object)
    over = b.copy()
    over[:, :] = INT64_SAFE // 5 + 1
    got = assert_exact(s, over)
    assert got.dtype == object and max(abs(int(v)) for v in got.flat) >= INT64_SAFE
    assert assert_exact(over.T.copy(), s.T.copy()).dtype == object


@st.composite
def rectangular_operands(draw):
    """A row-sparse n x w factor that qualifies for the gather, and a
    partner, as the left factor or (transposed) as the right one."""
    n = draw(st.integers(1, 24))
    w = draw(st.integers(1, 48))
    r = draw(st.integers(0, max(1, w // 4)))
    rng = random.Random(draw(st.integers(0, 1 << 30)))
    values = draw(st.sampled_from(["unit", "signed"]))
    magnitude = draw(st.sampled_from([9, 1 << 31, 1 << 61, 1 << 80]))
    empty = draw(st.integers(0, n - 1))
    sparse = rect_sparse(rng, n, w, r, values, magnitude, empty_rows=empty)
    cols = draw(st.sampled_from([None, 1, 3, 10]))
    other = np.array(
        [[rng.randint(-magnitude, magnitude) for _ in range(cols or 1)] for _ in range(w)],
        dtype=object,
    )
    other = _maybe_int64(other if cols else other[:, 0])
    if draw(st.booleans()):
        sparse = sparse.astype(object)
    if draw(st.booleans()):
        return sparse, other
    return other.T.copy(), sparse.T.copy()


@settings(max_examples=200, deadline=None)
@given(rectangular_operands())
def test_rectangular_gather_matches_dense_product(pair):
    a, b = pair
    assert gathers(a, b)
    assert_exact(a, b)


def test_prepared_matmul_takes_each_path_by_its_bound(monkeypatch):
    rng = random.Random(17)
    calls = {"gather": 0, "fallback": 0}
    real_gather, real_matmul = _intops._gather, _intops.exact_matmul

    def gather(*args):
        calls["gather"] += 1
        return real_gather(*args)

    def fallback(a, b):
        calls["fallback"] += 1
        return real_matmul(a, b)

    monkeypatch.setattr(_intops, "_gather", gather)
    monkeypatch.setattr(_intops, "exact_matmul", fallback)

    def product(m, x):
        before = dict(calls)
        got = _intops.prepared_matmul(_intops.prepare_left(m), x, _intops.max_abs(x))
        want = reference(m, x)
        assert got.shape == want.shape
        assert all(int(g) == int(v) for g, v in zip(got.flat, want.flat))
        return got, {k: calls[k] - before[k] for k in calls}

    sparse = rect_sparse(rng, 10, 24, 3, values="unit")  # r = 3, w = 24
    full = dense(rng, 10, 24, lo=1, hi=1)  # every entry 1: w = 24
    cases = (
        (sparse, INT64_SAFE // 3 - 1, np.int64, {"gather": 1, "fallback": 0}),
        (sparse, INT64_SAFE // 3 + 1, object, {"gather": 1, "fallback": 1}),
        (full, INT64_SAFE // 24 - 1, np.int64, {"gather": 0, "fallback": 0}),
        (full, INT64_SAFE // 24 + 1, object, {"gather": 0, "fallback": 1}),
    )
    for m, entry, dtype, path in cases:
        x = np.full((24, 4), entry, dtype=np.int64)
        got, taken = product(m, x)
        assert got.dtype == dtype and taken == path
    # An object operand falls back whatever its size, and the result is the
    # object path's.
    small = dense(rng, 24, 4)
    for m in (sparse, full):
        _got, taken = product(m.astype(object), small)
        assert taken["fallback"] == 1
        _got, taken = product(m, small.astype(object))
        assert taken["fallback"] == 1


# -- whole reports with the gather switched off --------------------------------


def _kneser_5_2_edges():
    pairs = list(itertools.combinations(range(5), 2))
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(pairs)), 2)
        if not set(pairs[i]) & set(pairs[j])
    ]


def _edge_list_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _reports():
    q4 = [(u, u ^ (1 << k)) for u in range(16) for k in range(4) if u < u ^ (1 << k)]
    graphs = [
        parse_graph_file(_edge_list_text(10, _kneser_5_2_edges())),
        parse_graph_file(_edge_list_text(16, q4)),
    ]
    texts = [run_verification(5, vertex=3).to_json()]
    for g in graphs:
        data, all_ok = build_graph_report(g, 3)
        texts.append(json.dumps(data, sort_keys=True, indent=2) + f"\n{all_ok}\n")
    return texts


def test_reports_identical_without_the_gather(monkeypatch):
    # Every gather, in exact_matmul and in the closure's prepared blocks,
    # starts from a row structure; with none found every product is dense.
    taken = []
    real = _intops._gather

    def counting(*args):
        taken.append(1)
        return real(*args)

    monkeypatch.setattr(_intops, "_gather", counting)
    with_gather = _reports()
    assert sum(taken) > 100  # the gather really ran
    taken.clear()
    monkeypatch.setattr(_intops, "_row_structure", lambda m: None)
    assert _reports() == with_gather
    assert not taken


def _object_path_reports():
    petersen = parse_graph_file(_edge_list_text(10, _kneser_5_2_edges()))
    data, all_ok = build_graph_report(petersen, 3)
    graph_text = json.dumps(data, sort_keys=True, indent=2) + f"\n{all_ok}\n"
    return [run_verification(5, vertex=5).to_json(), graph_text]


def test_reports_identical_on_the_object_path(monkeypatch):
    # Lower the int64 bound in _intops and echelon, the only modules that
    # read it, so that products, Hadamard products and eliminations past
    # 2^12 take the object path.
    expected = _object_path_reports()
    converted = []
    real_to_object = _intops.to_object

    def counting(arr):
        converted.append(arr.dtype != object)
        return real_to_object(arr)

    monkeypatch.setattr(_intops, "INT64_SAFE", 1 << 12)
    monkeypatch.setattr(echelon, "INT64_SAFE", 1 << 12)
    for name, module in list(sys.modules.items()):
        if name == "terwalg" or name.startswith("terwalg."):
            if getattr(module, "to_object", None) is real_to_object:
                monkeypatch.setattr(module, "to_object", counting)
    assert _object_path_reports() == expected
    assert sum(converted) > 100  # int64 arrays really crossed to object
