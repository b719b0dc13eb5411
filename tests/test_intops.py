"""Tests for the guarded integer kernels, chiefly exact_matmul's dispatch.

Every product is the dense one, in int64 under its bound w·max|a|·max|b|
(w the inner width) and on Python ints past it.  The fixed cases pin the
int64/object dispatch on diagonal, sparse, rectangular and vector
operands; the property tests compare exact_matmul with the dense product
on Python ints, and the last test reruns whole reports with the int64
bound lowered, so that the object path runs everywhere it can.
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
    # A narrow dtype cannot hold the absolute value of its minimum.
    for dtype in (np.int8, np.int16, np.int32):
        low, high = np.iinfo(dtype).min, np.iinfo(dtype).max
        assert _intops.max_abs(np.array([3, low, 1], dtype=dtype)) == -int(low)
        assert _intops.max_abs(np.array([high, -1], dtype=dtype)) == int(high)


def test_narrow_dtype_holds_both_signs_of_its_bound():
    for dtype in (np.int8, np.int16, np.int32):
        high = int(np.iinfo(dtype).max)
        assert _intops.narrow_dtype(high) == dtype
        assert _intops.narrow_dtype(high + 1).itemsize == 2 * np.dtype(dtype).itemsize
    assert _intops.narrow_dtype(0) == np.int8
    assert _intops.narrow_dtype(INT64_SAFE - 1) == np.int64
    assert _intops.narrow_dtype(INT64_SAFE) is None
    row = np.array([1, -128, 0], dtype=np.int64)
    assert _intops.narrow(row, 128).dtype == np.int16
    assert _intops.narrow(row, 128) is not row


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
    # Every other module states its bound and hands it to _intops.guarded,
    # or picks a dtype for it with _intops.narrow_dtype; none spells the
    # bound out as a literal.
    src = Path(__file__).resolve().parents[1] / "src" / "terwalg"
    naming, literal = set(), set()
    for path_ in sorted(src.glob("*.py")):
        with open(path_, "rb") as fh:
            toks = [t.string for t in tokenize.tokenize(fh.readline)]
        if "INT64_SAFE" in toks:
            naming.add(path_.name)
        for a, op, b in zip(toks, toks[1:], toks[2:]):
            if (a, op) in (("1", "<<"), ("2", "**")) and b in ("62", "63"):
                literal.add(path_.name)
    assert naming == {"_intops.py", "echelon.py"}
    assert literal == {"_intops.py"}


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


# -- sparse and rectangular factors ------------------------------------------


def cube_adjacency(d):
    """Adjacency matrix of Q_d: d ones in every row."""
    n = 1 << d
    a = np.zeros((n, n), dtype=np.int64)
    for k in range(d):
        a[np.arange(n), np.arange(n) ^ (1 << k)] = 1
    return a


def test_signed_adjacency_minus_theta_identity():
    rng = random.Random(9)
    a = cube_adjacency(5) - 3 * np.eye(32, dtype=np.int64)
    b = dense(rng, 32, 32)
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
        assert_exact(a, s)
    # A diagonal on the right scales columns, not rows.
    got = assert_exact(dense(rng, 3, 4), diag([1, 2, 3, 4]))
    assert got.shape == (3, 4)


def test_vectors_on_either_side():
    rng = random.Random(11)
    for s in (cube_adjacency(5), skew_sparse(32, rng)):
        v = np.array([rng.randint(-9, 9) for _ in range(32)], dtype=np.int64)
        assert assert_exact(s, v).shape == (32,)
        assert assert_exact(v, s).shape == (32,)


def test_object_operands_gather_and_demote():
    rng = random.Random(12)
    a = cube_adjacency(5)
    s = skew_sparse(32, rng)
    b = dense(rng, 32, 32)
    small = assert_exact(a.astype(object), b)
    assert small.dtype == np.int64  # fits, so the object result is demoted
    huge = b.astype(object) * (1 << 70)
    assert assert_exact(a, huge).dtype == object
    assert assert_exact(huge, s.astype(object)).dtype == object
    assert assert_exact(s.astype(object) * (1 << 64), b[:, 0]).dtype == object


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


def rect_sparse(rng, n, w, r, values="signed", magnitude=9, empty_rows=0):
    """An n x w matrix with at most r nonzeros in a row and exactly r in
    row 0 (when n > empty_rows); the last empty_rows rows are zero."""
    m = np.zeros((n, w), dtype=object)
    for i in range(n - empty_rows):
        k = r if i == 0 else rng.randint(0, r)
        for c in rng.sample(range(w), k):
            m[i, c] = 1 if values == "unit" else rng.choice([-1, 1]) * rng.randint(1, magnitude)
    return _maybe_int64(m)


def test_dense_bound_is_the_inner_width(monkeypatch):
    # exact_matmul bounds a product by w·max|a|·max|b|, w the inner width,
    # whatever the number of nonzeros in a row.  Just under that bound the
    # product stays int64 with no detour through Python ints; just past it
    # the product runs on Python ints, and a result that fits is demoted.
    converted = []
    real_to_object = _intops.to_object

    def counting(arr):
        converted.append(1)
        return real_to_object(arr)

    monkeypatch.setattr(_intops, "to_object", counting)
    rng = random.Random(16)
    full = np.ones((12, 20), dtype=np.int64)
    full[::3] = -1
    sparse = rect_sparse(rng, 12, 20, 5, values="unit")
    for m, entry, dtype, on_python_ints in (
        (full, INT64_SAFE // 20 - 1, np.int64, False),
        (full, INT64_SAFE // 20 + 1, object, True),
        (sparse, INT64_SAFE // 20 + 1, np.int64, True),
    ):
        b = np.full((20, 3), entry, dtype=np.int64)
        for left, right in ((m, b), (b.T.copy(), m.T.copy())):
            converted.clear()
            assert assert_exact(left, right).dtype == dtype
            assert bool(converted) is on_python_ints


@st.composite
def rectangular_operands(draw):
    """An n x w factor with at most w/4 nonzeros in a row, and a partner,
    as the left factor or (transposed) as the right one."""
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
    assert_exact(a, b)


def _kneser_5_2_edges():
    pairs = list(itertools.combinations(range(5), 2))
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(pairs)), 2)
        if not set(pairs[i]) & set(pairs[j])
    ]


def _edge_list_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


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
