"""Tests for the guarded integer kernels, chiefly exact_matmul's dispatch."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terwalg._intops import INT64_SAFE, exact_matmul


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
