"""Tests for the integer echelon span engine."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from dense_views import combine
from hypothesis import given, settings
from hypothesis import strategies as st

from terwalg import _intops, echelon, wedderburn
from terwalg._intops import demote, exact_matmul, max_abs
from terwalg.closure import BlockSpans, closure
from terwalg.echelon import EchelonSpan
from terwalg.linalg import RationalMatrix, rank


def test_dimension_counting():
    span = EchelonSpan(3)
    assert span.add([1, 0, 0]) is not None
    assert span.add([0, 1, 0]) is not None
    assert span.add([1, 1, 0]) is None  # dependent
    assert span.add([0, 0, 5]) is not None
    assert span.dim == 3


def test_zero_vector_is_dependent():
    span = EchelonSpan(4)
    assert span.add([0, 0, 0, 0]) is None
    assert span.dim == 0


def test_contains():
    span = EchelonSpan(3)
    span.add([2, 4, 0])
    span.add([0, 0, 3])
    assert span.contains([1, 2, 0])
    assert span.contains([1, 2, 7])
    assert not span.contains([1, 0, 0])


def test_rows_are_primitive_with_positive_pivot():
    span = EchelonSpan(3)
    idx = span.add([-4, -8, 0])
    row = span.row(idx)
    assert list(row) == [1, 2, 0]  # content divided out, pivot positive


def test_row_set_is_canonical_under_insertion_order():
    vecs = [[3, 1, 0], [1, 0, 2], [0, 5, 1]]
    def rows_for(order):
        span = EchelonSpan(3)
        for k in order:
            span.add(vecs[k])
        return sorted(tuple(int(v) for v in r) for r in span.rows)
    assert rows_for([0, 1, 2]) == rows_for([2, 1, 0]) == rows_for([1, 2, 0])


def test_big_integer_entries_stay_exact():
    # Entries past the int64 comfort zone must take the object path.
    big = 1 << 70
    span = EchelonSpan(2)
    span.add(np.array([big, 1], dtype=object))
    span.add(np.array([big, 2], dtype=object))
    assert span.dim == 2
    assert span.contains(np.array([0, 1], dtype=object))


def test_near_overflow_reduction_is_exact():
    # Reduction of these rows would overflow a naive int64 pipeline.
    a = (1 << 60) + 1
    span = EchelonSpan(2)
    span.add(np.array([a, 1], dtype=object))
    assert span.add(np.array([a - 1, 1], dtype=object)) is not None
    assert span.dim == 2


def test_float_input_rejected():
    span = EchelonSpan(2)
    with pytest.raises(TypeError):
        span.add(np.array([1.0, 2.0]))


def test_width_mismatch_rejected():
    span = EchelonSpan(3)
    with pytest.raises(ValueError):
        span.add([1, 2])


def test_tracked_dependency_expression():
    span = EchelonSpan(3, track=True)
    vecs = [
        np.array([1, 2, 3], dtype=np.int64),
        np.array([0, 1, 1], dtype=np.int64),
        np.array([2, 5, 7], dtype=np.int64),  # = v0*2 + v1
    ]
    exprs = [span.add_tracked(v) for v in vecs]
    assert exprs[0][0] is not None and exprs[1][0] is not None
    idx, expr = exprs[2]
    assert idx is None
    # The expression is an exact vanishing combination of the inputs.
    total = np.zeros(3, dtype=object)
    for j, f in expr.items():
        assert isinstance(f, Fraction)
        total = total + np.array([f * int(v) for v in vecs[j]], dtype=object)
    assert not total.any()
    assert expr[2] != 0  # the new vector participates


def test_span_dim_helper():
    assert rank(RationalMatrix([[1, 1], [2, 2], [0, 1]])) == 2
    assert rank(RationalMatrix(np.zeros((0, 5), dtype=np.int64))) == 0


def _fraction_rref(rows, width):
    """Nonzero rows of the reduced row echelon form, by Gauss-Jordan."""
    mat = [[Fraction(v) for v in row] for row in rows]
    out = []
    col = 0
    while mat and col < width:
        pick = next((r for r in mat if r[col] != 0), None)
        if pick is None:
            col += 1
            continue
        mat.remove(pick)
        pick = [v / pick[col] for v in pick]
        mat = [[a - r[col] * b for a, b in zip(r, pick)] for r in mat]
        out = [[a - r[col] * b for a, b in zip(r, pick)] for r in out]
        out.append(pick)
        col += 1
    return out


entry = st.one_of(
    st.integers(-3, 3), st.integers(-(1 << 62), 1 << 62), st.sampled_from([0, 1])
)


@st.composite
def integer_rows(draw):
    """Random rows with entries up to 2^62, plus small combinations of them."""
    width = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=5))
    rows = list(base)
    for _ in range(draw(st.integers(0, 3)) if base else 0):
        k = len(base)
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        rows.append([sum(c * r[i] for c, r in zip(coeffs, base)) for i in range(width)])
    return width, draw(st.permutations(rows))


def _span_rows(width, rows):
    span = EchelonSpan(width)
    for row in rows:
        span.add(row)
    return [[int(v) for v in row] for row in span.rows]


@settings(max_examples=150, deadline=None)
@given(integer_rows())
def test_rows_match_fraction_rref(case):
    width, rows = case
    stored = _span_rows(width, rows)
    pivots = []
    for row in stored:
        assert math.gcd(*row) == 1  # primitive
        piv = next(i for i, v in enumerate(row) if v)
        assert row[piv] > 0
        pivots.append(piv)
    for row in stored:  # every pivot is cleared from the other rows
        assert sum(1 for p in pivots if row[p]) == 1
    got = sorted(
        (pivots[k], [Fraction(v, row[pivots[k]]) for v in row])
        for k, row in enumerate(stored)
    )
    assert [r for _, r in got] == _fraction_rref(rows, width)


@settings(max_examples=40, deadline=None)
@given(integer_rows())
def test_rows_match_sympy_rref(case):
    sympy = pytest.importorskip("sympy")
    width, rows = case
    if not rows:
        return
    reduced, pivots = sympy.Matrix(rows).rref()
    want = [
        [Fraction(int(v.p), int(v.q)) for v in reduced.row(k)]
        for k in range(len(pivots))
    ]
    stored = _span_rows(width, rows)
    got = sorted(
        [Fraction(v, next(x for x in row if x)) for v in row] for row in stored
    )
    assert got == sorted(want)


def test_numpy_integer_entries_become_python_ints():
    # A numpy scalar past INT64_SAFE is not demoted; kept as it is inside an
    # object row, it meets multipliers past int64 in the reduction.
    big = np.int64(2**62)
    for first in ([big, np.int64(1)], np.array([big, np.int64(1)], dtype=object)):
        span = EchelonSpan(2, track=True)
        assert span.add(first) is not None
        assert all(type(v) is int for row in span.rows for v in row)
        idx, expr = span.add_tracked(np.array([3 * 2**62 + 1, 2], dtype=object))
        assert idx is not None and expr is None
        assert span.dim == 2
        assert span.contains(np.array([0, 1], dtype=object))


# -- narrow storage against int64 storage ------------------------------------


def _int64_storage():
    """Spans made under this patch store every row as int64 (object past
    the bound): the reference that narrow rows are compared with."""
    return mock.patch.object(echelon, "narrow", lambda arr, amax: demote(arr, amax))


# Entries at the edges of int8 (and one step past), and multipliers that
# wrap when an int8 or int16 array is scaled in its own dtype.
edge_entry = st.sampled_from(
    [-129, -128, -127, -126, -64, -3, -2, -1, 0, 0, 0, 1, 2, 3, 64, 126, 127, 128, 129]
)
wrapping_multiplier = st.sampled_from([-257, -129, -128, -3, -2, 2, 3, 127, 128, 129, 255, 1000])


@st.composite
def edge_rows(draw):
    """Rows with entries near ±127/128, plus combinations of them with
    multipliers that would wrap in int8."""
    width = draw(st.integers(2, 7))
    base = draw(
        st.lists(st.lists(edge_entry, min_size=width, max_size=width), min_size=1, max_size=6)
    )
    rows = list(base)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(wrapping_multiplier, min_size=len(base), max_size=len(base)))
        rows.append([sum(c * r[i] for c, r in zip(coeffs, base)) for i in range(width)])
    return width, draw(st.permutations(rows))


def _assert_narrow_copy_of(span, ref):
    """span holds the rows of ref, each in the narrowest dtype for its
    largest entry, with the same pivots and maxima."""
    assert span.dim == ref.dim
    for k in range(span.dim):
        row, want = span.row(k), ref.row(k)
        assert want.dtype in (np.int64, object)
        assert np.array_equal(row, want)
        assert row.dtype == _intops.narrow(want, max_abs(want)).dtype
        assert not row.flags.writeable
        assert span.pivot(k) == ref.pivot(k)
        assert span.row_max(k) == ref.row_max(k) == max_abs(want)


@settings(max_examples=150, deadline=None)
@given(edge_rows(), st.lists(wrapping_multiplier, min_size=7, max_size=7))
def test_narrow_rows_reduce_and_clear_as_int64_rows(case, scale):
    # Reduction scales stored rows by c / gcd(c, pv) and pivot clearing
    # scales old rows by pv / gcd: both wrap if done in an int8 row's dtype.
    width, rows = case
    vecs = [np.array(r, dtype=np.int64) for r in rows]
    with _int64_storage():
        ref = EchelonSpan(width)
        want = [ref.add(v) for v in vecs]
    span = EchelonSpan(width)
    assert [span.add(v) for v in vecs] == want
    _assert_narrow_copy_of(span, ref)
    probe = sum(c * v for c, v in zip(scale, vecs))
    off = probe + np.eye(1, width, width - 1, dtype=np.int64)[0]
    for v in (*vecs, probe, off):
        assert span.contains(v) == ref.contains(v)
    assert span.contains(probe)


def _edge_block(draw, shape):
    return np.array(
        draw(st.lists(edge_entry, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])),
        dtype=np.int64,
    ).reshape(shape)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_narrow_pieces_gather_frame_and_sum_as_int64_pieces(data):
    # The same blocks in a span held narrow and one held int64: the product
    # (exact_matmul) and the dense sum of any combination of the elements
    # (dense_views.combine) read equal values from both.  Neither span is in
    # cell form, so the split refuses both.
    draw = data.draw
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(sizes)
    bounds = np.cumsum([0, *sizes])
    classes = [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    adds = [
        (h, j, _edge_block(draw, (sizes[h], sizes[j])))
        for h in range(len(sizes))
        for j in range(len(sizes))
        for _ in range(draw(st.integers(0, 2)))
    ]
    span = BlockSpans(n, classes)
    with _int64_storage():
        ref = BlockSpans(n, classes)
        for h, j, block in adds:
            ref.add(h, j, block)
    for h, j, block in adds:
        span.add(h, j, block)
    assert span.dim == ref.dim
    for key, echelon_span in span._spans.items():
        _assert_narrow_copy_of(echelon_span, ref._spans[key])
    if not span.dim:
        return
    for k in range(span.dim):
        h, j, x = span.element(k)
        y = ref.element(k)[2]
        # A left factor with one nonzero per row, unit or near the int8
        # edge, and the same plus one everywhere: the narrow piece gives the
        # int64 piece's product.
        rows = draw(st.integers(1, 4))
        pick = draw(st.lists(st.integers(0, x.shape[0] - 1), min_size=rows, max_size=rows))
        mults = np.array(draw(st.lists(wrapping_multiplier, min_size=rows, max_size=rows)))
        for vals in (1, mults):
            m = np.zeros((rows, x.shape[0]), dtype=np.int64)
            m[np.arange(rows), pick] = vals
            for left in (m, m + 1):
                got = exact_matmul(left, x)
                assert got.dtype == np.int64 and np.array_equal(got, exact_matmul(left, y))
    for held in (span, ref):
        with pytest.raises(ValueError, match="in cell form"):
            wedderburn._PivotBasis(held)
    c = draw(st.lists(st.one_of(st.just(0), wrapping_multiplier), min_size=span.dim, max_size=span.dim))
    assert combine(span, c) == combine(ref, c)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_narrow_closure_matches_int64_closure(data):
    # A closure whose products and reductions meet entries near ±127 and
    # multipliers past them: the same elements, in the same order, with
    # the same values, as with int64 storage.
    n = data.draw(st.integers(2, 3))
    g = _edge_block(data.draw, (n, n))
    row = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    gens = [RationalMatrix(g), RationalMatrix(row[None])]
    with _int64_storage():
        ref = closure(gens)
    got = closure(gens)
    assert got._elements == ref._elements
    for key, echelon_span in got._spans.items():
        _assert_narrow_copy_of(echelon_span, ref._spans[key])


# -- the tracked span against the untracked one --------------------------------

tracked_entry = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([_intops.INT64_SAFE - 1, _intops.INT64_SAFE, 2**63, -(2**64) - 1]),
    st.integers(-(2**70), 2**70),
)


@st.composite
def tracked_feeds(draw):
    """(width, [(vector, through add_tracked?)]): new vectors, zero vectors
    and integer combinations of the vectors fed before them, some with
    entries past INT64_SAFE."""
    width = draw(st.integers(1, 5))
    vecs = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["new", "new", "zero", "combination"]))
        if kind == "new":
            vec = draw(st.lists(tracked_entry, min_size=width, max_size=width))
        elif kind == "zero" or not vecs:
            vec = [0] * width
        else:
            coeffs = draw(st.lists(st.integers(-9, 9), min_size=len(vecs), max_size=len(vecs)))
            vec = [sum(c * v[i] for c, (v, _) in zip(coeffs, vecs)) for i in range(width)]
        vecs.append((vec, draw(st.booleans())))
    return width, vecs


@settings(max_examples=200, deadline=None)
@given(tracked_feeds())
def test_tracked_span_reduces_on_the_untracked_path(case):
    # A tracked span stores the rows an untracked span stores, and every
    # dependency add_tracked returns vanishes over the vectors fed.
    width, feed = case
    tracked, plain = EchelonSpan(width, track=True), EchelonSpan(width)
    fed = []
    for vec, through_tracked in feed:
        arr = np.array(vec, dtype=object)
        want = plain.add(arr)
        fed.append(vec)
        if not through_tracked:
            assert tracked.add(arr) == want
            continue
        idx, expr = tracked.add_tracked(arr)
        assert idx == want
        if idx is not None:
            assert expr is None
            continue
        assert expr[len(fed) - 1] != 0
        assert all(isinstance(f, Fraction) and f != 0 for f in expr.values())
        for i in range(width):
            assert sum(f * fed[j][i] for j, f in expr.items()) == 0
    assert tracked.dim == plain.dim
    for k in range(plain.dim):
        assert tracked.row(k).dtype == plain.row(k).dtype
        assert np.array_equal(tracked.row(k), plain.row(k))
        assert tracked.pivot(k) == plain.pivot(k)
        assert tracked.row_max(k) == plain.row_max(k)
