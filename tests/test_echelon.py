"""Tests for the integer echelon span engine."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
