"""Tests for the integer echelon span engine."""

from fractions import Fraction

import numpy as np
import pytest

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
