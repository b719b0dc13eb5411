"""Tests for the matrix algebra closure."""

import numpy as np
import pytest

from terwalg.closure import closure
from terwalg.echelon import EchelonSpan
from terwalg.graphs import DistanceData, distance_matrix, hypercube
from terwalg.linalg import RationalMatrix


def cube_generators(d):
    g = hypercube(d)
    dd = DistanceData.compute(g)
    a = distance_matrix(g, dd, 1)
    astar = RationalMatrix.diagonal([d - 2 * int(v) for v in dd.dist[0]])
    return a, astar


def test_closure_dimensions():
    a1, s1 = cube_generators(1)
    assert closure([a1, s1]).dim == 4
    a2, s2 = cube_generators(2)
    assert closure([a2, s2]).dim == 10


def test_closure_contains_identity_and_generators():
    a, astar = cube_generators(2)
    basis = closure([a, astar])
    assert basis.contains(RationalMatrix.identity(4))
    assert basis.contains(a)
    assert basis.contains(astar)


def test_closure_is_multiplicatively_closed():
    a, astar = cube_generators(2)
    basis = closure([a, astar])
    for b1 in basis.matrices:
        for b2 in basis.matrices:
            assert basis.contains(b1 @ b2)


def test_closure_basis_matrices_are_integer_primitive():
    a, astar = cube_generators(2)
    basis = closure([a, astar])
    assert len(basis.matrices) == basis.dim
    for m in basis.matrices:
        assert m.den == 1


def test_closure_provenance():
    a, astar = cube_generators(1)
    basis = closure([a, astar])
    assert basis.provenance[0] == ("seed",)
    for tag in basis.provenance[1:]:
        kind, gen_idx, parent_idx = tag
        assert kind == "product"
        assert 0 <= gen_idx < 2
        assert 0 <= parent_idx < basis.dim


def test_closure_of_identity_like_generator():
    z = RationalMatrix.zeros(1, 1)
    assert closure([z]).dim == 1  # the seeded identity alone


def test_closure_single_projection():
    p = RationalMatrix.diagonal([1, 0])
    basis = closure([p])
    assert basis.dim == 2
    assert basis.contains(p)


def test_closure_input_validation():
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(ValueError):
        closure([RationalMatrix.zeros(2, 3)])
    with pytest.raises(ValueError):
        closure([RationalMatrix.identity(2), RationalMatrix.identity(3)])


def test_matrix_span_dim_of_distance_matrices():
    g = hypercube(3)
    dd = DistanceData.compute(g)
    mats = [distance_matrix(g, dd, i) for i in range(4)]
    span = EchelonSpan(g.n * g.n)
    for m in mats:
        span.add(m.num.ravel())
    assert span.dim == 4
    basis = [RationalMatrix(row.reshape(g.n, g.n), 1) for row in span.rows]
    assert len(basis) == 4
    for m in basis:
        assert m.den == 1


def test_closure_deterministic():
    a, astar = cube_generators(3)
    b1 = closure([a, astar])
    b2 = closure([a, astar])
    assert b1.dim == b2.dim
    for m1, m2 in zip(b1.matrices, b2.matrices):
        assert m1 == m2
    assert b1.provenance == b2.provenance
