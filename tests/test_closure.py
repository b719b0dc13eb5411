"""Tests for the matrix algebra closure."""

import sys
from itertools import combinations, product

import numpy as np
import pytest
from dense_views import contains, densify, distance_matrix

from terwalg._intops import content, exact_matmul
from terwalg.closure import closure, joint_classes
from terwalg.echelon import EchelonSpan
from terwalg.graphs import DistanceData, Graph, hypercube
from terwalg.linalg import RationalMatrix
from terwalg.subconstituent import build_context, build_hypercube_context


def cube_generators(d):
    g = hypercube(d)
    dd = DistanceData.compute(g)
    a = distance_matrix(g, dd, 1)
    astar = RationalMatrix(np.diag([d - 2 * int(v) for v in dd.dist[0]]))
    return a, astar


def test_closure_dimensions():
    a1, s1 = cube_generators(1)
    assert closure([a1, s1]).dim == 4
    a2, s2 = cube_generators(2)
    assert closure([a2, s2]).dim == 10


def test_closure_contains_identity_and_generators():
    a, astar = cube_generators(2)
    basis = closure([a, astar])
    assert contains(basis, RationalMatrix.identity(4))
    assert contains(basis, a)
    assert contains(basis, astar)


def test_closure_is_multiplicatively_closed():
    a, astar = cube_generators(2)
    basis = closure([a, astar])
    mats = densify(basis)
    for b1 in mats:
        for b2 in mats:
            assert contains(basis, b1 @ b2)


def test_closure_basis_matrices_are_integer_primitive():
    a, astar = cube_generators(2)
    basis = closure([a, astar])
    assert len(densify(basis)) == basis.dim
    for k in range(basis.dim):
        _h, _j, x = basis.element(k)
        assert x.dtype == np.int64 and content(x) == 1


def _starts_with_class_projections(span) -> bool:
    """The first c elements sit in the diagonal blocks (h, h), in class
    order, and the span holds every class projection P_h.

    span.element gives an element's current reduced block, which later
    insertions may have reduced away from P_h itself.
    """
    for h, cls in enumerate(span.classes):
        projection = np.zeros((span.n, span.n), dtype=np.int64)
        projection[cls, cls] = 1
        if span.element(h)[:2] != (h, h) or not contains(span, projection):
            return False
    return True


def test_closure_provenance():
    # One seed per class of A* (the d+1 spheres), then blocks of products.
    # No cube element reduces a seed, so the seeds are the projections.
    for d in (1, 3):
        a, astar = cube_generators(d)
        basis = closure([a, astar])
        assert len(basis.classes) == d + 1
        assert _starts_with_class_projections(basis)
        for h, cls in enumerate(basis.classes):
            assert np.array_equal(basis.element(h)[2], np.eye(len(cls)))


def test_closure_of_identity_like_generator():
    z = RationalMatrix.zeros(1, 1)
    assert closure([z]).dim == 1  # the seeded identity alone


def test_closure_single_projection():
    p = RationalMatrix(np.diag([1, 0]))
    basis = closure([p])
    assert basis.dim == 2
    assert contains(basis, p)


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
    for k in range(b1.dim):
        (h1, j1, x1), (h2, j2, x2) = b1.element(k), b2.element(k)
        assert (h1, j1) == (h2, j2) and np.array_equal(x1, x2)


# -- the block closure against the sequential closure at width n^2 ----------


def sequential_closure(generators):
    """Reference: the closure from I at width n^2, one product at a time.

    Every basis element is left-multiplied by every generator, diagonal or
    not, and reduced against the whole span.  Returns the span.
    """
    n = generators[0].nrows
    span = EchelonSpan(n * n)
    span.add(np.eye(n, dtype=np.int64).ravel())
    queue = [span.row(0).copy()]
    pos = 0
    while pos < len(queue):
        parent = queue[pos].reshape(n, n)
        for g in generators:
            idx = span.add(exact_matmul(g.num, parent).ravel())
            if idx is not None:
                queue.append(span.row(idx).copy())
        pos += 1
    return span


def _row_set(rows):
    return sorted(tuple(int(v) for v in np.asarray(r).ravel()) for r in rows)


def kneser_petersen():
    pairs = list(combinations(range(5), 2))
    edges = [
        (a, b)
        for a, b in combinations(range(10), 2)
        if not set(pairs[a]) & set(pairs[b])
    ]
    return Graph.from_edges(10, edges)


def hamming(d, q):
    words = list(product(range(q), repeat=d))
    edges = [
        (a, b)
        for a, b in combinations(range(len(words)), 2)
        if sum(x != y for x, y in zip(words[a], words[b])) == 1
    ]
    return Graph.from_edges(len(words), edges)


def two_diagonal_generators():
    """A 6-cycle with two diagonals whose joint classes split both."""
    cycle = np.zeros((6, 6), dtype=np.int64)
    for v in range(6):
        cycle[v, (v + 1) % 6] = cycle[(v + 1) % 6, v] = 1
    d1 = RationalMatrix(np.diag([0, 0, 1, 1, 0, 1]))
    d2 = RationalMatrix(np.diag([0, 1, 0, 1, 1, 0]))
    return [d1, RationalMatrix(cycle), d2]


def generator_sets():
    for d in range(0, 6):
        for x in sorted({0, 5 % (1 << d)}):
            yield f"Q_{d} x={x}", build_hypercube_context(d, x).generators()
    yield "petersen", build_context(kneser_petersen(), 3).generators()
    yield "H(3,3)", build_context(hamming(3, 3), 5).generators()
    ctx = build_hypercube_context(3)
    yield "Q_3 A only", [ctx.A]
    yield "Q_3 A and A_2", [ctx.A, distance_matrix(ctx.graph, ctx.dist, 2)]
    yield "6-cycle, two diagonals", two_diagonal_generators()


def test_block_closure_matches_sequential_closure():
    for name, gens in generator_sets():
        basis = closure(gens)
        oracle = sequential_closure(gens)
        assert basis.dim == oracle.dim, name
        assert _row_set(m.num for m in densify(basis)) == _row_set(oracle.rows), name


def test_joint_classes_are_finer_than_each_diagonal():
    d1, _cycle, d2 = two_diagonal_generators()
    diagonals = [d1.num.diagonal(), d2.num.diagonal()]
    classes = joint_classes(6, diagonals)
    assert [c.tolist() for c in classes] == [[0], [1, 4], [2, 5], [3]]
    assert len(joint_classes(6, diagonals[:1])) == 2
    assert len(joint_classes(6, diagonals[1:])) == 2
    assert [c.tolist() for c in joint_classes(3, [])] == [[0, 1, 2]]
    assert _starts_with_class_projections(closure(two_diagonal_generators()))


def test_contains_rejects_a_changed_entry():
    # T(x) of Q_3 is invariant under the stabilizer of x, so a single
    # changed entry leaves it unless both coordinates are fixed points.
    ctx = build_hypercube_context(3, 5)
    basis = ctx.algebra_basis()
    oracle = sequential_closure(ctx.generators())
    rejected = 0
    for m in densify(basis):
        assert contains(basis, m)
        bad = m.num.copy()
        r, c = np.argwhere(bad)[-1]
        bad[r, c] += 1
        expected = oracle.contains(bad.ravel())
        assert contains(basis, RationalMatrix(bad)) == expected
        rejected += not expected
    assert rejected >= basis.dim - 4  # only the four corner blocks are 1 x 1


def test_contains_checks_entries_outside_every_block():
    # Q_2 with A* alone: the blocks are the spheres' diagonal blocks, and an
    # entry between two spheres lies in no block span.
    _a, astar = cube_generators(2)
    basis = closure([astar])
    assert basis.dim == 3
    off = np.zeros((4, 4), dtype=np.int64)
    off[0, 3] = 1
    assert not contains(basis, RationalMatrix(off))
    assert contains(basis, astar)


def test_block_closure_on_the_object_path(monkeypatch):
    # With the int64 bound at 1 every product and elimination runs on
    # Python ints; the rows must be the same integers.
    cases = [
        ("Q_3 x=5", build_hypercube_context(3, 5).generators()),
        ("petersen", build_context(kneser_petersen(), 3).generators()),
    ]
    expected = [_row_set(m.num for m in densify(closure(gens))) for _, gens in cases]
    for name, module in list(sys.modules.items()):
        if (name == "terwalg" or name.startswith("terwalg.")) and hasattr(
            module, "INT64_SAFE"
        ):
            monkeypatch.setattr(module, "INT64_SAFE", 1)
    for (name, gens), want in zip(cases, expected):
        basis = closure(gens)
        mats = densify(basis)
        assert _row_set(m.num for m in mats) == want, name
        assert any(m.num.dtype == object for m in mats), name
        assert all(contains(basis, m) for m in mats), name
