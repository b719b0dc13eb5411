"""Tests for the matrix algebra closure."""

import importlib
import json
import math
from bisect import insort
from itertools import combinations, product

import numpy as np
import pytest
from dense_views import contains, dense_diagonal, dense_generators, densify, distance_matrix

from terwalg import _intops, echelon, subconstituent
from terwalg._intops import content, demote, exact_matmul, max_abs, to_object
from terwalg.closure import BlockSpans, closure, identity_unit, joint_classes
from terwalg.echelon import EchelonSpan
from terwalg.graphs import DistanceData, Graph, hypercube
from terwalg.linalg import RationalMatrix
from terwalg.subconstituent import build_context, build_hypercube_context
from terwalg.verify import build_graph_report


def cube_generators(d):
    """A of Q_d, and A* at vertex 0 as its 1 x n diagonal row."""
    g = hypercube(d)
    dd = DistanceData.compute(g)
    a = distance_matrix(g, dd, 1)
    astar = RationalMatrix([[d - 2 * int(v) for v in dd.dist[0]]])
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
    assert contains(basis, dense_diagonal(astar))


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
    # A 1 x 1 matrix is a row and an n x n matrix at once.
    for v in (0, 3):
        basis = closure([RationalMatrix([[v]])])
        assert basis.dim == 1 and len(basis.classes) == 1  # the seeded identity alone


def test_closure_single_projection():
    p = RationalMatrix([[1, 0]])
    basis = closure([p])
    assert basis.dim == 2
    assert contains(basis, dense_diagonal(p))


def test_closure_takes_a_dense_diagonal_as_any_other_generator():
    # A dense n x n diagonal is closed over as it stands: one class, and
    # the same algebra as from its 1 x n row, at width n^2.
    for d in (2, 3):
        a, astar = cube_generators(d)
        dense = closure([a, dense_diagonal(astar)])
        rows = closure([a, astar])
        assert len(dense.classes) == 1 and len(rows.classes) == d + 1
        assert dense.dim == rows.dim
        assert _row_set(m.num for m in densify(dense)) == _row_set(
            m.num for m in densify(rows)
        )
    basis = closure([RationalMatrix(np.diag([1, 0]))])
    assert basis.dim == 2 and len(basis.classes) == 1


def test_closure_input_validation():
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(ValueError):
        closure([RationalMatrix.zeros(2, 3)])
    with pytest.raises(ValueError):
        closure([RationalMatrix.identity(2), RationalMatrix.identity(3)])
    with pytest.raises(ValueError):
        closure([RationalMatrix.identity(3), RationalMatrix.zeros(1, 2)])


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


def test_stored_rows_are_read_only_and_outlive_their_replacement():
    # The closure multiplies element k as its row stands at its turn, with
    # no copy, so no stored row may be written in place.
    span = EchelonSpan(3)
    span.add([1, 1, 0])
    with pytest.raises(ValueError):
        span.row(0)[0] = 5
    basis = closure(list(cube_generators(2)))
    with pytest.raises(ValueError):
        basis.element(basis.dim - 1)[2][0, 0] = 5
    # A later insertion clears its pivot from row 0 by storing a new array;
    # the row read before keeps its entries.
    seen = span.row(0)
    span.add([0, 1, 0])
    assert seen.tolist() == [1, 1, 0]
    assert span.row(0).tolist() == [1, 0, 0] and not span.row(0).flags.writeable
    assert span.row(1).tolist() == [0, 1, 0] and not span.row(1).flags.writeable


# -- the block closure against the sequential closure at width n^2 ----------


def sequential_closure(generators):
    """Reference: the closure from I at width n^2, one product at a time.

    Every basis element is left-multiplied by every generator, diagonal or
    not, each as an n x n matrix, and reduced against the whole span.
    Returns the span.
    """
    generators = dense_generators(generators)
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
    d1 = RationalMatrix([[0, 0, 1, 1, 0, 1]])
    d2 = RationalMatrix([[0, 1, 0, 1, 1, 0]])
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
    diagonals = [d1.num[0], d2.num[0]]
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
    assert contains(basis, dense_diagonal(astar))


def test_block_closure_on_the_object_path(monkeypatch):
    # With the int64 bound at 1 every product and elimination runs on
    # Python ints; the rows must be the same integers.
    cases = [
        ("Q_3 x=5", build_hypercube_context(3, 5).generators()),
        ("petersen", build_context(kneser_petersen(), 3).generators()),
    ]
    expected = [_row_set(m.num for m in densify(closure(gens))) for _, gens in cases]
    monkeypatch.setattr(_intops, "INT64_SAFE", 1)
    monkeypatch.setattr(echelon, "INT64_SAFE", 1)
    for (name, gens), want in zip(cases, expected):
        basis = closure(gens)
        mats = densify(basis)
        assert _row_set(m.num for m in mats) == want, name
        assert any(m.num.dtype == object for m in mats), name
        assert all(contains(basis, m) for m in mats), name


# -- the prepared closure against the closure it replaced ---------------------


class OracleEchelonSpan(EchelonSpan):
    """EchelonSpan with its former untracked path: a content pass on entry
    and a full gcd pass on every new row, whatever its pivot entry."""

    def _reduce(self, v, vmax, expr):
        v, vmax, expr = self._shrink(v, expr)
        for piv, idx in self._order:
            c = int(v[piv])
            if c == 0:
                continue
            pv = self._pivvals[idx]
            g = math.gcd(abs(c), pv)
            a = pv // g
            b = c // g
            bound = a * vmax + abs(b) * self._maxes[idx]
            if bound >= echelon.INT64_SAFE and v.dtype != object:
                v, vmax, expr = self._shrink(v, expr)
                c = int(v[piv])
                g = math.gcd(abs(c), pv)
                a = pv // g
                b = c // g
                bound = a * vmax + abs(b) * self._maxes[idx]
            row = self._rows[idx]
            if bound >= echelon.INT64_SAFE or v.dtype == object or row.dtype == object:
                v = a * to_object(v) - b * to_object(row)
            else:
                v = a * v - b * row
            vmax = bound
            if v.dtype != object and vmax >= (1 << 55):
                vmax = max_abs(v)
        return v, vmax, expr

    def _add(self, vec, want_expr):
        assert not self.track
        v, vmax = self._prepare(vec)
        v, vmax, _ = self._reduce(v, vmax, None)
        if not np.any(v):
            return None, None
        v, vmax, _ = self._shrink(v, None)
        piv = int(np.nonzero(v)[0][0])
        if v[piv] < 0:
            v = -v
        pv = int(v[piv])
        idx = len(self._rows)
        self._rows.append(v)
        self._pivots.append(piv)
        self._pivvals.append(pv)
        self._maxes.append(vmax if v.dtype == object else max_abs(v))
        self._exprs.append({})
        insort(self._order, (piv, idx))
        for idx2 in range(idx):
            r2 = self._rows[idx2]
            c2 = int(r2[piv])
            if c2 == 0:
                continue
            g = math.gcd(abs(c2), pv)
            a = pv // g
            b = c2 // g
            bound = a * self._maxes[idx2] + abs(b) * self._maxes[idx]
            if bound >= echelon.INT64_SAFE or r2.dtype == object or v.dtype == object:
                new = a * to_object(r2) - b * to_object(v)
            else:
                new = a * r2 - b * v
            g2 = 1 if a * self._pivvals[idx2] == 1 else content(new)
            if g2 > 1:
                new = new // g2
            new = demote(new)
            self._rows[idx2] = new
            self._pivvals[idx2] = int(new[self._pivots[idx2]])
            self._maxes[idx2] = max_abs(new)
        return idx, None


class OracleBlockSpans(BlockSpans):
    """BlockSpans whose block spans are OracleEchelonSpan."""

    def add(self, h, j, block):
        if (h, j) not in self._spans:
            width = len(self.classes[h]) * len(self.classes[j])
            self._spans[(h, j)] = OracleEchelonSpan(width)
        return super().add(h, j, block)


def is_diagonal(a: np.ndarray) -> bool:
    """Whether a square array has no nonzero off its diagonal."""
    return np.count_nonzero(a) == np.count_nonzero(a.diagonal())


def oracle_closure(generators):
    """The closure as it was before its blocks were prepared and before its
    span became its queue.  Every generator is an n x n matrix, and those
    that is_diagonal finds diagonal give the classes; every product
    g[S_h', S_h] @ X runs through exact_matmul; every element is queued as
    a copy of its row as inserted; every span is an OracleEchelonSpan."""
    n = generators[0].nrows
    diagonal = [is_diagonal(g.num) for g in generators]
    classes = joint_classes(
        n, [g.num.diagonal() for g, diag in zip(generators, diagonal) if diag]
    )
    actions = []
    for g, diag in zip(generators, diagonal):
        if diag:
            continue
        by_source = []
        for cols in classes:
            targets = []
            for h2, rows in enumerate(classes):
                block = g.num[np.ix_(rows, cols)]
                if np.any(block):
                    targets.append((h2, block))
            by_source.append(targets)
        actions.append(by_source)
    spans = OracleBlockSpans(n, classes)
    pieces = []
    for h, cls in enumerate(classes):
        k = spans.add(h, h, np.eye(len(cls), dtype=np.int64))
        pieces.append((h, h, spans.element(k)[2].copy()))
    pos = 0
    while pos < len(pieces):
        h, j, x = pieces[pos]
        for by_source in actions:
            for h2, block in by_source[h]:
                k = spans.add(h2, j, exact_matmul(block, x))
                if k is not None:
                    pieces.append((h2, j, spans.element(k)[2].copy()))
        pos += 1
    spans.closed_unit = identity_unit(len(classes))
    return spans


def assert_same_block_spans(got, want, name):
    """Equal element order, (h, j, idx) and stored rows, block by block."""
    assert got.classes is not want.classes
    assert [c.tolist() for c in got.classes] == [c.tolist() for c in want.classes], name
    assert got._elements == want._elements, name
    assert got._spans.keys() == want._spans.keys(), name
    for key, span in want._spans.items():
        rows = got._spans[key].rows
        assert len(rows) == len(span.rows), (name, key)
        for r, s in zip(rows, span.rows):
            assert r.dtype == s.dtype and np.array_equal(r, s), (name, key)
    assert got.closed_unit == want.closed_unit, name


def assert_same_algebra(got, want, name):
    """Equal classes, dimension, certificate and canonical row set of every
    block span; the element numbering may differ."""
    assert [c.tolist() for c in got.classes] == [c.tolist() for c in want.classes], name
    assert got.dim == want.dim and got.closed_unit == want.closed_unit, name
    assert got._spans.keys() == want._spans.keys(), name
    for key, span in want._spans.items():
        assert _row_set(got._spans[key].rows) == _row_set(span.rows), (name, key)


def assert_matches_oracle(gens, name, same_order):
    """The closure against oracle_closure on the dense generators: with
    same_order, the same element order and rows; otherwise the same
    algebra, since taking each element as it stands at its turn may
    renumber (it does on J(7,3))."""
    got, want = closure(gens), oracle_closure(dense_generators(gens))
    if same_order:
        assert_same_block_spans(got, want, name)
    else:
        assert_same_algebra(got, want, name)


def johnson(v, k):
    verts = list(combinations(range(v), k))
    edges = [
        (a, b)
        for a, b in combinations(range(len(verts)), 2)
        if len(set(verts[a]) & set(verts[b])) == k - 1
    ]
    return Graph.from_edges(len(verts), edges)


def folded_cube(d):
    n = 1 << (d - 1)
    flips = [1 << b for b in range(d - 1)] + [n - 1]
    edges = {(min(u, u ^ f), max(u, u ^ f)) for u in range(n) for f in flips}
    return Graph.from_edges(n, sorted(edges))


def oracle_cases(max_d):
    for d in range(1, max_d + 1):
        for x in sorted({0, 5 % (1 << d), (1 << d) - 1}):
            yield f"Q_{d} x={x}", build_hypercube_context(d, x).generators()
    yield "petersen", build_context(kneser_petersen(), 3).generators()
    yield "H(3,3)", build_context(hamming(3, 3), 5).generators()
    yield "J(7,3)", build_context(johnson(7, 3), 4).generators()
    yield "folded 7-cube", build_context(folded_cube(7), 9).generators()


def test_prepared_closure_matches_the_per_product_oracle():
    # Every hypercube keeps its numbering; the other graphs keep their algebra.
    for name, gens in oracle_cases(8):
        assert_matches_oracle(gens, name, same_order=name.startswith("Q_"))


def test_graph_report_is_the_same_on_the_oracle_closure(monkeypatch):
    # Where the element numbering moves, the graph report does not.
    graphs = {
        "petersen": (kneser_petersen(), 3),
        "H(3,3)": (hamming(3, 3), 5),
        "J(7,3)": (johnson(7, 3), 4),
        "folded 7-cube": (folded_cube(7), 9),
    }

    def report(g, x):
        data, ok = build_graph_report(g, x)
        return json.dumps(data, sort_keys=True, indent=2), ok

    expected = {name: report(*args) for name, args in graphs.items()}
    monkeypatch.setattr(
        subconstituent, "closure", lambda gens: oracle_closure(dense_generators(gens))
    )
    for name, args in graphs.items():
        assert report(*args) == expected[name], name


def test_prepared_closure_matches_the_oracle_on_the_object_path(monkeypatch):
    # With the bound at 2^3 the products and eliminations whose bound reaches
    # it run on Python ints and the rest stay int64, in the closure and in
    # the oracle alike.
    closure_module = importlib.import_module("terwalg.closure")
    cases = list(oracle_cases(5))
    prepared, fallbacks = [], []

    def counting(real, calls):
        def wrapped(*args):
            calls.append(1)
            return real(*args)

        return wrapped

    monkeypatch.setattr(_intops, "INT64_SAFE", 1 << 3)
    monkeypatch.setattr(echelon, "INT64_SAFE", 1 << 3)
    monkeypatch.setattr(_intops, "exact_matmul", counting(_intops.exact_matmul, fallbacks))
    monkeypatch.setattr(
        closure_module,
        "prepared_matmul",
        counting(closure_module.prepared_matmul, prepared),
    )
    for name, gens in cases:
        assert_matches_oracle(gens, name, same_order=name.startswith("Q_"))
    # Both sides of the bound were taken.
    assert 100 < len(fallbacks) < len(prepared) - 100


def test_prepared_closure_bounds_each_product_by_its_piece(monkeypatch):
    # The generator is 2^59·(P + 2P²), P the cyclic shift, so its piece
    # P + 2P² has entries up to 2: w·max|block| = 3·2^60 is under
    # INT64_SAFE, but the bound 3·2^60·2 of a product with that piece is
    # not, so the product must take the object path.
    fallbacks = []
    real = _intops.exact_matmul

    def counting(a, b):
        fallbacks.append(1)
        return real(a, b)

    monkeypatch.setattr(_intops, "exact_matmul", counting)
    m = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]], dtype=np.int64) * (1 << 59)
    d = np.array([[1, 1, 2]], dtype=np.int64)
    for gens in ([RationalMatrix(m)], [RationalMatrix(m), RationalMatrix(d)]):
        fallbacks.clear()
        assert_matches_oracle(gens, "2^59 circulant", same_order=True)
        assert fallbacks
