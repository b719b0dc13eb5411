"""The cell path of the split and the corner read off the triple-label cells.

A span that closure() certified on its triple-label basis carries a cell
table: each pair (y, z) maps to the element whose triple class holds it.
wedderburn reads such a span through the table (frames by one gather,
pivot products and traces by one scatter-add by cell), and
complement_algebra reads the U0 corner off the cells with no compression
and no reduction.  Every result must be the piece path's and the reduction
path's, field by field.
"""

import copy
import dataclasses
import importlib
import math
import random

import numpy as np
import pytest

from terwalg import _intops, echelon, verify, wedderburn
from terwalg.idempotent import cell_line_counts, verify_u0
from terwalg.subconstituent import build_hypercube_context
from terwalg.wedderburn import _PivotBasis, center_basis, complement_algebra, decompose

closure_module = importlib.import_module("terwalg.closure")


def _vertices(d):
    return sorted({0, 5 % (1 << d), (1 << d) - 1})


def _piece_span(span):
    """The same span held as echelon rows, with no cell table, so that the
    split takes the piece path.  Its elements are reduced already, so each
    is stored as it stands, in its order, and keeps its number."""
    piece = closure_module.BlockSpans(span.n, span.classes)
    for k in range(span.dim):
        assert piece.add(*span.element(k)) == k
        assert piece.element(k)[2].tobytes() == span.element(k)[2].tobytes()
    piece.closed_unit = span.closed_unit
    return piece


def _reduced_corner(ctx, basis, rep):
    """complement_algebra on the reduction path: T without its cells."""
    return complement_algebra(ctx, _piece_span(basis), rep)


@pytest.fixture(scope="module")
def spans():
    """(name, span, generators, unit) for T and its corner on Q_d, d <= 8,
    at three vertices each."""
    out = []
    for d in range(0, 9):
        for x in _vertices(d):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            gens = ctx.generators()
            out.append((f"T_{d} x={x}", basis, gens, None))
            if d >= 2:
                corner = complement_algebra(ctx, basis, verify_u0(ctx, basis))
                out.append((f"corner_{d} x={x}", corner.span, gens, corner.identity))
    return out


def _dense_cells(span):
    """The n x n cell map of a certified triple-label span, from its
    elements: entry (y, z) is the element whose piece is 1 there."""
    cells = np.full((span.n, span.n), -1, dtype=np.int64)
    for k in range(span.dim):
        h, j, x = span.element(k)
        rows, cols = span.classes[h], span.classes[j]
        r, c = np.nonzero(x)
        assert np.all(x[r, c] == 1) and np.all(cells[rows[r], cols[c]] == -1)
        cells[rows[r], cols[c]] = k
    assert np.all(cells >= 0)
    return cells


def test_cell_table_reads_the_elements_of_t():
    # Every reader of the table gives the part of the dense cell map it
    # names, and the line counts read off the p-table are the constant line
    # sums of the pieces.
    for d in range(0, 7):
        for x in _vertices(d):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            assert basis.cells is not None and basis.cells.is_cells
            table = basis.cells.table
            dense = _dense_cells(basis)
            ys = np.array([0, basis.n - 1, basis.n // 2], dtype=np.intp)
            assert np.array_equal(table.rows(ys), dense[ys])
            assert np.array_equal(table.cols(ys), dense[:, ys])
            assert np.array_equal(table.diagonal(), np.diagonal(dense))
            for h, rows in enumerate(basis.classes):
                for j, cols in enumerate(basis.classes):
                    assert np.array_equal(table.block(h, j), dense[np.ix_(rows, cols)])
            row_count, col_count = cell_line_counts(ctx, basis)
            for k in range(basis.dim):
                _h, _j, piece = basis.element(k)
                assert set(piece.sum(axis=1).tolist()) == {row_count[k]}, (d, x, k)
                assert set(piece.sum(axis=0).tolist()) == {col_count[k]}, (d, x, k)


def test_cell_line_sums_are_the_line_sums_of_the_elements(spans):
    # The line sums of a span in cell form are the row and column sums of
    # every materialized element, for T and for its corner; and each corner
    # row a 1_C - b 1_C0 is zero-sum on the cells as counted one by one:
    # a |C| = b |C0|, with gcd(a, b) = 1.
    for name, span, _gens, _unit in spans:
        assert span.cells is not None, name
        sums = span.line_sums()
        assert len(sums) == span.dim, name
        for k, (h, j, rows, cols) in enumerate(sums):
            h2, j2, x = span.element(k)
            assert (h, j) == (h2, j2), (name, k)
            assert rows.dtype == cols.dtype == np.int64, (name, k)
            assert np.array_equal(rows, x.sum(axis=1)), (name, k)
            assert np.array_equal(cols, x.sum(axis=0)), (name, k)
        if span.cells.is_cells:
            continue
        table = span.cells.table
        for k, ((c, c0), (a, minus_b)) in enumerate(zip(span.cells.index.tolist(), span.cells.coef.tolist())):
            h, j = span.block(k)
            size, size0 = (int(np.count_nonzero(table.block(h, j) == cell)) for cell in (c, c0))
            assert a * size + minus_b * size0 == 0 and math.gcd(a, minus_b) == 1, (name, k)


def test_verify_u0_reads_the_same_report_off_the_cells():
    # verify_u0 on T in cell form and on T held as echelon rows: every
    # field of the report is the same.
    for d in range(0, 9):
        for x in _vertices(d):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            got, want = verify_u0(ctx, basis), verify_u0(ctx, _piece_span(basis))
            for field in dataclasses.fields(want):
                assert getattr(got, field.name) == getattr(want, field.name), (d, x, field.name)


def test_cell_path_matches_the_piece_path(spans):
    # The same span, read through its cells and through its pieces: every
    # kernel and every field of the split agree, dtype included.
    rng = random.Random(41)
    for name, span, gens, unit in spans:
        piece_span = _piece_span(span)
        cell, piece = _PivotBasis(span), _PivotBasis(piece_span)
        assert cell.cells is not None and piece.cells is None, name
        assert np.array_equal(cell.rows, piece.rows) and np.array_equal(cell.cols, piece.cols)
        assert (cell.pivvals, cell.maxes, cell.traces) == (piece.pivvals, piece.maxes, piece.traces)
        a = gens[0].num
        parts = [(a[cell.rows], a[:, cell.cols])]
        for _ in range(2):
            c = [rng.randrange(-40, 41) for _ in range(cell.dim)]
            rows, cols = cell.frame_rows(c), cell.frame_cols(c)
            want_rows, want_cols = piece.frame_rows(c), piece.frame_cols(c)
            assert rows.dtype == want_rows.dtype and np.array_equal(rows, want_rows), name
            assert cols.dtype == want_cols.dtype and np.array_equal(cols, want_cols), name
            parts.append((rows, cols))
            assert cell.pivot_trace(cols, 7) == piece.pivot_trace(cols, 7), name
        ks = np.array(sorted(rng.sample(range(cell.dim), (cell.dim + 1) // 2)), dtype=np.intp)
        for rows, cols in parts:
            for sel in (None, ks):
                for side, part in (("left", rows), ("right", cols)):
                    got = getattr(cell, side)(part, sel)
                    want = getattr(piece, side)(part, sel)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (name, side)
        got_center = [(tuple(c.tolist()), den) for c, den in center_basis(cell, gens)]
        want_center = [(tuple(c.tolist()), den) for c, den in center_basis(piece, gens)]
        assert got_center == want_center, name
        got, want = decompose(span, gens, unit), decompose(piece_span, gens, unit)
        assert got.status == want.status == wedderburn.SPLIT, name
        assert got == want, name


def _row_sets(span):
    """Per block, the set of its elements' rows."""
    out = {}
    for k in range(span.dim):
        h, j, x = span.element(k)
        out.setdefault((h, j), set()).add(tuple(x.ravel().tolist()))
    return out


def test_corner_rows_are_the_reduced_rows():
    # The label rows span the reduction path's blocks, row for row, and in
    # the cube's numbering they are its elements one by one: the same
    # dense blocks, pivots and maxima, and the same certificate.
    for d in range(2, 10):
        for x in _vertices(d):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            rep = verify_u0(ctx, basis)
            got = complement_algebra(ctx, basis, rep)
            want = _reduced_corner(ctx, basis, rep)
            name = f"d={d} x={x}"
            assert got.span.cells is not None and want.span.cells is None, name
            assert got.dim == want.dim == basis.dim - (d + 1) ** 2, name
            assert _row_sets(got.span) == _row_sets(want.span), name
            assert got.identity == want.identity, name
            assert got.span.closed_unit == want.span.closed_unit == got.identity, name
            for k in range(want.dim):
                (h, j, block), (h2, j2, block2) = got.span.element(k), want.span.element(k)
                assert (h, j) == (h2, j2) and np.array_equal(block, block2), (name, k)
                assert block.dtype == block2.dtype and not block.flags.writeable, (name, k)
                assert got.span.pivot(k) == want.span.pivot(k), (name, k)
                assert got.span.row_max(k) == want.span.row_max(k), (name, k)


def test_cell_kernels_take_the_object_path(monkeypatch):
    # With the int64 bound lowered in _intops and echelon, the only modules
    # that read it, the cell kernels sum on Python ints; the split of T and
    # of its corner must not change.
    cases = []
    for d in (4, 5, 6):
        ctx = build_hypercube_context(d, 5)
        basis = ctx.algebra_basis()
        corner = complement_algebra(ctx, basis, verify_u0(ctx, basis))
        gens = ctx.generators()
        cases += [(basis, gens, None), (corner.span, gens, corner.identity)]
    expected = [decompose(*case) for case in cases]
    sums, frames = [], []
    real_sums, real_frame = closure_module.CellForm.sums, _PivotBasis._frame

    def recording_sums(form, part, at):
        sums.append(part.dtype == object)
        return real_sums(form, part, at)

    def recording_frame(pb, c, rows):
        out = real_frame(pb, c, rows)
        frames.append(out.dtype == object)
        return out

    monkeypatch.setattr(closure_module.CellForm, "sums", recording_sums)
    monkeypatch.setattr(_PivotBasis, "_frame", recording_frame)
    for module in (_intops, echelon):
        monkeypatch.setattr(module, "INT64_SAFE", 1 << 12)
    for case, want in zip(cases, expected):
        assert decompose(*case) == want
    assert any(sums) and not all(sums)
    assert any(frames) and not all(frames)


def test_cells_with_uneven_line_counts_take_the_reduction_path():
    # The cells of T with two labels swapped in one block: the classes are
    # still there, but their row counts are no longer constant.  The table
    # reads a tampered copy of dist, not dist itself, so no count is taken
    # from the p-table, and the corner is reduced from the span's elements,
    # as from the same elements held as echelon rows.
    ctx = build_hypercube_context(5, 9)
    basis = ctx.algebra_basis()
    rep = verify_u0(ctx, basis)
    labels = np.array(ctx.dist.dist)
    rows, cols = ctx.spheres[2], ctx.spheres[2]
    block = labels[np.ix_(rows, cols)]
    (r1, c1), (r2, c2) = np.argwhere(block == 0)[0], np.argwhere(block == 2)[0]
    y1, z1, y2, z2 = rows[r1], cols[c1], rows[r2], cols[c2]
    labels[y1, z1], labels[y2, z2] = labels[y2, z2], labels[y1, z1]
    t = basis.cells.table
    table = closure_module.CellTable(t.classes, labels, t._lo, t._nv, t._owner, t._lookup, t.blocks)
    tampered = copy.copy(basis)
    tampered.cells = closure_module.CellForm(table, basis.cells.index, basis.cells.coef, basis.cells.pivots)
    assert cell_line_counts(ctx, basis) is not None
    assert cell_line_counts(ctx, tampered) is None
    assert wedderburn._label_corner(ctx, tampered) is None
    got = complement_algebra(ctx, tampered, rep)
    want = _reduced_corner(ctx, tampered, rep)
    assert got.span.cells is None and got.dim == want.dim
    for k in range(want.dim):
        (h, j, x), (h2, j2, x2) = got.span.element(k), want.span.element(k)
        assert (h, j) == (h2, j2) and np.array_equal(x, x2)


def test_a_wrong_p_table_fails_centrality_on_the_count_path():
    # One entry p^a_vb, a != b, of p_table raised by 1: the table still
    # reads dist and the classes are the spheres, so the counts are read
    # off the wrong table, and the cells it counts no longer commute with U0.
    for d in (2, 5, 8):
        ctx = build_hypercube_context(d, 5 % (1 << d))
        basis = ctx.algebra_basis()
        assert verify_u0(ctx, basis).central
        a, v, b = next(tuple(e) for e in np.argwhere(ctx.p_table != 0).tolist() if e[0] != e[2])
        table = ctx.p_table.copy()
        table[a, v, b] += 1
        wrong = dataclasses.replace(ctx, p_table=table)
        assert wrong.dist.dist is ctx.dist.dist and cell_line_counts(wrong, basis) is not None
        rep = verify_u0(wrong, basis)
        assert rep.central is False and not rep.passed, d


def test_a_cell_basis_over_a_copy_of_dist_takes_the_row_path(monkeypatch):
    # The same cells over an equal copy of dist: the counts are not read
    # off the p-table, the line sums are formed from the elements, and the
    # report is the same.
    summed = []
    real_line_sums = closure_module.BlockSpans.line_sums

    def recording_line_sums(span):
        summed.append(span)
        return real_line_sums(span)

    monkeypatch.setattr(closure_module.BlockSpans, "line_sums", recording_line_sums)
    for d in range(0, 8):
        for x in _vertices(d):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            copied = closure_module.closure(ctx.generators(), ctx.dist.dist.copy())
            assert copied.cells is not None and copied.cells.is_cells, (d, x)
            assert cell_line_counts(ctx, copied) is None, (d, x)
            summed.clear()
            want = verify_u0(ctx, basis)
            assert summed == [], (d, x)
            got = verify_u0(ctx, copied)
            assert summed == [copied], (d, x)
            assert got == want and got.passed, (d, x)


def test_verify_u0_on_the_cells_reduces_only_the_sphere_table(monkeypatch):
    # On the certified basis the U0 checks reduce nothing but the d+1 rows
    # of the sphere table, for its rank.
    calls = []
    real_add = echelon.EchelonSpan.add

    def counting_add(span, vec):
        calls.append(len(vec))
        return real_add(span, vec)

    monkeypatch.setattr(echelon.EchelonSpan, "add", counting_add)
    for d in range(0, 9):
        ctx = build_hypercube_context(d, 5 % (1 << d))
        basis = ctx.algebra_basis()
        calls.clear()
        assert verify_u0(ctx, basis).passed, d
        assert calls == [d + 1] * (d + 1), d


def test_every_verify_diameter_splits_on_the_cell_path(monkeypatch):
    # T and its corner, at every diameter of a sweep, are read through
    # their cells; no split there takes the piece path.
    paths = []
    real_init = _PivotBasis.__init__

    def recording_init(pb, span):
        real_init(pb, span)
        paths.append((span.n, pb.cells is not None))

    monkeypatch.setattr(_PivotBasis, "__init__", recording_init)
    report = verify.run_verification(8, vertex=3)
    assert report.overall == "pass"
    assert all(cells for _n, cells in paths)
    # One split of T per diameter 0..8, one of the corner per d >= 2.
    assert sorted(n for n, _cells in paths) == sorted(
        [1 << d for d in range(0, 9)] + [1 << d for d in range(2, 9)]
    )


def test_the_cell_path_forms_no_n_wide_index(monkeypatch):
    # The split of a cell span reads the table at its m pivot rows and
    # columns: no index table of n^2 entries is formed on the way.
    ctx = build_hypercube_context(7, 5)
    basis = ctx.algebra_basis()
    corner = complement_algebra(ctx, basis, verify_u0(ctx, basis))
    gens = ctx.generators()
    expected = [decompose(basis, gens), decompose(corner.span, gens, corner.identity)]
    real_rows, real_cols = closure_module.CellTable.rows, closure_module.CellTable.cols
    shapes = []

    def rows(table, ys):
        out = real_rows(table, ys)
        shapes.append(out.shape)
        return out

    def cols(table, zs):
        out = real_cols(table, zs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(closure_module.CellTable, "rows", rows)
    monkeypatch.setattr(closure_module.CellTable, "cols", cols)
    got = [decompose(basis, gens), decompose(corner.span, gens, corner.identity)]
    assert got == expected
    n, m = basis.n, (basis.dim, corner.dim)
    assert sorted(shapes) == sorted([(m[0], n), (n, m[0]), (m[1], n), (n, m[1])])
