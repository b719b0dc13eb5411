"""The cell path of the split and the corner read off the triple-label cells.

A span that closure() certified on its triple-label basis carries a cell
table: each pair (y, z) maps to the element whose triple class holds it.
wedderburn reads such a span through the table (frames by one gather,
pivot products and traces by one scatter-add by cell), and every result
must be the one read off the dense elements; a span not in cell form is
refused.  verify_u0 and
complement_algebra read T only on that basis, over ctx.dist.dist itself:
the U0 checks and the corner come from the cells' counts, the corner must
be the dense compression's reduced basis, and any other span is refused.
"""

import dataclasses
import importlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dense_views import (
    combine,
    dense_corner,
    dense_diagonal,
    dense_idempotents,
    dense_pivot_idempotents_valid,
    dense_triple_table,
    dense_u0,
    dense_unit,
    densify,
    element_block,
    sphere_indicator_matrix,
)
from test_subconstituent import PETERSEN_EDGES
from test_wedderburn import (
    NOT_CELLS,
    _dense_pivot_entries,
    _dense_split_center,
    _gram_center_basis,
)

from terwalg import _intops, echelon, linalg, verify, wedderburn
from terwalg.graphs import Graph
from terwalg.idempotent import U0Report, cell_line_counts, compute_u0, verify_u0
from terwalg.subconstituent import build_hypercube_context
from terwalg.wedderburn import _PivotBasis, center_basis, complement_algebra, decompose

closure_module = importlib.import_module("terwalg.closure")


def _vertices(d):
    return sorted({0, 5 % (1 << d), (1 << d) - 1})


def _piece_span(span):
    """The same span held as echelon rows, a BlockSpans with no cell table:
    the form the split refuses.  Its elements are reduced already, so each
    is stored as it stands, in its order, and keeps its number."""
    piece = closure_module.BlockSpans(span.n, span.classes)
    for k in range(span.dim):
        h, j, block = element_block(span, k)
        assert piece.add(h, j, block) == k
        assert np.array_equal(piece.element(k)[2], block)
    return piece


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
        h, j, x = element_block(span, k)
        rows, cols = span.classes[h], span.classes[j]
        r, c = np.nonzero(x)
        assert np.all(x[r, c] == 1) and np.all(cells[rows[r], cols[c]] == -1)
        cells[rows[r], cols[c]] = k
    assert np.all(cells >= 0)
    return cells


def test_cell_table_reads_the_elements_of_t():
    # Every reader of the table gives the part of the dense cell map it
    # names, every cell of block (h, j) is named with that block and its
    # label, and the line counts read off the p-table are the constant line
    # sums of the pieces.
    for d in range(0, 7):
        for x in _vertices(d):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            assert isinstance(basis, closure_module.CellForm) and basis.is_cells
            table = basis.table
            dense = _dense_cells(basis)
            ys = np.array([0, basis.n - 1, basis.n // 2], dtype=np.intp)
            assert np.array_equal(table.rows(ys), dense[ys])
            assert np.array_equal(table.cols(ys), dense[:, ys])
            assert np.array_equal(table.diagonal(), np.diagonal(dense))
            for h, rows in enumerate(basis.classes):
                for j, cols in enumerate(basis.classes):
                    block = dense[np.ix_(rows, cols)]
                    assert np.all(table.blocks[block] == (h, j)), (d, x, h, j)
                    labels = ctx.dist.dist[np.ix_(rows, cols)]
                    assert np.array_equal(table.values[block], labels), (d, x, h, j)
            _sigma, row_count, col_count = cell_line_counts(ctx, basis)
            for k in range(basis.dim):
                assert basis.block(k) == tuple(table.blocks[k].tolist()), (d, x, k)
                _h, _j, piece = element_block(basis, k)
                assert set(piece.sum(axis=1).tolist()) == {row_count[k]}, (d, x, k)
                assert set(piece.sum(axis=0).tolist()) == {col_count[k]}, (d, x, k)


def test_cell_line_sums_are_the_line_sums_of_the_elements(spans):
    # Each corner row a 1_C - b 1_C0 sums to zero over its block, with the
    # cells counted one by one off the labels of the block:
    # a |C| = b |C0|, with gcd(a, b) = 1.
    for name, span, _gens, _unit in spans:
        assert isinstance(span, closure_module.CellForm), name
        if span.is_cells:
            continue
        table = span.table
        for k, ((c, c0), (a, minus_b)) in enumerate(zip(span.index.tolist(), span.coef.tolist())):
            h, j = span.block(k)
            labels = table.labels[np.ix_(span.classes[h], span.classes[j])]
            size, size0 = (int(np.count_nonzero(labels == table.values[cell])) for cell in (c, c0))
            assert a * size + minus_b * size0 == 0 and math.gcd(a, minus_b) == 1, (name, k)
            assert int(element_block(span, k)[2].sum()) == 0, (name, k)


def _dense_report(ctx, t, dim_smaller):
    """The U0Report read off dense n x n matrices, with no cell of t read:
    U0 summed from the sphere indicators, T's elements densified, and both
    formulas of compute_u0 expanded entry by entry."""
    u0 = dense_u0(ctx)
    s = sphere_indicator_matrix(ctx)
    sizes = s.sum(axis=1).tolist()
    big = math.lcm(*sizes)
    primal, dual, den = compute_u0(ctx)
    elements = densify(t)
    ideal = echelon.EchelonSpan(ctx.n * (ctx.d + 1))
    for b in elements:
        ideal.add(_intops.exact_matmul(b.num, s.T).ravel())
    ends = (0, ctx.d)
    absorbed = [u0 @ e == e for e in (dense_idempotents(ctx)[i] for i in ends)]
    absorbed += [u0 @ e == e for e in (dense_diagonal(ctx.E_star[i]) for i in ends)]
    return U0Report(
        d=ctx.d,
        m=tuple(big // k for k in sizes),
        L=big,
        formulas_agree=dense_triple_table(ctx, primal, den) == dense_triple_table(ctx, dual, den),
        idempotent=u0 @ u0 == u0,
        central=all(u0 @ b == b @ u0 for b in elements),
        rank_U0=linalg.rank(u0),
        dim_T_u0=ideal.dim,
        absorbs_E0=absorbed[0],
        absorbs_Ed=absorbed[1],
        absorbs_E0_star=absorbed[2],
        absorbs_Ed_star=absorbed[3],
        peel_identity=dim_smaller is None or t.dim - (ctx.d + 1) ** 2 == dim_smaller,
    )


def test_verify_u0_reads_the_same_report_off_the_cells():
    # verify_u0 on T's cells and the report read off the dense matrices:
    # every field is the same, with the peel identity checked against the
    # true dim T two diameters down and against a wrong one.
    for d in range(0, 8):
        for x in _vertices(d):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            smaller = build_hypercube_context(d - 2, 0).algebra_basis().dim if d >= 2 else None
            got, want = verify_u0(ctx, basis, smaller), _dense_report(ctx, basis, smaller)
            for field in dataclasses.fields(want):
                assert getattr(got, field.name) == getattr(want, field.name), (d, x, field.name)
            assert got.passed, (d, x)
            wrong = dataclasses.replace(want, peel_identity=False)
            assert verify_u0(ctx, basis, basis.dim) == wrong, (d, x)


def test_cell_path_matches_the_piece_path(spans):
    # The piece path is gone: the same span held as echelon rows, with no
    # cell table, is refused at every entry of the split.  The cell path's
    # kernels, center and split are those read off the dense elements
    # (n <= 32), dtype included.
    rng = random.Random(41)
    for name, span, gens, unit in spans:
        piece_span = _piece_span(span)
        with pytest.raises(ValueError, match=NOT_CELLS):
            _PivotBasis(piece_span)
        with pytest.raises(ValueError, match=NOT_CELLS):
            center_basis(piece_span, gens)
        with pytest.raises(ValueError, match=NOT_CELLS):
            decompose(piece_span, gens, unit)
        if span.n > 32:
            continue
        cell, mats = _PivotBasis(span), densify(span)
        assert cell.maxes == [int(np.abs(b.num).max()) for b in mats], name
        assert cell.traces == [int(b.trace()) for b in mats], name
        a = gens[0].num
        parts = [(a, a[cell.rows], a[:, cell.cols])]
        for _ in range(2):
            c = [rng.randrange(-40, 41) for _ in range(cell.dim)]
            z = combine(span, c).num
            rows, cols = cell.frame_rows(c), cell.frame_cols(c)
            assert rows.dtype == cols.dtype == np.int64, name
            assert np.array_equal(rows, z[cell.rows]) and np.array_equal(cols, z[:, cell.cols]), name
            parts.append((z, rows, cols))
            # tr(b -> b z) = sum_k (b_k z)[R_k, C_k] / pv_k, here over 7.
            entries = [_intops.exact_matmul(b.num, z)[r, c] for b, r, c in zip(mats, cell.rows, cell.cols)]
            want = sum(Fraction(int(v), 7 * p) for v, p in zip(entries, cell.pivvals))
            assert cell.pivot_trace(cols, 7) == want, name
        ks = np.array(sorted(rng.sample(range(cell.dim), (cell.dim + 1) // 2)), dtype=np.intp)
        for g, rows, cols in parts:
            for side, part in (("left", rows), ("right", cols)):
                want = _dense_pivot_entries(mats, g, side)
                for sel in (None, ks):
                    got = getattr(cell, side)(part, sel)
                    expected = want if sel is None else want[:, sel]
                    assert got.dtype == np.int64 and np.array_equal(got, expected), (name, side)
        center = [combine(span, *z) for z in center_basis(cell, gens)]
        assert center == _gram_center_basis(mats, gens), name
        e = dense_unit(span, unit)
        status, mp, roots, idems, ranks = _dense_split_center(center, e)
        dec = decompose(span, gens, unit)
        assert dec.status == status == wedderburn.SPLIT, name
        assert (dec.probe_min_poly, dec.eigenvalues, dec.block_ranks) == (mp, roots, ranks), name
        assert tuple(combine(span, *z) for z in dec.central_idempotents) == idems, name
        assert dense_pivot_idempotents_valid(cell, list(idems), e), name


def test_corner_rows_are_the_reduced_rows():
    # The label rows are the reduced echelon basis of the dense W B W at
    # width n^2 (dense_corner), element by element, and each element's
    # pivot and maximum are those of its block, read off the labels; the
    # corner carries the certificate for its unit.
    for d in range(2, 8):
        for x in _vertices(d):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            got = complement_algebra(ctx, basis, verify_u0(ctx, basis))
            want = dense_corner(ctx, basis)
            name = f"d={d} x={x}"
            assert isinstance(got.span, closure_module.CellForm), name
            assert got.dim == len(want) == basis.dim - (d + 1) ** 2, name
            assert got.span.closed_unit == got.identity, name
            assert densify(got) == want, name
            for k in range(got.dim):
                _h, _j, block = element_block(got.span, k)
                r, c = np.argwhere(block)[0]
                assert got.span.pivot(k) == (r, c, int(block[r, c])), (name, k)
                assert got.span.row_max(k) == int(np.abs(block).max()), (name, k)


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


def _tampered_cells(ctx, basis):
    """T's cells over a copy of dist with two labels swapped in the block of
    the sphere S_2 (d >= 4): the classes are still there, but their line
    counts are no longer constant."""
    labels = np.array(ctx.dist.dist)
    rows, cols = ctx.spheres[2], ctx.spheres[2]
    block = labels[np.ix_(rows, cols)]
    (r1, c1), (r2, c2) = np.argwhere(block == 0)[0], np.argwhere(block == 2)[0]
    y1, z1, y2, z2 = rows[r1], cols[c1], rows[r2], cols[c2]
    labels[y1, z1], labels[y2, z2] = labels[y2, z2], labels[y1, z1]
    t = basis.table
    table = closure_module.CellTable(t.classes, labels, t._lo, t._nv, t._owner, t._lookup, t.blocks)
    return dataclasses.replace(basis, table=table)


def _even_lines(x):
    """Does every row of x have one sum, and every column one sum?"""
    return len(set(x.sum(axis=1).tolist())) == len(set(x.sum(axis=0).tolist())) == 1


def test_cells_with_uneven_line_counts_take_the_reduction_path():
    # The cells of T with two labels swapped in one block: the classes are
    # still there, but their line counts are no longer constant, so no count
    # can be read off the p-table.  The reduction path that once took such
    # cells is gone: verify_u0 and complement_algebra refuse them, as
    # reading an array other than dist, and read the untampered cells.
    ctx = build_hypercube_context(5, 9)
    basis = ctx.algebra_basis()
    rep = verify_u0(ctx, basis)
    tampered = _tampered_cells(ctx, basis)
    sigma = cell_line_counts(ctx, basis)[0]
    uneven = [k for k in range(tampered.dim) if not _even_lines(element_block(tampered, k)[2])]
    assert uneven and all([sigma[h] for h in tampered.block(k)] == [2, 2] for k in uneven)
    assert all(_even_lines(element_block(basis, k)[2]) for k in range(basis.dim))
    other = "reads an array other than ctx.dist.dist"
    with pytest.raises(ValueError, match=other):
        verify_u0(ctx, tampered)
    with pytest.raises(ValueError, match=other):
        complement_algebra(ctx, tampered, rep)
    assert rep.passed and complement_algebra(ctx, basis, rep).dim == basis.dim - 36


def test_u0_and_its_corner_refuse_any_basis_but_the_cells_of_dist():
    # verify_u0 and complement_algebra read T only as its certified
    # triple-label basis over ctx.dist.dist itself.  Every other basis is
    # refused with a ValueError that names the first condition it fails,
    # even where its report would come out the same (an equal copy of dist).
    for d, x in ((4, 9), (6, 9)):
        ctx = build_hypercube_context(d, x)
        basis = ctx.algebra_basis()
        rep = verify_u0(ctx, basis)
        corner = complement_algebra(ctx, basis, rep)
        looped = closure_module.closure(ctx.generators())
        copied = closure_module.closure(ctx.generators(), ctx.dist.dist.copy())
        tampered = _tampered_cells(ctx, basis)
        assert isinstance(looped, closure_module.BlockSpans) and looped.dim == basis.dim
        for span in (copied, tampered):
            assert span.is_cells
            assert [c.tolist() for c in span.classes] == [c.tolist() for c in basis.classes]
        assert not corner.span.is_cells
        other = "reads an array other than ctx.dist.dist"
        cases = [
            # (a) the product loop's basis of the same algebra
            (looped, "not in cell form"),
            # (b) the same cells over an equal copy of dist
            (copied, other),
            # (c) the same cells over tampered labels
            (tampered, other),
            # the corner's rows, two cells each
            (corner.span, "not a single cell"),
        ]
        for span, message in cases:
            with pytest.raises(ValueError, match=message):
                verify_u0(ctx, span)
            with pytest.raises(ValueError, match=message):
                complement_algebra(ctx, span, rep)


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
        assert wrong.dist.dist is ctx.dist.dist
        assert table[a, v, b] in cell_line_counts(wrong, basis)[1]
        rep = verify_u0(wrong, basis)
        assert rep.central is False and not rep.passed, d


def test_a_cell_basis_over_a_copy_of_dist_takes_the_row_path():
    # The same cells over an equal copy of dist: element for element the
    # certified basis, with the same cell labels.  The row path that once
    # summed its elements is gone, so the counts are never read off an
    # array that may differ from dist: both functions refuse the copy.
    other = "reads an array other than ctx.dist.dist"
    for d in range(0, 8):
        for x in _vertices(d):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            copied = closure_module.closure(ctx.generators(), ctx.dist.dist.copy())
            assert isinstance(copied, closure_module.CellForm) and copied.is_cells, (d, x)
            assert copied.table.labels is not ctx.dist.dist, (d, x)
            assert copied.dim == basis.dim, (d, x)
            for k in range(basis.dim):
                (h, j, a), (h2, j2, b) = element_block(copied, k), element_block(basis, k)
                assert (h, j) == (h2, j2) and np.array_equal(a, b), (d, x, k)
            assert np.array_equal(copied.table.values, basis.table.values), (d, x)
            rep = verify_u0(ctx, basis)
            assert rep.passed, (d, x)
            with pytest.raises(ValueError, match=other):
                verify_u0(ctx, copied)
            with pytest.raises(ValueError, match=other):
                complement_algebra(ctx, copied, rep)


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
    # their cells; no split there meets a span it refuses.
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


def test_the_cube_path_builds_no_row_span(monkeypatch):
    # The cube's T is certified on its labels, so no command on the cube
    # builds the product loop's span, and no split forms an element's
    # block: with BlockSpans refusing to be made, a sweep and a parameter
    # report, each of which splits, give the same reports.  The graph
    # report of the Petersen graph, whose labels fail the certificate, runs
    # the product loop and meets the refusal.
    want = verify.run_verification(6, vertex=5), verify.build_parameter_report(6, 5)

    def refused(span, *args):
        raise AssertionError("a row span was built")

    monkeypatch.setattr(closure_module.BlockSpans, "__init__", refused)
    got = verify.run_verification(6, vertex=5), verify.build_parameter_report(6, 5)
    assert got[0].to_json() == want[0].to_json() and got[0].overall == "pass"
    assert got[1] == want[1] and got[1]["blocks"] == [7, 5, 3, 1]
    with pytest.raises(AssertionError, match="a row span was built"):
        verify.build_graph_report(Graph.from_edges(10, PETERSEN_EDGES), 3)


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
