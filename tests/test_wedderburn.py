"""Tests for center computation and block decomposition."""

import dataclasses
import math
import sys
from fractions import Fraction

import dense_views
import numpy as np
import pytest
from dense_views import (
    combine,
    dense_corner,
    dense_diagonal,
    dense_generators,
    dense_pivot_idempotents_valid,
    dense_u0,
    dense_unit,
    densify,
    matrix_min_poly,
)
from test_subconstituent import _oracle_graphs

from terwalg import _intops, echelon, idempotent, verify, wedderburn
from terwalg._intops import INT64_SAFE, exact_matmul, exact_scale, exact_sub
from terwalg.checks import Check
from terwalg.closure import BlockSpans, closure, identity_unit, unit_table
from terwalg.echelon import EchelonSpan
from terwalg.idempotent import verify_u0
from terwalg.linalg import RationalMatrix, kernel_basis, rank
from terwalg.polys import integer_roots
from terwalg.subconstituent import build_context, build_hypercube_context
from terwalg.wedderburn import (
    INCONCLUSIVE,
    SPLIT,
    BlockDecomposition,
    _pivot_idempotent_dims,
    _PivotBasis,
    block_sizes,
    center_basis,
    complement_algebra,
    decompose,
    split_center,
)


def _pivot_idempotents_valid(pb, idems, e):
    """The guard's verdict alone: whether it found the z_r valid."""
    return _pivot_idempotent_dims(pb, idems, e) is not None


EXPECTED_BLOCKS = {
    0: (1,),
    1: (2,),
    2: (3, 1),
    3: (4, 2),
    4: (5, 3, 1),
    5: (6, 4, 2),
}


@pytest.fixture(scope="module")
def suite():
    data = {}
    for d in range(0, 6):
        ctx = build_hypercube_context(d)
        data[d] = (ctx, ctx.algebra_basis())
    return data


def _dense_all(span, zs):
    """The dense n x n matrices of coordinates (c, den) over span's basis."""
    pb = _PivotBasis(span)
    return [combine(pb, *z) for z in zs]


def _fractions(z):
    c, den = z
    return [Fraction(int(v), den) for v in c]


def _coords(fracs):
    """Canonical coordinates (c, den) of a list of Fractions."""
    den = math.lcm(1, *(f.denominator for f in fracs))
    return tuple(int(f * den) for f in fracs), den


def _as_tuples(center):
    return [(tuple(int(v) for v in c), den) for c, den in center]


def _dense_coordinates(pb, z):
    """Coordinates of a dense element of the span, z[R_k, C_k] / pv_k."""
    entries = z.num[pb.rows, pb.cols]
    return _coords([Fraction(int(v), z.den * p) for v, p in zip(entries, pb.pivvals)])


def _frame(pb, z):
    """(pivot rows, pivot columns, den) of a dense matrix, read off it, or
    of coordinates (c, den), summed from the pieces."""
    if isinstance(z, RationalMatrix):
        return z.num[pb.rows], z.num[:, pb.cols], z.den
    return pb.frame_rows(z[0]), pb.frame_cols(z[0]), z[1]


def _gram_center_basis(mats, generators):
    """Reference center: the kernel of the Gram matrix of the full commutators.

    A rational vector is in the kernel of the stacked commutator map iff it
    is in the kernel of its Gram matrix, because the Gram form is a sum of
    squares.  This works at width n^2 and needs no closure assumption.
    """
    generators = dense_generators(generators)
    n = mats[0].nrows
    rows = []
    for b in mats:
        parts = []
        for g in generators:
            comm = exact_sub(exact_matmul(b.num, g.num), exact_matmul(g.num, b.num))
            parts.append(comm.ravel())
        rows.append(np.concatenate(parts))
    stacked = np.stack(rows)
    gram = exact_matmul(stacked, stacked.T)
    center = []
    for alpha in kernel_basis(RationalMatrix(gram, 1)):
        acc = RationalMatrix.zeros(n, n)
        for coeff, b in zip(alpha, mats):
            if coeff:
                acc = acc + b * coeff
        center.append(acc)
    return center


def test_center_matches_gram_reference(suite):
    # kernel_basis depends only on the row space, and the pivot matrix and
    # the Gram matrix have the same kernel, so the two centers must be equal,
    # not just span-equal.
    for d in range(0, 6):
        ctx, basis = suite[d]
        got = _dense_all(basis, center_basis(basis, ctx.generators()))
        assert got == _gram_center_basis(densify(basis), ctx.generators()), f"d={d}"


def test_corner_center_matches_gram_reference(suite):
    for d in range(2, 6):
        ctx, _basis = suite[d]
        corner, _dec = _corner_decomposition(suite, d)
        got = _dense_all(corner.span, center_basis(corner.span, ctx.generators()))
        want = _gram_center_basis(densify(corner), ctx.generators())
        assert got == want, f"corner d={d}"


def _assert_block_data_dense(span, dec):
    assert dec.status == SPLIT
    mats = densify(span)
    n = mats[0].nrows
    idems = _dense_all(span, dec.central_idempotents)
    for z, size, rk in zip(idems, dec.block_sizes, dec.block_ranks):
        assert rk == rank(z)
        span = EchelonSpan(n * n)
        for b in mats:
            span.add(exact_matmul(b.num, z.num).ravel())
        assert span.dim == size * size


def test_block_data_matches_dense_spans(suite):
    # Block ranks against an elimination of each idempotent, and block sizes
    # against dim span{b z} taken at width n^2.
    for d in range(0, 6):
        ctx, basis = suite[d]
        _assert_block_data_dense(basis, decompose(basis, ctx.generators()))
    for d in range(2, 6):
        corner, dec = _corner_decomposition(suite, d)
        _assert_block_data_dense(corner.span, dec)


def test_unclosed_span_is_not_split(suite):
    # span{I, E*_0 + E*_3} is not closed under A.  The pivot test wrongly
    # finds it central, and its probe would split cleanly; the span carries
    # no closedness certificate, so neither call splits it.
    ctx, _basis = suite[3]
    n = ctx.n
    span = BlockSpans(n, (np.arange(n),))
    span.add(0, 0, RationalMatrix.identity(n).num)
    span.add(0, 0, dense_diagonal(ctx.E_star[0] + ctx.E_star[3]).num)
    center = center_basis(span, ctx.generators())
    assert len(center) == 2
    for dec in (split_center(span, center), decompose(span, ctx.generators())):
        assert dec.status == INCONCLUSIVE
        assert dec.central_idempotents == dec.eigenvalues == dec.block_ranks == ()


def test_center_dimensions(suite):
    for d in (1, 4):
        ctx, basis = suite[d]
        center = center_basis(basis, ctx.generators())
        assert len(center) == d // 2 + 1


def test_center_contains_identity(suite):
    for d in range(0, 6):
        ctx, basis = suite[d]
        center = center_basis(basis, ctx.generators())
        span = EchelonSpan(ctx.n * ctx.n)
        for c in _dense_all(basis, center):
            span.add(c.num.ravel())
        assert span.contains(RationalMatrix.identity(ctx.n).num.ravel())


def test_split_single_block(suite):
    ctx, basis = suite[1]
    dec = split_center(basis, center_basis(basis, ctx.generators()))
    assert dec.status == SPLIT
    assert _dense_all(basis, dec.central_idempotents) == [RationalMatrix.identity(2)]
    filled = block_sizes(dec)
    assert filled.block_sizes == (2,)


def test_split_with_probe_eigenvalues_past_10_to_the_6():
    # The diagonal algebra spanned by e_kk, generated by one diagonal matrix
    # with distinct entries, with center c_k = (10^7 + k) e_kk.  The first
    # probe (weights 7^k) has the eigenvalues 7^k (10^7 + k), from
    # 10,000,000 to 168,070,084,035, all above 10^6.
    m = 6
    span = closure([RationalMatrix(np.diag(np.arange(m)))])
    basis = list(densify(span))
    assert basis == [RationalMatrix(np.diag(row)) for row in np.eye(m, dtype=np.int64)]
    units = np.eye(m, dtype=np.int64)
    center = [(units[k] * (10**7 + k), 1) for k in range(m)]
    assert _dense_all(span, center) == [b * (10**7 + k) for k, b in enumerate(basis)]
    dec = split_center(span, center)
    assert dec.status == SPLIT
    assert dec.eigenvalues == tuple(7**k * (10**7 + k) for k in range(m))
    assert dec.eigenvalues[0] == 10_000_000
    assert dec.eigenvalues[-1] == 168_070_084_035
    assert _dense_all(span, dec.central_idempotents) == basis
    assert dec.block_ranks == (1,) * m


def test_decompose_expected_blocks(suite):
    for d in range(0, 6):
        ctx, basis = suite[d]
        dec = decompose(basis, ctx.generators())
        assert dec.status == SPLIT
        assert dec.multiset == EXPECTED_BLOCKS[d], f"d={d}"
        assert dec.center_dim == d // 2 + 1
        assert sum(n * n for n in dec.block_sizes) == basis.dim
        assert all(r % n == 0 for n, r in zip(dec.block_sizes, dec.block_ranks))


def test_idempotents_form_partition_of_unity(suite):
    ctx, basis = suite[4]
    dec = decompose(basis, ctx.generators())
    idems = _dense_all(basis, dec.central_idempotents)
    zero = RationalMatrix.zeros(ctx.n, ctx.n)
    acc = zero
    for i, zi in enumerate(idems):
        assert zi @ zi == zi
        for j, zj in enumerate(idems):
            if i != j:
                assert zi @ zj == zero
        for g in dense_generators(ctx.generators()):
            assert zi @ g == g @ zi
        acc = acc + zi
    assert acc == RationalMatrix.identity(ctx.n)


def test_idempotent_guard_rejects_bad_partitions():
    # Each case fails exactly one of e^2 = e, z_r^2 = z_r, sum z_r = e; the
    # last one is orthogonal nowhere but sums to e = 2I, which is no
    # idempotent.  Every matrix is diagonal, so it lies in the certified
    # span of the diagonal units, where the pivot guard must agree.
    # The pivot guard reads the z_r as coordinates; the coordinate tampers
    # of _guard_tampers must be rejected as the dense guards reject them.
    eye = RationalMatrix.identity(3)
    span = closure([RationalMatrix(np.diag([0, 1, 2]))])
    pb = _PivotBasis(span)
    p0 = RationalMatrix(np.diag([1, 0, 0]))
    p1 = RationalMatrix(np.diag([0, 1, 1]))
    half = RationalMatrix(np.diag([1, 0, 0]), 2)
    cases = [
        ([half, p1 + half], eye),  # z_1 = z_1^2 fails
        ([p0, p0], eye),  # the sum is not e
        ([eye, eye], eye * 2),  # e^2 != e
    ]

    def coords(mats):
        return [_dense_coordinates(pb, z) for z in mats]

    unit = _dense_coordinates(pb, eye)
    assert _idempotents_valid([p0, p1], eye)
    assert _pairwise_idempotents_valid([p0, p1], eye)
    assert _pivot_idempotents_valid(pb, coords([p0, p1]), unit)
    assert dense_pivot_idempotents_valid(pb, [p0, p1], eye)
    for idems, identity in cases:
        assert _dense_all(span, coords(idems)) == idems
        assert not _idempotents_valid(idems, identity)
        assert not _pairwise_idempotents_valid(idems, identity)
        assert not _pivot_idempotents_valid(pb, coords(idems), _dense_coordinates(pb, identity))
        assert not dense_pivot_idempotents_valid(pb, idems, identity)
    for name, case, identity in _guard_tampers(pb, coords([p0, p1]), unit):
        dense, e = _dense_all(span, case), combine(pb, *identity)
        want = dense_pivot_idempotents_valid(pb, dense, e)
        assert not want and not _idempotents_valid(dense, e), name
        assert _pivot_idempotents_valid(pb, case, identity) == want, name


def test_idempotent_guard_agrees_with_pairwise_check(suite):
    for name, span, gens, identity in _algebras(suite):
        dec = decompose(span, gens, identity)
        e = dense_unit(span, identity)
        idems = _dense_all(span, dec.central_idempotents)
        assert _idempotents_valid(idems, e) and _pairwise_idempotents_valid(idems, e)
        if len(idems) > 1:
            # Merge two blocks: z_1 + z_2 is an idempotent, and replacing
            # z_2 by z_1 keeps every square but breaks the sum.
            merged = [idems[0] + idems[1]] + idems[2:]
            assert _idempotents_valid(merged, e), name
            assert _pairwise_idempotents_valid(merged, e), name
            doubled = [idems[0], idems[0]] + idems[2:]
            assert not _idempotents_valid(doubled, e), name
            assert not _pairwise_idempotents_valid(doubled, e), name


def test_eigenvalues_sorted_and_deterministic(suite):
    ctx, basis = suite[3]
    dec1 = decompose(basis, ctx.generators())
    dec2 = decompose(basis, ctx.generators())
    assert dec1.eigenvalues == tuple(sorted(dec1.eigenvalues))
    assert dec1.eigenvalues == dec2.eigenvalues
    assert dec1.central_idempotents == dec2.central_idempotents


def test_block_sizes_requires_split():
    dec = BlockDecomposition(
        center_dim=2,
        central_idempotents=(),
        eigenvalues=(),
        block_sizes=(),
        block_dims=(),
        block_ranks=(),
        status=INCONCLUSIVE,
        probe_min_poly=None,
    )
    with pytest.raises(ValueError):
        block_sizes(dec)
    assert dec.blocks_json() == "inconclusive"


def test_empty_center_rejected(suite):
    with pytest.raises(ValueError):
        split_center(suite[1][1], [])


def test_complement_algebra_dimension(suite):
    for d in (2, 3, 4):
        ctx, basis = suite[d]
        rep = verify_u0(ctx, basis)
        corner = complement_algebra(ctx, basis, rep)
        assert corner.dim == basis.dim - (d + 1) ** 2
        dense = RationalMatrix.identity(ctx.n) - dense_u0(ctx)
        assert dense_unit(corner.span, corner.identity) == dense


def _corner_decomposition(suite, d):
    ctx, basis = suite[d]
    corner = complement_algebra(ctx, basis, verify_u0(ctx, basis))
    return corner, decompose(corner.span, ctx.generators(), corner.identity)


def test_complement_split_relative_to_corner_identity(suite):
    # The complement of U0 in T_d has the block multiset of T_(d-2).
    for d in (2, 3, 4):
        ctx, _basis = suite[d]
        corner, dec = _corner_decomposition(suite, d)
        assert dec.status == SPLIT
        assert dec.multiset == EXPECTED_BLOCKS[d - 2], f"d={d}"
        acc = RationalMatrix.zeros(ctx.n, ctx.n)
        for z in _dense_all(corner.span, dec.central_idempotents):
            acc = acc + z
        # A partition of the corner unit, not of I.
        assert acc == dense_unit(corner.span, corner.identity)


def test_compare_complement_blocks(suite):
    # Compared with the decomposition of T_(d-2) itself, not the table.
    for d in (2, 3, 4):
        _corner, dec = _corner_decomposition(suite, d)
        small_ctx, small_basis = suite[d - 2]
        dec_small = decompose(small_basis, small_ctx.generators())
        assert dec.status == SPLIT and dec_small.status == SPLIT
        assert dec.multiset == dec_small.multiset, f"d={d}"


# -- dense oracles ----------------------------------------------------------
# Reference implementations that form every element at n x n: pivot entries
# read off full products, the split with matrix_min_poly at width n^2 and
# dense Lagrange products, and the corner and its generators compressed with
# two dense products each.  They need no closed-span assumption for the
# products they read.


def _dense_pivot_entries(mats, g, side):
    """m x m: column k holds the pivot entries of g b_k ("left") or b_k g."""
    piv = [np.flatnonzero(b.num)[0] for b in mats]
    cols = []
    for b in mats:
        prod = exact_matmul(g, b.num) if side == "left" else exact_matmul(b.num, g)
        cols.append(prod.ravel()[piv])
    return np.stack(cols, axis=1)


def _dense_split_center(center, identity=None):
    m = len(center)
    n = center[0].nrows
    if identity is None:
        identity = RationalMatrix.identity(n)
    last_poly = None
    for base in (m + 1, m + 2, 2 * m + 3):
        probe = RationalMatrix.zeros(n, n)
        w = 1
        for ck in center:
            probe = probe + ck * w
            w *= base
        probe_int = RationalMatrix(probe.num, 1)
        mp = matrix_min_poly(probe_int, identity=identity)
        last_poly = mp
        if mp.degree != m:
            continue
        roots = integer_roots(mp)
        if roots is None:
            continue
        idems = []
        for lam in roots:
            z = identity
            for mu in roots:
                if mu != lam:
                    z = z @ (probe_int - identity * mu) * Fraction(1, lam - mu)
            idems.append(z)
        if not _pairwise_idempotents_valid(idems, identity):
            continue
        ranks = tuple(int(z.trace()) for z in idems)
        return SPLIT, mp, tuple(roots), tuple(idems), ranks
    return INCONCLUSIVE, last_poly, (), (), ()


def _compressed_generators(ctx, u0):
    comp = RationalMatrix.identity(ctx.n) - u0
    return tuple(comp @ g @ comp for g in dense_generators(ctx.generators()))


def _pairwise_idempotents_valid(idems, identity):
    """The pairwise reference: z_r^2 = z_r, z_r z_s = 0 for r != s, sum = e."""
    n = identity.nrows
    zero = RationalMatrix.zeros(n, n)
    acc = zero
    for i, zi in enumerate(idems):
        if zi @ zi != zi:
            return False
        for j, zj in enumerate(idems):
            if i != j and zi @ zj != zero:
                return False
        acc = acc + zi
    return acc == identity


def _guard_tampers(pb, idems, identity):
    """(name, idempotents, identity) cases made from a valid split by moving
    its coordinates, each of which the guard must reject: one coordinate of
    z_0 moved by +-1 (the sum fails), two idempotents swapped with one
    doubled, one dropped, and e itself moved by a basis element.  identity
    is e's coordinates (c, den), as the guard takes it."""
    cases = []
    for k in sorted({0, pb.dim // 2, pb.dim - 1}):
        c, den = idems[0]
        for step in (1, -1):
            moved = tuple(c[:k]) + (c[k] + step,) + tuple(c[k + 1 :])
            cases.append((f"c_{k} {step:+d}", [(moved, den)] + idems[1:], identity))
        moved = _coords([f + (i == k) for i, f in enumerate(_fractions(identity))])
        cases.append((f"e + b_{k}", idems, moved))
    if len(idems) > 1:
        doubled = _coords([2 * f for f in _fractions(idems[1])])
        cases.append(("swapped, one doubled", [doubled, idems[0]] + idems[2:], identity))
    cases.append(("z_0 dropped", idems[1:], identity))
    return cases


def _idempotents_valid(idems, identity):
    """The dense guard: e^2 = e, z_r^2 = z_r and sum z_r = e on n x n products.

    Orthogonality follows (see wedderburn._pivot_idempotent_dims).
    """
    if identity @ identity != identity:
        return False
    acc = RationalMatrix.zeros(identity.nrows, identity.ncols)
    for z in idems:
        if z @ z != z:
            return False
        acc = acc + z
    return acc == identity


def _algebras(suite):
    """(name, block spans, generators, identity) for T_d and its corners."""
    for d in range(0, 6):
        ctx, basis = suite[d]
        yield f"T_{d}", basis, ctx.generators(), None
    for d in range(2, 6):
        corner, _dec = _corner_decomposition(suite, d)
        yield f"corner_{d}", corner.span, suite[d][0].generators(), corner.identity


def test_pivots_match_dense_row_major_read(suite):
    # The pivot of a piece, read in block row-major order and mapped
    # through its classes, is the first nonzero of the dense element.
    spans = []
    for d in range(0, 6):
        for x in sorted({0, 5 % (1 << d), (1 << d) - 1}):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            spans.append((f"T_{d} x={x}", basis))
            if d >= 2:
                corner = complement_algebra(ctx, basis, verify_u0(ctx, basis))
                spans.append((f"corner_{d} x={x}", corner.span))
    for name, span in spans:
        pb = _PivotBasis(span)
        mats = densify(span)
        piv = [int(np.flatnonzero(b.num)[0]) for b in mats]
        rows, cols = np.divmod(np.array(piv, dtype=np.intp), span.n)
        assert np.array_equal(pb.rows, rows), name
        assert np.array_equal(pb.cols, cols), name
        assert pb.pivvals == [int(b.num.flat[p]) for b, p in zip(mats, piv)], name


def test_combine_matches_dense_sum(suite, monkeypatch):
    # The densifying oracle itself.  The second pass, with the int64 bound
    # at 1, adds on Python ints.
    cases = []
    for name, span, _gens, _identity in _algebras(suite):
        coeffs = [(-1) ** k * (k + 2) for k in range(span.dim)]
        want = RationalMatrix.zeros(span.n, span.n)
        for c, b in zip(coeffs, densify(span)):
            want = want + b * Fraction(c, 3)
        cases.append((name, _PivotBasis(span), coeffs, want))
    for safe in (dense_views.INT64_SAFE, 1):
        monkeypatch.setattr(dense_views, "INT64_SAFE", safe)
        for name, pb, coeffs, want in cases:
            assert combine(pb, coeffs, 3) == want, (name, safe)


def test_pivot_kernel_matches_dense_products(suite):
    for name, span, gens, identity in _algebras(suite):
        pb = _PivotBasis(span)
        mats = densify(span)
        dec = decompose(span, gens, identity)
        for z in dense_generators(gens) + list(dec.central_idempotents):
            rows, cols, den = _frame(pb, z)
            dense = z if isinstance(z, RationalMatrix) else combine(pb, *z)
            for side, part in (("left", rows), ("right", cols)):
                got = getattr(pb, side)(part)
                want = _dense_pivot_entries(mats, dense.num, side)
                # got / den and want / dense.den are the same pivot entries.
                assert np.array_equal(
                    exact_scale(got, dense.den), exact_scale(want, den)
                ), (name, side)


def _bounds_at_the_guard(monkeypatch, *modules):
    """Raise every bound that the modules hand to _intops.guarded to
    INT64_SAFE, so that each of their kernels runs on Python ints while
    demote keeps its own bound."""
    real = _intops.guarded

    def at_the_guard(bound, fn, *operands, **kwargs):
        return real(max(bound, _intops.INT64_SAFE), fn, *operands, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "guarded", at_the_guard)


def test_pivot_kernel_object_path(suite, monkeypatch):
    # With every bound at the guard each pivot product runs on Python ints;
    # the demoted result must be the same int64 array.
    ctx, basis = suite[4]
    pb = _PivotBasis(basis)
    frames = [_frame(pb, g) for g in dense_generators(ctx.generators())]
    expected = [(pb.left(rows), pb.right(cols)) for rows, cols, _ in frames]
    _bounds_at_the_guard(monkeypatch, wedderburn)
    for (rows, cols, _), (left, right) in zip(frames, expected):
        got_left, got_right = pb.left(rows), pb.right(cols)
        assert got_left.dtype == got_right.dtype == np.int64
        assert np.array_equal(got_left, left) and np.array_equal(got_right, right)


def _largest_scale(part, results):
    """The largest k with k·part int64 under INT64_SAFE and k·results under
    2^64 in absolute value."""
    top = max(_intops.max_abs(results), 1)
    return min((INT64_SAFE - 1) // _intops.max_abs(part), ((1 << 64) - 1) // top)


def test_pivot_kernels_stay_exact_on_int64_entries_near_the_bound(suite):
    # Each kernel is linear in one frame part.  Scaled by _largest_scale,
    # the part stays int64, so only the bound the kernel states keeps its
    # sums of n products from wrapping, and results past 2^63 come with both
    # signs.  The scaled results must be k times the unscaled ones.
    ctx, basis = suite[4]
    pb = _PivotBasis(basis)
    dec = decompose(basis, ctx.generators())
    frames = [_frame(pb, z) for z in dense_generators(ctx.generators())]
    frames += [_frame(pb, z) for z in dec.central_idempotents]
    # All-ones frames, and ones signed by k: every sum adds the ones of a
    # piece's row.
    signs = (-1) ** np.arange(pb.dim)
    for s in (np.ones(pb.dim, np.int64), signs):
        ones = np.ones((pb.dim, pb.n), np.int64) * s[:, None]
        frames.append((ones, ones.T.copy(), 1))
    crossed = 0
    for rows, cols, den in frames:
        kernels = [
            (pb.left, rows),
            (pb.right, cols),
            (lambda r: pb.square_pivot_entries(r, cols), rows),
        ]
        for kernel, part in kernels:
            small = kernel(part)
            k = _largest_scale(part, small)
            got = kernel(part * k)
            assert [int(v) for v in got.flat] == [k * int(v) for v in small.flat]
            crossed += max(abs(int(v)) for v in got.flat) >= 1 << 63
        # The trace sums the diagonal of right(cols): b_k z at pivot k.
        k = _largest_scale(cols, np.diagonal(pb.right(cols)))
        assert pb.pivot_trace(cols * k, den) == k * pb.pivot_trace(cols, den)
    assert crossed >= 3


def test_corner_pivot_values_are_not_all_one(suite):
    # The coordinates divide by the pivot values D; the corners exercise it.
    corner, _dec = _corner_decomposition(suite, 3)
    assert set(_PivotBasis(corner.span).pivvals) != {1}


def test_split_matches_dense_oracle(suite):
    for name, span, gens, identity in _algebras(suite):
        center = center_basis(span, gens)
        dec = split_center(span, center, identity)
        dense_center = _dense_all(span, center)
        status, mp, roots, idems, ranks = _dense_split_center(
            dense_center, dense_unit(span, identity)
        )
        assert dec.status == status == SPLIT, name
        assert dec.center_dim == len(center)
        assert dec.probe_min_poly == mp, name
        assert dec.eigenvalues == roots, name
        assert tuple(_dense_all(span, dec.central_idempotents)) == idems, name
        assert dec.block_ranks == ranks, name


def test_corner_matches_dense_compression():
    # The corner read off T's cells must be the reduced echelon basis of the
    # dense W B W at width n^2, in the same insertion order.
    for d in range(2, 7):
        for x in sorted({0, 5 % (1 << d), (1 << d) - 1}):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            rep = verify_u0(ctx, basis)
            corner = complement_algebra(ctx, basis, rep)
            assert densify(corner) == dense_corner(ctx, basis), f"d={d} x={x}"


def test_corner_split_on_generators_matches_compressed_generators():
    # U0 is central, so the corner splits on A and A* exactly as on the
    # dense compressed generators (I - U0) g (I - U0), field by field.
    for d in range(2, 8):
        for x in sorted({0, 5 % (1 << d), (1 << d) - 1}):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            rep = verify_u0(ctx, basis)
            corner = complement_algebra(ctx, basis, rep)
            got = decompose(corner.span, ctx.generators(), corner.identity)
            gens = _compressed_generators(ctx, dense_u0(ctx))
            want = decompose(corner.span, gens, corner.identity)
            assert got.status == SPLIT and got == want, f"d={d} x={x}"


def test_corner_is_not_split_unless_u0_is_central(monkeypatch):
    prep = verify._prepare(4, 0)
    calls = []

    def recording_decompose(*args):
        dec = decompose(*args)
        calls.append((args, dec))
        return dec

    monkeypatch.setattr(verify, "decompose", recording_decompose)
    record = verify._diameter_record(prep, 10, (3, 1))
    checks = {c.name: c for c in record.checks}
    assert checks["complement_blocks_match_smaller_cube"].passed
    [((_span, gens, _identity), _dec)] = calls
    assert list(gens) == prep.ctx.generators()

    # A U0 not found central is not split at all.  One found central but not
    # idempotent gives an uncertified corner, which decompose does not split.
    real_u0 = verify.verify_u0
    for flag, statuses, witness in (
        ("central", [], "U0 not central"),
        ("idempotent", [INCONCLUSIVE], "complement inconclusive vs (3, 1)"),
    ):
        monkeypatch.setattr(
            verify,
            "verify_u0",
            lambda *a, flag=flag, **k: dataclasses.replace(
                real_u0(*a, **k), **{flag: False}
            ),
        )
        calls.clear()
        record = verify._diameter_record(prep, 10, (3, 1))
        checks = {c.name: c for c in record.checks}
        assert [dec.status for _args, dec in calls] == statuses, flag
        assert checks["complement_blocks_match_smaller_cube"] == Check(
            "complement_blocks_match_smaller_cube", False, witness
        ), flag


def test_corner_rejects_blocks_that_split_a_sphere(suite):
    # W = L (I - U0) mixes the vertices of a sphere, so a basis whose block
    # classes cut a sphere cannot be compressed block by block.  T(1) in
    # cell form over ctx's own dist has the spheres around vertex 1 as its
    # classes.  (verify_u0 rejects that basis too, so the report comes from
    # T's own basis.)
    ctx, basis = suite[3]
    rep = verify_u0(ctx, basis)
    cut = closure(build_hypercube_context(3, 1).generators(), ctx.dist.dist)
    assert cut.cells is not None and cut.cells.table.labels is ctx.dist.dist
    with pytest.raises(ValueError, match="not exactly one sphere"):
        complement_algebra(ctx, cut, rep)


# -- the full pivot kernel, rank block sizes and dense split, as oracles ----
# The forms these replaced: the center from the 2m x m pivot entries of
# every generator's commutators, block dimensions as the rank of the m x m
# pivot entries of b_k z, and the split with its idempotent guard and the
# commutation check z g = g z on n x n products.


def _full_center_basis(span, generators):
    pb = _PivotBasis(span)
    if not pb.dim:
        return []
    parts = []
    for g in dense_generators(generators):
        rows, cols, _ = _frame(pb, g)
        parts.append(exact_sub(pb.right(cols), pb.left(rows)))
    alphas = kernel_basis(RationalMatrix(np.concatenate(parts)))
    return [_coords(alpha) for alpha in alphas]


def _rank_block_dimensions(pb, idems):
    """Rank of the m x m pivot entries of b_k z for each dense z."""
    return [rank(RationalMatrix(pb.right(_frame(pb, z)[1]))) for z in idems]


def _oracle_decompose(span, generators, identity=None):
    """decompose with the full kernel, the dense split, the dense
    commutation check and rank block sizes; no closedness certificate is
    read."""
    pb = _PivotBasis(span)
    center = _full_center_basis(span, generators)
    status, mp, roots, idems, ranks = _dense_split_center(
        _dense_all(span, center), dense_unit(span, identity)
    )
    dense = dense_generators(generators)
    if status == SPLIT and any(z @ g != g @ z for z in idems for g in dense):
        status, roots, idems, ranks = INCONCLUSIVE, (), (), ()
    dec = BlockDecomposition(
        center_dim=len(center),
        central_idempotents=tuple(_dense_coordinates(pb, z) for z in idems),
        eigenvalues=roots,
        block_sizes=(),
        block_dims=(),
        block_ranks=ranks,
        status=status,
        probe_min_poly=mp,
    )
    if status != SPLIT:
        return dec
    sizes = []
    dims = _rank_block_dimensions(pb, idems)
    for dim in dims:
        assert math.isqrt(dim) ** 2 == dim
        sizes.append(math.isqrt(dim))
    return dataclasses.replace(dec, block_sizes=tuple(sizes), block_dims=tuple(dims))


@pytest.fixture(scope="module")
def differential_algebras():
    """(name, span, generators, identity) for T and its corner at d <= 7 and
    vertices 0, 5, 2^d - 1, and for T of the oracle graphs."""
    out = []
    for d in range(0, 8):
        for x in sorted({0, 5 % (1 << d), (1 << d) - 1}):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            out.append((f"T_{d} x={x}", basis, ctx.generators(), None))
            if d >= 2:
                rep = verify_u0(ctx, basis)
                corner = complement_algebra(ctx, basis, rep)
                out.append(
                    (f"corner_{d} x={x}", corner.span, ctx.generators(), corner.identity)
                )
    for name, g, x in _oracle_graphs():
        ctx = build_context(g, x)
        out.append((f"T({name})", ctx.algebra_basis(), ctx.generators(), None))
    return out


def test_split_matches_full_kernel_rank_and_dense_guard(differential_algebras):
    # Center bases, idempotents, ranks and block sizes, field by field.
    for name, span, gens, identity in differential_algebras:
        got_center = center_basis(span, gens)
        assert _as_tuples(got_center) == _full_center_basis(span, gens), name
        dec = decompose(span, gens, identity)
        assert dec == _oracle_decompose(span, gens, identity), name
        if dec.status == SPLIT:
            pb = _PivotBasis(span)
            traces = [pb.pivot_trace(pb.frame_cols(c), den) for c, den in dec.central_idempotents]
            idems = _dense_all(span, dec.central_idempotents)
            assert traces == _rank_block_dimensions(pb, idems), name
            assert list(dec.block_dims) == traces, name


def test_class_filter_keeps_only_diagonal_sphere_blocks(suite):
    # On T(x), A* separates the spheres, so the filter keeps exactly the
    # pieces of the blocks E*_h T E*_h; A*'s row is not constant on a span
    # with one class, and neither is a row that cuts a sphere.
    ctx, basis = suite[4]
    pb = _PivotBasis(basis)
    row = ctx.dual_adjacency_row.num[0]
    vals = pb.class_values(row)
    assert np.array_equal(vals[pb._h] == vals[pb._j], pb._h == pb._j)
    assert pb.class_values(np.arange(ctx.n)) is None
    one = _PivotBasis(BlockSpans(ctx.n, (np.arange(ctx.n),)))
    assert one.class_values(row) is None


def test_diagonal_frame_is_the_frame_of_the_dense_diagonal(suite):
    for name, span, _gens, _identity in _algebras(suite):
        pb = _PivotBasis(span)
        for row in (np.arange(span.n) - 3, np.arange(span.n) % 2):
            rows, cols = pb.diagonal_frame(row)
            want_rows, want_cols, _ = _frame(pb, RationalMatrix(np.diag(row)))
            assert np.array_equal(rows, want_rows), name
            assert np.array_equal(cols, want_cols), name


def test_row_not_constant_on_the_classes_is_read_through_its_frame():
    # The closure of A and the dense A* has one class, so A*'s row is read
    # through its diagonal frame; the split equals the one on dense A*.
    for d, x in ((3, 0), (4, 5)):
        ctx = build_hypercube_context(d, x)
        gens = ctx.generators()
        span = closure(dense_generators(gens))
        assert len(span.classes) == 1
        want = _as_tuples(center_basis(span, dense_generators(gens)))
        assert _as_tuples(center_basis(span, gens)) == want
        dec = decompose(span, gens)
        assert dec.status == SPLIT and dec == decompose(span, dense_generators(gens))
        assert dec.multiset == decompose(ctx.algebra_basis(), gens).multiset


def test_pivot_guard_matches_dense_guard(differential_algebras):
    for name, span, gens, identity in differential_algebras:
        pb = _PivotBasis(span)
        unit = identity_unit(len(span.classes)) if identity is None else identity
        assert pb.closed_unit == unit, name
        e, dense_e = pb.unit_coordinates(unit), dense_unit(span, unit)
        dec = decompose(span, gens, identity)
        idems = list(dec.central_idempotents)
        cases = [idems]
        if len(idems) > 1:
            merged = _coords([a + b for a, b in zip(*map(_fractions, idems[:2]))])
            cases.append([merged] + idems[2:])  # still valid
            cases.append([idems[0], idems[0]] + idems[2:])  # the sum fails
        for case in cases:
            dense = _dense_all(span, case)
            want = _idempotents_valid(dense, dense_e)
            assert _pivot_idempotents_valid(pb, case, e) == want, name
            assert dense_pivot_idempotents_valid(pb, dense, dense_e) == want, name
            assert _pairwise_idempotents_valid(dense, dense_e) == want, name


def test_pivot_guard_rejects_tampered_idempotents(differential_algebras):
    # z_r + eps b_k lies in the certified span but is no idempotent.  With
    # eps b_k taken back from another z_s the sum is still e, so only the
    # squares can reject it.  Every tamper is made on coordinates, and the
    # pivot guard's verdict must be the dense pivot guard's.
    eps = Fraction(1, 7)
    for name, span, gens, identity in differential_algebras[:12]:
        pb = _PivotBasis(span)
        e = _coords(_fractions(pb.unit_coordinates(span.closed_unit)))
        idems = list(decompose(span, gens, identity).central_idempotents)
        cases = []
        for k in sorted({0, pb.dim // 2, pb.dim - 1}):
            bump = [eps * (i == k) for i in range(pb.dim)]
            z0 = _coords([a + b for a, b in zip(_fractions(idems[0]), bump)])
            cases.append((f"z_0 + b_{k}/7", [z0] + idems[1:], e))
            if len(idems) > 1:
                z1 = _coords([a - b for a, b in zip(_fractions(idems[1]), bump)])
                cases.append((f"balanced b_{k}/7", [z0, z1] + idems[2:], e))
        # A unit that is not idempotent fails on its own square.
        doubled = [_coords([2 * f for f in _fractions(z)]) for z in idems]
        cases.append(("doubled", doubled, _coords([2 * f for f in _fractions(e)])))
        cases += _guard_tampers(pb, idems, e)
        for case_name, case, ident in cases:
            dense, dense_e = _dense_all(span, case), combine(pb, *ident)
            want = dense_pivot_idempotents_valid(pb, dense, dense_e)
            assert not want and not _idempotents_valid(dense, dense_e), (name, case_name)
            assert _pivot_idempotents_valid(pb, case, ident) == want, (name, case_name)


def test_closure_certificate_is_set_by_closure_only(suite):
    ctx, basis = suite[3]
    assert basis.closed_unit == ((0,) * (ctx.d + 1), 1)
    span = BlockSpans(ctx.n, basis.classes)
    span.add(0, 0, np.eye(1, dtype=np.int64))
    assert span.closed_unit is None
    # A new element voids the certificate; a spanned one does not.
    copy = closure(ctx.generators())
    h, j, x = copy.element(3)
    assert copy.add(h, j, x * 2) is None
    assert copy.closed_unit is not None
    unit_entry = np.zeros((3, 3), dtype=np.int64)
    unit_entry[0, 1] = 1  # E*_1 T E*_1 is span{I, J} on the 3-cube
    assert copy.add(1, 1, unit_entry) is not None
    assert copy.closed_unit is None


def test_corner_certificate_needs_a_central_idempotent_u0(suite):
    ctx, basis = suite[4]
    rep = verify_u0(ctx, basis)
    assert rep.central and rep.idempotent
    corner = complement_algebra(ctx, basis, rep)
    assert corner.span.closed_unit == corner.identity
    uncertified = [
        complement_algebra(ctx, basis, dataclasses.replace(rep, central=False)),
        complement_algebra(ctx, basis, dataclasses.replace(rep, idempotent=False)),
    ]
    for other in uncertified:
        assert other.span.closed_unit is None
        assert densify(other) == densify(corner)
    # The corner read off T's cells is held in cell form, which takes no
    # new element (E*_0 of the corner is zero, since I - U0 vanishes on the
    # one vertex of S_0), so nothing can void its certificate; the same
    # holds for the corner of a fresh closure over dist.
    fresh = complement_algebra(ctx, closure(ctx.generators(), ctx.dist.dist), rep)
    for span in (corner.span, fresh.span):
        with pytest.raises(ValueError):
            span.add(0, 0, np.ones((1, 1), dtype=np.int64))
        assert span.cells is not None and span.closed_unit == corner.identity
    assert densify(fresh) == densify(corner)


def test_uncertified_spans_are_not_split(suite):
    # Each span below is closed (it is T or its corner, or one element
    # past it), but carries no certificate for the unit it is split with,
    # so it is not split.  A unit is compared as its table.
    ctx, basis = suite[4]
    gens = ctx.generators()
    rep = verify_u0(ctx, basis)
    corner = complement_algebra(ctx, basis, rep)
    eye = identity_unit(len(basis.classes))
    for span, unit in ((basis, None), (basis, eye), (corner.span, corner.identity)):
        assert decompose(span, gens, unit).status == SPLIT
    touched = closure(gens)
    assert touched.add(0, 1, np.array([[1, 0, 0, 0]])) is not None  # E*_0 T E*_1 is span{J}
    cases = [
        ("T with the corner's unit", _PivotBasis(basis), corner.identity),
        ("the corner with I", _PivotBasis(corner.span), None),
        ("the corner with the table of I", _PivotBasis(corner.span), eye),
        ("T after an add", _PivotBasis(touched), None),
    ]
    for flag in ("central", "idempotent"):
        flagged = dataclasses.replace(rep, **{flag: False})
        other = complement_algebra(ctx, basis, flagged)
        cases.append((flag, _PivotBasis(other.span), other.identity))
    bare = _PivotBasis(basis)
    bare.closed_unit = None
    cases.append(("no certificate", bare, None))
    # A certificate for another unit does not cover the split.
    other_unit = _PivotBasis(basis)
    other_unit.closed_unit = corner.identity
    cases.append(("another unit", other_unit, None))
    for name, pb, identity in cases:
        center = center_basis(pb, gens)
        for dec in (split_center(pb, center, identity), decompose(pb, gens, identity)):
            assert dec.status == INCONCLUSIVE, name
            assert dec.central_idempotents == dec.block_ranks == (), name
            assert dec.probe_min_poly is None, name


def test_object_path_split_at_d5(monkeypatch):
    # With the int64 bounds at 1 every pivot product, trace, guard and
    # frame runs on Python ints; the split must not change.
    ctx = build_hypercube_context(5, 0)
    basis = ctx.algebra_basis()
    corner = complement_algebra(ctx, basis, verify_u0(ctx, basis))
    cases = [(basis, None), (corner.span, corner.identity)]
    expected = [decompose(span, ctx.generators(), identity) for span, identity in cases]
    monkeypatch.setattr(_intops, "INT64_SAFE", 1)
    for (span, identity), want in zip(cases, expected):
        got = decompose(span, ctx.generators(), identity)
        assert got.status == SPLIT
        assert got.block_sizes == want.block_sizes
        assert got.block_ranks == want.block_ranks
        assert got.central_idempotents == want.central_idempotents
        assert got == want
        pb = _PivotBasis(span)
        assert all(pb.frame_rows(c).dtype == object for c, _ in got.central_idempotents)


def test_object_path_split_at_d8(monkeypatch):
    # With the int64 bound lowered to 2^16 in _intops and echelon, the only
    # modules that read it, the real d=8 splits of T and of the U0 corner
    # cross to Python ints where their entries grow; status, blocks, ranks,
    # idempotents and the probe polynomial must not change.  The probe's
    # min_poly and the frames of coordinate vectors are among the code that
    # crosses.
    ctx = build_hypercube_context(8, 0)
    basis = ctx.algebra_basis()
    corner = complement_algebra(ctx, basis, verify_u0(ctx, basis))
    generators = ctx.generators()
    cases = [(basis, None), (corner.span, corner.identity)]
    expected = [decompose(span, generators, identity) for span, identity in cases]
    converted = []  # (int64 array converted, inside min_poly)
    in_min_poly = []
    object_frames = []  # per frame half of a coordinate vector: built on Python ints
    real_to_object = _intops.to_object
    real_min_poly = wedderburn.min_poly
    real_frame = wedderburn._PivotBasis._frame

    def counting(arr):
        converted.append((arr.dtype != object, bool(in_min_poly)))
        return real_to_object(arr)

    def marked_min_poly(*args):
        in_min_poly.append(True)
        try:
            return real_min_poly(*args)
        finally:
            in_min_poly.pop()

    def recording_frame(pb, c, rows):
        out = real_frame(pb, c, rows)
        object_frames.append(out.dtype == object)
        return out

    for module in (_intops, echelon):
        monkeypatch.setattr(module, "INT64_SAFE", 1 << 16)
        monkeypatch.setattr(module, "to_object", counting)
    # At 2^16 the frame of the corner's probe (a bound near 2^18 at d=8)
    # crosses, T's probe and the idempotents (under 2^16) do not.
    monkeypatch.setattr(wedderburn, "min_poly", marked_min_poly)
    monkeypatch.setattr(wedderburn._PivotBasis, "_frame", recording_frame)
    for (span, identity), want in zip(cases, expected):
        got = decompose(span, generators, identity)
        assert got.status == want.status == SPLIT
        assert got.multiset == want.multiset
        assert got.block_ranks == want.block_ranks
        assert got.central_idempotents == want.central_idempotents
        assert got.probe_min_poly == want.probe_min_poly
    # int64 arrays really crossed to object, in min_poly too.
    assert sum(crossed for crossed, _ in converted) > 0
    assert sum(crossed for crossed, inside in converted if inside) > 0
    # Some frames of coordinate vectors were summed on Python ints, some not.
    assert any(object_frames) and not all(object_frames)


def test_frame_matches_dense_rows_and_columns_across_the_int64_bound(suite):
    # Coordinates c with sum_k |c_k| max|X_k| just under INT64_SAFE give an
    # int64 frame, just over it an object frame holding Python ints only;
    # both must be the pivot rows and columns of the densified element.
    for name, span, _gens, _identity in _algebras(suite):
        pb = _PivotBasis(span)
        total = sum(pb.maxes)
        under = (INT64_SAFE - 1) // total
        for t in (under, under + 1):
            c = [(-1) ** k * t for k in range(pb.dim)]
            bound = sum(abs(v) * mx for v, mx in zip(c, pb.maxes))
            assert (bound < INT64_SAFE) == (t == under), name
            rows, cols = pb.frame_rows(c), pb.frame_cols(c)
            assert (rows.dtype == object) == (cols.dtype == object) == (t != under), name
            dense = combine(pb, c)
            assert np.array_equal(rows, dense.num[pb.rows]), (name, t)
            assert np.array_equal(cols, dense.num[:, pb.cols]), (name, t)
            # z's pivot entries are c_k pv_k.
            piv = rows[np.arange(pb.dim), pb.cols]
            assert [int(v) for v in piv] == [v * p for v, p in zip(c, pb.pivvals)], (name, t)
            for arr in (rows, cols):
                if arr.dtype == object:
                    assert not any(isinstance(v, np.integer) for v in arr.flat), (name, t)


def _refuse_n_by_n(monkeypatch, side):
    """Make numpy's functions, the _intops helpers and RationalMatrix, as
    the split and the corner reach them, refuse an n x n result, n = side[0].

    numpy is replaced in wedderburn, closure, idempotent and echelon, and
    each _intops helper at its binding in those modules.
    """

    def refuse_square(out):
        if isinstance(out, np.ndarray) and out.shape == (side[0], side[0]):
            raise AssertionError(f"an {side[0]} x {side[0]} array was formed")
        return out

    def checked(fn):
        wrapped = lambda *args, **kwargs: refuse_square(fn(*args, **kwargs))  # noqa: E731
        if isinstance(fn, np.ufunc):
            # ufunc.at adds in place into an array made, and checked, before.
            wrapped.at = fn.at
        return wrapped

    class CheckedNumpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if callable(attr) and not isinstance(attr, type):
                return checked(attr)
            return attr

    real_init = RationalMatrix.__init__

    def checked_init(self, num, den=1, **kwargs):
        real_init(self, num, den, **kwargs)
        refuse_square(self.num)

    helpers = ("exact_matmul", "exact_sub", "exact_scale", "exact_mul_elementwise",
               "to_object", "demote", "content", "max_abs", "python_ints")
    # The package's name "closure" is the function; the module is in sys.modules.
    for module in (wedderburn, sys.modules["terwalg.closure"], idempotent, echelon):
        monkeypatch.setattr(module, "np", CheckedNumpy())
        for name in helpers:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, checked(getattr(module, name)))
    monkeypatch.setattr(RationalMatrix, "__init__", checked_init)


def _assert_refused(n, side):
    side[0] = n
    with pytest.raises(AssertionError):
        wedderburn.np.zeros((n, n))
    with pytest.raises(AssertionError):
        RationalMatrix.identity(n)


def test_split_holds_no_n_by_n_element(monkeypatch):
    # With every numpy constructor, _intops helper and RationalMatrix that
    # the split reaches refusing an n x n result, decompose of T and of the
    # U0 corner must run unchanged: the split reads its operands through
    # their frames and holds its own elements as coordinates.
    cases = []
    for d in (6, 8):
        for x in (0, 5):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            corner = complement_algebra(ctx, basis, verify_u0(ctx, basis))
            gens = ctx.generators()
            cases += [(basis, gens, None), (corner.span, gens, corner.identity)]
    expected = [decompose(*case) for case in cases]
    side = [0]
    _refuse_n_by_n(monkeypatch, side)
    for (span, gens, identity), want in zip(cases, expected):
        _assert_refused(span.n, side)
        got = decompose(span, gens, identity)
        assert got.status == want.status == SPLIT
        assert got.multiset == want.multiset
        assert got.block_ranks == want.block_ranks
        assert got.eigenvalues == want.eigenvalues
        assert got.probe_min_poly == want.probe_min_poly
        assert got.central_idempotents == want.central_idempotents
        assert got == want
        for c, den in got.central_idempotents:
            assert isinstance(c, tuple) and len(c) == span.dim
            assert all(type(v) is int for v in c) and type(den) is int and den > 0


def test_corner_holds_no_n_by_n_array(monkeypatch):
    # complement_algebra reads the corner off T's cells and holds I - U0 as
    # its unit table, so with every n x n result refused it and the corner's
    # split must give the unrefused corner and split, field by field.
    # The dense generators are the caller's, made before the refusal.
    cases = []
    for d in (6, 8):
        for x in (0, 5):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            cases.append((ctx, basis, verify_u0(ctx, basis), ctx.generators()))
    expected = []
    for ctx, basis, rep, gens in cases:
        corner = complement_algebra(ctx, basis, rep)
        expected.append((corner, decompose(corner.span, gens, corner.identity)))
    side = [0]
    _refuse_n_by_n(monkeypatch, side)
    for (ctx, basis, rep, gens), (want, want_dec) in zip(cases, expected):
        _assert_refused(ctx.n, side)
        got = complement_algebra(ctx, basis, rep)
        assert got.identity == want.identity and got.span.closed_unit == want.span.closed_unit
        assert got.span.classes == want.span.classes and got.dim == want.dim
        for k in range(want.dim):
            (h, j, x), (h2, j2, x2) = got.span.element(k), want.span.element(k)
            assert (h, j) == (h2, j2) and np.array_equal(x, x2)
        dec = decompose(got.span, gens, got.identity)
        assert dec.status == SPLIT and dec == want_dec


def test_closure_and_both_splits_hold_no_n_by_n_array_but_a(monkeypatch):
    # ctx.generators() forms A alone at n x n and hands A* on as its row.
    # With A made before the refusal and every later n x n result refused,
    # the product loop's closure and its split, and U0, the corner and its
    # split on T's certified cells (made, with the caller's dist, before the
    # refusal), must give the unrefused results.
    cases = []
    for d in (6, 8):
        for x in (0, 5):
            ctx = build_hypercube_context(d, x)
            squares = []
            real_init = RationalMatrix.__init__

            def counting_init(self, num, den=1, _n=ctx.n, **kwargs):
                real_init(self, num, den, **kwargs)
                if self.num.shape == (_n, _n):
                    squares.append(self.num)

            with monkeypatch.context() as m:
                m.setattr(RationalMatrix, "__init__", counting_init)
                gens = ctx.generators()
            assert len(squares) == 1 and squares[0] is gens[0].num
            assert [g.shape for g in gens] == [(ctx.n, ctx.n), (1, ctx.n)]
            basis = closure(gens)
            cells = closure(gens, ctx.dist.dist)
            rep = verify_u0(ctx, cells)
            corner = complement_algebra(ctx, cells, rep)
            cases.append((ctx, gens, basis, decompose(basis, gens), cells, rep,
                          corner, decompose(corner.span, gens, corner.identity)))
    side = [0]
    _refuse_n_by_n(monkeypatch, side)
    for ctx, gens, basis, dec, cells, rep, corner, corner_dec in cases:
        _assert_refused(ctx.n, side)
        got = closure(gens)
        assert [c.tolist() for c in got.classes] == [c.tolist() for c in basis.classes]
        assert got._elements == basis._elements and got.closed_unit == basis.closed_unit
        for k in range(basis.dim):
            (h, j, x), (h2, j2, x2) = got.element(k), basis.element(k)
            assert (h, j) == (h2, j2) and np.array_equal(x, x2)
        assert decompose(got, gens) == dec and dec.status == SPLIT
        got_rep = verify_u0(ctx, cells)
        assert got_rep == rep
        got_corner = complement_algebra(ctx, cells, got_rep)
        assert got_corner.identity == corner.identity and got_corner.dim == corner.dim
        assert decompose(got_corner.span, gens, got_corner.identity) == corner_dec
        assert corner_dec.status == SPLIT


# -- unit tables ---------------------------------------------------------------


def test_unit_table_is_in_lowest_terms():
    # Equal units have equal tables only in lowest terms with den > 0, so
    # the constructor reduces, and scaling (u, den) leaves the table alone.
    assert unit_table((2, 0, -4), 6) == ((1, 0, -2), 3)
    assert unit_table((2, 0, -4), -6) == ((-1, 0, 2), 3)
    assert unit_table((0, 0), 5) == identity_unit(2) == ((0, 0), 1)
    for u, den in (((3, 1, 1), 3), ((1, 7), 2)):
        for s in (2, -5, 10**30):
            assert unit_table([s * v for v in u], s * den) == (u, den)
    assert all(type(v) is int for v in unit_table(np.array([4, 6]), 2)[0])


@pytest.fixture(scope="module")
def unit_algebras():
    """(name, span, unit table, dense unit) for T, with I, and for its corner,
    with I - U0, at d <= 8 and vertices 0, 5, 2^d - 1."""
    out = []
    for d in range(0, 9):
        for x in sorted({0, 5 % (1 << d), (1 << d) - 1}):
            ctx = build_hypercube_context(d, x)
            basis = ctx.algebra_basis()
            eye = RationalMatrix.identity(ctx.n)
            out.append((f"T_{d} x={x}", basis, identity_unit(d + 1), eye))
            if d >= 2:
                corner = complement_algebra(ctx, basis, verify_u0(ctx, basis))
                dense = eye - dense_u0(ctx)
                out.append((f"corner_{d} x={x}", corner.span, corner.identity, dense))
    return out


@pytest.mark.parametrize("low_bound", [False, True])
def test_unit_tables_match_dense_units(unit_algebras, monkeypatch, low_bound):
    # The coordinates read from a unit table at the pivots, and the frame
    # summed from them, are those of the dense I and I - U0.  With the int64
    # bound at 1 in _intops the frames are summed on Python ints.
    if low_bound:
        monkeypatch.setattr(_intops, "INT64_SAFE", 1)
    for name, span, unit, dense in unit_algebras:
        assert span.closed_unit == unit == unit_table(*unit), name
        assert dense_unit(span, unit) == dense, name
        pb = _PivotBasis(span)
        c, den = pb.unit_coordinates(unit)
        assert _coords([Fraction(int(v), den) for v in c]) == _dense_coordinates(pb, dense), name
        rows, cols = pb.frame_rows(c), pb.frame_cols(c)
        assert (rows.dtype == object) == (cols.dtype == object) == low_bound, name
        for part, want in ((rows, dense.num[pb.rows]), (cols, dense.num[:, pb.cols])):
            assert np.array_equal(exact_scale(part, dense.den), exact_scale(want, den)), name
