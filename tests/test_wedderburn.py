"""Tests for center computation and block decomposition."""

from fractions import Fraction

import numpy as np
import pytest

from terwalg._intops import exact_matmul, exact_sub
from terwalg.echelon import EchelonSpan
from terwalg.idempotent import compute_u0
from terwalg.linalg import RationalMatrix, kernel_basis, rank
from terwalg.polys import RationalPoly
from terwalg.subconstituent import build_hypercube_context
from terwalg.wedderburn import (
    INCONCLUSIVE,
    SPLIT,
    BlockDecomposition,
    _integer_roots,
    block_sizes,
    center_basis,
    complement_algebra,
    decompose,
    split_center,
)

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


def _gram_center_basis(mats, generators):
    """Reference center: the kernel of the Gram matrix of the full commutators.

    A rational vector is in the kernel of the stacked commutator map iff it
    is in the kernel of its Gram matrix, because the Gram form is a sum of
    squares.  This works at width n^2 and needs no closure assumption.
    """
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
        got = center_basis(basis, ctx.generators())
        assert got == _gram_center_basis(basis.matrices, ctx.generators()), f"d={d}"


def test_corner_center_matches_gram_reference(suite):
    for d in range(2, 6):
        corner, _dec = _corner_decomposition(suite, d)
        got = center_basis(corner.matrices, corner.generators)
        want = _gram_center_basis(corner.matrices, corner.generators)
        assert got == want, f"corner d={d}"


def _assert_block_data_dense(mats, dec):
    assert dec.status == SPLIT
    n = mats[0].nrows
    for z, size, rk in zip(dec.central_idempotents, dec.block_sizes, dec.block_ranks):
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
        _assert_block_data_dense(basis.matrices, decompose(basis, ctx.generators()))
    for d in range(2, 6):
        corner, dec = _corner_decomposition(suite, d)
        _assert_block_data_dense(corner.matrices, dec)


def test_unclosed_span_is_not_split(suite):
    # span{I, E*_0 + E*_3} is not closed under A.  The pivot test wrongly
    # finds it central and its probe splits cleanly; only the dense
    # certificate in decompose keeps this from becoming a false split.
    ctx, _basis = suite[3]
    n = ctx.n
    span = EchelonSpan(n * n)
    span.add(RationalMatrix.identity(n).num.ravel())
    span.add((ctx.E_star[0] + ctx.E_star[3]).num.ravel())
    mats = [RationalMatrix(row.reshape(n, n), 1) for row in span.rows]
    assert split_center(center_basis(mats, ctx.generators())).status == SPLIT
    assert decompose(mats, ctx.generators()).status == INCONCLUSIVE


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
        for c in center:
            span.add(c.num.ravel())
        assert span.contains(RationalMatrix.identity(ctx.n).num.ravel())


def test_split_single_block(suite):
    ctx, basis = suite[1]
    dec = split_center(center_basis(basis, ctx.generators()))
    assert dec.status == SPLIT
    assert dec.central_idempotents == (RationalMatrix.identity(2),)
    filled = block_sizes(basis, dec)
    assert filled.block_sizes == (2,)


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
    zero = RationalMatrix.zeros(ctx.n, ctx.n)
    acc = zero
    for i, zi in enumerate(dec.central_idempotents):
        assert zi @ zi == zi
        for j, zj in enumerate(dec.central_idempotents):
            if i != j:
                assert zi @ zj == zero
        for g in ctx.generators():
            assert zi @ g == g @ zi
        acc = acc + zi
    assert acc == RationalMatrix.identity(ctx.n)


def test_eigenvalues_sorted_and_deterministic(suite):
    ctx, basis = suite[3]
    dec1 = decompose(basis, ctx.generators())
    dec2 = decompose(basis, ctx.generators())
    assert dec1.eigenvalues == tuple(sorted(dec1.eigenvalues))
    assert dec1.eigenvalues == dec2.eigenvalues
    assert dec1.central_idempotents == dec2.central_idempotents


def test_block_sizes_requires_split(suite):
    _ctx, basis = suite[2]
    dec = BlockDecomposition(
        center_dim=2,
        central_idempotents=(),
        eigenvalues=(),
        block_sizes=(),
        block_ranks=(),
        status=INCONCLUSIVE,
        probe_min_poly=None,
    )
    with pytest.raises(ValueError):
        block_sizes(basis, dec)
    assert dec.blocks_json() == "inconclusive"


def test_integer_roots():
    assert _integer_roots(RationalPoly.from_roots([1, 2])) == [1, 2]
    assert _integer_roots(RationalPoly.from_roots([0, -3, 7])) == [-3, 0, 7]
    assert _integer_roots(RationalPoly((-2, 0, 1))) is None  # irrational
    assert _integer_roots(RationalPoly.from_roots([1, 1])) is None  # repeated
    assert _integer_roots(RationalPoly((Fraction(1, 2), 1))) is None


def test_empty_center_rejected():
    with pytest.raises(ValueError):
        split_center([])


def test_complement_algebra_dimension(suite):
    for d in (2, 3, 4):
        ctx, basis = suite[d]
        u0, _dual = compute_u0(ctx)
        corner = complement_algebra(ctx, basis, u0)
        assert corner.dim == basis.dim - (d + 1) ** 2
        assert corner.identity == RationalMatrix.identity(ctx.n) - u0


def _corner_decomposition(suite, d):
    ctx, basis = suite[d]
    u0, _dual = compute_u0(ctx)
    corner = complement_algebra(ctx, basis, u0)
    return corner, decompose(corner.matrices, corner.generators, corner.identity)


def test_complement_split_relative_to_corner_identity(suite):
    # The complement of U0 in T_d has the block multiset of T_(d-2).
    for d in (2, 3, 4):
        ctx, _basis = suite[d]
        corner, dec = _corner_decomposition(suite, d)
        assert dec.status == SPLIT
        assert dec.multiset == EXPECTED_BLOCKS[d - 2], f"d={d}"
        acc = RationalMatrix.zeros(ctx.n, ctx.n)
        for z in dec.central_idempotents:
            acc = acc + z
        assert acc == corner.identity  # partition of the corner unit, not of I


def test_compare_complement_blocks(suite):
    # Compared with the decomposition of T_(d-2) itself, not the table.
    for d in (2, 3, 4):
        _corner, dec = _corner_decomposition(suite, d)
        small_ctx, small_basis = suite[d - 2]
        dec_small = decompose(small_basis, small_ctx.generators())
        assert dec.status == SPLIT and dec_small.status == SPLIT
        assert dec.multiset == dec_small.multiset, f"d={d}"
