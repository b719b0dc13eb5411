"""Dense n x n views of span elements, class rows, held diagonals and
coordinate vectors, and the dense helpers the reference checks in the tests
are built from."""

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from terwalg._intops import (
    INT64_SAFE,
    exact_matmul,
    exact_scale,
    exact_sub,
    max_abs,
    to_object,
    wide,
)
from terwalg.closure import CellForm, diagonal_row
from terwalg.echelon import EchelonSpan
from terwalg.graphs import DistanceData, Graph
from terwalg.linalg import RationalMatrix
from terwalg.polys import RationalPoly


def element_block(span, k: int) -> tuple[int, int, np.ndarray]:
    """(h, j, block) of element k of a span: the product loop's row, read
    through closure.BlockSpans.element; or, for a closure.CellForm, its
    block summed from its cells, cell c being
    {(y, z) in S_h x S_j : labels[y, z] = values[c]} for
    (h, j) = blocks[c], read off the labels themselves and not through the
    cell table's lookup."""
    if not isinstance(span, CellForm):
        return span.element(k)
    table = span.table
    h, j = table.blocks[span.index[k, 0]].tolist()
    labels = table.labels[np.ix_(span.classes[h], span.classes[j])]
    block = np.zeros(labels.shape, dtype=np.int64)
    for cell, coef in zip(span.index[k].tolist(), span.coef[k].tolist()):
        assert table.blocks[cell].tolist() == [h, j]
        block[labels == table.values[cell]] += coef
    return h, j, block


def densify(basis) -> tuple[RationalMatrix, ...]:
    """Every element as a dense integer n x n matrix, in insertion order.

    basis is a closure.BlockSpans or closure.CellForm (element_block), or
    an object holding one as `span` (a wedderburn.CompressedAlgebra).
    """
    span = getattr(basis, "span", basis)
    out = []
    for k in range(span.dim):
        h, j, block = element_block(span, k)
        dense = np.zeros((span.n, span.n), dtype=wide(block).dtype)
        dense[np.ix_(span.classes[h], span.classes[j])] = block
        out.append(RationalMatrix(dense, 1, _canonical=True))
    return tuple(out)


def contains(span, m) -> bool:
    """Exact membership of an n x n matrix (a RationalMatrix or an integer
    array) in a closure.BlockSpans or closure.CellForm, block by block:
    each block of m is reduced against the span's elements in that block,
    read through element_block."""
    num = m.num if isinstance(m, RationalMatrix) else m
    blocks: dict[tuple[int, int], EchelonSpan] = {}
    for k in range(span.dim):
        h, j, x = element_block(span, k)
        blocks.setdefault((h, j), EchelonSpan(x.size)).add(x.ravel())
    for h, rows in enumerate(span.classes):
        for j, cols in enumerate(span.classes):
            block = num[np.ix_(rows, cols)]
            echelon = blocks.get((h, j))
            if echelon is None:
                if np.any(block):
                    return False
            elif not echelon.contains(block.ravel()):
                return False
    return True


def combine(span, coeffs: Sequence, den: int = 1) -> RationalMatrix:
    """The element (sum_k coeffs[k] b_k) / den of a closure.BlockSpans or
    closure.CellForm, canonicalized once.

    The blocks element_block(span, k) are added into one n x n
    accumulator, in int64 when sum_k |coeffs[k]| max|b_k| allows it and on
    Python ints otherwise.
    """
    coeffs = [int(c) for c in coeffs]
    used = [(c, element_block(span, k)) for k, c in enumerate(coeffs) if c]
    bound = sum(abs(c) * max_abs(x) for c, (_h, _j, x) in used)
    obj = bound >= INT64_SAFE or any(x.dtype == object for _c, (_h, _j, x) in used)
    acc = np.zeros((span.n, span.n), dtype=object if obj else np.int64)
    for c, (h, j, x) in used:
        block = np.ix_(span.classes[h], span.classes[j])
        acc[block] += c * (to_object(x) if obj else wide(x))
    return RationalMatrix(acc, den)


def dense_pivot_idempotents_valid(
    pb, idems: Sequence[RationalMatrix], identity: RationalMatrix
) -> bool:
    """The pivot guard read on dense elements of a wedderburn._PivotBasis:
    e^2 = e and z_r^2 = z_r on the m pivot entries of the full n x n
    squares, and sum z_r = e on the pivot entries."""

    def pivots(z):
        return z.num[pb.rows, pb.cols]

    for z in (identity, *idems):
        square = exact_matmul(z.num, z.num)[pb.rows, pb.cols]
        if not np.array_equal(square, exact_scale(pivots(z), z.den)):
            return False
    common = math.lcm(identity.den, *(z.den for z in idems))
    acc = exact_scale(pivots(identity), common // identity.den)
    for z in idems:
        acc = exact_sub(acc, exact_scale(pivots(z), common // z.den))
    return not np.any(acc)


def dense_diagonal(row: RationalMatrix) -> RationalMatrix:
    """The n x n diagonal matrix of a held diagonal (a 1 x n row), such as
    TerwContext.E_star[i] or A_star[i], canonicalized on its own."""
    return RationalMatrix(np.diag(row.num[0]), row.den)


def dense_generators(generators) -> list[RationalMatrix]:
    """Generators in closure's forms, each as an n x n matrix: a 1 x n row
    stands for diag(row), and an n x n matrix is kept as it is."""
    return [g if diagonal_row(g) is None else dense_diagonal(g) for g in generators]


def dense_class_matrix(ctx, row: RationalMatrix) -> RationalMatrix:
    """The n x n matrix of a class row (such as TerwContext.E[i]): entry
    (y, z) is row[dist(y, z)], canonicalized on its own."""
    return RationalMatrix(row.num[0][ctx.dist.dist], row.den)


def dense_idempotents(ctx) -> list[RationalMatrix]:
    """Every E_i of a context as a dense n x n matrix."""
    return [dense_class_matrix(ctx, e) for e in ctx.E]


def dense_triple_table(ctx, table, den: int = 1) -> RationalMatrix:
    """The n x n matrix sum T[h, a, j] E_h* A_a E_j* / den of a triple table:
    entry (u, v) is T[dist(x, u), dist(u, v), dist(x, v)] / den."""
    dist = ctx.dist.dist
    label = dist[ctx.x]
    return RationalMatrix(np.asarray(table)[label[:, None], dist, label[None, :]], den)


def sphere_indicator_matrix(ctx) -> np.ndarray:
    """Rows are the 0/1 indicators of the distance spheres around x."""
    s = np.zeros((ctx.d + 1, ctx.n), dtype=np.int64)
    for i, sphere in enumerate(ctx.spheres):
        s[i, sphere] = 1
    return s


def dense_u0(ctx) -> RationalMatrix:
    """U0 = sum_h k_h^(-1) J_{S_h} as a dense n x n matrix, summed sphere by
    sphere from the indicator outer products."""
    out = RationalMatrix.zeros(ctx.n, ctx.n)
    for row in sphere_indicator_matrix(ctx):
        out = out + RationalMatrix(np.outer(row, row), int(row.sum()))
    return out


def dense_corner(ctx, t) -> tuple[RationalMatrix, ...]:
    """The reduced echelon basis, at width n^2, of the compressions
    (I - U0) B (I - U0) of the dense elements B of t, with U0 = dense_u0(ctx):
    the U0 corner formed and reduced without t's cells."""
    n = ctx.n
    comp = RationalMatrix.identity(n) - dense_u0(ctx)
    span = EchelonSpan(n * n)
    for b in densify(t):
        span.add(exact_matmul(exact_matmul(comp.num, b.num), comp.num).ravel())
    return tuple(RationalMatrix(row.reshape(n, n), 1) for row in span.rows)


def dense_unit(span, unit=None) -> RationalMatrix:
    """The n x n matrix e = I - sum_h (u_h / den) J_{S_h} of a unit table
    unit = (u, den) (closure.Unit) over span's classes; None is I."""
    if unit is None:
        return RationalMatrix.identity(span.n)
    u, den = unit
    num = np.eye(span.n, dtype=np.int64) * den
    for h, cls in enumerate(span.classes):
        num[np.ix_(cls, cls)] -= u[h]
    return RationalMatrix(num, den)


def distance_matrix(g: Graph, dd: DistanceData, i: int) -> RationalMatrix:
    """0/1 distance-i matrix; zero matrix when i is out of range."""
    arr = (dd.dist == i).astype(np.int64)
    return RationalMatrix(arr, 1, _canonical=True)


def poly_eval_matrix(
    ps: Sequence[RationalPoly], m: RationalMatrix
) -> list[RationalMatrix]:
    """Exact values p(m) for every p in ps, read off one set of powers.

    Runs on integers: with m = M / e, K the largest degree in ps and
    p = (sum_k c_k z^k) / den, den e^K p(m) = sum_k c_k e^(K-k) M^k, so
    M^0..M^K are formed once (K products) and each p(m) is an integer
    combination of them with one denominator.  The combination is summed in
    int64 when sum_k |c_k e^(K-k)| max|M^k| allows it and on Python ints
    otherwise.
    """
    if m.nrows != m.ncols:
        raise ValueError("square matrix expected")
    n = m.nrows
    top = max((p.degree for p in ps if not p.is_zero()), default=0)
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(top):
        powers.append(exact_matmul(powers[-1], m.num))
    # A zero power still counts 1, so the bound also holds each c_k.
    maxes = [max(max_abs(q), 1) for q in powers]
    obj = any(q.dtype == object for q in powers)
    out = []
    for p in ps:
        coeffs = [c * m.den ** (top - k) for k, c in enumerate(p.num)]
        fits = not obj and sum(abs(c) * mx for c, mx in zip(coeffs, maxes)) < INT64_SAFE
        acc = np.zeros((n, n), dtype=np.int64 if fits else object)
        for c, q in zip(coeffs, powers):
            if c:
                acc += c * (q if fits else to_object(q))
        out.append(RationalMatrix(acc, p.den * m.den**top))
    return out


def matrix_min_poly(m: RationalMatrix, identity: RationalMatrix | None = None) -> RationalPoly:
    """Monic minimal polynomial, found at the first linear dependency.

    Powers identity, m, m**2, ... are vectorized and fed to the tracked
    echelon engine; the first dependency yields the coefficients exactly.
    With the identity argument this computes the minimal polynomial of m
    relative to a different algebra unit (used for compressed subalgebras);
    the default is the ordinary minimal polynomial.

    Returns:
        Monic RationalPoly p of least degree with p(m) == 0, where the
        constant term multiplies the given identity.
    """
    if m.nrows != m.ncols:
        raise ValueError("square matrix expected")
    n = m.nrows
    ident = RationalMatrix.identity(n) if identity is None else identity
    if ident.is_zero():
        raise ValueError("zero identity element")
    span = EchelonSpan(n * n, track=True)
    power = ident
    dens: list[int] = []
    for t in range(n + 2):
        dens.append(power.den)
        idx, expr = span.add_tracked(power.num.ravel())
        if idx is None:
            # sum_j expr[j] * num_j == 0 with num_j == dens[j] * m**j.
            coeffs = [Fraction(0)] * (t + 1)
            for j, f in expr.items():
                coeffs[j] = f * dens[j]
            lead = coeffs[t]
            return RationalPoly([c / lead for c in coeffs])
        power = power @ m
    raise ArithmeticError("no dependency found; matrix powers misbehaved")


def fraction_krawtchouk_polys(d: int) -> list[RationalPoly]:
    """The family F_0..F_{d+1} by the Fraction form of the recurrence,
    z F_i = (i+1) F_{i+1} + (d-i+1) F_{i-1}, one RationalPoly per step."""
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    z = RationalPoly.x()
    fs = [RationalPoly.one(), z]
    for i in range(1, d + 1):
        nxt = (z * fs[i] - (d - i + 1) * fs[i - 1]) * Fraction(1, i + 1)
        fs.append(nxt)
    return fs[: d + 2]
