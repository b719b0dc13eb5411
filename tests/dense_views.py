"""Dense n x n views of block pieces, class rows and held diagonals, and the
dense helpers the reference checks in the tests are built from."""

from fractions import Fraction
from typing import Sequence

import numpy as np

from terwalg._intops import INT64_SAFE, exact_matmul, max_abs, to_object
from terwalg.echelon import EchelonSpan
from terwalg.graphs import DistanceData, Graph
from terwalg.linalg import RationalMatrix
from terwalg.polys import RationalPoly


def densify(basis) -> tuple[RationalMatrix, ...]:
    """Every element as a dense integer n x n matrix, in insertion order.

    basis is a closure.BlockSpans, or an object holding one as `span` (an
    AlgebraBasis or a CompressedAlgebra).
    """
    span = getattr(basis, "span", basis)
    out = []
    for k in range(span.dim):
        h, j, block = span.element(k)
        dense = np.zeros((span.n, span.n), dtype=block.dtype)
        dense[np.ix_(span.classes[h], span.classes[j])] = block
        out.append(RationalMatrix(dense, 1, _canonical=True))
    return tuple(out)


def dense_diagonal(row: RationalMatrix) -> RationalMatrix:
    """The n x n diagonal matrix of a held diagonal (a 1 x n row), such as
    TerwContext.E_star[i] or A_star[i], canonicalized on its own."""
    return RationalMatrix(np.diag(row.num[0]), row.den)


def dense_class_matrix(ctx, row: RationalMatrix) -> RationalMatrix:
    """The n x n matrix of a class row (such as TerwContext.E[i]): entry
    (y, z) is row[dist(y, z)], canonicalized on its own."""
    return RationalMatrix(row.num[0][ctx.dist.dist], row.den)


def dense_idempotents(ctx) -> list[RationalMatrix]:
    """Every E_i of a context as a dense n x n matrix."""
    return [dense_class_matrix(ctx, e) for e in ctx.E]


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
