"""Block structure of the algebra: center, central idempotents, block sizes.

The algebra comes as a reduced echelon basis b_1..b_m of its flattened
matrices, so an element of it is zero exactly when its m pivot entries are.
Commutators [b_k, g] and products b_k z_r lie in the algebra, so the center
(the kernel of c -> c g - g c over the generators g) and the block
dimensions dim span{b_k z_r} are read in these pivot coordinates, not at
width n^2.  A deterministic probe element of the center is split via its
minimal polynomial; when that polynomial factors into distinct integer
roots, the Lagrange interpolation idempotents are the primitive central
idempotents, each block rank is the trace of its idempotent, and each block
size n_r is the integer square root of dim span{b_k z_r}.  A dense
certificate then requires each idempotent to commute with the generators.
A probe that fails to split after three weight schedules, or a split that
fails the certificate, yields status "inconclusive" with the offending
polynomial attached; that is a result, not an error.

All of this works relative to an arbitrary identity element, so the same
code decomposes both the full algebra (identity I) and the compressed
complement algebra (I - U0) T (I - U0) (identity I - U0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._intops import exact_matmul, exact_sub
from .closure import AlgebraBasis
from .echelon import EchelonSpan
from .linalg import RationalMatrix, kernel_basis, min_poly, rank
from .polys import RationalPoly

# Trial division for integer roots stops here; a probe whose constant term
# has only larger factor pairs is treated as unsplit rather than stalling.
ROOT_SEARCH_CAP = 10**6

SPLIT = "split"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BlockDecomposition:
    """Center and block data of one semisimple algebra."""

    center_dim: int
    central_idempotents: tuple[RationalMatrix, ...]
    eigenvalues: tuple[int, ...]
    block_sizes: tuple[int, ...]
    block_ranks: tuple[int, ...]
    status: str
    probe_min_poly: RationalPoly | None

    @property
    def multiset(self) -> tuple[int, ...]:
        """Block sizes as a canonical (descending) multiset."""
        return tuple(sorted(self.block_sizes, reverse=True))

    def blocks_json(self):
        if self.status != SPLIT:
            return INCONCLUSIVE
        return list(self.multiset)


def _basis_matrices(t) -> tuple[RationalMatrix, ...]:
    if isinstance(t, AlgebraBasis):
        return t.matrices
    return tuple(t)


def _pivots(mats: Sequence[RationalMatrix]) -> np.ndarray:
    """Flat position of each basis element's pivot, its first nonzero entry."""
    return np.array([np.flatnonzero(b.num)[0] for b in mats], dtype=np.int64)


def center_basis(t, generators: Sequence[RationalMatrix]) -> list[RationalMatrix]:
    """Echelonized basis of {c in span(t) : c g = g c for all generators}.

    Precondition: t is a reduced echelon basis of a closed algebra that
    contains the generators.  Then every commutator [b_k, g] lies in the
    algebra and is zero exactly when its pivot entries are, so the center
    coefficients are the kernel of the 2m x m matrix whose column k holds
    the pivot entries of [b_k, g] for each generator g.  On a span that is
    not closed the result may be wrong; decompose's certificate catches a
    false split.
    """
    mats = _basis_matrices(t)
    if not mats:
        return []
    n = mats[0].nrows
    piv = _pivots(mats)
    gen_nums = [g.num for g in generators]
    cols = []
    for b in mats:
        parts = []
        for gn in gen_nums:
            comm = exact_sub(exact_matmul(b.num, gn), exact_matmul(gn, b.num))
            parts.append(comm.ravel()[piv])
        cols.append(np.concatenate(parts))
    alphas = kernel_basis(RationalMatrix(np.stack(cols, axis=1)))
    center = []
    for alpha in alphas:
        acc = RationalMatrix.zeros(n, n)
        for coeff, b in zip(alpha, mats):
            if coeff:
                acc = acc + b * coeff
        center.append(acc)
    return center


def _integer_roots(p: RationalPoly) -> list[int] | None:
    """All roots of a monic polynomial if it splits into distinct integers.

    Returns None when the polynomial has a non-integer coefficient, a
    repeated root, or fails to split within the trial-division cap.
    """
    if any(c.denominator != 1 for c in p.coeffs):
        return None
    roots = []
    q = p
    if q.degree is not None and q.degree > 0 and q.eval_scalar(0) == 0:
        q, rem = q.deflate(0)
        roots.append(0)
        if q.eval_scalar(0) == 0:
            return None  # repeated root at 0
    c0 = abs(int(q.eval_scalar(0)))
    candidates = set()
    if c0:
        t = 1
        while t * t <= c0 and t <= ROOT_SEARCH_CAP:
            if c0 % t == 0:
                candidates.update((t, -t, c0 // t, -(c0 // t)))
            t += 1
    for cand in sorted(candidates):
        if q.eval_scalar(cand) == 0:
            q, rem = q.deflate(cand)
            if rem != 0:
                return None
            roots.append(cand)
            if q.eval_scalar(cand) == 0:
                return None  # repeated root
    if q.degree != 0:
        return None
    return sorted(roots)


def split_center(
    center: Sequence[RationalMatrix], identity: RationalMatrix | None = None
) -> BlockDecomposition:
    """Split a commutative semisimple algebra into primitive idempotents.

    Args:
        center: basis of the center, as produced by center_basis.
        identity: identity element of the algebra; defaults to I of the
            ambient size.  The complement algebra passes I - U0 here.
    """
    center = list(center)
    m = len(center)
    if m == 0:
        raise ValueError("center basis is empty")
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
        # Drop the denominator: scaling the probe scales its eigenvalues by
        # an integer and leaves the Lagrange idempotents unchanged.
        probe_int = RationalMatrix(probe.num, 1)
        mp = min_poly(probe_int, identity=identity)
        last_poly = mp
        if mp.degree != m:
            continue
        roots = _integer_roots(mp)
        if roots is None:
            continue
        idems = []
        for lam in roots:
            z = identity
            for mu in roots:
                if mu == lam:
                    continue
                z = z @ (probe_int - identity * mu) * Fraction(1, lam - mu)
            idems.append(z)
        if not _idempotents_valid(idems, identity):
            continue
        # Each z is an exact idempotent, so its rank is its trace.
        ranks = tuple(int(z.trace()) for z in idems)
        return BlockDecomposition(
            center_dim=m,
            central_idempotents=tuple(idems),
            eigenvalues=tuple(roots),
            block_sizes=(),
            block_ranks=ranks,
            status=SPLIT,
            probe_min_poly=mp,
        )
    return BlockDecomposition(
        center_dim=m,
        central_idempotents=(),
        eigenvalues=(),
        block_sizes=(),
        block_ranks=(),
        status=INCONCLUSIVE,
        probe_min_poly=last_poly,
    )


def _idempotents_valid(
    idems: Sequence[RationalMatrix], identity: RationalMatrix
) -> bool:
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


def block_sizes(t, dec: BlockDecomposition) -> BlockDecomposition:
    """Fill in block sizes: n_r = isqrt of dim span{b_k z_r}.

    Every b_k z_r lies in the algebra, so the span's dimension is the rank
    of the m x m matrix of pivot entries of the products (same precondition
    as center_basis).

    Raises:
        ValueError: if the decomposition is not split or some block
            dimension is not a perfect square.
    """
    if dec.status != SPLIT:
        raise ValueError("cannot take block sizes of an inconclusive split")
    mats = _basis_matrices(t)
    piv = _pivots(mats)
    sizes = []
    for z in dec.central_idempotents:
        coords = np.stack([exact_matmul(b.num, z.num).ravel()[piv] for b in mats])
        dim = rank(RationalMatrix(coords))
        nr = math.isqrt(dim)
        if nr * nr != dim:
            raise ValueError(f"block dimension {dim} is not a perfect square")
        sizes.append(nr)
    return replace(dec, block_sizes=tuple(sizes))


def decompose(
    t,
    generators: Sequence[RationalMatrix],
    identity: RationalMatrix | None = None,
) -> BlockDecomposition:
    """center_basis + split_center + block_sizes in one call."""
    center = center_basis(t, generators)
    dec = split_center(center, identity=identity)
    if dec.status != SPLIT:
        return dec
    dec = block_sizes(t, dec)
    # The primitive idempotents are central, so they must commute with the
    # generators; a failure here downgrades the result to inconclusive.
    for z in dec.central_idempotents:
        for g in generators:
            if z @ g != g @ z:
                return replace(
                    dec,
                    central_idempotents=(),
                    eigenvalues=(),
                    block_sizes=(),
                    block_ranks=(),
                    status=INCONCLUSIVE,
                )
    return dec


@dataclass(frozen=True)
class CompressedAlgebra:
    """The complement corner (I - U0) T (I - U0) with its own identity."""

    matrices: tuple[RationalMatrix, ...]
    identity: RationalMatrix
    generators: tuple[RationalMatrix, ...]

    @property
    def dim(self) -> int:
        return len(self.matrices)


def complement_algebra(ctx, t: AlgebraBasis, u0: RationalMatrix) -> CompressedAlgebra:
    """Basis, identity, and generators of (I - U0) T (I - U0).

    Compression of a spanning set spans the corner, so the basis comes from
    echelonizing {W B W} with W an integer multiple of I - U0 (the scalar
    does not move the span).
    """
    n = ctx.n
    ident = RationalMatrix.identity(n)
    comp = ident - u0
    w = comp.num  # integer numerator of den * (I - U0)
    span = EchelonSpan(n * n)
    mats = []
    for b in t.matrices:
        c = exact_matmul(exact_matmul(w, b.num), w)
        span.add(c.ravel())
    for row in span.rows:
        mats.append(RationalMatrix(row.reshape(n, n), 1, _canonical=True))
    gens = tuple(comp @ g @ comp for g in ctx.generators())
    return CompressedAlgebra(tuple(mats), comp, gens)
