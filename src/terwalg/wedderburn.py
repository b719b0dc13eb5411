"""Block structure of the algebra: center, central idempotents, block sizes.

Everything here works in the pivot coordinates of the algebra's reduced
echelon basis b_1..b_m.  The pivot of b_j is its first nonzero entry, at
matrix position (R_j, C_j) with value pv_j, and every other basis element is
zero there, so an element c of the span has coordinates c[R_j, C_j] / pv_j
and is zero exactly when its m pivot entries are.  Precondition: the span is
closed under multiplication and contains the generators and the unit e.  Then
every product the split needs lies in the span and is read through its
pivot entries alone, never formed at n x n:

- One pivot-entry kernel.  Entry j of g b_k is sum_t g[R_j, t] b_k[t, C_j]
  and entry j of b_k g is sum_t b_k[R_j, t] g[t, C_j], taken for every k
  from the m x n slices g[R, :] or g[:, C]: O(m n) per basis element, dense
  g or not.  The center is the kernel of the 2m x m matrix of pivot entries
  of the commutators [b_k, A] and [b_k, A*], and the block dimension
  dim span{b_k z_r} is the rank of the m x m matrix of pivot entries of
  b_k z_r.
- The left-regular probe.  A deterministic probe p of the center acts on
  coordinates by L_p = D^-1 (pivot entries of p b_l), D = diag(pv).  Since
  e b = b on the span and coordinates are injective, q(L_p) = 0 exactly when
  q(p) = 0, so min_poly(L_p) (m x m) is the minimal polynomial of p relative
  to e.  When it factors into distinct integer roots (polys.integer_roots
  isolates them exactly by Sturm sequences, with no search bound), the
  Lagrange idempotents prod (L_p - mu) / (lambda - mu) coords(e) are formed
  as coordinate vectors and materialized once each as sum_k c_k b_k over a
  common denominator.  Each block rank is the trace of its idempotent, and
  each block size n_r is the integer square root of dim span{b_k z_r}.
- The corner.  The complement algebra (I - U0) T (I - U0) is spanned by
  W B W with W = L (I - U0) = L I - S^T M S, the verified factorization of
  idempotent.u0_factorization.  W is block-diagonal by spheres, so W B W
  stays in the block E*_h T E*_j of B; it expands into products with the
  thin sphere indicator S, O((d+1) |S_h| |S_j|) per basis element, and is
  reduced in that block's span (closure.BlockSpans).

On a span that is not closed the pivot reads can be wrong, so the split is
guarded by dense checks on the materialized idempotents: they must be
orthogonal idempotents summing to e, and each must commute with the
generators.  A probe that fails to split after three weight schedules, or a
split that fails the certificate, yields status "inconclusive" with the
offending polynomial attached; that is a result, not an error.

All of this works relative to an arbitrary identity element, so the same
code decomposes both the full algebra (identity I) and the compressed
complement algebra (I - U0) T (I - U0) (identity I - U0), whose pivot values
need not be 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._intops import (
    INT64_SAFE,
    content,
    demote,
    exact_matmul,
    exact_mul_elementwise,
    exact_scale,
    exact_sub,
    max_abs,
    to_object,
)
from .closure import AlgebraBasis, BlockSpans
from .idempotent import u0_factorization
from .linalg import RationalMatrix, kernel_basis, min_poly, rank
from .polys import RationalPoly, integer_roots

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


class _PivotBasis:
    """A reduced echelon basis with its pivots and entry bounds, read once.

    The basis elements are integer matrices (denominator 1), as the echelon
    engine stores them.
    """

    def __init__(self, mats: Sequence[RationalMatrix]):
        self.matrices = tuple(mats)
        if any(b.den != 1 for b in self.matrices):
            raise ValueError("basis elements must be integer matrices")
        self.n = self.matrices[0].nrows if self.matrices else 0
        nums = [b.num for b in self.matrices]
        piv = np.array([np.flatnonzero(b)[0] for b in nums], dtype=np.intp)
        self.rows, self.cols = np.divmod(piv, self.n)
        self.pivvals = [int(b.flat[p]) for b, p in zip(nums, piv)]
        self.pivlcm = math.lcm(1, *self.pivvals)
        self.maxes = [max_abs(b) for b in nums]
        self._bmax = max(self.maxes, default=0)
        self._object = any(b.dtype == object for b in nums)

    @property
    def dim(self) -> int:
        return len(self.matrices)

    def _pivot_products(self, gs: np.ndarray, slice_of) -> np.ndarray:
        """Column k: sum_t gs[j, t] * slice_of(b_k)[j, t] for every j.

        Each entry sums n products, so n * max|gs| * max|b| bounds it; past
        INT64_SAFE the sums run on Python ints and the result is demoted.
        """
        fits = (
            not self._object
            and gs.dtype != object
            and self.n * max_abs(gs) * self._bmax < INT64_SAFE
        )
        if not fits:
            gs = to_object(gs)
        cols = []
        for b in self.matrices:
            bs = slice_of(b.num)
            cols.append(np.einsum("jt,jt->j", gs, bs if fits else to_object(bs)))
        out = np.stack(cols, axis=1)
        return out if fits else demote(out)

    def left(self, g: np.ndarray) -> np.ndarray:
        """m x m array whose column k holds the pivot entries of g b_k.

        Entry j is sum_t g[R_j, t] b_k[t, C_j]: the m x n slices g[R, :] and
        b_k[:, C]^T, O(m n) per basis element whatever the structure of g.
        """
        return self._pivot_products(g[self.rows, :], lambda b: b[:, self.cols].T)

    def right(self, g: np.ndarray) -> np.ndarray:
        """m x m array whose column k holds the pivot entries of b_k g.

        Entry j is sum_t b_k[R_j, t] g[t, C_j], from b_k[R, :] and g[:, C]^T.
        """
        return self._pivot_products(g[:, self.cols].T, lambda b: b[self.rows, :])

    def left_regular(self, p: np.ndarray) -> RationalMatrix:
        """Matrix of c -> p c in the coordinates of the basis: D^-1 left(p).

        D = diag(pv) is kept: a basis whose pivot values are not all 1 (the
        U0 corner's) has coordinates c[R_j, C_j] / pv_j, not c[R_j, C_j].
        """
        scale = [[self.pivlcm // v] for v in self.pivvals]
        scale = demote(np.array(scale, dtype=object))
        return RationalMatrix(exact_mul_elementwise(self.left(p), scale), self.pivlcm)

    def coordinates(self, c: RationalMatrix) -> tuple[np.ndarray, int]:
        """Coordinates of an element of the span as (integer vector, den)."""
        entries = c.num[self.rows, self.cols]
        num = [int(x) * (self.pivlcm // v) for x, v in zip(entries, self.pivvals)]
        return demote(np.array(num, dtype=object)), c.den * self.pivlcm

    def combine(self, coeffs: Sequence, den: int = 1) -> RationalMatrix:
        """The element (sum_k coeffs[k] b_k) / den, canonicalized once."""
        return _combination(
            [int(c) for c in coeffs], [b.num for b in self.matrices], self.maxes, den
        )

    def combine_fractions(self, coeffs: Sequence[Fraction]) -> RationalMatrix:
        """The element sum_k coeffs[k] b_k for rational coefficients."""
        den = math.lcm(1, *(Fraction(c).denominator for c in coeffs))
        return self.combine([c * den for c in coeffs], den)


def _combination(
    coeffs: Sequence[int], nums: Sequence[np.ndarray], maxes: Sequence[int], den: int
) -> RationalMatrix:
    """(sum_k coeffs[k] nums[k]) / den as one canonical RationalMatrix.

    The sum runs in int64 when sum_k |coeffs[k]| max|nums[k]| allows it and
    on Python ints otherwise; RationalMatrix demotes the result.
    """
    bound = sum(abs(c) * mx for c, mx in zip(coeffs, maxes))
    obj = bound >= INT64_SAFE or any(a.dtype == object for a in nums)
    acc = np.zeros(nums[0].shape, dtype=object if obj else np.int64)
    for c, a in zip(coeffs, nums):
        if c:
            acc += c * (to_object(a) if obj else a)
    return RationalMatrix(acc, den)


def _pivot_basis(t) -> _PivotBasis:
    if isinstance(t, _PivotBasis):
        return t
    if isinstance(t, AlgebraBasis):
        return _PivotBasis(t.matrices)
    return _PivotBasis(tuple(t))


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
    pb = _pivot_basis(t)
    if not pb.dim:
        return []
    parts = [exact_sub(pb.right(g.num), pb.left(g.num)) for g in generators]
    alphas = kernel_basis(RationalMatrix(np.concatenate(parts)))
    return [pb.combine_fractions(alpha) for alpha in alphas]


def _lagrange_coordinates(
    lp: RationalMatrix, roots: Sequence[int], lam: int, x: np.ndarray, den: int
) -> tuple[np.ndarray, int]:
    """Coordinates of prod_{mu != lam} (p - mu e) / (lam - mu) times x / den.

    lp = num / lp.den is the left-regular matrix of p; the vector stays an
    integer numerator over one denominator, reduced by their gcd each step.
    """
    for mu in roots:
        if mu == lam:
            continue
        x = exact_sub(exact_matmul(lp.num, x), exact_scale(x, mu * lp.den))
        den *= lp.den * (lam - mu)
        g = math.gcd(content(x), den)
        if g > 1:
            x = demote(x // g)
            den //= g
    return x, den


def split_center(
    t, center: Sequence[RationalMatrix], identity: RationalMatrix | None = None
) -> BlockDecomposition:
    """Split a commutative semisimple algebra into primitive idempotents.

    The probe p = sum_k w^k c_k is read through its left-regular matrix L_p
    in the coordinates of t.  On a closed span with unit e, q(L_p) = 0
    exactly when q(p) = q(p) e = 0, so min_poly(L_p) is the minimal
    polynomial of p relative to e; each Lagrange idempotent is formed as a
    coordinate vector and materialized once.

    Args:
        t: reduced echelon basis of the algebra (same precondition as
            center_basis).
        center: basis of the center, as produced by center_basis.
        identity: identity element of the algebra; defaults to I of the
            ambient size.  The complement algebra passes I - U0 here.
    """
    center = list(center)
    m = len(center)
    if m == 0:
        raise ValueError("center basis is empty")
    pb = _pivot_basis(t)
    if identity is None:
        identity = RationalMatrix.identity(pb.n)
    e, e_den = pb.coordinates(identity)
    lcd = math.lcm(*(c.den for c in center))
    nums = [c.num for c in center]
    maxes = [max_abs(c) for c in nums]

    last_poly = None
    for base in (m + 1, m + 2, 2 * m + 3):
        weights = [base**k * (lcd // c.den) for k, c in enumerate(center)]
        probe = _combination(weights, nums, maxes, lcd)
        # Drop the denominator: scaling the probe scales its eigenvalues by
        # an integer and leaves the Lagrange idempotents unchanged.
        lp = pb.left_regular(probe.num)
        mp = min_poly(lp)
        last_poly = mp
        if mp.degree != m:
            continue
        roots = integer_roots(mp)
        if roots is None:
            continue
        idems = [
            pb.combine(*_lagrange_coordinates(lp, roots, lam, e, e_den))
            for lam in roots
        ]
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
    pb = _pivot_basis(t)
    sizes = []
    for z in dec.central_idempotents:
        dim = rank(RationalMatrix(pb.right(z.num)))
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
    pb = _pivot_basis(t)
    center = center_basis(pb, generators)
    dec = split_center(pb, center, identity=identity)
    if dec.status != SPLIT:
        return dec
    dec = block_sizes(pb, dec)
    # The pivot reads above assume a closed span.  The primitive idempotents
    # are central, so they must commute with the generators; this dense
    # certificate downgrades a false split to inconclusive.
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


def _compressor(s: np.ndarray, m: np.ndarray, big: int):
    """(x, rows, cols) -> the (rows, cols) block of big^2 (I - U0) X (I - U0).

    X is the n x n matrix that is x on rows x cols and zero elsewhere, and
    big U0 = S^T M S.  Each of rows and cols must be a union of spheres.
    With W = big (I - U0) = big I - S^T M S,
    W X W = big^2 X - big S^T (M S X) - big (X S^T M) S + S^T (M S X S^T M) S.
    S is the sphere indicator matrix, so every vertex v lies in exactly one
    sphere label[v]: S^T Y is the row gather Y[label] and Y S the column
    gather Y[:, label].  W is block-diagonal by spheres, so W X W is again
    zero outside rows x cols, and its block costs O((d+1) |rows| |cols|),
    where a dense W X W costs two n^3 products.
    """
    st = s.T
    mcol = m[:, None]
    label = np.argmax(s, axis=0)

    def compress(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        sr, sc = st[rows], st[cols]
        msx = exact_mul_elementwise(mcol, exact_matmul(x.T, sr).T)  # M S X
        xstm = exact_mul_elementwise(exact_matmul(x, sc), m)  # X S^T M
        core = exact_mul_elementwise(exact_matmul(msx, sc), m)  # M S X S^T M
        terms = [x, msx, xstm, core]
        bound = big * big * max_abs(x) + big * (max_abs(msx) + max_abs(xstm))
        if bound + max_abs(core) >= INT64_SAFE or any(a.dtype == object for a in terms):
            x, msx, xstm, core = map(to_object, terms)
        lr, lc = label[rows], label[cols]
        out = big * big * x - big * msx[lr] - big * xstm[:, lc]
        return demote(out + core[lr][:, lc])

    return compress


def complement_algebra(ctx, t: AlgebraBasis, u0: RationalMatrix) -> CompressedAlgebra:
    """Basis, identity, and generators of (I - U0) T (I - U0).

    Compression of a spanning set spans the corner, so the basis comes from
    echelonizing {W B W} with W = L (I - U0), where L U0 = S^T M S is the
    verified factorization of idempotent.u0_factorization (the scalar L does
    not move the span).  W is block-diagonal by spheres and the classes of
    T's blocks are unions of spheres, so W B W stays in the block of B and
    is formed and reduced there, through the thin factor S.

    Raises:
        ValueError: if a class of t's blocks is not a union of spheres.
    """
    n = ctx.n
    s, m = u0_factorization(ctx, u0)
    big = math.lcm(*ctx.valencies)  # the L of u0_factorization
    compress = _compressor(s, m, big)
    classes = t.span.classes
    for cls in classes:
        counts = s[:, cls].sum(axis=1)
        if np.any((counts != 0) & (counts != s.sum(axis=1))):
            raise ValueError("a block class of the basis is not a union of spheres")
    span = BlockSpans(n, classes)
    for k in range(t.span.dim):
        h, j, x = t.span.element(k)
        span.add(h, j, compress(x, classes[h], classes[j]))
    everything = np.arange(n)
    gens = tuple(
        RationalMatrix(compress(g.num, everything, everything), big * big * g.den)
        for g in ctx.generators()
    )
    comp = RationalMatrix.identity(n) - u0
    return CompressedAlgebra(span.matrices(), comp, gens)
