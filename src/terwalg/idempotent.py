"""The primary central idempotent U0 and its verified properties.

U0 is defined by two formulas that must agree exactly:

    U0 = |X| sum_i k_i^(-1)  E_i* E_0 E_i*
       = |X| sum_i k_i*^(-1) E_i  E_0* E_i

For the d-cube this is U0 = sum_h k_h^(-1) J_{S_h}: one all-ones block per
sphere S_h around x, scaled by the sphere size k_h.  U0 is a central
idempotent of the subconstituent algebra T, absorbs the extremal
idempotents E_0, E_d, E_0*, E_d*, has rank d+1, and generates a two-sided
ideal of dimension (d+1)^2.  Peeling that ideal off T for the d-cube leaves
the dimension of the algebra for the (d-2)-cube.

Both formulas are evaluated exactly, with no product of two n x n
matrices, and compared.
Each triple product has a diagonal factor, and nothing else is assumed of
the context: not distance-regularity, not 0/1 entries.

- Primal.  For a diagonal D_i = diag(e_i), (D_i M D_i)[u, v] =
  e_i[u] M[u, v] e_i[v].  So with c_i = |X| / k_i,
  sum_i c_i E_i* E_0 E_i* = E_0 o W, W = D^T diag(c) D, where D is the
  (d+1) x n stack of the e_i and o is the entrywise product: one
  (n x (d+1)) ((d+1) x n) product and one entrywise product.
- Dual.  For F = diag(f), (M F M)[u, v] = sum_y M[u, y] f_y M[y, v], and
  only y in supp f contribute.  So with c*_i = |X| / k*_i,
  sum_i c*_i E_i E_0* E_i = L R, where L stacks the columns
  c*_i f_y E_i[:, y] and R the rows E_i[y, :], over i and y in supp f.
  In a real context supp f = {x}, so L R is an (n x (d+1)) ((d+1) x n)
  product.

The coefficients, the denominators of the E_i* or E_i and that of E_0 or
E_0* are put over one common denominator, so each side is an integer
array canonicalized once.  The context holds each E_i* as its diagonal
e_i, which is all either formula reads of it.

U0 is then checked against its rank factorization L U0 = S^T M S, with S
the 0/1 sphere indicator matrix, L = lcm(k_h) and M = diag(m),
m_h = L / k_h, and every other property is read from S, m and the
closure's block pieces: each basis element of T is a piece X in one block,
rows S_sigma(h) and columns S_sigma(j), where sigma maps the closure's
classes (the spheres) to sphere indices.  No check forms an n x n product:

- Centrality: L U0 B is m_sigma(h) colsum(X) copied down the block's rows
  and L B U0 is m_sigma(j) rowsum(X) copied across its columns, so B
  commutes with U0 exactly when all these entries are one common value.
- Ideal dimension: right-multiplication by M S is injective, so
  dim span{B U0} = dim span{B S^T}.  B S^T is rowsum(X) in rows S_sigma(h)
  of column sigma(j); blocks have disjoint supports, so the dimension is
  the sum over blocks of the rank of their row-sum vectors.
- Idempotence: S has full row rank, so U0^2 = U0 exactly when
  M (S S^T) M = L M.
- Absorption: L U0 E = S^T (M S E) is the (d+1) x n product M S E
  gathered by sphere, compared with L E.

rank(U0) is taken densely, as an independent check of the factorization.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from ._intops import (
    INT64_SAFE,
    demote,
    exact_matmul,
    exact_mul_elementwise,
    exact_scale,
    max_abs,
    to_object,
)
from .closure import AlgebraBasis
from .echelon import EchelonSpan
from .linalg import RationalMatrix, rank
from .subconstituent import TerwContext, VerificationError, diagonal_matrix

# (h, j, X): the block of the closure's classes h, j that holds X.
Piece = tuple[int, int, np.ndarray]


def _over_common_denominator(coeffs: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """(w, L) with coeffs[i] = w[i] / L and L the lcm of the denominators."""
    big = lcm(*(c.denominator for c in coeffs))
    w = [c.numerator * (big // c.denominator) for c in coeffs]
    return demote(np.array(w, dtype=object)), big


def compute_u0(ctx: TerwContext) -> tuple[RationalMatrix, RationalMatrix]:
    """Both defining formulas for U0, each read through its diagonal factor.

    With D the (d+1) x n stack of the E_i* diagonals, the primal sum is
    E_0 o (D^T diag(c) D); with f the diagonal of E_0* and F its support,
    the dual sum is one product of the columns E_i[:, F] c*_i f_F stacked
    over i with the rows E_i[F, :] (module docstring).  Each is exact and
    canonicalized once.

    Returns:
        (via_dual_idempotents, via_idempotents); the caller compares them.

    Raises:
        ValueError: if the context is not a hypercube context.
    """
    if not ctx.is_hypercube:
        raise ValueError("U0 is defined for hypercube contexts")
    n = ctx.n
    diags = [es.num[0] for es in ctx.E_star]

    # Primal: (E_i* E_0 E_i*)[u, v] = e_i[u] E_0[u, v] e_i[v].
    coeffs = [
        Fraction(n, k) / es.den**2 for k, es in zip(ctx.valencies, ctx.E_star)
    ]
    w, big = _over_common_denominator(coeffs)
    stack = np.stack(diags)
    weights = exact_matmul(exact_mul_elementwise(stack, w[:, None]).T, stack)
    e0 = ctx.class_matrix(ctx.E[0])
    primal = RationalMatrix(exact_mul_elementwise(e0.num, weights), e0.den * big)

    # Dual: (E_i E_0* E_i)[u, v] = sum over y in supp f of
    # E_i[u, y] f_y E_i[y, v].
    f = diags[0]
    support = np.flatnonzero(f)
    coeffs = [
        Fraction(n, k) / (e.den**2 * ctx.E_star[0].den)
        for k, e in zip(ctx.dual_valencies, ctx.E)
    ]
    w, big = _over_common_denominator(coeffs)
    left = np.concatenate(
        [
            exact_mul_elementwise(
                ctx.class_entries(e, np.s_[:, support]), exact_scale(f[support], int(wi))
            )
            for e, wi in zip(ctx.E, w)
        ],
        axis=1,
    )
    right = np.concatenate([ctx.class_entries(e, support) for e in ctx.E], axis=0)
    dual = RationalMatrix(exact_matmul(left, right), big)
    return primal, dual


def sphere_indicator_matrix(ctx: TerwContext) -> np.ndarray:
    """Rows are the 0/1 indicators of the distance spheres around x."""
    s = np.zeros((ctx.d + 1, ctx.n), dtype=np.int64)
    for i, sphere in enumerate(ctx.spheres):
        s[i, sphere] = 1
    return s


def u0_factorization(
    ctx: TerwContext, u0: RationalMatrix
) -> tuple[np.ndarray, np.ndarray, int]:
    """The verified rank factorization L U0 = S^T diag(m) S.

    S is the sphere indicator matrix, L = lcm(k_i) and m_i = L / k_i, so
    diag(m) is the integer multiple L D of the diagonal D of reciprocal
    sphere sizes.

    Returns:
        (S, m, L), with S and m integer arrays.

    Raises:
        VerificationError: if S^T D S differs from U0.
    """
    s = sphere_indicator_matrix(ctx)
    big = lcm(*ctx.valencies)
    m = np.array([big // k for k in ctx.valencies], dtype=np.int64)
    s_mat = RationalMatrix(s, 1, _canonical=True)
    lhs = s_mat.transpose() @ RationalMatrix(np.diag(m), big) @ s_mat
    if lhs != u0:
        raise VerificationError("U0 does not match its rank factorization")
    return s, m, big


def sphere_of_classes(s: np.ndarray, classes: Sequence[np.ndarray]) -> tuple[int, ...]:
    """The map sigma from block classes to spheres: classes[h] is S_sigma(h).

    Args:
        s: the sphere indicator matrix.

    Raises:
        ValueError: if a class is not exactly one sphere.
    """
    label = np.argmax(s, axis=0)
    sizes = s.sum(axis=1)
    sigma = []
    for cls in classes:
        i = int(label[cls[0]]) if len(cls) else None
        if i is None or len(cls) != sizes[i] or np.any(label[cls] != i):
            raise ValueError("a block class of the basis is not exactly one sphere")
        sigma.append(i)
    return tuple(sigma)


def _line_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row sums, column sums) of an integer block, exactly.

    Every sum has at most max(x.shape) terms, so max(x.shape) max|x| bounds
    it; past INT64_SAFE the sums run on Python ints and are demoted.
    """
    if x.dtype != object and max(x.shape) * max_abs(x) < INT64_SAFE:
        return x.sum(axis=1), x.sum(axis=0)
    x = to_object(x)
    return demote(x.sum(axis=1)), demote(x.sum(axis=0))


def is_central(pieces: Iterable[Piece], sigma: Sequence[int], m: np.ndarray) -> bool:
    """Does U0 commute with every block piece given?

    A piece (h, j, X) is the n x n matrix B that is X on rows S_sigma(h) and
    columns S_sigma(j) and zero elsewhere.  With L U0 = S^T diag(m) S, the
    matrix L U0 B is m_sigma(h) colsum(X) copied down the block's rows and
    L B U0 is m_sigma(j) rowsum(X) copied across its columns; both vanish
    outside the block.  So B commutes with U0 exactly when all these
    entries are one common value, in O(|S_h| |S_j|) per piece.  A piece
    with no rows or no columns is the zero matrix, which commutes.
    """
    for h, j, x in pieces:
        if x.size == 0:
            continue
        rows, cols = _line_sums(x)
        left = exact_scale(cols, int(m[sigma[h]]))  # a row of L U0 B
        right = exact_scale(rows, int(m[sigma[j]]))  # a column of L B U0
        value = left[0]
        if not (np.all(left == value) and np.all(right == value)):
            return False
    return True


def ideal_dimension(pieces: Iterable[Piece]) -> int:
    """dim span{B U0} over the pieces B of an algebra basis.

    Since U0 = S^T D S with D the invertible diagonal of reciprocal sphere
    sizes and S of full row rank, right-multiplication by D S is injective,
    so the span of {B S^T} has the same dimension.  For a piece in block
    (h, j), B S^T is rowsum(X) in rows S_sigma(h) of column sigma(j).  When
    the classes are distinct spheres these supports are disjoint across
    blocks, so the dimension is the sum over blocks of the rank of their
    row-sum vectors.
    """
    spans: dict[tuple[int, int], EchelonSpan] = {}
    for h, j, x in pieces:
        span = spans.get((h, j))
        if span is None:
            span = spans[(h, j)] = EchelonSpan(x.shape[0])
        span.add(_line_sums(x)[0])
    return sum(span.dim for span in spans.values())


def is_idempotent(s: np.ndarray, m: np.ndarray, big: int) -> bool:
    """Is U0 = S^T M S / big idempotent, M = diag(m)?

    U0^2 = S^T M (S S^T) M S / big^2, and S has full row rank (its rows are
    the indicators of disjoint nonempty spheres), so U0^2 = U0 exactly when
    M (S S^T) M = big M: a (d+1) x (d+1) comparison.
    """
    ms = exact_mul_elementwise(m[:, None], exact_matmul(s, s.T))
    mssm = exact_mul_elementwise(ms, m)
    return np.array_equal(mssm, exact_scale(np.diag(m), big))


def absorbs(s: np.ndarray, m: np.ndarray, big: int, e: RationalMatrix) -> bool:
    """Is U0 E = E, with big U0 = S^T diag(m) S?

    big U0 E = S^T (M S E) is the (d+1) x n product M S E gathered by
    sphere: row v of it is row label(v) of M S E.  The denominator of E is
    common to both sides.
    """
    mse = exact_mul_elementwise(m[:, None], exact_matmul(s, e.num))
    label = np.argmax(s, axis=0)
    return np.array_equal(mse[label], exact_scale(e.num, big))


@dataclass(frozen=True)
class U0Report:
    """Outcome of every U0 property check for one context."""

    d: int
    U0: RationalMatrix
    formulas_agree: bool
    idempotent: bool
    central: bool
    rank_U0: int
    dim_T_u0: int
    absorbs_E0: bool
    absorbs_Ed: bool
    absorbs_E0_star: bool
    absorbs_Ed_star: bool
    peel_identity: bool

    @property
    def is_identity(self) -> bool:
        return self.U0 == RationalMatrix.identity(self.U0.nrows)

    @property
    def absorbs_all(self) -> bool:
        return (
            self.absorbs_E0
            and self.absorbs_Ed
            and self.absorbs_E0_star
            and self.absorbs_Ed_star
        )

    @property
    def passed(self) -> bool:
        return (
            self.formulas_agree
            and self.idempotent
            and self.central
            and self.rank_U0 == self.d + 1
            and self.dim_T_u0 == (self.d + 1) ** 2
            and self.absorbs_all
            and self.peel_identity
            and self.is_identity == (self.d <= 1)
        )

    def as_dict(self) -> dict:
        return {
            "formulas_agree": self.formulas_agree,
            "idempotent": self.idempotent,
            "central": self.central,
            "rank": self.rank_U0,
            "dim_ideal": self.dim_T_u0,
            "absorbs": [
                self.absorbs_E0,
                self.absorbs_Ed,
                self.absorbs_E0_star,
                self.absorbs_Ed_star,
            ],
        }


def verify_u0(
    ctx: TerwContext, t: AlgebraBasis, dim_smaller: int | None = None
) -> U0Report:
    """Run every U0 check against a computed algebra basis.

    The checks read the basis's block pieces and the verified factorization
    L U0 = S^T diag(m) S; none forms an n x n product (module docstring).

    Args:
        dim_smaller: known dimension of the algebra two diameters down; when
            given, the peel identity dim T - (d+1)^2 = dim_smaller is
            checked, otherwise it is recorded as vacuously true.

    Raises:
        ValueError: if a block class of t is not exactly one sphere.
        VerificationError: if U0 does not match its rank factorization.
    """
    primal, dual = compute_u0(ctx)
    formulas_agree = primal == dual
    u0 = primal
    s, m, big = u0_factorization(ctx, u0)
    sigma = sphere_of_classes(s, t.span.classes)
    pieces = [t.span.element(k) for k in range(t.span.dim)]
    absorbed = [absorbs(s, m, big, ctx.class_matrix(e)) for e in (ctx.E[0], ctx.E[ctx.d])]
    star_ends = (ctx.E_star[0], ctx.E_star[ctx.d])
    absorbed += [absorbs(s, m, big, diagonal_matrix(e)) for e in star_ends]
    if dim_smaller is None:
        peel = True
    else:
        peel = t.dim - (ctx.d + 1) ** 2 == dim_smaller
    return U0Report(
        d=ctx.d,
        U0=u0,
        formulas_agree=formulas_agree,
        idempotent=is_idempotent(s, m, big),
        central=is_central(pieces, sigma, m),
        rank_U0=rank(u0),
        dim_T_u0=ideal_dimension(pieces),
        absorbs_E0=absorbed[0],
        absorbs_Ed=absorbed[1],
        absorbs_E0_star=absorbed[2],
        absorbs_Ed_star=absorbed[3],
        peel_identity=peel,
    )
