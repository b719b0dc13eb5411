"""The primary central idempotent U0 and its verified properties.

U0 is defined by two formulas that must agree exactly:

    U0 = |X| sum_i k_i^(-1)  E_i* E_0 E_i*
       = |X| sum_i k_i*^(-1) E_i  E_0* E_i

It is a central idempotent of the subconstituent algebra, absorbs the
extremal idempotents E_0, E_d, E_0*, E_d*, has rank d+1, and generates a
two-sided ideal of dimension (d+1)^2.  Peeling that ideal off the algebra
for the d-cube leaves the dimension of the algebra for the (d-2)-cube.

U0 has the rank factorization S^T D S, with S the 0/1 sphere indicator
matrix and D the diagonal of reciprocal sphere sizes.  verify_u0 checks the
factorization against U0 once and then uses it twice: centrality is tested
against every basis element through S and S^T, which costs O((d+1) n^2) per
element instead of two dense n x n products, and the ideal dimension is the
rank of {B S^T}.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from ._intops import exact_matmul, exact_mul_elementwise
from .closure import AlgebraBasis
from .echelon import EchelonSpan
from .linalg import RationalMatrix, rank
from .subconstituent import TerwContext, VerificationError


def compute_u0(ctx: TerwContext) -> tuple[RationalMatrix, RationalMatrix]:
    """Both defining formulas for U0, evaluated literally.

    Returns:
        (via_dual_idempotents, via_idempotents); the caller compares them.

    Raises:
        ValueError: if the context is not a hypercube context.
    """
    if not ctx.is_hypercube:
        raise ValueError("U0 is defined for hypercube contexts")
    n = ctx.n
    primal = RationalMatrix.zeros(n, n)
    dual = RationalMatrix.zeros(n, n)
    for i in range(ctx.d + 1):
        term = ctx.E_star[i] @ ctx.E[0] @ ctx.E_star[i]
        primal = primal + term * Fraction(n, ctx.valencies[i])
        term = ctx.E[i] @ ctx.E_star[0] @ ctx.E[i]
        dual = dual + term * Fraction(n, ctx.dual_valencies[i])
    return primal, dual


def sphere_indicator_matrix(ctx: TerwContext) -> np.ndarray:
    """Rows are the 0/1 indicators of the distance spheres around x."""
    s = np.zeros((ctx.d + 1, ctx.n), dtype=np.int64)
    for i, sphere in enumerate(ctx.spheres):
        s[i, sphere] = 1
    return s


def u0_factorization(
    ctx: TerwContext, u0: RationalMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """The verified rank factorization L U0 = S^T diag(m) S.

    S is the sphere indicator matrix, L = lcm(k_i) and m_i = L / k_i, so
    diag(m) is the integer multiple L D of the diagonal D of reciprocal
    sphere sizes.

    Returns:
        (S, m) as integer arrays.

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
    return s, m


def is_central(
    s: np.ndarray, m: np.ndarray, matrices: Iterable[RationalMatrix]
) -> bool:
    """Does U0 = S^T D S commute with every matrix given?

    Each test compares the integers S^T (L D) (S B) and (B S^T) (L D) S,
    which are L times U0 B and B U0 (the denominator of B is common to both
    sides), in O((d+1) n^2) operations instead of two dense products.
    """
    st = s.T
    for b in matrices:
        sb = exact_mul_elementwise(m[:, None], exact_matmul(s, b.num))
        bst = exact_mul_elementwise(exact_matmul(b.num, st), m[None, :])
        if not np.array_equal(exact_matmul(st, sb), exact_matmul(bst, s)):
            return False
    return True


def ideal_dimension(t: AlgebraBasis, s: np.ndarray) -> int:
    """dim span{B U0 : B in the algebra basis}, given S from u0_factorization.

    Since U0 = S^T D S with D the invertible diagonal of reciprocal sphere
    sizes, right-multiplication by D S is injective and the span of
    {B S^T} has the same dimension.
    """
    span = EchelonSpan(s.size)
    st = s.T
    for b in t.matrices:
        span.add(exact_matmul(b.num, st).ravel())
    return span.dim


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

    Args:
        dim_smaller: known dimension of the algebra two diameters down; when
            given, the peel identity dim T - (d+1)^2 = dim_smaller is
            checked, otherwise it is recorded as vacuously true.
    """
    primal, dual = compute_u0(ctx)
    formulas_agree = primal == dual
    u0 = primal
    idempotent = u0 @ u0 == u0
    s, m = u0_factorization(ctx, u0)
    central = is_central(s, m, t.matrices)
    rank_u0 = rank(u0)
    dim_ideal = ideal_dimension(t, s)
    absorbs = [
        u0 @ ctx.E[0] == ctx.E[0],
        u0 @ ctx.E[ctx.d] == ctx.E[ctx.d],
        u0 @ ctx.E_star[0] == ctx.E_star[0],
        u0 @ ctx.E_star[ctx.d] == ctx.E_star[ctx.d],
    ]
    if dim_smaller is None:
        peel = True
    else:
        peel = t.dim - (ctx.d + 1) ** 2 == dim_smaller
    return U0Report(
        d=ctx.d,
        U0=u0,
        formulas_agree=formulas_agree,
        idempotent=idempotent,
        central=central,
        rank_U0=rank_u0,
        dim_T_u0=dim_ideal,
        absorbs_E0=absorbs[0],
        absorbs_Ed=absorbs[1],
        absorbs_E0_star=absorbs[2],
        absorbs_Ed_star=absorbs[3],
        peel_identity=peel,
    )
