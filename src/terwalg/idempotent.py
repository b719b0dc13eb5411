"""The primary central idempotent U0 and its verified properties.

U0 is defined by two formulas that must agree exactly:

    U0 = |X| sum_i k_i^(-1)  E_i* E_0 E_i*
       = |X| sum_i k*_i^(-1) E_i  E_0* E_i

with k_i the sphere sizes (valencies) and k*_i the multiplicities (dual
valencies).  For the d-cube this is U0 = sum_h k_h^(-1) J_{S_h}: one
all-ones block per sphere S_h around x, scaled by the sphere size k_h.  U0
is a central idempotent of the subconstituent algebra T, absorbs the
extremal idempotents E_0, E_d, E_0*, E_d*, has rank d+1, and generates a
two-sided ideal of dimension (d+1)^2.  Peeling that ideal off T for the
d-cube leaves the dimension of the algebra for the (d-2)-cube.

Triple tables.  U0 is held, and every check on it runs, on (d+1)^3 integer
tables; no n x n matrix is formed.  A table T over a denominator stands for

    [T] = sum_(h,a,j) T[h, a, j] E_h* A_a E_j*,

whose entry (u, v), for u in S_h, v in S_j and dist(u, v) = a, is
T[h, a, j].  Precondition: every E_h* is the 0/1 indicator diagonal of the
sphere S_h.  compute_u0 checks it on the held diagonals and raises a
VerificationError naming the first h that fails.  Then E_h* A_a E_j* is the
0/1 matrix supported on {(u, v) in S_h x S_j : dist(u, v) = a}.  Distinct
triples have disjoint supports, and the support of (h, a, j) is nonempty
exactly when N[h, a, j] = k_h p^h_aj is, for the intersection numbers
p_table counted on the graph (subconstituent._triple_counts).  So
[T] = [T'] exactly when T and T' agree wherever p^h_aj != 0, the support:
table equality on the support is matrix equality.  Each check below is
such an equality, read off the tables, p_table and the valencies.

- The two formulas.  E_i* E_0 E_i* = sum_a E_0[a] E_i* A_a E_i*, so the
  primal sum is the table delta_hj (|X| / k_h) E_0[a].  E_0* is e_x e_x^T,
  and E_i[u, x] = E_i[dist(x, u)] since dist is symmetric, so
  (E_i E_0* E_i)[u, v] = E_i[u, x] E_i[x, v] = E_i[h] E_i[j] for u in S_h
  and v in S_j, whatever dist(u, v): the dual sum is the table
  sum_i (|X| / k*_i) E_i[h] E_i[j], the same for every a.  Both are put
  over one common denominator and compared on the support.
- The factorization.  With L = lcm(k_h), m_h = L / k_h, S the 0/1 sphere
  indicator matrix and M = diag(m), S^T M S / L is k_h^(-1) J on each
  S_h x S_h and zero elsewhere: the table delta_hj / k_h.  The primal table
  must equal it, which verifies L U0 = S^T M S.
- Rank.  U0 = S^T C S for the (d+1) x (d+1) sphere table C, the value of
  U0 on each block S_h x S_j, read from the table at one supported a per
  block.  S has full row rank (its rows are disjoint nonempty spheres), so
  rank U0 = rank C.
- Idempotence.  L^2 U0^2 = S^T M (S S^T) M S with S S^T = diag(k), and S
  has full row rank, so U0^2 = U0 exactly when M diag(k) M = L M: every
  m_h k_h = L.
- The identity.  U0 = I exactly when every k_h = 1: then each J_{S_h} is
  E_h* and they sum to I; a sphere with k_h > 1 gives U0 an off-diagonal
  entry k_h^(-1).
- Absorption.  For E = [T], u in S_h and v in S_l,
  (U0 E)[u, v] = k_h^(-1) sum_(w in S_h) E[w, v]
              = k_h^(-1) sum_b T[h, b, l] p^l_hb,
  since p^l_hb vertices w of S_h lie at distance b from v (the pair (x, v)
  is at distance l).  That does not depend on dist(u, v) = a, so U0 E = E
  exactly when k_h T[h, a, l] = sum_b T[h, b, l] p^l_hb on the support.  A
  class row e is the table e[a], and a diagonal that is c_h on each sphere
  S_h is sum_h c_h E_h* A_0 E_h*, the table delta_hl delta_a0 c_h.

The remaining checks read U0 as S^T M S / L together with the closure's
block pieces: each basis element of T is a piece X in one block, rows
S_sigma(h) and columns S_sigma(j), where sigma maps the closure's classes
(the spheres) to sphere indices.

- Centrality: L U0 B is m_sigma(h) colsum(X) copied down the block's rows
  and L B U0 is m_sigma(j) rowsum(X) copied across its columns, so B
  commutes with U0 exactly when all these entries are one common value.
- Ideal dimension: right-multiplication by M S is injective, so
  dim span{B U0} = dim span{B S^T}.  B S^T is rowsum(X) in rows S_sigma(h)
  of column sigma(j); blocks have disjoint supports, so the dimension is
  the sum over blocks of the rank of their row-sum vectors.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from ._intops import (
    demote,
    exact_matmul,
    exact_mul_elementwise,
    exact_scale,
    guarded,
    max_abs,
)
from .closure import BlockSpans
from .echelon import EchelonSpan
from .linalg import RationalMatrix, rank
from .subconstituent import TerwContext, VerificationError

# (h, j, X): the block of the closure's classes h, j that holds X.
Piece = tuple[int, int, np.ndarray]


def _over_common_denominator(coeffs: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """(w, L) with coeffs[i] = w[i] / L and L the lcm of the denominators."""
    big = lcm(*(c.denominator for c in coeffs))
    w = [c.numerator * (big // c.denominator) for c in coeffs]
    return demote(np.array(w, dtype=object)), big


def _equal_on_support(ctx: TerwContext, left: np.ndarray, right: np.ndarray) -> bool:
    """Do two triple tables, over one denominator, stand for the same matrix?

    They do exactly when they agree wherever p^h_aj != 0 (module
    docstring); either may be any shape that broadcasts to (d+1)^3.
    """
    support = ctx.p_table != 0
    left = np.broadcast_to(left, support.shape)[support]
    return bool(np.array_equal(left, np.broadcast_to(right, support.shape)[support]))


def compute_u0(ctx: TerwContext) -> tuple[np.ndarray, np.ndarray, int]:
    """Both defining formulas for U0 as triple tables (module docstring).

    Returns:
        (primal, dual, den): the (d+1)^3 integer tables of
        |X| sum_i k_i^(-1) E_i* E_0 E_i* and |X| sum_i k*_i^(-1) E_i E_0* E_i,
        both over den; u0_formulas_agree compares them.

    Raises:
        ValueError: if the context is not a hypercube context.
        VerificationError: if some E_i* is not the 0/1 indicator of S_i.
    """
    if not ctx.is_hypercube:
        raise ValueError("U0 is defined for hypercube contexts")
    label = ctx.dist.dist[ctx.x]  # label[y] = dist(x, y): y lies in S_label[y]
    for i, es in enumerate(ctx.E_star):
        if es.den != 1 or not np.array_equal(es.num[0], label == i):
            raise VerificationError(f"E*_{i} is not the 0/1 indicator of sphere S_{i}")
    n, size = ctx.n, ctx.d + 1

    # Primal: delta_hj (|X| / k_h) E_0[a], as w_h E_0.num[a] over big.
    e0 = ctx.E[0]
    w, primal_den = _over_common_denominator([Fraction(n, k * e0.den) for k in ctx.valencies])
    primal = exact_mul_elementwise(w[:, None], e0.num)
    primal = exact_mul_elementwise(primal[:, :, None], np.eye(size, dtype=np.int64)[:, None, :])

    # Dual: sum_i (|X| / k*_i) E_i[h] E_i[j] = (V^T diag(w) V)[h, j] over big.
    V = np.array([e.num[0] for e in ctx.E])
    coeffs = [Fraction(n, k * e.den**2) for k, e in zip(ctx.dual_valencies, ctx.E)]
    w, dual_den = _over_common_denominator(coeffs)
    dual = exact_matmul(exact_mul_elementwise(V.T, w), V)
    dual = np.repeat(dual[:, None, :], size, axis=1)

    den = lcm(primal_den, dual_den)
    return exact_scale(primal, den // primal_den), exact_scale(dual, den // dual_den), den


def u0_formulas_agree(ctx: TerwContext, primal: np.ndarray, dual: np.ndarray) -> bool:
    """Do the two tables of compute_u0 stand for the same matrix?"""
    return _equal_on_support(ctx, primal, dual)


def sphere_of_classes(ctx: TerwContext, classes: Sequence[np.ndarray]) -> tuple[int, ...]:
    """The map sigma from block classes to spheres: classes[h] is S_sigma(h).

    Raises:
        ValueError: if a class is not exactly one sphere.
    """
    label = ctx.dist.dist[ctx.x]
    sigma = []
    for cls in classes:
        i = int(label[cls[0]]) if len(cls) else None
        if i is None or len(cls) != ctx.valencies[i] or np.any(label[cls] != i):
            raise ValueError("a block class of the basis is not exactly one sphere")
        sigma.append(i)
    return tuple(sigma)


def _line_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row sums, column sums) of an integer block, exactly.

    Every sum has at most max(x.shape) terms, so max(x.shape) max|x| bounds
    it (guarded).
    """
    return guarded(max(x.shape) * max_abs(x), lambda x: (x.sum(axis=1), x.sum(axis=0)), x)


def is_central(pieces: Iterable[Piece], sigma: Sequence[int], m: Sequence[int]) -> bool:
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
        left = exact_scale(cols, m[sigma[h]])  # a row of L U0 B
        right = exact_scale(rows, m[sigma[j]])  # a column of L B U0
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


def is_idempotent(k: Sequence[int], m: Sequence[int], big: int) -> bool:
    """Is U0 = S^T diag(m) S / big idempotent, for sphere sizes k?

    S S^T = diag(k) and S has full row rank, so U0^2 = U0 exactly when
    every m_h k_h = big (module docstring).
    """
    return all(mh * kh == big for mh, kh in zip(m, k))


def class_table(ctx: TerwContext, row: RationalMatrix) -> np.ndarray:
    """The triple table, over row.den, of the matrix with class row row:
    entry (h, a, j) is row[a]."""
    return np.broadcast_to(row.num[0][None, :, None], (ctx.d + 1,) * 3)


def diagonal_table(ctx: TerwContext, row: RationalMatrix) -> np.ndarray:
    """The triple table, over row.den, of the diagonal held as row: entry
    (h, 0, h) is its value on S_h, and every other entry is 0.

    Raises:
        VerificationError: if the diagonal is not constant on some sphere.
    """
    values = row.num[0][[int(s[0]) for s in ctx.spheres]]
    label = ctx.dist.dist[ctx.x]
    bad = np.flatnonzero(row.num[0] != values[label])
    if bad.size:
        raise VerificationError(f"diagonal is not constant on sphere S_{label[bad[0]]}")
    size = ctx.d + 1
    table = np.zeros((size,) * 3, dtype=values.dtype)
    table[np.arange(size), 0, np.arange(size)] = values
    return table


def absorbs(ctx: TerwContext, table: np.ndarray) -> bool:
    """Is U0 E = E, for the E with the given triple table?

    U0 E = E exactly when k_h T[h, a, l] = sum_b T[h, b, l] p^l_hb on the
    support (module docstring).  Each sum has d+1 terms, so (d+1) max|term|
    bounds it (guarded).  The denominator of E is common to both sides.
    """
    terms = exact_mul_elementwise(table, ctx.p_table.transpose(1, 2, 0))  # [h, b, l]
    bound = (ctx.d + 1) * max_abs(terms)
    averaged = guarded(bound, lambda t: t.sum(axis=1), terms)[:, None, :]  # [h, ., l]
    scaled = exact_mul_elementwise(table, np.array(ctx.valencies)[:, None, None])
    return _equal_on_support(ctx, scaled, averaged)


@dataclass(frozen=True)
class U0Report:
    """Outcome of every U0 property check for one context.

    m and L are the verified factorization L U0 = S^T diag(m) S.
    """

    d: int
    m: tuple[int, ...]
    L: int
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
        """U0 = I: every sphere size k_h = L / m_h is 1."""
        return all(mh == self.L for mh in self.m)

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
    ctx: TerwContext, t: BlockSpans, dim_smaller: int | None = None
) -> U0Report:
    """Run every U0 check against a computed algebra basis.

    The checks read the triple tables of compute_u0, p_table, the valencies
    and the basis's block pieces; none forms an n x n matrix (module
    docstring).

    Args:
        dim_smaller: known dimension of the algebra two diameters down; when
            given, the peel identity dim T - (d+1)^2 = dim_smaller is
            checked, otherwise it is recorded as vacuously true.

    Raises:
        ValueError: if a block class of t is not exactly one sphere.
        VerificationError: if some E_i* is not the indicator of S_i, or U0
            does not match its rank factorization.
    """
    primal, dual, den = compute_u0(ctx)
    size = ctx.d + 1
    # k_h primal[h, a, j] = delta_hj den on the support: L U0 = S^T M S.
    scaled = exact_mul_elementwise(primal, np.array(ctx.valencies)[:, None, None])
    delta = np.eye(size, dtype=np.int64)[:, None, :]
    if not _equal_on_support(ctx, scaled, exact_scale(delta, den)):
        raise VerificationError("U0 does not match its rank factorization")
    big = lcm(*ctx.valencies)
    m = tuple(big // kh for kh in ctx.valencies)
    first = (ctx.p_table != 0).argmax(axis=1)  # a supported a for each block (h, j)
    sphere_table = np.take_along_axis(primal, first[:, None, :], axis=1)[:, 0, :]
    sigma = sphere_of_classes(ctx, t.classes)
    pieces = [t.element(i) for i in range(t.dim)]
    ends = (0, ctx.d)
    absorbed = [absorbs(ctx, class_table(ctx, ctx.E[i])) for i in ends]
    absorbed += [absorbs(ctx, diagonal_table(ctx, ctx.E_star[i])) for i in ends]
    return U0Report(
        d=ctx.d,
        m=m,
        L=big,
        formulas_agree=u0_formulas_agree(ctx, primal, dual),
        idempotent=is_idempotent(ctx.valencies, m, big),
        central=is_central(pieces, sigma, m),
        rank_U0=rank(RationalMatrix(sphere_table, den)),
        dim_T_u0=ideal_dimension(pieces),
        absorbs_E0=absorbed[0],
        absorbs_Ed=absorbed[1],
        absorbs_E0_star=absorbed[2],
        absorbs_Ed_star=absorbed[3],
        peel_identity=dim_smaller is None or t.dim - size**2 == dim_smaller,
    )
