"""Closed-form association scheme parameters of the d-dimensional hypercube.

Everything here is combinatorial: intersection numbers, valencies, integer
eigenvalues d - 2i, the rescaled Krawtchouk polynomial family F_i defined by
F_0 = 1, F_1 = z and the three-term recurrence z F_i = (i+1) F_{i+1} +
(d-i+1) F_{i-1}, the spectrum polynomial with roots d - 2i, the eigenmatrix,
and the permissible index set P_d characterizing nonzero intersection
numbers.  The two shift lemmas relating P_d and P_{d-2} are verified by
exhaustive enumeration, testing membership in P_d and P_{d-2} held as sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .polys import RationalPoly


def guarded_binom(n: int, m: int) -> int:
    """Binomial coefficient that is 0 outside 0 <= m <= n."""
    if m < 0 or m > n:
        return 0
    return comb(n, m)


def _check_index(d: int, name: str, value: int):
    if not 0 <= value <= d:
        raise ValueError(f"{name}={value} out of range 0..{d}")


def valency(d: int, i: int) -> int:
    """Number of vertices at distance i from any vertex, C(d, i)."""
    _check_index(d, "i", i)
    return comb(d, i)


def eigenvalue(d: int, i: int) -> int:
    """The i-th adjacency eigenvalue d - 2i (decreasing in i)."""
    _check_index(d, "i", i)
    return d - 2 * i


def intersection_number(d: int, h: int, i: int, j: int) -> int:
    """Closed-form p^h_{ij}: 0 when h+i+j is odd, else the binomial product
    C(h, (i-j+h)/2) * C(d-h, (i+j-h)/2) with out-of-range binomials as 0."""
    for name, v in (("h", h), ("i", i), ("j", j)):
        _check_index(d, name, v)
    if (h + i + j) % 2 == 1:
        return 0
    return guarded_binom(h, (i - j + h) // 2) * guarded_binom(d - h, (i + j - h) // 2)


def intersection_table(d: int) -> np.ndarray:
    """All p^h_{ij} as an int array indexed [h, i, j]."""
    t = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                t[h, i, j] = intersection_number(d, h, i, j)
    t.flags.writeable = False
    return t


def krawtchouk_polys(d: int) -> list[RationalPoly]:
    """The family F_0..F_{d+1} for diameter d.

    F_i has degree i and leading coefficient 1/i!; F_i evaluated at the
    adjacency matrix gives the distance-i matrix, and F_{d+1} annihilates it.
    """
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    z = RationalPoly.x()
    fs = [RationalPoly.one(), z]
    for i in range(1, d + 1):
        nxt = (z * fs[i] - (d - i + 1) * fs[i - 1]) * Fraction(1, i + 1)
        fs.append(nxt)
    return fs[: d + 2]


def spectrum_poly(d: int) -> RationalPoly:
    """Monic polynomial with the d+1 eigenvalues d - 2i as roots."""
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    return RationalPoly.from_roots([d - 2 * i for i in range(d + 1)])


def eigenmatrix(d: int) -> list[list[Fraction]]:
    """P with P[i][j] = F_j(d - 2i), the j-th eigenvalue column evaluated on
    the i-th eigenspace.  The hypercube is self-dual, so Q equals P."""
    fs = krawtchouk_polys(d)
    return [[fs[j].eval_scalar(d - 2 * i) for j in range(d + 1)] for i in range(d + 1)]


def permissible(d: int, h: int, i: int, j: int) -> bool:
    """Membership in P_d: triangle inequality, h+i+j <= 2d, h+i+j even."""
    for name, v in (("h", h), ("i", i), ("j", j)):
        _check_index(d, name, v)
    s = h + i + j
    if s % 2 == 1 or s > 2 * d:
        return False
    return h <= i + j and i <= h + j and j <= h + i


def permissible_set(d: int) -> list[tuple[int, int, int]]:
    """All of P_d in lexicographic order."""
    return [
        (h, i, j)
        for h in range(d + 1)
        for i in range(d + 1)
        for j in range(d + 1)
        if permissible(d, h, i, j)
    ]


def check_permissible_equivalence(d: int):
    """Exhaustive check that p^h_{ij} != 0 iff (h,i,j) is permissible.

    Returns:
        (True, None) or (False, witness triple).
    """
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                if (intersection_number(d, h, i, j) != 0) != permissible(d, h, i, j):
                    return False, (h, i, j)
    return True, None


def check_shift_lemma_down(d: int, p_d: frozenset, p_small: frozenset):
    """Excluded triples push down: (h,i,j) not in P_d implies both
    (h-1,i,j-1) and (h-1,i-2,j-1) are not in P_{d-2}.

    p_d and p_small are P_d and P_{d-2} as sets of triples, built by the
    caller from permissible_set.  A triple with an index outside 0..d-2 is
    simply absent from P_{d-2}, so it counts as excluded.

    Returns:
        (True, None) or (False, witness triple).
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                if (h, i, j) in p_d:
                    continue
                if (h - 1, i, j - 1) in p_small or (h - 1, i - 2, j - 1) in p_small:
                    return False, (h, i, j)
    return True, None


def check_shift_lemma_up(d: int, p_d: frozenset, p_small: frozenset):
    """Excluded triples push up: (h,i,j) not in P_{d-2} implies that
    (h+1,i-2r,j+1) avoids P_d for every 0 <= r <= floor(i/2), or that
    (h+1,i+2r,j+1) avoids P_d for every 1 <= r <= floor((d-i)/2).

    p_d and p_small are P_d and P_{d-2} as in check_shift_lemma_down.

    Returns:
        (True, None) or (False, witness triple).
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    dm2 = d - 2
    for h in range(dm2 + 1):
        for i in range(dm2 + 1):
            for j in range(dm2 + 1):
                if (h, i, j) in p_small:
                    continue
                down_ok = all(
                    (h + 1, i - 2 * r, j + 1) not in p_d for r in range(i // 2 + 1)
                )
                up_ok = all(
                    (h + 1, i + 2 * r, j + 1) not in p_d
                    for r in range(1, (d - i) // 2 + 1)
                )
                if not (down_ok or up_ok):
                    return False, (h, i, j)
    return True, None


@dataclass(frozen=True)
class HypercubeParams:
    """Bundle of all closed-form parameters for one diameter."""

    d: int
    valencies: tuple[int, ...]
    eigenvalues: tuple[int, ...]
    p_table: np.ndarray
    P: tuple[tuple[Fraction, ...], ...]
    F: tuple[RationalPoly, ...]
    phi: RationalPoly

    @classmethod
    def build(cls, d: int) -> "HypercubeParams":
        return cls(
            d=d,
            valencies=tuple(valency(d, i) for i in range(d + 1)),
            eigenvalues=tuple(eigenvalue(d, i) for i in range(d + 1)),
            p_table=intersection_table(d),
            P=tuple(tuple(row) for row in eigenmatrix(d)),
            F=tuple(krawtchouk_polys(d)),
            phi=spectrum_poly(d),
        )
