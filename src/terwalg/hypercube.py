"""Closed-form association scheme parameters of the d-dimensional hypercube.

Everything here is combinatorial: intersection numbers, valencies, integer
eigenvalues d - 2i, the rescaled Krawtchouk polynomial family F_i defined by
F_0 = 1, F_1 = z and the three-term recurrence z F_i = (i+1) F_{i+1} +
(d-i+1) F_{i-1}, the spectrum polynomial with roots d - 2i, the eigenmatrix,
and the permissible index set P_d characterizing nonzero intersection
numbers.

The family is built on integers: G_i = i! F_i satisfies G_0 = 1, G_1 = z and
G_{i+1} = z G_i - i (d-i+1) G_{i-1}, so every G_i has integer coefficients
and F_i is G_i over the one denominator i!.

P_d is held as a boolean (d+1)^3 mask indexed [h, i, j], and the two shift
lemmas relating P_d and P_{d-2} are whole-array identities on the masks,
each checked over every triple at once:

- Down: P_{d-2} placed at offset (1, 0, 1) in a zero (d+1)^3 frame holds
  (h, i, j) exactly when (h-1, i, j-1) is in P_{d-2}, and placed at offset
  (1, 2, 1) exactly when (h-1, i-2, j-1) is.  A triple with an index outside
  0..d-2 falls outside both placements, so it counts as excluded.  The
  lemma says neither placement meets the complement of P_d.
- Up: for (h, i, j) in 0..d-2, the triples (h+1, i-2r, j+1), r >= 0, are
  the same-parity entries at or below i of row (h+1, ., j+1) of P_d, and
  (h+1, i+2r, j+1), r >= 1, those above i.  Their ORs are a prefix OR and a
  strict suffix OR along i taken over each parity separately; the lemma
  says that outside P_{d-2} at least one of the two is False.

A failing triple is reported as the first row of np.argwhere, the
lexicographically first one.
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
    """All p^h_{ij} as an int array indexed [h, i, j]: the closed form of
    intersection_number on every triple at once.

    (i-j+h)/2 and (i+j-h)/2 are at most d, so a table of C(n, k) for
    0 <= n, k <= d (0 for k > n) covers every binomial; a negative one is
    out of range and masked to 0 with the odd sums.  Each entry is at most
    C(d, i) <= 2^d.
    """
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    r = np.arange(d + 1)
    h, i, j = r[:, None, None], r[None, :, None], r[None, None, :]
    binom = np.array(
        [[comb(n, k) for k in range(d + 1)] for n in range(d + 1)], dtype=np.int64
    )
    a = (i - j + h) // 2
    b = (i + j - h) // 2
    ok = ((h + i + j) % 2 == 0) & (a >= 0) & (b >= 0)
    t = np.where(ok, binom[h, np.maximum(a, 0)] * binom[d - h, np.maximum(b, 0)], 0)
    t.flags.writeable = False
    return t


def krawtchouk_polys(d: int) -> list[RationalPoly]:
    """The family F_0..F_{d+1} for diameter d.

    F_i has degree i and leading coefficient 1/i!; F_i evaluated at the
    adjacency matrix gives the distance-i matrix, and F_{d+1} annihilates it.
    """
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    gs = [[1], [0, 1]]  # G_i = i! F_i, low degree first
    for i in range(1, d + 1):
        k = i * (d - i + 1)
        nxt = [0] + gs[i]
        for e, c in enumerate(gs[i - 1]):
            nxt[e] -= k * c
        gs.append(nxt)
    return [RationalPoly._make(g, factorial(i)) for i, g in enumerate(gs)]


def spectrum_poly(d: int) -> RationalPoly:
    """Monic polynomial with the d+1 eigenvalues d - 2i as roots."""
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    num = [1]
    for i in range(d + 1):
        r = d - 2 * i
        num = [a - r * b for a, b in zip([0] + num, num + [0])]
    return RationalPoly._make(num, 1)


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


def permissible_mask(d: int) -> np.ndarray:
    """P_d as a read-only boolean array indexed [h, i, j]: the conditions of
    permissible, evaluated on every triple at once."""
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    r = np.arange(d + 1)
    h, i, j = r[:, None, None], r[None, :, None], r[None, None, :]
    s = h + i + j
    mask = (s % 2 == 0) & (s <= 2 * d) & (h <= i + j) & (i <= h + j) & (j <= h + i)
    mask.flags.writeable = False
    return mask


def permissible_set(d: int) -> list[tuple[int, int, int]]:
    """All of P_d in lexicographic order."""
    return [tuple(t) for t in np.argwhere(permissible_mask(d)).tolist()]


def _first(failing: np.ndarray):
    """(True, None) when no entry is set, else (False, first set triple)."""
    bad = np.argwhere(failing)
    if bad.size == 0:
        return True, None
    return False, tuple(bad[0].tolist())


def check_permissible_equivalence(d: int):
    """Exhaustive check that p^h_{ij} != 0 iff (h,i,j) is permissible.

    Returns:
        (True, None) or (False, lexicographically first witness triple).
    """
    return _first((intersection_table(d) != 0) != permissible_mask(d))


def check_shift_lemma_down(d: int, p_d: np.ndarray, p_small: np.ndarray):
    """Excluded triples push down: (h,i,j) not in P_d implies both
    (h-1,i,j-1) and (h-1,i-2,j-1) are not in P_{d-2}.

    p_d and p_small are P_d and P_{d-2} as boolean masks (permissible_mask).
    P_{d-2} is placed into a (d+1)^3 frame at offsets (1, 0, 1) and
    (1, 2, 1); a triple with an index outside 0..d-2 falls outside both
    placements, so it counts as excluded.

    Returns:
        (True, None) or (False, lexicographically first witness triple).
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    shifted = np.zeros(p_d.shape, dtype=bool)
    shifted[1:d, : d - 1, 1:d] = p_small
    shifted[1:d, 2:, 1:d] |= p_small
    return _first(shifted & ~p_d)


def check_shift_lemma_up(d: int, p_d: np.ndarray, p_small: np.ndarray):
    """Excluded triples push up: (h,i,j) not in P_{d-2} implies that
    (h+1,i-2r,j+1) avoids P_d for every 0 <= r <= floor(i/2), or that
    (h+1,i+2r,j+1) avoids P_d for every 1 <= r <= floor((d-i)/2).

    p_d and p_small are P_d and P_{d-2} as in check_shift_lemma_down.  Row
    (h+1, ., j+1) of P_d is ORed along i over each parity: the prefix OR at
    i covers i, i-2, ..., and the inclusive suffix OR at i+2 covers
    i+2, i+4, ..., up to d.

    Returns:
        (True, None) or (False, lexicographically first witness triple).
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    rows = p_d[1:d, :, 1:d]
    below = np.empty(rows.shape, dtype=bool)
    above = np.empty(rows.shape, dtype=bool)
    for parity in (0, 1):
        part = rows[:, parity::2]
        below[:, parity::2] = np.logical_or.accumulate(part, axis=1)
        above[:, parity::2] = np.logical_or.accumulate(part[:, ::-1], axis=1)[:, ::-1]
    return _first(~p_small & below[:, : d - 1] & above[:, 2:])


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
