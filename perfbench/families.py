"""Distance-regular graph families and their closed-form parameters.

Everything here is independent of terwalg: the graphs are built from their
combinatorial definitions, and the parameters the benchmark checks the
program against (diameter, eigenvalues, valencies, intersection table) come
from each family's intersection array and eigenvalue formula, never from a
breadth-first search or a matrix computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product


@dataclass(frozen=True)
class Family:
    """One distance-regular graph with its closed-form parameters.

    b and c are the intersection array {b_0, ..., b_{D-1}; c_1, ..., c_D};
    eigenvalues are listed in descending order.
    """

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    eigenvalues: tuple[int, ...]

    @property
    def diameter(self) -> int:
        return len(self.b)

    def p_table(self) -> list[list[list[int]]]:
        """p[h][i][j], derived from the intersection array alone."""
        return p_table_from_array(self.b, self.c)

    def valencies(self) -> list[int]:
        p = self.p_table()
        return [p[0][i][i] for i in range(self.diameter + 1)]


def p_table_from_array(b, c) -> list[list[list[int]]]:
    """Intersection numbers p^h_ij of a distance-regular graph.

    M_i[h][j] = p^h_ij is the matrix of multiplication by A_i on the basis
    A_0..A_D.  M_1 is tridiagonal (A A_j = b_{j-1} A_{j-1} + a_j A_j +
    c_{j+1} A_{j+1}) and the others follow from the three-term recurrence
    A A_i = b_{i-1} A_{i-1} + a_i A_i + c_{i+1} A_{i+1}.
    """
    dmax = len(b)
    k = b[0]
    bb = list(b) + [0]
    cc = [0] + list(c)
    a = [k - bb[i] - cc[i] for i in range(dmax + 1)]
    size = dmax + 1

    def matmul(x, y):
        return [
            [sum(x[r][t] * y[t][s] for t in range(size)) for s in range(size)]
            for r in range(size)
        ]

    ident = [[Fraction(int(r == s)) for s in range(size)] for r in range(size)]
    m1 = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        if j >= 1:
            m1[j - 1][j] = Fraction(bb[j - 1])
        m1[j][j] = Fraction(a[j])
        if j + 1 <= dmax:
            m1[j + 1][j] = Fraction(cc[j + 1])
    mats = [ident, m1]
    for i in range(1, dmax):
        prod = matmul(m1, mats[i])
        nxt = [
            [
                (prod[r][s] - a[i] * mats[i][r][s] - bb[i - 1] * mats[i - 1][r][s])
                / cc[i + 1]
                for s in range(size)
            ]
            for r in range(size)
        ]
        mats.append(nxt)
    table = [[[0] * size for _ in range(size)] for _ in range(size)]
    for i, m in enumerate(mats[:size]):
        for h in range(size):
            for j in range(size):
                v = m[h][j]
                if v.denominator != 1 or v < 0:
                    raise ValueError(f"intersection array gives p^{h}_{i}{j} = {v}")
                table[h][i][j] = int(v)
    return table


def hypercube_family(d: int) -> Family:
    n = 1 << d
    edges = tuple((v, v ^ (1 << t)) for v in range(n) for t in range(d) if v < v ^ (1 << t))
    return Family(
        f"cube-{d}",
        n,
        edges,
        b=tuple(d - i for i in range(d)),
        c=tuple(range(1, d + 1)),
        eigenvalues=tuple(d - 2 * i for i in range(d + 1)),
    )


def folded_cube_family(m: int) -> Family:
    """Folded (2m+1)-cube: the 2m-cube plus an edge from each vertex to its
    complement; intersection array {2m+1, ..., m+2; 1, ..., m}."""
    dim = 2 * m + 1
    n = 1 << (dim - 1)
    full = n - 1
    edges = {tuple(sorted((v, v ^ (1 << t)))) for v in range(n) for t in range(dim - 1)}
    edges |= {tuple(sorted((v, v ^ full))) for v in range(n)}
    return Family(
        f"folded-{dim}-cube",
        n,
        tuple(sorted(edges)),
        b=tuple(dim - i for i in range(m)),
        c=tuple(range(1, m + 1)),
        eigenvalues=tuple(dim - 4 * j for j in range(m + 1)),
    )


def johnson_family(nn: int, k: int) -> Family:
    verts = list(combinations(range(nn), k))
    index = {s: i for i, s in enumerate(verts)}
    edges = []
    for s in verts:
        for t in verts:
            if index[s] < index[t] and len(set(s) & set(t)) == k - 1:
                edges.append((index[s], index[t]))
    return Family(
        f"johnson-{nn}-{k}",
        len(verts),
        tuple(edges),
        b=tuple((k - i) * (nn - k - i) for i in range(k)),
        c=tuple(i * i for i in range(1, k + 1)),
        eigenvalues=tuple((k - i) * (nn - k - i) - i for i in range(k + 1)),
    )


def hamming_family(dd: int, q: int) -> Family:
    verts = list(product(range(q), repeat=dd))
    index = {s: i for i, s in enumerate(verts)}
    edges = []
    for s in verts:
        for pos in range(dd):
            for val in range(s[pos] + 1, q):
                t = s[:pos] + (val,) + s[pos + 1 :]
                edges.append((index[s], index[t]))
    return Family(
        f"hamming-{dd}-{q}",
        len(verts),
        tuple(edges),
        b=tuple((dd - i) * (q - 1) for i in range(dd)),
        c=tuple(range(1, dd + 1)),
        eigenvalues=tuple((q - 1) * dd - q * i for i in range(dd + 1)),
    )


def petersen_family() -> Family:
    """Kneser graph K(5,2): 2-subsets of 5 points, adjacent when disjoint."""
    verts = list(combinations(range(5), 2))
    edges = tuple(
        (i, j)
        for i, s in enumerate(verts)
        for j, t in enumerate(verts)
        if i < j and not set(s) & set(t)
    )
    return Family("petersen", 10, edges, b=(3, 2), c=(1, 1), eigenvalues=(3, 1, -2))


def cube_expected_dimension(d: int) -> int:
    """dim T(x) of the d-cube: sum of (d+1-2r)^2 over 0 <= r <= d/2."""
    return sum((d + 1 - 2 * r) ** 2 for r in range(d // 2 + 1))


def cube_expected_blocks(d: int) -> list[int]:
    return [d + 1 - 2 * r for r in range(d // 2 + 1)]


def nonzero_triples(table) -> int:
    """Number of (h, i, j) with p^h_ij != 0.

    The matrices E_h* A_i E_j* of distinct nonzero triples have disjoint
    supports, so this is the dimension of their span.
    """
    return sum(1 for layer in table for row in layer for v in row if v)
