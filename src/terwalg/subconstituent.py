"""Subconstituent (Terwilliger) algebra contexts and their identity checks.

A TerwContext fixes a distance-regular graph and a base vertex x and holds
exact data for everything the algebra is built from: the distance matrices
A_i = [dist = i], the primitive idempotents E_i, the dual idempotents E_i*
(0/1 diagonal indicators of the distance spheres around x) and the dual
distance matrices A_i* with (A_i*)_yy = |X| (E_i)_{x,y}.  No n x n matrix
is held: the A_i are read off the distance array, each E_i is held as its
class row and each E_i* and A_i* as its diagonal (see TerwContext).
Construction verifies every defining identity exactly, once, and keeps the
named outcomes on the context as section_checks; reports read them there
and do not re-run them.

Both paths build E_i = |X|^(-1) sum_j Q[j][i] A_j from the dual eigenmatrix
Q.  The hypercube path reads Q = P from the closed forms (the cube is
self-dual).  The general path works from the intersection array that
is_distance_regular counts: the eigenvalues theta_i are the roots of the
minimal polynomial of the (d+1) x (d+1) intersection matrix B_1, which is
that of A, found as the annihilator of the cyclic vector e_0 and isolated
exactly by polys.integer_roots; P[i][j] = v_j(theta_i) by the three-term
recurrence; and Q = |X| P^(-1).  It requires all adjacency eigenvalues to
be rational (they are then integers).  Construction
certifies the result: distinct theta_i, sum_i E_i = I and
A E_i = theta_i E_i make the E_i the spectral idempotents of A, and
then A_j = v_j(A) gives A_j E_i = P[i][j] E_i.  The Krein parameters are
read off Q too, q^h_ij = sum_a (Q^(-1))[h][a] Q[a][i] Q[a][j], and the
check krein_expansion_of_hadamard_products certifies that table against
the E_h.

The Bose-Mesner algebra as class rows.  Let dist be the breadth-first
distance array of the graph (DistanceData.compute), d its largest entry and
A_a = [dist = a] for a = 0..d.  A class
row v, a 1 x (d+1) RationalMatrix, stands for the n x n matrix
v[dist] = sum_a v[a] A_a, in that matrix's own canonical form.
Construction certifies, once, what makes every identity between such
matrices an identity between their rows:

- The distance array.  dist is symmetric, {dist = 0} is exactly the
  diagonal, and every sphere S_a around x is nonempty, so every class
  a = 0..d occurs, in row x.
- The counted table.  is_distance_regular counts the intersection array
  on the graph and derives every p^h_ij from it, so that
  A_i A_j = sum_h p^h_ij A_h (Brouwer, Cohen and Neumaier, Distance-Regular
  Graphs, 1989, section 4.1).  The context holds that counted table as
  p_table.  On the hypercube path the closed-form table is compared with
  it, as the last section check, intersection_numbers_match_brute_force.

Then, for M = u[dist] and N = v[dist]:

- Faithfulness.  The A_a are disjoint, nonzero, 0/1 and sum to J, so
  M = N exactly when u = v, and the canonical form of M is that of u (the
  numerators of M are those of u, each occurring).  Linear combinations of
  matrices are those of their rows.
- I = e_0[dist], because {dist = 0} is the diagonal; J = 1[dist];
  A = A_1 = e_1[dist]; and A_i is the unit row e_i.
- M N = sum_(a,b) u[a] v[b] A_a A_b = sum_h (sum_(a,b) u[a] v[b] p^h_ab) A_h,
  so (M N)[h] = sum_(a,b) u[a] v[b] p^h_ab: a product is one contraction
  with the table.
- M o N = (u o v)[dist]; M is symmetric, since dist is; tr M = n u[0]; and
  row y of M is u[dist[y]].

So the section identities sum_i A_i = J, A_0 = I, sum_i E_i = I,
E_i E_j = delta_ij E_i, sum_i theta_i E_i = A, E_0 = J/|X| and the Krein
expansion E_i o E_j = |X|^(-1) sum_h q^h_ij E_h are identities between
(d+1)-vectors, and the multiplicity of theta_i is tr E_i = n E_i[0].  With
V the (d+1) x (d+1) stack of the E_i rows over one denominator den, the
products E_i E_j for all (i, j) are two products of (d+1)-sized tables,
and the Krein expansion reads |X| V[i][a] V[j][a] = den sum_h q^h_ij V[h][a].
The first failing pair names the witness, as it would on the n x n
matrices.  The one n x n matrix the algebra is built from, A, is made on
demand through TerwContext.class_matrix for closure and the split;
TerwContext.generators() hands them A and the 1 x n diagonal row of A*,
which they take as diag(row).  U0 is held as a (d+1)^3 table over the same
classes (idempotent).

- The diagonal identities sum_i E_i* = I, sum_i theta*_i E_i* = A*,
  E*_i E*_j = delta_ij E*_i and A_i* = diag(|X| row x of E_i) are
  identities between the held diagonals: n-vectors, with no n x n matrix.
- One bincount over the key (dist(x, y), dist(y, z), dist(x, z)) counts
  N[k, a, l] = #{y in S_k, z in S_l : dist(y, z) = a}.  E_h* A_a E_l*
  vanishes exactly when N[h, a, l] = 0.
- For symmetric idempotents E_h, E_j and diagonal A_i* = diag(a_i),
  ||E_h A_i* E_j||_F^2 = a_i^T (E_h o E_j) a_i, so E_h A_i* E_j = 0 exactly
  when that sum of squares is 0.  With a_i constant, theta*_i(k), on each
  sphere S_k and E_h o E_j = sum_a V[h][a] V[j][a] A_a / den^2, the sum is
  sum_a V[h][a] V[j][a] sum_(k,l) theta*_i(k) theta*_i(l) N[k, a, l], up to
  a positive factor.
- The polynomial images F_i(A) = A_i and F_i(A*) = A_i* and the two
  relators are identities between the spectral idempotents and a target:
  q(M) = sum_j q(theta_j) F_j for (M, F) = (A, E) and (A*, E*) (proof in
  check_polynomial_images).  Each is one _identity_holds call, on the class
  rows of the E_j against the unit rows of the A_i, or on the held
  diagonals; no power of A or A* is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from ._intops import (
    exact_matmul,
    exact_mul_elementwise,
    exact_scale,
    exact_sub,
)
from .checks import Check
from .closure import BlockSpans, closure
from .graphs import DistanceData, Graph, hypercube, is_distance_regular
from .hypercube import HypercubeParams, permissible_mask, spectrum_poly
from .linalg import RationalMatrix, inverse, min_poly
from .polys import RationalPoly, integer_roots


class VerificationError(Exception):
    """An exact identity that must hold failed to hold."""


def _distance_row(i: int, size: int) -> RationalMatrix:
    """The class row of A_i = [dist = i]: the unit row e_i, or the zero row
    when i >= size."""
    return RationalMatrix(np.eye(1, size, i, dtype=np.int64), 1, _canonical=True)


@dataclass(frozen=True)
class TerwContext:
    """All exact data attached to one (graph, base vertex) pair.

    The only n x n array is the distance array dist.dist.  Every E[i] is
    the class row of E_i: a 1 x (d+1) RationalMatrix whose entry a is the
    value of E_i on the class dist = a, in the canonical form of the n x n
    matrix (the module docstring says why that form is the same).  Every
    E_star[i] and A_star[i] is diagonal, and is held as its diagonal: a
    1 x n RationalMatrix in the same canonical form.  So equality, scaling
    and the denominator are those of the n x n matrix.  p_table holds the
    intersection numbers counted on the graph.
    """

    graph: Graph
    dist: DistanceData
    x: int
    d: int
    n: int
    E: tuple[RationalMatrix, ...]
    E_star: tuple[RationalMatrix, ...]
    A_star: tuple[RationalMatrix, ...]
    valencies: tuple[int, ...]
    dual_valencies: tuple[int, ...]
    theta: tuple[Fraction, ...]
    theta_star: tuple[Fraction, ...]
    P: tuple[tuple[Fraction, ...], ...]
    Q: tuple[tuple[Fraction, ...], ...]
    p_table: np.ndarray
    krein: tuple[tuple[tuple[Fraction, ...], ...], ...]
    spheres: tuple[np.ndarray, ...]
    params: HypercubeParams | None
    section_checks: tuple[Check, ...] = ()

    @property
    def is_hypercube(self) -> bool:
        return self.params is not None

    def class_entries(self, row: RationalMatrix, index=...) -> np.ndarray:
        """Numerators, over row.den, of the entries at index of the n x n
        matrix with class row row: entry (y, z) is row[dist(y, z)]."""
        return row.num[0][self.dist.dist[index]]

    def class_matrix(self, row: RationalMatrix) -> RationalMatrix:
        """The n x n matrix with class row row, built on each call for the
        consumers that take dense matrices."""
        return RationalMatrix(self.class_entries(row), row.den, _canonical=True)

    @property
    def A(self) -> RationalMatrix:
        """The adjacency matrix A = [dist = 1], built on each call."""
        return self.class_matrix(_distance_row(1, self.d + 1))

    @property
    def dual_adjacency_row(self) -> RationalMatrix:
        """The diagonal of A* = A_1*, or the zero row when d = 0."""
        return self.A_star[1] if self.d >= 1 else RationalMatrix.zeros(1, self.n)

    def generators(self) -> list[RationalMatrix]:
        """The algebra generators in closure's forms: the n x n adjacency
        matrix A and the 1 x n diagonal row of A*."""
        return [self.A, self.dual_adjacency_row]

    def algebra_basis(self) -> BlockSpans:
        return closure(self.generators())


def _krein_table(Q: Sequence[Sequence[Fraction]]):
    """q^h_ij = sum_a (Q^(-1))[h][a] Q[a][i] Q[a][j], for every (h, i, j).

    E_i = |X|^(-1) sum_a Q[a][i] A_a and the A_a are disjoint 0/1 matrices,
    so E_i o E_j = |X|^(-2) sum_a Q[a][i] Q[a][j] A_a.  With
    A_a = sum_h P[h][a] E_h and P = |X| Q^(-1) this is
    |X|^(-1) sum_h q^h_ij E_h.  The table is symmetric in (i, j), so only
    i <= j is formed and mirrored.
    """
    size = len(Q)
    pairs = [(i, j) for i in range(size) for j in range(i, size)]
    products = RationalMatrix.from_rows(
        [[Q[a][i] * Q[a][j] for i, j in pairs] for a in range(size)]
    )
    coeffs = (inverse(RationalMatrix.from_rows(Q)) @ products).dense_rows()
    krein = [[[Fraction(0)] * size for _ in range(size)] for _ in range(size)]
    for h in range(size):
        for col, (i, j) in enumerate(pairs):
            krein[h][i][j] = krein[h][j][i] = coeffs[h][col]
    return tuple(tuple(tuple(row) for row in layer) for layer in krein)


def _idempotent_rows(Q: Sequence[Sequence[Fraction]], n: int) -> list[RationalMatrix]:
    """The class rows of E_i = |X|^(-1) sum_a Q[a][i] A_a: entry a is
    Q[a][i] / |X|, for every i."""
    return [
        RationalMatrix.from_rows([[Fraction(row[i]) / n for row in Q]])
        for i in range(len(Q))
    ]


def _intersection_numbers(g: Graph, dd: DistanceData, x: int) -> np.ndarray:
    """The intersection numbers counted on g, once the distance array is
    checked fit to stand for the classes A_a (module docstring).

    Raises:
        VerificationError: if dist is not symmetric, {dist = 0} is not the
            diagonal, or a sphere around x is empty.
        ValueError: if the graph is not distance-regular (witness included).
    """
    dist = dd.dist
    if not np.array_equal(dist, dist.T):
        raise VerificationError("distance array is not symmetric")
    if dist.diagonal().any() or np.count_nonzero(dist == 0) != g.n:
        raise VerificationError("distance-0 class is not the diagonal")
    sizes = np.bincount(dist[x], minlength=dd.diameter + 1)
    if not sizes.all():
        a = int(np.flatnonzero(sizes == 0)[0])
        raise VerificationError(f"sphere S_{a} around vertex {x} is empty")
    return distance_regular_table(g, dd)


def distance_regular_table(g: Graph, dd: DistanceData) -> np.ndarray:
    """The intersection numbers counted on g (graphs.is_distance_regular).

    Raises:
        ValueError: if the graph is not distance-regular (witness included).
    """
    ok, result = is_distance_regular(g, dd)
    if not ok:
        h, i, j, pair_a, count_a, pair_b, count_b = result
        raise ValueError(
            f"graph is not distance-regular: (h,i,j)=({h},{i},{j}) gives "
            f"{count_a} for pair {pair_a} but {count_b} for pair {pair_b}"
        )
    return result


def _assemble(
    graph: Graph,
    dd: DistanceData,
    x: int,
    E: list[RationalMatrix],
    P: list[list[Fraction]],
    Q: list[list[Fraction]],
    p_table: np.ndarray,
    params: HypercubeParams | None,
) -> TerwContext:
    """The context with its section identities checked and stored.

    E holds the class rows of the E_i and p_table the counted intersection
    numbers.

    Raises:
        VerificationError: naming every section identity that fails.
    """
    d = dd.diameter
    n = graph.n
    row_x = dd.dist[x]
    spheres = tuple(np.flatnonzero(row_x == i) for i in range(d + 1))

    rows = (row_x == np.arange(d + 1)[:, None]).astype(np.int64)
    E_star = [RationalMatrix(row[None], 1, _canonical=True) for row in rows]
    # A_i* = diag(|X| row x of E_i), and row x of E_i is E_i[dist[x]].
    A_star = [RationalMatrix(exact_scale(Ei.num[0][row_x], n)[None], Ei.den) for Ei in E]

    valencies = tuple(int(len(s)) for s in spheres)
    dual_valencies = []
    for i, Ei in enumerate(E):
        t = Fraction(n * int(Ei.num[0, 0]), Ei.den)  # tr E_i = n E_i[0]
        if t.denominator != 1:
            raise VerificationError(f"rank of idempotent E_{i} is not an integer: {t}")
        dual_valencies.append(int(t))

    theta = tuple(P[i][1] if d >= 1 else Fraction(0) for i in range(d + 1))
    theta_star = tuple(Q[i][1] if d >= 1 else Fraction(0) for i in range(d + 1))

    ctx = TerwContext(
        graph=graph,
        dist=dd,
        x=x,
        d=d,
        n=n,
        E=tuple(E),
        E_star=tuple(E_star),
        A_star=tuple(A_star),
        valencies=valencies,
        dual_valencies=tuple(dual_valencies),
        theta=theta,
        theta_star=theta_star,
        P=tuple(tuple(row) for row in P),
        Q=tuple(tuple(row) for row in Q),
        p_table=p_table,
        krein=_krein_table(Q),
        spheres=spheres,
        params=params,
    )
    checks = tuple(check_section_identities(ctx))
    failures = [c for c in checks if not c.passed]
    if failures:
        raise VerificationError(
            "construction identities failed: "
            + "; ".join(f"{c.name} ({c.witness})" for c in failures)
        )
    return replace(ctx, section_checks=checks)


def build_hypercube_context(d: int, x: int = 0) -> TerwContext:
    """Context for the d-dimensional hypercube with base vertex x."""
    g = hypercube(d)
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range for {g.n} vertices")
    dd = DistanceData.compute(g)
    p_table = _intersection_numbers(g, dd, x)
    params = HypercubeParams.build(d)

    # Self-dual eigenmatrix formula: q_i(j) = p_i(j), so Q = P.
    P = [list(row) for row in params.P]
    return _assemble(g, dd, x, _idempotent_rows(P, g.n), P, P, p_table, params)


def build_context(g: Graph, x: int = 0) -> TerwContext:
    """Context for a general distance-regular graph with rational spectrum.

    Raises:
        ValueError: if the graph is not distance-regular (witness included)
            or has an irrational adjacency eigenvalue.
    """
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range for {g.n} vertices")
    dd = DistanceData.compute(g)
    p_table = _intersection_numbers(g, dd, x)
    d = dd.diameter
    n = g.n

    # B_1[h, j] = p^h_1j is the matrix of multiplication by A on the basis
    # A_0..A_d of the Bose-Mesner algebra.  That representation is faithful,
    # so the minimal polynomial of B_1 is that of A.  B_1[j+1, j] = c_(j+1)
    # != 0 and B_1 is zero below that subdiagonal, so for k <= d, B_1^k e_0
    # has support {0..k} with a nonzero last entry: e_0 is cyclic, and its
    # annihilator min_poly(B_1, e_0) is the minimal polynomial of B_1.  A is
    # symmetric, so its roots are distinct, and integer_roots finds them all
    # unless one is irrational.
    b1 = p_table[:, 1, :] if d >= 1 else np.zeros((1, 1), dtype=np.int64)
    mp = min_poly(RationalMatrix(b1), [1] + [0] * d)
    roots = integer_roots(mp)
    if roots is None:
        raise ValueError(
            "adjacency matrix has an irrational eigenvalue: minimal polynomial "
            f"{mp} does not split over the integers"
        )
    theta = sorted(roots, reverse=True)
    if len(theta) != d + 1:
        raise ValueError(
            f"expected {d + 1} distinct eigenvalues, found {len(theta)}"
        )

    # P[i][j] = v_j(theta_i), where A_j = v_j(A) by the three-term
    # recurrence A A_j = b_(j-1) A_(j-1) + a_j A_j + c_(j+1) A_(j+1).
    # _assemble certifies that the E_i built from Q = |X| P^(-1) are the
    # spectral idempotents of A, so A_j E_i = v_j(theta_i) E_i.
    a = [int(t) for t in b1.diagonal()]
    b = [int(t) for t in b1.diagonal(1)]
    c = [0] + [int(t) for t in b1.diagonal(-1)]
    P: list[list[Fraction]] = []
    for th in theta:
        v = [Fraction(1), Fraction(th)][: d + 1]
        for j in range(1, d):
            v.append(((th - a[j]) * v[j] - b[j - 1] * v[j - 1]) / c[j + 1])
        P.append(v)
    Q = (inverse(RationalMatrix.from_rows(P)) * n).dense_rows()
    return _assemble(g, dd, x, _idempotent_rows(Q, n), P, Q, p_table, None)


# -- named identity checks -------------------------------------------------


def _dual_orthogonality_witness(e_star: Sequence[RationalMatrix]) -> str | None:
    """The first failure of E*_i E*_j = delta_ij E*_i, read off the diagonals.

    E*_i E*_j is diagonal with entries the products of the two diagonals:
    for i != j it vanishes exactly when the supports are disjoint, and
    E*_i E*_i = E*_i exactly when every nonzero diagonal entry of E*_i is 1.
    The first failing pair (i, j), row by row, is the witness.

    Returns:
        None, or "E*_i E*_j".
    """
    diags = [e.num[0] for e in e_star]
    support = np.array([v != 0 for v in diags], dtype=np.int64)
    failed = (support @ support.T) != 0
    for i, (e, v) in enumerate(zip(e_star, diags)):
        failed[i, i] = bool((v[v != 0] != e.den).any())
    bad = np.argwhere(failed)
    return f"E*_{bad[0][0]} E*_{bad[0][1]}" if bad.size else None


def _identity_holds(coeffs, rows: Sequence[RationalMatrix], target: RationalMatrix) -> bool:
    """Whether sum_k coeffs[k] rows[k] equals target, exactly: every term is
    scaled to one common denominator and compared as integers."""
    coeffs = [Fraction(c) for c in coeffs]
    common = lcm(target.den, *(m.den * c.denominator for c, m in zip(coeffs, rows)))
    acc = exact_scale(target.num, common // target.den)
    for c, m in zip(coeffs, rows):
        if c:
            scale = c.numerator * (common // (m.den * c.denominator))
            acc = exact_sub(acc, exact_scale(m.num, scale))
    return not np.any(acc)


def _idempotent_table(E: Sequence[RationalMatrix]) -> tuple[np.ndarray, int]:
    """(V, den) with E_i = V[i][dist] / den: the class rows over one
    common denominator."""
    den = lcm(*(e.den for e in E))
    return np.stack([exact_scale(e.num[0], den // e.den) for e in E]), den


def _product_witness(V: np.ndarray, den: int, p_table: np.ndarray) -> str | None:
    """The first pair (i, j), row by row, with E_i E_j != delta_ij E_i, for
    E_i = V[i][dist] / den.

    (E_i E_j)[h] = sum_(a,b) V[i][a] V[j][b] p^h_ab / den^2 (module
    docstring): W[(h, a), j] = sum_b p^h_ab V[j][b] and then one product
    with V give every pair, compared with delta_ij den V[i].
    """
    size = len(V)
    W = exact_matmul(p_table.reshape(size * size, size), V.T)
    W = W.reshape(size, size, size).transpose(1, 0, 2).reshape(size, size * size)
    products = exact_matmul(V, W).reshape(size, size, size).transpose(0, 2, 1)
    scaled = exact_scale(V, den)
    expected = np.zeros(products.shape, dtype=scaled.dtype)  # [i, j, h]
    expected[np.arange(size), np.arange(size)] = scaled
    bad = np.argwhere((products != expected).any(axis=2))
    return f"E_{bad[0][0]} E_{bad[0][1]}" if bad.size else None


def _krein_witness(ctx: TerwContext, V: np.ndarray, den: int, pairs) -> str | None:
    """The first pair (i, j) whose Krein expansion fails, for
    E_h = V[h][dist] / den.

    E_i o E_j = |X|^(-1) sum_h q^h_ij E_h reads
    |X| V[i][a] V[j][a] = den sum_h q^h_ij V[h][a] for every class a.
    """
    size = ctx.d + 1
    table = RationalMatrix.from_rows(
        [[ctx.krein[h][i][j] for h in range(size)] for i, j in pairs]
    )
    rows, cols = zip(*pairs)
    left = exact_scale(exact_mul_elementwise(V[list(rows)], V[list(cols)]), ctx.n * table.den)
    right = exact_scale(exact_matmul(table.num, V), den)
    for k, (i, j) in enumerate(pairs):
        if not np.array_equal(left[k], right[k]):
            return f"E_{i} o E_{j}"
    return None


def check_section_identities(ctx: TerwContext) -> list[Check]:
    """The fundamental identities of both Bose-Mesner algebras, exactly.

    Each identity runs on the class rows or on the held diagonals (see the
    module docstring).  A hypercube context adds, last, the comparison of
    the closed-form intersection numbers with the counted p_table.
    """
    checks = []
    n = ctx.n
    d = ctx.d
    size = d + 1
    unit_coeffs = [1] * size
    distance_rows = [_distance_row(i, size) for i in range(size)]
    ident = _distance_row(0, size)  # {dist = 0} is the diagonal
    ones = RationalMatrix.ones(1, size)

    # The A_i are the unit rows, so these two hold once construction has
    # checked the distance array; the reports still name them.
    checks.append(
        Check(
            "distance_matrices_partition",
            _identity_holds(unit_coeffs, distance_rows, ones),
        )
    )
    checks.append(Check("distance_zero_is_identity", distance_rows[0] == ident))
    checks.append(
        Check("idempotents_sum_to_identity", _identity_holds(unit_coeffs, ctx.E, ident))
    )
    V, den = _idempotent_table(ctx.E)
    witness = _product_witness(V, den, ctx.p_table)
    checks.append(Check("idempotents_orthogonal", witness is None, witness))
    checks.append(
        Check(
            "adjacency_spectral_decomposition",
            _identity_holds(ctx.theta, ctx.E, _distance_row(1, size)),
        )
    )
    checks.append(
        Check(
            "rank_one_idempotent_is_all_ones",
            _identity_holds([1], ctx.E[:1], ones * Fraction(1, n)),
        )
    )

    Pm = RationalMatrix.from_rows([list(r) for r in ctx.P])
    Qm = RationalMatrix.from_rows([list(r) for r in ctx.Q])
    checks.append(
        Check(
            "eigenmatrices_inverse_pair",
            Pm @ (Qm * Fraction(1, n)) == RationalMatrix.identity(size),
        )
    )

    checks.append(
        Check(
            "dual_idempotents_sum_to_identity",
            _identity_holds(unit_coeffs, ctx.E_star, RationalMatrix.ones(1, n)),
        )
    )

    witness = _dual_orthogonality_witness(ctx.E_star)
    checks.append(Check("dual_idempotents_orthogonal", witness is None, witness))

    # A_i* = diag(|X| (E_i)_{x,y}): diag(A_i*) den(E_i) = |X| den(A_i*) row x
    # of E_i.
    witness = None
    for i, (Ai, Ei) in enumerate(zip(ctx.A_star, ctx.E)):
        row = ctx.class_entries(Ei, ctx.x)
        if not np.array_equal(exact_scale(Ai.num[0], Ei.den), exact_scale(row, n * Ai.den)):
            witness = f"A*_{i}"
            break
    checks.append(
        Check("dual_distance_diagonal_from_idempotent_row", witness is None, witness)
    )

    checks.append(
        Check(
            "dual_adjacency_spectral_decomposition",
            _identity_holds(ctx.theta_star, ctx.E_star, ctx.dual_adjacency_row),
        )
    )

    # E_i o E_j = E_j o E_i, so when the table is symmetric in (i, j) a pair
    # (i, j) with i > j fails exactly when (j, i) does, which comes first:
    # only j >= i is checked.
    symmetric = all(
        ctx.krein[h][i][j] == ctx.krein[h][j][i]
        for h in range(size)
        for i in range(size)
        for j in range(i)
    )
    pairs = [(i, j) for i in range(size) for j in range(i if symmetric else 0, size)]
    witness = _krein_witness(ctx, V, den, pairs)
    checks.append(Check("krein_expansion_of_hadamard_products", witness is None, witness))

    if ctx.params is not None:
        match = np.array_equal(ctx.params.p_table, ctx.p_table)
        checks.append(
            Check(
                "intersection_numbers_match_brute_force",
                match,
                None if match else "closed form disagrees with counted table",
            )
        )
    return checks


@dataclass(frozen=True)
class TripleProductReport:
    """Agreement of triple-product vanishing with the parameter tables."""

    d: int
    total: int
    mismatches: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def _triple_counts(ctx: TerwContext) -> np.ndarray:
    """N[k, a, l] = #{y in S_k, z in S_l : dist(y, z) = a}, for all k, a, l.

    One bincount over the n^2 keys (dist(x, y), dist(y, z), dist(x, z)).
    """
    size = ctx.d + 1
    dist = ctx.dist.dist
    row = dist[ctx.x]
    key = (row[:, None] * size + dist) * size + row
    counts = np.bincount(key.ravel(), minlength=size**3)
    return counts.reshape(size, size, size)


def dual_triple_zeros(ctx: TerwContext, counts: np.ndarray | None = None) -> np.ndarray:
    """zeros[h, i, j] is True exactly when E_h A_i* E_j = 0.

    Precondition: every E_h is a symmetric idempotent.  A context exists
    only after construction has verified idempotence
    (idempotents_orthogonal) and that dist is symmetric, so that every
    E_h = V[h][dist] / den is symmetric.  Let A_i* = diag(a_i).  Then

        ||E_h A_i* E_j||_F^2 = tr(E_j A_i* E_h A_i*) = a_i^T (E_h o E_j) a_i,

    a sum of squares that is 0 exactly when the triple product is.  With
    a_i(y) = theta*_i(k) on the sphere S_k, a_i^T (E_h o E_j) a_i is a
    positive multiple of sum_a V[h][a] V[j][a] W[i][a] for the class rows
    V[h] of the E_h (each over its own denominator), where
    W[i][a] = sum_(k,l) theta*_i(k) theta*_i(l) N[k, a, l] and N is
    _triple_counts (passed in as counts, or counted here).  Both sums are
    guarded products of (d+1)-sized integer tables; the positive
    denominators do not change which values are 0.

    Raises:
        VerificationError: if some A_i* is not constant on a sphere S_k.
    """
    size = ctx.d + 1
    dist = ctx.dist.dist
    reps = [int(s[0]) for s in ctx.spheres]
    diags = np.array([a.num[0] for a in ctx.A_star])
    values = diags[:, reps]  # theta*_i(k), scaled
    bad = np.argwhere(diags != values[:, dist[ctx.x]])
    if bad.size:
        i, y = (int(v) for v in bad[0])
        k = int(dist[ctx.x, y])
        raise VerificationError(f"A*_{i} is not constant on sphere S_{k}")
    N = _triple_counts(ctx) if counts is None else counts
    # theta_pairs[i, (k, l)] = theta*_i(k) theta*_i(l); N_kl[(k, l), a] = N[k, a, l].
    theta_pairs = exact_mul_elementwise(values[:, :, None], values[:, None, :])
    W = exact_matmul(
        theta_pairs.reshape(size, size * size),
        N.transpose(0, 2, 1).reshape(size * size, size),
    )
    # class_pairs[(h, j), a] = V[h][a] V[j][a]; norms[(h, j), i].
    V = np.array([Eh.num[0] for Eh in ctx.E])
    class_pairs = exact_mul_elementwise(V[:, None, :], V[None, :, :])
    norms = exact_matmul(class_pairs.reshape(size * size, size), W.T)
    return (norms == 0).reshape(size, size, size).transpose(0, 2, 1)


def _primal_triple_zeros(ctx: TerwContext, counts: np.ndarray | None = None) -> np.ndarray:
    """zeros[h, i, j] is True exactly when E_h* A_i E_j* = 0, that is, when
    no vertex of S_h is at distance i from a vertex of S_j: N[h, i, j] = 0
    for the counts of _triple_counts."""
    return (_triple_counts(ctx) if counts is None else counts) == 0


def check_triple_products(ctx: TerwContext) -> TripleProductReport:
    """Zero-ness of E_h* A_i E_j* and E_h A_i* E_j over all triples.

    For every (h, i, j), E_h* A_i E_j* must vanish exactly when p^h_{ij} = 0
    and E_h A_i* E_j exactly when the Krein parameter q^h_{ij} = 0.  The two
    zero patterns coincide only for formally self-dual graphs, so for
    hypercubes all flags, including (h, i, j) lying outside the permissible
    set, must agree.  A mismatch records all flags in the order primal,
    dual, p, Krein (and, for hypercubes, outside P_d by permissible_mask).
    Both flag arrays are read off one count table N[k, a, l]
    (_triple_counts): the primal flags are its zeros, and dual_triple_zeros
    contracts it with the class values.
    """
    d = ctx.d
    counts = _triple_counts(ctx)
    primal_zeros = _primal_triple_zeros(ctx, counts)
    dual_zeros = dual_triple_zeros(ctx, counts)
    excluded = ~permissible_mask(d) if ctx.is_hypercube else None
    mismatches = []
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                primal_zero = bool(primal_zeros[h, i, j])
                dual_zero = bool(dual_zeros[h, i, j])
                p_zero = int(ctx.p_table[h, i, j]) == 0
                krein_zero = ctx.krein[h][i][j] == 0
                flags = [primal_zero, dual_zero, p_zero, krein_zero]
                if ctx.is_hypercube:
                    flags.append(bool(excluded[h, i, j]))
                    ok = all(f == flags[0] for f in flags)
                else:
                    ok = primal_zero == p_zero and dual_zero == krein_zero
                if not ok:
                    mismatches.append((h, i, j, tuple(flags)))
    return TripleProductReport(d, (d + 1) ** 3, tuple(mismatches))


def triple_span_dim(ctx: TerwContext) -> int:
    """Dimension of span{E_h* A_i E_j*} over all (d+1)^3 triples.

    E_h* A_i E_j* is the 0/1 matrix whose support is the set of
    (y, z) in S_h x S_j with dist(y, z) = i.  That support is nonempty
    exactly when N[h, i, j] != 0 (_triple_counts).  Distinct triples have
    disjoint supports: two triples differ in the block S_h x S_j or, within
    one block, in the distance i.  So the nonzero products are linearly
    independent, and the dimension is the number of nonzero counts.
    """
    return int(np.count_nonzero(_triple_counts(ctx)))


def check_krein_self_dual(ctx: TerwContext) -> Check:
    """Hypercube self-duality: the Krein table equals the p-table."""
    d = ctx.d
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                if ctx.krein[h][i][j] != int(ctx.p_table[h, i, j]):
                    return Check(
                        "krein_table_equals_intersection_table",
                        False,
                        f"(h,i,j)=({h},{i},{j}): "
                        f"{ctx.krein[h][i][j]} vs {int(ctx.p_table[h, i, j])}",
                    )
    return Check("krein_table_equals_intersection_table", True)


def _spectral_min_poly(theta: Sequence[Fraction], ranks: Sequence[int]) -> RationalPoly:
    """prod (z - theta_i) over the distinct theta_i with ranks[i] != 0: the
    minimal polynomial of sum_i theta_i F_i for orthogonal idempotents F_i
    summing to I with tr F_i = ranks[i] (see check_polynomial_images)."""
    return RationalPoly.from_roots(sorted({t for t, r in zip(theta, ranks) if r}))


def check_polynomial_images(ctx: TerwContext) -> list[Check]:
    """Polynomial layer at matrix level, on a hypercube context.

    F_i(A) = A_i and F_i(A*) = A_i* for 0 <= i <= d+1 (index d+1 gives the
    zero matrix), and the common minimal polynomial of A and A* is the
    spectrum polynomial.  For d >= 2 the two relator identities follow: the
    diameter-(d-2) spectrum polynomial phi evaluated at A (resp. A*)
    annihilates I - E_0 - E_d (resp. I - E_0* - E_d*).

    Every check reads the spectral decompositions, not A or A*.  A context
    exists only if construction certified M = sum_j theta_j F_j, with the
    F_j orthogonal idempotents summing to I: for (M, F) = (A, E) by
    idempotents_sum_to_identity, idempotents_orthogonal and
    adjacency_spectral_decomposition, and for (M, F) = (A*, E*) by
    dual_idempotents_sum_to_identity, dual_idempotents_orthogonal and
    dual_adjacency_spectral_decomposition.  Then M^0 = I = sum_j F_j, and
    M^k = sum_j theta_j^k F_j gives
    M^(k+1) = sum_(j,l) theta_j^k theta_l F_j F_l = sum_j theta_j^(k+1) F_j,
    so by linearity q(M) = sum_j q(theta_j) F_j for every polynomial q.

    - F_i(M) = target_i is the identity sum_j F_i(theta_j) F_j = target_i,
      checked by _identity_holds on the class rows of the E_j against the
      unit row of A_i (A_(d+1) = 0 has the zero row), or on the held
      diagonals on A*'s side.  No power or product of n x n matrices is
      formed.
    - I - F_0 - F_d = sum_(j not in {0, d}) F_j, so the relator image is
      phi(M) (I - F_0 - F_d) = sum_(j not in {0, d}) phi(theta_j) F_j: the
      same identity with the coefficients at 0 and d set to zero and a zero
      target.  F_0 and F_d enter it with coefficient zero, so it does not
      read them; a context whose F_0 or F_d breaks sum_j F_j = I is
      rejected at construction.
    - Nor is a minimal polynomial found from matrix powers.
      q(M) F_j = q(theta_j) F_j, so q(M) = 0 exactly when q(theta_j) = 0
      for every j with F_j != 0.  An idempotent is nonzero exactly when its
      trace, its rank, is: tr E_i is the multiplicity dual_valencies[i] and
      tr E*_i the sphere size valencies[i].  Hence the minimal polynomial
      of M is the product of (z - theta_j) over the distinct theta_j with
      F_j != 0; each is compared with phi.
    """
    if ctx.params is None:
        raise ValueError("polynomial images are defined for hypercube contexts")
    d = ctx.d
    fs, phi = ctx.params.F, ctx.params.phi
    relator = spectrum_poly(d - 2) if d >= 2 else None
    size = d + 1
    stars = list(ctx.A_star) + [RationalMatrix.zeros(1, ctx.n)] * (len(fs) - size)
    images, minimal, relators = [], [], []
    for label, name, idem, targets, theta, ranks, relator_name in (
        (
            "A", "adjacency", ctx.E, [_distance_row(i, size) for i in range(len(fs))],
            ctx.theta, ctx.dual_valencies, "relator_annihilates_middle_idempotents",
        ),
        (
            "A*", "dual_adjacency", ctx.E_star, stars, ctx.theta_star, ctx.valencies,
            "dual_relator_annihilates_middle_dual_idempotents",
        ),
    ):

        def image_is(q, target, skip=()):
            """sum_(j not in skip) q(theta_j) F_j == target."""
            coeffs = [0 if j in skip else q.eval_scalar(t) for j, t in enumerate(theta)]
            return _identity_holds(coeffs, idem, target)

        bad = next((i for i, (f, t) in enumerate(zip(fs, targets)) if not image_is(f, t)), None)
        witness = None if bad is None else f"F_{bad}({label})"
        images.append(Check(f"krawtchouk_images_of_{name}", bad is None, witness))
        if relator is not None:
            zero = RationalMatrix.zeros(*idem[0].shape)
            relators.append(Check(relator_name, image_is(relator, zero, skip=(0, d))))
        mp = _spectral_min_poly(theta, ranks)
        witness = None if mp == phi else f"{mp} != {phi}"
        minimal.append(Check(f"minimal_polynomial_of_{name}", mp == phi, witness))
    return images + minimal + relators
