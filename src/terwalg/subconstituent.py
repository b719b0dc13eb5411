"""Subconstituent (Terwilliger) algebra contexts and their identity checks.

A TerwContext fixes a distance-regular graph and a base vertex x and holds
exact matrices for everything the algebra is built from: distance matrices
A_i, primitive idempotents E_i, dual idempotents E_i* (0/1 diagonal
indicators of the distance spheres around x), and dual distance matrices
A_i* with (A_i*)_yy = |X| (E_i)_{x,y}.  The E_i* and A_i* are diagonal by
definition, so each is held as its diagonal only (see TerwContext).
Construction verifies every defining identity exactly, once, and keeps the
named outcomes on the context as section_checks; reports read them there
and do not re-run them.

Both paths build E_i = |X|^(-1) sum_j Q[j][i] A_j from the dual eigenmatrix
Q.  The hypercube path reads Q = P from the closed forms (the cube is
self-dual).  The general path works from the intersection array that
is_distance_regular counts: the eigenvalues theta_i are the roots of the
minimal polynomial of the (d+1) x (d+1) intersection matrix B_1, which is
that of A, isolated exactly by polys.integer_roots; P[i][j] = v_j(theta_i)
by the three-term recurrence; and Q = |X| P^(-1).  It requires all adjacency
eigenvalues to be rational (they are then integers).  Construction
certifies the result: distinct theta_i, sum_i E_i = I and
A E_i = theta_i E_i make the E_i the spectral idempotents of A, and
then A_j = v_j(A) gives A_j E_i = P[i][j] E_i.  The Krein parameters are
read off Q too, q^h_ij = sum_a (Q^(-1))[h][a] Q[a][i] Q[a][j], and the
matrix-level check krein_expansion_of_hadamard_products certifies that
table against the E_h.

The section identities, the triple-product zeros and the polynomial images
are checked on (d+1)-sized integer tables or on diagonals; only
O((d+1) n^2) work touches n x n data.

- Class values, certified.  Let A_a be the 0/1 matrix of the class
  dist(y, z) = a of the BFS distance array.  A matrix M is certified when
  M = v[dist] for the vector v = M[x, r] read off row x, with r_a a vertex of
  the sphere S_a; one gather and one comparison decide it.  The classes
  partition X x X, and every class 0..d occurs in row x (no sphere is
  empty), so two certified matrices are equal exactly when their vectors
  are, and a linear combination of certified matrices is certified with
  the same combination of vectors.  {dist == 0} is tested to be exactly
  the diagonal, so I is certified with vector (1, 0, ..., 0), and J with
  the all-ones vector.  Hence, when every A_i and E_i and A are certified,
  sum_i A_i = J, A_0 = I, sum_i E_i = I, sum_i theta_i E_i = A and
  E_0 = J/|X| are identities between (d+1)-vectors.  A matrix that fails
  certification sends the identities it enters to its integer numerators
  over one common denominator, still with no RationalMatrix per term.
- The diagonal identities sum_i E_i* = I, sum_i theta*_i E_i* = A* and
  A_i* = diag(|X| row x of E_i) are identities between the held
  diagonals: n-vectors, with no n x n matrix.
- Orthogonality of the E_i has a spectral certificate.  Distinct theta_i,
  sum_i E_i = I and A E_i = theta_i E_i for every i imply
  E_i E_j = delta_ij E_i, and then E_i A = theta_i E_i as well, so no
  product E_i A is formed.  A E_i is one gathered product (d nonzeros per
  row of A).  Only a failed certificate falls back to the dense pairwise
  products, which decide the verdict and its witness.
- The Krein expansion E_i o E_j = |X|^(-1) sum_h q^h_ij E_h of certified
  E_h = V[h][dist] / den is the table identity
  |X| V[i][a] V[j][a] = den sum_h q^h_ij V[h][a], one product of the
  coefficient table with V.  A table symmetric in (i, j) needs only the
  pairs with i <= j.  The one dense path kept beside it: when some E_h is
  not certified (only a tampered context), one stacked product per i of
  the coefficient table with the (d+1) x n^2 stack of E_h numerators
  decides, as it did before the class tables.
- The dual idempotents E_i* are diagonal, so their pairwise products are
  read off the diagonals: disjoint supports for i != j, 0/1 entries for
  i = j.
- One bincount over the key (dist(x, y), dist(y, z), dist(x, z)) counts
  N[k, a, l] = #{y in S_k, z in S_l : dist(y, z) = a}.  E_h* A_a E_l*
  vanishes exactly when N[h, a, l] = 0.
- For symmetric idempotents E_h, E_j (idempotence is verified at
  construction) and diagonal A_i* = diag(a_i),
  ||E_h A_i* E_j||_F^2 = a_i^T (E_h o E_j) a_i, so E_h A_i* E_j = 0 exactly
  when that sum of squares is 0.  An E_h constant on the distance classes
  of a symmetric distance array is symmetric, so only the others are
  transposed.  With a_i constant, theta*_i(k), on each sphere S_k and
  E_h o E_j = sum_a V[h][a] V[j][a] A_a / den^2, the sum is
  sum_a V[h][a] V[j][a] sum_(k,l) theta*_i(k) theta*_i(l) N[k, a, l], up to
  a positive factor.
- The polynomial images F_i(A) = A_i and F_i(A*) = A_i* and the two
  relators are identities between the spectral idempotents and a target:
  q(M) = sum_j q(theta_j) F_j for (M, F) = (A, E) and (A*, E*) (proof in
  check_polynomial_images).  Each is one _identity_holds call, on the class
  values of the E_j and A_i or on the held diagonals; no power of A or A*
  is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
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
)
from .checks import Check
from .closure import AlgebraBasis, closure
from .graphs import DistanceData, Graph, distance_matrix, hypercube, is_distance_regular
from .hypercube import HypercubeParams, permissible, spectrum_poly
from .linalg import RationalMatrix, inverse, min_poly
from .polys import RationalPoly, integer_roots


class VerificationError(Exception):
    """An exact identity that must hold failed to hold."""


def diagonal_matrix(row: RationalMatrix) -> RationalMatrix:
    """The n x n diagonal matrix whose diagonal is the 1 x n row."""
    return RationalMatrix(np.diag(row.num[0]), row.den, _canonical=True)


@dataclass(frozen=True)
class TerwContext:
    """All exact matrices attached to one (graph, base vertex) pair.

    A, A_dist and E are dense n x n matrices.  Every E_star[i] and
    A_star[i] is diagonal, and is held as its diagonal: a 1 x n
    RationalMatrix in the same canonical form, so equality, scaling and
    the denominator are those of the n x n matrix.
    """

    graph: Graph
    dist: DistanceData
    x: int
    d: int
    n: int
    A: RationalMatrix
    A_dist: tuple[RationalMatrix, ...]
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

    @property
    def dual_adjacency_row(self) -> RationalMatrix:
        """The diagonal of A* = A_1*, or the zero row when d = 0."""
        return self.A_star[1] if self.d >= 1 else RationalMatrix.zeros(1, self.n)

    @property
    def dual_adjacency(self) -> RationalMatrix:
        """A* as a dense n x n matrix, built on each call for the consumers
        that take dense generators (closure, decompose)."""
        return diagonal_matrix(self.dual_adjacency_row)

    def generators(self) -> list[RationalMatrix]:
        """The algebra generators: adjacency and dual adjacency."""
        return [self.A, self.dual_adjacency]

    def algebra_basis(self) -> AlgebraBasis:
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


def _lowest_terms(values: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """values / den with gcd(content(values), den) divided out, demoted.

    A matrix whose nonzero entries are exactly these values over den has
    the same content, so placing the result into it gives the canonical
    RationalMatrix numerators and denominator without a gcd over the
    matrix.
    """
    c = content(values)
    g = gcd(c, den)
    if g > 1:
        if c:
            values = values // g
        den //= g
    return demote(values), den


def _idempotents_from_eigenmatrix(
    dist: np.ndarray, Q: Sequence[Sequence[Fraction]]
) -> list[RationalMatrix]:
    """E_i = |X|^(-1) sum_j Q[j][i] A_j, for every i.

    The A_j have disjoint supports, so (E_i)_yz = Q[dist(y, z)][i] / |X|:
    column i of Q, over a common denominator, is gathered through the
    distance table.  Every class 0..d occurs in it, so the gcd of E_i's
    numerators is the gcd of its d+1 class values, and the matrix is built
    in lowest terms.
    """
    n = dist.shape[0]
    E = []
    for i in range(len(Q)):
        col = [Fraction(row[i]) for row in Q]
        den = lcm(*(q.denominator for q in col))
        nums = [q.numerator * (den // q.denominator) for q in col]
        dtype = np.int64 if max(map(abs, nums)) < INT64_SAFE else object
        values, den = _lowest_terms(np.array(nums, dtype=dtype), n * den)
        E.append(RationalMatrix(values[dist], den, _canonical=True))
    return E


def _dual_distance_matrix(Ei: RationalMatrix, x: int) -> RationalMatrix:
    """The diagonal |X| (E_i)_{x,y} of A_i*, from the integer numerators of
    row x, in lowest terms by the gcd of the n entries."""
    diag, den = _lowest_terms(exact_scale(Ei.num[x], Ei.nrows), Ei.den)
    return RationalMatrix(diag[None], den, _canonical=True)


def _assemble(
    graph: Graph,
    dd: DistanceData,
    x: int,
    A_dist: tuple[RationalMatrix, ...],
    E: list[RationalMatrix],
    P: list[list[Fraction]],
    Q: list[list[Fraction]],
    p_table: np.ndarray,
    params: HypercubeParams | None,
) -> TerwContext:
    """The context with its section identities checked and stored.

    Raises:
        VerificationError: naming every section identity that fails.
    """
    d = dd.diameter
    n = graph.n
    A = A_dist[1] if d >= 1 else RationalMatrix.zeros(n, n)
    spheres = tuple(np.nonzero(dd.dist[x] == i)[0] for i in range(d + 1))

    rows = (dd.dist[x] == np.arange(d + 1)[:, None]).astype(np.int64)
    E_star = [RationalMatrix(row[None], 1, _canonical=True) for row in rows]
    A_star = [_dual_distance_matrix(Ei, x) for Ei in E]

    valencies = tuple(int(len(s)) for s in spheres)
    dual_valencies = []
    for i in range(d + 1):
        t = E[i].trace()
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
        A=A,
        A_dist=A_dist,
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
    params = HypercubeParams.build(d)
    A_dist = tuple(distance_matrix(g, dd, i) for i in range(d + 1))

    # Self-dual eigenmatrix formula: q_i(j) = p_i(j), so Q = P.
    P = [list(row) for row in params.P]
    E = _idempotents_from_eigenmatrix(dd.dist, P)
    return _assemble(g, dd, x, A_dist, E, P, P, params.p_table, params)


def build_context(g: Graph, x: int = 0) -> TerwContext:
    """Context for a general distance-regular graph with rational spectrum.

    Raises:
        ValueError: if the graph is not distance-regular (witness included)
            or has an irrational adjacency eigenvalue.
    """
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range for {g.n} vertices")
    dd = DistanceData.compute(g)
    ok, result = is_distance_regular(g, dd)
    if not ok:
        h, i, j, pair_a, count_a, pair_b, count_b = result
        raise ValueError(
            f"graph is not distance-regular: (h,i,j)=({h},{i},{j}) gives "
            f"{count_a} for pair {pair_a} but {count_b} for pair {pair_b}"
        )
    p_table = result
    d = dd.diameter
    n = g.n
    A_dist = tuple(distance_matrix(g, dd, j) for j in range(d + 1))

    # B_1[h, j] = p^h_1j is the matrix of multiplication by A on the basis
    # A_0..A_d of the Bose-Mesner algebra.  That representation is faithful,
    # so min_poly(B_1) is the minimal polynomial of A.  A is symmetric, so its
    # roots are distinct, and integer_roots finds them all unless one is
    # irrational.
    b1 = p_table[:, 1, :] if d >= 1 else np.zeros((1, 1), dtype=np.int64)
    mp = min_poly(RationalMatrix(b1))
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
    E = _idempotents_from_eigenmatrix(dd.dist, Q)
    return _assemble(g, dd, x, A_dist, E, P, Q, p_table, None)


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


def _class_representatives(ctx: TerwContext) -> list[int] | None:
    """One vertex r_a of each sphere S_a, if class values certify identities.

    That needs every sphere to be nonempty and {dist == 0} to be exactly the
    diagonal.  Otherwise None.
    """
    dist = ctx.dist.dist
    if any(s.size == 0 for s in ctx.spheres):
        return None
    if np.count_nonzero(dist == 0) != ctx.n or np.any(dist.diagonal()):
        return None
    return [int(s[0]) for s in ctx.spheres]


def _class_values(m: RationalMatrix, dist: np.ndarray, x: int, reps) -> np.ndarray | None:
    """Numerators of m on each distance class, read off row x, if m = v[dist].

    Returns None when m is not constant on some class.
    """
    v = m.num[x, reps]
    return v if np.array_equal(m.num, v[dist]) else None


def _class_view(ctx: TerwContext):
    """The reader m -> _class_values(m, ...) of ctx: None for every m when
    ctx has no class representatives (_class_representatives)."""
    dist = ctx.dist.dist
    reps = _class_representatives(ctx)
    return lambda m: None if reps is None else _class_values(m, dist, ctx.x, reps)


def _identity_holds(coeffs, mats, views, target, target_view) -> bool:
    """Whether sum_k coeffs[k] mats[k] equals the target, exactly.

    views[k] holds the numerators of mats[k] on the classes (or the held
    diagonal), None when it is not certified; target_view is the target's
    (num, den) there, or None.  When every view is known the identity is
    checked on them, and target may be None; otherwise on the full
    numerators of mats and of the matrix target() builds.  Everything is
    scaled to one common denominator and compared as integers.
    """
    if target_view is None or any(v is None for v in views):
        t = target()
        views, target_view = [m.num for m in mats], (t.num, t.den)
    coeffs = [Fraction(c) for c in coeffs]
    num_t, den_t = target_view
    common = lcm(den_t, *(m.den * c.denominator for c, m in zip(coeffs, mats)))
    acc = exact_scale(num_t, common // den_t)
    for c, v, m in zip(coeffs, views, mats):
        if c:
            acc = exact_sub(acc, exact_scale(v, c.numerator * (common // (m.den * c.denominator))))
    return not np.any(acc)


def _eigen_product_holds(a: RationalMatrix, e: RationalMatrix, t) -> bool:
    """A E = t E, from one gathered product (A is row-sparse)."""
    t = Fraction(t)
    want = exact_scale(e.num, t.numerator * a.den)
    return np.array_equal(exact_scale(exact_matmul(a.num, e.num), t.denominator), want)


def _orthogonality_witness(ctx: TerwContext) -> str | None:
    """The first pair (i, j) with E_i E_j != delta_ij E_i, from the (d+1)^2
    dense products."""
    zero = RationalMatrix.zeros(ctx.n, ctx.n)
    for i, Ei in enumerate(ctx.E):
        for j, Ej in enumerate(ctx.E):
            if Ei @ Ej != (Ei if i == j else zero):
                return f"E_{i} E_{j}"
    return None


def _krein_table_witness(ctx: TerwContext, values, pairs) -> str | None:
    """The first pair (i, j) whose Krein expansion fails, on class values.

    values[h] holds the numerators of the certified E_h on the classes.
    Over the common denominator den, E_h = V[h][dist] / den, and
    E_i o E_j = |X|^(-1) sum_h q^h_ij E_h reads
    |X| V[i][a] V[j][a] = den sum_h q^h_ij V[h][a] for every class a.
    """
    n = ctx.n
    size = ctx.d + 1
    den = lcm(*(Eh.den for Eh in ctx.E))
    V = np.stack([exact_scale(v, den // Eh.den) for v, Eh in zip(values, ctx.E)])
    table = RationalMatrix.from_rows(
        [[ctx.krein[h][i][j] for h in range(size)] for i, j in pairs]
    )
    rows, cols = zip(*pairs)
    left = exact_scale(exact_mul_elementwise(V[list(rows)], V[list(cols)]), n * table.den)
    right = exact_scale(exact_matmul(table.num, V), den)
    for k, (i, j) in enumerate(pairs):
        if not np.array_equal(left[k], right[k]):
            return f"E_{i} o E_{j}"
    return None


def _krein_dense_witness(ctx: TerwContext, pairs) -> str | None:
    """The first pair (i, j) whose Krein expansion fails, at matrix level.

    The failure path for an E_h that is not certified.  Row h of stack is
    den_e E_h, so row j of table @ stack is table.den den_e |X|^(-1)
    sum_h q^h_ij E_h, and stack_i o stack_j is den_e^2 E_i o E_j; both
    sides are scaled to table.den den_e^2 and compared as integers, one
    stacked product per i.
    """
    n = ctx.n
    size = ctx.d + 1
    den_e = lcm(*(Eh.den for Eh in ctx.E))
    stack = np.stack([exact_scale(Eh.num, den_e // Eh.den).ravel() for Eh in ctx.E])
    for i in range(size):
        cols = [j for k, j in pairs if k == i]
        table = RationalMatrix.from_rows(
            [[ctx.krein[h][i][j] / n for h in range(size)] for j in cols]
        )
        expansion = exact_scale(exact_matmul(table.num, stack), den_e)
        left = exact_scale(stack[i], table.den)
        for row, j in enumerate(cols):
            if not np.array_equal(exact_mul_elementwise(left, stack[j]), expansion[row]):
                return f"E_{i} o E_{j}"
    return None


def check_section_identities(ctx: TerwContext) -> list[Check]:
    """The fundamental identities of both Bose-Mesner algebras, exactly.

    Each identity runs on class values, or on diagonals, when every matrix
    in it is certified (see the module docstring), and on the integer
    numerators otherwise.
    """
    checks = []
    n = ctx.n
    d = ctx.d
    size = d + 1
    values = _class_view(ctx)
    a_vals = [values(Ai) for Ai in ctx.A_dist]
    e_vals = [values(Ei) for Ei in ctx.E]
    adj_vals = values(ctx.A)
    # The class values of J and I, and the targets as dense matrices.
    ones = np.ones(size, dtype=np.int64)
    unit = np.eye(1, size, dtype=np.int64)[0]

    def J():
        return RationalMatrix.ones(n, n)

    def I():
        return RationalMatrix.identity(n)

    unit_coeffs = [1] * size
    checks.append(
        Check(
            "distance_matrices_partition",
            _identity_holds(unit_coeffs, ctx.A_dist, a_vals, J, (ones, 1)),
        )
    )
    checks.append(
        Check(
            "distance_zero_is_identity",
            _identity_holds([1], ctx.A_dist[:1], a_vals[:1], I, (unit, 1)),
        )
    )
    sums_to_identity = _identity_holds(unit_coeffs, ctx.E, e_vals, I, (unit, 1))
    checks.append(Check("idempotents_sum_to_identity", sums_to_identity))

    # Spectral certificate for E_i E_j = delta_ij E_i.  If the theta_i are
    # distinct, sum_j E_j = I and A E_i = theta_i E_i for every i, then the
    # columns of E_i lie in the theta_i-eigenspace V_i of A.  Eigenspaces of
    # distinct eigenvalues are independent and sum_j E_j v = v, so E_i v is
    # the V_i-component of v: E_i E_j = delta_ij E_i.  Only when the
    # certificate fails do the (d+1)^2 dense products decide the verdict
    # and name the first failing pair.
    ortho = (
        sums_to_identity
        and len(set(ctx.theta)) == size
        and all(_eigen_product_holds(ctx.A, Ei, t) for Ei, t in zip(ctx.E, ctx.theta))
    )
    witness = None if ortho else _orthogonality_witness(ctx)
    checks.append(Check("idempotents_orthogonal", witness is None, witness))

    checks.append(
        Check(
            "adjacency_spectral_decomposition",
            _identity_holds(
                ctx.theta, ctx.E, e_vals, lambda: ctx.A,
                None if adj_vals is None else (adj_vals, ctx.A.den),
            ),
        )
    )
    checks.append(
        Check(
            "rank_one_idempotent_is_all_ones",
            _identity_holds(
                [1], ctx.E[:1], e_vals[:1], lambda: J() * Fraction(1, n), (ones, n)
            ),
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

    star_diags = [Ei.num[0] for Ei in ctx.E_star]
    checks.append(
        Check(
            "dual_idempotents_sum_to_identity",
            _identity_holds(
                unit_coeffs, ctx.E_star, star_diags, None, (np.ones(n, dtype=np.int64), 1)
            ),
        )
    )

    witness = _dual_orthogonality_witness(ctx.E_star)
    checks.append(Check("dual_idempotents_orthogonal", witness is None, witness))

    # A_i* = diag(|X| (E_i)_{x,y}): diag(A_i*) den(E_i) = |X| den(A_i*) row x
    # of E_i.
    witness = None
    for i, (Ai, Ei) in enumerate(zip(ctx.A_star, ctx.E)):
        if not np.array_equal(
            exact_scale(Ai.num[0], Ei.den), exact_scale(Ei.num[ctx.x], n * Ai.den)
        ):
            witness = f"A*_{i}"
            break
    checks.append(
        Check("dual_distance_diagonal_from_idempotent_row", witness is None, witness)
    )

    dual_adj = ctx.dual_adjacency_row
    checks.append(
        Check(
            "dual_adjacency_spectral_decomposition",
            _identity_holds(
                ctx.theta_star, ctx.E_star, star_diags, None, (dual_adj.num[0], dual_adj.den)
            ),
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
    if all(v is not None for v in e_vals):
        witness = _krein_table_witness(ctx, e_vals, pairs)
    else:
        witness = _krein_dense_witness(ctx, pairs)
    checks.append(Check("krein_expansion_of_hadamard_products", witness is None, witness))
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


def _int_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise a b of two small integer tables, on Python ints."""
    prods = [u * v for u, v in zip(a.ravel().tolist(), b.ravel().tolist())]
    return demote(np.array(prods, dtype=object).reshape(a.shape))


def dual_triple_zeros(ctx: TerwContext, counts: np.ndarray | None = None) -> np.ndarray:
    """zeros[h, i, j] is True exactly when E_h A_i* E_j = 0.

    Precondition: every E_h is idempotent.  A context exists only after
    construction has verified that (idempotents_orthogonal), so this holds
    on every context.  Let E_h and E_j be symmetric idempotents and
    A_i* = diag(a_i).  Then

        ||E_h A_i* E_j||_F^2 = tr(E_j A_i* E_h A_i*) = a_i^T (E_h o E_j) a_i,

    a sum of squares that is 0 exactly when the triple product is.  With
    a_i(y) = theta*_i(k) on the sphere S_k and E_h = V[h][dist] / den_h,
    a_i^T (E_h o E_j) a_i is a positive multiple of
    sum_a V[h][a] V[j][a] W[i][a], where
    W[i][a] = sum_(k,l) theta*_i(k) theta*_i(l) N[k, a, l] and N is
    _triple_counts (passed in as counts, or counted here).  Both sums are
    guarded products of (d+1)-sized integer tables; the positive
    denominators do not change which values are 0.

    Raises:
        VerificationError: if some A_i* is not constant on a sphere S_k, or
            some E_h is not symmetric, or a symmetric E_h is not constant
            on distance classes.
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
    classes = [_class_values(Eh, dist, ctx.x, reps) for Eh in ctx.E]
    # A class function of a symmetric distance array is symmetric.
    symmetric_dist = np.array_equal(dist, dist.T)
    for h, (Eh, v) in enumerate(zip(ctx.E, classes)):
        if (v is None or not symmetric_dist) and not np.array_equal(Eh.num, Eh.num.T):
            raise VerificationError(f"E_{h} is not symmetric")
    for h, v in enumerate(classes):
        if v is None:
            raise VerificationError(f"E_{h} is not constant on distance classes")
    N = _triple_counts(ctx) if counts is None else counts
    # theta_pairs[i, (k, l)] = theta*_i(k) theta*_i(l); N_kl[(k, l), a] = N[k, a, l].
    theta_pairs = _int_products(
        np.repeat(values, size, axis=1), np.tile(values, (1, size))
    )
    W = exact_matmul(theta_pairs, N.transpose(0, 2, 1).reshape(size * size, size))
    # class_pairs[(h, j), a] = V[h][a] V[j][a]; norms[(h, j), i].
    V = np.array(classes)
    class_pairs = _int_products(np.repeat(V, size, axis=0), np.tile(V, (size, 1)))
    norms = exact_matmul(class_pairs, W.T)
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
    dual, p, Krein (and not permissible for hypercubes).  Both flag arrays
    are read off one count table N[k, a, l] (_triple_counts): the primal
    flags are its zeros, and dual_triple_zeros contracts it with the class
    values.
    """
    d = ctx.d
    counts = _triple_counts(ctx)
    primal_zeros = _primal_triple_zeros(ctx, counts)
    dual_zeros = dual_triple_zeros(ctx, counts)
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
                    flags.append(not permissible(d, h, i, j))
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
      checked by _identity_holds on the certified class values of the E_j
      and A_i (on A's side) or on the held diagonals (on A*'s side); a
      matrix that is not certified sends it to the integer numerators.  No
      power or product of n x n matrices is formed.
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
    view = _class_view(ctx)
    images, minimal, relators = [], [], []
    for label, name, idem, read, targets, theta, ranks, relator_name in (
        (
            "A", "adjacency", ctx.E, view, ctx.A_dist, ctx.theta, ctx.dual_valencies,
            "relator_annihilates_middle_idempotents",
        ),
        (
            "A*", "dual_adjacency", ctx.E_star, lambda m: m.num[0], ctx.A_star,
            ctx.theta_star, ctx.valencies,
            "dual_relator_annihilates_middle_dual_idempotents",
        ),
    ):
        views = [read(f) for f in idem]
        zero = RationalMatrix.zeros(*targets[0].shape)
        targets = list(targets) + [zero] * (len(fs) - len(targets))

        def image_is(q, target, skip=()):
            """sum_(j not in skip) q(theta_j) F_j == target."""
            coeffs = [0 if j in skip else q.eval_scalar(t) for j, t in enumerate(theta)]
            v = read(target)
            target_view = None if v is None else (v, target.den)
            return _identity_holds(coeffs, idem, views, lambda: target, target_view)

        bad = next((i for i, (f, t) in enumerate(zip(fs, targets)) if not image_is(f, t)), None)
        witness = None if bad is None else f"F_{bad}({label})"
        images.append(Check(f"krawtchouk_images_of_{name}", bad is None, witness))
        if relator is not None:
            relators.append(Check(relator_name, image_is(relator, zero, skip=(0, d))))
        mp = _spectral_min_poly(theta, ranks)
        witness = None if mp == phi else f"{mp} != {phi}"
        minimal.append(Check(f"minimal_polynomial_of_{name}", mp == phi, witness))
    return images + minimal + relators
