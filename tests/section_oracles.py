"""The section checks, triple-zero flags and polynomial images as the dense
matrix computations that the class-table code replaced, kept as oracles.

check_section_identities sums and compares n x n RationalMatrix terms;
dual_triple_zeros forms one n x n Hadamard product per pair {h, j};
_primal_triple_zeros runs one bincount per sphere block;
triple_product_mismatches and krein_self_dual walk the (d+1)^3 triples one
by one, reading the Krein table as Fractions (krein_fractions); and
check_polynomial_images_dense evaluates the F_i and phi_(d-2) on the n x n
powers of A and of the dense diagonal matrix A*.  The context holds each
E_i as its class row and each E_i* and A_i* as its diagonal, and reads the
A_i off the distance array; every oracle here works on the dense n x n
matrices (dense_views), and counts the intersection numbers from dense
products of the distance matrices.
"""

from fractions import Fraction
from math import lcm

import numpy as np

from terwalg._intops import exact_matmul, exact_mul_elementwise, exact_scale
from terwalg.checks import Check
from terwalg.hypercube import permissible_mask, spectrum_poly
from terwalg.linalg import RationalMatrix
from terwalg.subconstituent import TerwContext, VerificationError

from dense_views import dense_diagonal, dense_idempotents, distance_matrix, poly_eval_matrix


def distance_matrices(ctx: TerwContext) -> list[RationalMatrix]:
    """The dense A_0, ..., A_d of a context."""
    return [distance_matrix(ctx.graph, ctx.dist, i) for i in range(ctx.d + 1)]


def krein_fractions(ctx: TerwContext) -> tuple:
    """The Krein table as nested Fractions: q^h_ij at [h][i][j]."""
    return tuple(
        tuple(tuple(Fraction(int(v), ctx.krein_den) for v in row) for row in layer)
        for layer in ctx.krein
    )


def dense_distance_regularity(dd):
    """(True, p_table) from the products M_i M_j^T, or (False, witness).

    The witness names the first count p^h_1i = (M_1 M_i^T)[y, z] that is not
    constant on the class h, with i ascending and then h = i-1, i, i+1.
    When those counts are all constant the graph is distance-regular, so
    every other count is constant too.
    """
    size = dd.diameter + 1
    masks = [(dd.dist == h).astype(np.int64) for h in range(size)]
    adjacency = (dd.dist == 1).astype(np.int64)
    for i in range(size):
        counts = adjacency @ masks[i].T
        for h in range(max(i - 1, 0), min(i + 1, size - 1) + 1):
            vals = counts[masks[h] == 1]
            bad = np.flatnonzero(vals != vals[0])
            if bad.size:
                pairs = np.argwhere(masks[h])
                k = int(bad[0])
                return False, (
                    h, 1, i, tuple(int(t) for t in pairs[0]), int(vals[0]),
                    tuple(int(t) for t in pairs[k]), int(vals[k]),
                )
    table = np.zeros((size,) * 3, dtype=np.int64)
    for i in range(size):
        for j in range(size):
            product = masks[i] @ masks[j].T
            for h in range(size):
                vals = product[masks[h] == 1]
                assert (vals == vals[0]).all(), (h, i, j)
                table[h, i, j] = vals[0]
    return True, table


def check_section_identities(ctx: TerwContext) -> list[Check]:
    """The fundamental identities of both Bose-Mesner algebras, exactly."""
    checks = []
    n = ctx.n
    d = ctx.d
    ident = RationalMatrix.identity(n)
    A_dist = distance_matrices(ctx)
    A = distance_matrix(ctx.graph, ctx.dist, 1)
    E = dense_idempotents(ctx)

    acc = RationalMatrix.zeros(n, n)
    for Ai in A_dist:
        acc = acc + Ai
    checks.append(Check("distance_matrices_partition", acc == RationalMatrix.ones(n, n)))
    checks.append(Check("distance_zero_is_identity", A_dist[0] == ident))

    esum = RationalMatrix.zeros(n, n)
    for Ei in E:
        esum = esum + Ei
    sums_to_identity = esum == ident
    checks.append(Check("idempotents_sum_to_identity", sums_to_identity))

    # Spectral certificate for E_i E_j = delta_ij E_i.  If the theta_i are
    # distinct, sum_j E_j = I and A E_i = theta_i E_i = E_i A for every i,
    # then E_i A E_j equals both theta_i E_i E_j and theta_j E_i E_j, so
    # E_i E_j = 0 for i != j, and E_i = E_i sum_j E_j = E_i^2.  Only when
    # the certificate fails do the (d+1)^2 dense products decide the verdict
    # and name the first failing pair.
    ortho = (
        sums_to_identity
        and len(set(ctx.theta)) == d + 1
        and all(
            A @ Ei == Ei * t and Ei @ A == Ei * t
            for Ei, t in zip(E, ctx.theta)
        )
    )
    witness = None
    if not ortho:
        ortho = True
        for i in range(d + 1):
            for j in range(d + 1):
                expect = E[i] if i == j else RationalMatrix.zeros(n, n)
                if E[i] @ E[j] != expect:
                    ortho = False
                    witness = f"E_{i} E_{j}"
                    break
            if not ortho:
                break
    checks.append(Check("idempotents_orthogonal", ortho, witness))

    spec = RationalMatrix.zeros(n, n)
    for i in range(d + 1):
        spec = spec + E[i] * ctx.theta[i]
    checks.append(Check("adjacency_spectral_decomposition", spec == A))

    checks.append(
        Check("rank_one_idempotent_is_all_ones", E[0] == RationalMatrix.ones(n, n) * Fraction(1, n))
    )

    Pm = RationalMatrix.from_rows(ctx.P.dense_rows())
    Qm = RationalMatrix.from_rows(ctx.Q.dense_rows())
    checks.append(
        Check(
            "eigenmatrices_inverse_pair",
            Pm @ (Qm * Fraction(1, n)) == RationalMatrix.identity(d + 1),
        )
    )

    e_star = [dense_diagonal(Ei) for Ei in ctx.E_star]
    dsum = RationalMatrix.zeros(n, n)
    for Ei in e_star:
        dsum = dsum + Ei
    checks.append(Check("dual_idempotents_sum_to_identity", dsum == ident))

    witness = None
    for i in range(d + 1):
        for j in range(d + 1):
            expect = e_star[i] if i == j else RationalMatrix.zeros(n, n)
            if witness is None and e_star[i] @ e_star[j] != expect:
                witness = f"E*_{i} E*_{j}"
    checks.append(Check("dual_idempotents_orthogonal", witness is None, witness))

    dual_diag_ok = True
    witness = None
    for i in range(d + 1):
        want = RationalMatrix(np.diag(E[i].num[ctx.x]), E[i].den) * n
        if dense_diagonal(ctx.A_star[i]) != want:
            dual_diag_ok = False
            witness = f"A*_{i}"
            break
    checks.append(Check("dual_distance_diagonal_from_idempotent_row", dual_diag_ok, witness))

    dspec = RationalMatrix.zeros(n, n)
    for i in range(d + 1):
        dspec = dspec + e_star[i] * ctx.theta_star[i]
    checks.append(
        Check(
            "dual_adjacency_spectral_decomposition",
            dspec == dense_diagonal(ctx.dual_adjacency_row),
        )
    )

    # Krein expansion of every Hadamard product, re-verified at matrix level
    # with one stacked product per i.  Row h of stack is den_e E_h, so row j
    # of table @ stack is table.den den_e |X|^(-1) sum_h q^h_ij E_h, and
    # stack_i o stack_j is den_e^2 E_i o E_j; both sides are scaled to
    # table.den den_e^2 and compared as integers.  E_i o E_j = E_j o E_i, so
    # when the table is symmetric in (i, j) a pair (i, j) with i > j fails
    # exactly when (j, i) does, which comes first: only j >= i is formed.
    den_e = lcm(*(Eh.den for Eh in E))
    stack = np.stack([exact_scale(Eh.num, den_e // Eh.den).ravel() for Eh in E])
    krein = krein_fractions(ctx)
    symmetric = all(
        krein[h][i][j] == krein[h][j][i]
        for h in range(d + 1)
        for i in range(d + 1)
        for j in range(i)
    )
    krein_ok = True
    witness = None
    for i in range(d + 1):
        cols = range(i if symmetric else 0, d + 1)
        table = RationalMatrix.from_rows(
            [[krein[h][i][j] / n for h in range(d + 1)] for j in cols]
        )
        expansion = exact_scale(exact_matmul(table.num, stack), den_e)
        left = exact_scale(stack[i], table.den)
        for row, j in enumerate(cols):
            if not np.array_equal(exact_mul_elementwise(left, stack[j]), expansion[row]):
                krein_ok = False
                witness = f"E_{i} o E_{j}"
                break
        if not krein_ok:
            break
    checks.append(Check("krein_expansion_of_hadamard_products", krein_ok, witness))

    if ctx.params is not None:
        regular, table = dense_distance_regularity(ctx.dist)
        match = regular and np.array_equal(table, ctx.params.p_table)
        witness = None if match else "closed form disagrees with counted table"
        checks.append(Check("intersection_numbers_match_brute_force", match, witness))
    return checks


def dual_triple_zeros(ctx: TerwContext) -> np.ndarray:
    """zeros[h, i, j] is True exactly when E_h A_i* E_j = 0.

    Precondition: every E_h is idempotent.  A context exists only after
    construction has verified that (idempotents_orthogonal), so this holds
    on every context.  Let E_h and E_j be symmetric idempotents and
    A_i* = diag(a_i).  Then

        ||E_h A_i* E_j||_F^2 = tr(E_j A_i* E_h A_i*) = a_i^T (E_h o E_j) a_i,

    a sum of squares that is 0 exactly when the triple product is.  For each
    unordered pair {h, j} one Hadamard product and two thin products (n x
    (d+1), then (d+1) x (d+1)) give that value for every i, exactly, on the
    integer numerators; the positive denominators do not change which
    values are 0.  E_j A_i* E_h is the transpose of E_h A_i* E_j, so the
    pair (j, h) takes the flags of (h, j).

    Raises:
        VerificationError: if some E_h is not symmetric or some A_i* is not
            constant on a sphere S_k.
    """
    d = ctx.d
    diags = np.array([dense_diagonal(a).num.diagonal() for a in ctx.A_star])
    values = diags[:, [int(s[0]) for s in ctx.spheres]]  # theta*_i(k), scaled
    bad = np.argwhere(diags != values[:, ctx.dist.dist[ctx.x]])
    if bad.size:
        i, y = (int(v) for v in bad[0])
        k = int(ctx.dist.dist[ctx.x, y])
        raise VerificationError(f"A*_{i} is not constant on sphere S_{k}")
    E = dense_idempotents(ctx)
    for h, Eh in enumerate(E):
        if not np.array_equal(Eh.num, Eh.num.T):
            raise VerificationError(f"E_{h} is not symmetric")
    zeros = np.zeros((d + 1,) * 3, dtype=bool)
    for h in range(d + 1):
        for j in range(h, d + 1):
            had = exact_mul_elementwise(E[h].num, E[j].num)
            norms = exact_matmul(diags, exact_matmul(had, diags.T)).diagonal()
            zeros[h, :, j] = zeros[j, :, h] = norms == 0
    return zeros


def _primal_triple_zeros(ctx: TerwContext) -> np.ndarray:
    """zeros[h, i, j] is True exactly when E_h* A_i E_j* = 0, that is, when
    no vertex of S_h is at distance i from a vertex of S_j."""
    d = ctx.d
    dist = ctx.dist.dist
    zeros = np.zeros((d + 1,) * 3, dtype=bool)
    for h, sph_h in enumerate(ctx.spheres):
        for j, sph_j in enumerate(ctx.spheres):
            block = dist[np.ix_(sph_h, sph_j)]
            zeros[h, :, j] = np.bincount(block.ravel(), minlength=d + 1) == 0
    return zeros


def triple_product_mismatches(ctx: TerwContext) -> tuple:
    """The mismatches of check_triple_products, triple by triple.

    The flags come from the dense oracles above and the Krein table is
    read as Fractions; a mismatch records all flags in the order primal,
    dual, p, Krein (and, for hypercubes, outside P_d).
    """
    d = ctx.d
    primal_zeros = _primal_triple_zeros(ctx)
    dual_zeros = dual_triple_zeros(ctx)
    krein = krein_fractions(ctx)
    excluded = ~permissible_mask(d) if ctx.is_hypercube else None
    mismatches = []
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                primal_zero = bool(primal_zeros[h, i, j])
                dual_zero = bool(dual_zeros[h, i, j])
                p_zero = int(ctx.p_table[h, i, j]) == 0
                krein_zero = krein[h][i][j] == 0
                flags = [primal_zero, dual_zero, p_zero, krein_zero]
                if ctx.is_hypercube:
                    flags.append(bool(excluded[h, i, j]))
                    ok = all(f == flags[0] for f in flags)
                else:
                    ok = primal_zero == p_zero and dual_zero == krein_zero
                if not ok:
                    mismatches.append((h, i, j, tuple(flags)))
    return tuple(mismatches)


def krein_self_dual(ctx: TerwContext) -> Check:
    """check_krein_self_dual, triple by triple on the Fraction table."""
    d = ctx.d
    krein = krein_fractions(ctx)
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                if krein[h][i][j] != int(ctx.p_table[h, i, j]):
                    return Check(
                        "krein_table_equals_intersection_table",
                        False,
                        f"(h,i,j)=({h},{i},{j}): "
                        f"{krein[h][i][j]} vs {int(ctx.p_table[h, i, j])}",
                    )
    return Check("krein_table_equals_intersection_table", True)


def check_polynomial_images_dense(ctx: TerwContext, adjacency=None) -> list[Check]:
    """The Krawtchouk and relator checks of check_polynomial_images, on dense
    n x n matrices, both halves.

    F_i(M) = M_i for 0 <= i <= d+1 (index d+1 gives the zero matrix), with
    the F_i and phi_(d-2) evaluated by poly_eval_matrix on M = A and on the
    dense np.diag(A*), and for d >= 2 the literal product
    phi(M) (I - F_0 - F_d), with (M_i, F) = (A_i, E) and (A_i*, E*).  A is
    [dist = 1] unless adjacency gives another matrix (such as
    sum theta_i E_i for a context whose theta was changed).  The checks come
    in the order of check_polynomial_images: both Krawtchouk checks, then
    both relators.
    """
    d = ctx.d
    n = ctx.n
    fs = list(ctx.params.F)
    relator = [spectrum_poly(d - 2)] if d >= 2 else []
    ident = RationalMatrix.identity(n)
    zero = RationalMatrix.zeros(n, n)
    if adjacency is None:
        adjacency = distance_matrix(ctx.graph, ctx.dist, 1)
    e_star = [dense_diagonal(e) for e in ctx.E_star]
    a_star = [dense_diagonal(a) for a in ctx.A_star]
    images, relators = [], []
    for label, name, m, expected, idem, relator_name in (
        ("A", "adjacency", adjacency, distance_matrices(ctx), dense_idempotents(ctx),
         "relator_annihilates_middle_idempotents"),
        ("A*", "dual_adjacency", dense_diagonal(ctx.dual_adjacency_row), a_star, e_star,
         "dual_relator_annihilates_middle_dual_idempotents"),
    ):
        values = poly_eval_matrix(fs + relator, m)
        expected += [zero] * (len(fs) - len(expected))
        pairs = enumerate(zip(values, expected))
        bad = next((i for i, (got, want) in pairs if got != want), None)
        witness = None if bad is None else f"F_{bad}({label})"
        images.append(Check(f"krawtchouk_images_of_{name}", bad is None, witness))
        if relator:
            image = values[-1] @ (ident - idem[0] - idem[d])
            relators.append(Check(relator_name, image.is_zero()))
    return images + relators
