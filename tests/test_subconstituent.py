"""Tests for algebra contexts and their identity checks."""

import dataclasses
import json
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from click.testing import CliRunner

from terwalg import _intops, echelon, subconstituent
from terwalg.checks import Check
from terwalg.echelon import EchelonSpan
from terwalg.cli import main
from terwalg.graphs import (
    DistanceData,
    Graph,
    hypercube,
    parse_graph_file,
)
from terwalg.hypercube import HypercubeParams
from terwalg.idempotent import diagonal_table
from terwalg.linalg import RationalMatrix, inverse, min_poly
from terwalg.subconstituent import (
    _assemble,
    build_context,
    build_hypercube_context,
    check_krein_self_dual,
    check_polynomial_images,
    check_section_identities,
    check_triple_products,
    dual_triple_zeros,
    triple_span_dim,
    VerificationError,
)
from terwalg import verify
from terwalg.verify import build_graph_report, run_verification

import section_oracles
import test_graphs
from dense_views import (
    dense_class_matrix,
    dense_diagonal,
    dense_idempotents,
    distance_matrix,
    matrix_min_poly,
)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def johnson(v, k):
    """Johnson graph J(v, k): k-subsets, adjacent when they share k-1 points."""
    verts = list(combinations(range(v), k))
    edges = [
        (a, b)
        for (a, sa), (b, sb) in combinations(enumerate(verts), 2)
        if len(set(sa) & set(sb)) == k - 1
    ]
    return Graph.from_edges(len(verts), edges)


# Kneser graph K(5,2): vertices are the 2-subsets of {0..4} in lexicographic
# order ({0,1}, {0,2}, ..., {3,4}), adjacent when disjoint.
PETERSEN_EDGES = [
    (0, 7), (0, 8), (0, 9), (1, 5), (1, 6), (1, 9), (2, 4), (2, 6),
    (2, 8), (3, 4), (3, 5), (3, 7), (4, 9), (5, 8), (6, 7),
]


@pytest.fixture(scope="module")
def contexts():
    return {d: build_hypercube_context(d) for d in range(0, 5)}


def test_degenerate_diameter_zero(contexts):
    ctx = contexts[0]
    assert ctx.n == 1
    assert ctx.A.is_zero()
    assert ctx.dual_adjacency_row.is_zero()
    assert [g.shape for g in ctx.generators()] == [(1, 1), (1, 1)]
    assert ctx.algebra_basis().dim == 1


def test_frozen_small_matrices(contexts):
    ctx = contexts[1]
    half = Fraction(1, 2)
    assert ctx.E[0].dense_rows() == [[half, half]]
    assert ctx.E[1].dense_rows() == [[half, -half]]
    assert ctx.class_matrix(ctx.E[0]).dense_rows() == [[half, half], [half, half]]
    assert ctx.class_matrix(ctx.E[1]).dense_rows() == [[half, -half], [-half, half]]
    assert ctx.dual_adjacency_row == RationalMatrix([[1, -1]])
    assert ctx.A_star[1] == RationalMatrix([[1, -1]])
    assert ctx.E_star[1] == RationalMatrix([[0, 1]])


def test_dual_side_is_held_as_diagonals(contexts):
    # Every E*_i and A*_i is a 1 x n row, and the generators hand A* on as
    # its row: only A is built dense.
    for ctx in contexts.values():
        for m in ctx.E_star + ctx.A_star:
            assert m.shape == (1, ctx.n)
        a, a_star = ctx.generators()
        assert a == ctx.A and a_star == ctx.dual_adjacency_row
        assert a_star.shape == (1, ctx.n)
        if ctx.d >= 1:
            assert a_star == ctx.A_star[1]


def test_idempotents_are_held_as_class_rows(contexts):
    # Every E_i is a 1 x (d+1) class row, and no field holds an n x n
    # matrix: A and every E_i are built from dist on request.
    for ctx in contexts.values():
        for e in ctx.E:
            assert e.shape == (1, ctx.d + 1)
            assert ctx.class_matrix(e) == dense_class_matrix(ctx, e)
        assert ctx.A == distance_matrix(ctx.graph, ctx.dist, 1)
        # The eigenmatrices P and Q are the (d+1)-sized tables; every other
        # held matrix is a row.
        assert ctx.P.shape == ctx.Q.shape == (ctx.d + 1, ctx.d + 1)
        held = []
        for field in dataclasses.fields(ctx):
            if field.name in ("P", "Q"):
                continue
            value = getattr(ctx, field.name)
            held += value if isinstance(value, tuple) else [value]
        assert all(m.nrows == 1 for m in held if isinstance(m, RationalMatrix))
        assert "A_dist" not in {field.name for field in dataclasses.fields(ctx)}


def test_eigenvalue_sequences(contexts):
    ctx = contexts[4]
    assert list(ctx.theta) == [4, 2, 0, -2, -4]
    assert list(ctx.theta_star) == [4, 2, 0, -2, -4]
    assert ctx.valencies == (1, 4, 6, 4, 1)
    assert ctx.dual_valencies == ctx.valencies  # self-dual


def test_section_identities(contexts):
    for d in range(0, 5):
        checks = check_section_identities(contexts[d])
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
        assert contexts[d].section_checks == tuple(checks)


def test_section_identities_run_once_per_context(monkeypatch):
    # Wrap check_section_identities wherever terwalg binds it and record
    # the diameter of every context it is called on.
    seen = []
    original = subconstituent.check_section_identities

    def counted(ctx):
        seen.append(ctx.d)
        return original(ctx)

    for name, module in list(sys.modules.items()):
        if name == "terwalg" or name.startswith("terwalg."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)

    report = run_verification(3)
    assert report.overall == "pass"
    assert sorted(seen) == [0, 1, 2, 3]

    seen.clear()
    data, ok = build_graph_report(Graph.from_edges(10, PETERSEN_EDGES))
    assert ok
    assert seen == [2]
    assert [c["name"] for c in data["checks"]][:2] == [
        "distance_matrices_partition",
        "distance_zero_is_identity",
    ]


def test_construction_rejects_failed_identity(contexts):
    ctx = contexts[3]
    # E_i is column i of Q over |X|: swapping columns 1 and 2 swaps E_1, E_2.
    Q = RationalMatrix(ctx.Q.num[:, [0, 2, 1, 3]], ctx.Q.den)
    with pytest.raises(VerificationError) as info:
        _assemble(ctx.graph, ctx.dist, ctx.x, ctx.P, Q, ctx.p_table, ctx.params)
    message = str(info.value)
    assert message.startswith("construction identities failed: ")
    assert "adjacency_spectral_decomposition (None)" in message
    assert "idempotents_sum_to_identity" not in message


def test_triple_products(contexts):
    for d in range(1, 5):
        rep = check_triple_products(contexts[d])
        assert rep.total == (d + 1) ** 3
        assert rep.passed, rep.mismatches[:3]


def test_krein_self_duality(contexts):
    for d in range(1, 5):
        assert check_krein_self_dual(contexts[d]).passed


def test_krein_frozen_values(contexts):
    krein = section_oracles.krein_fractions(contexts[2])
    assert krein[1][1][1] == 0
    assert krein[2][1][1] == 2


def test_triple_span_dimension(contexts):
    assert triple_span_dim(contexts[2]) == 10
    assert triple_span_dim(contexts[3]) == 20


def test_polynomial_images(contexts):
    for d in range(0, 5):
        checks = check_polynomial_images(contexts[d])
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


RELATOR_CHECKS = (
    "relator_annihilates_middle_idempotents",
    "dual_relator_annihilates_middle_dual_idempotents",
)


def _relator_checks(checks):
    """The relator checks among the polynomial-layer checks."""
    return [c for c in checks if c.name in RELATOR_CHECKS]


def test_relator_images(contexts):
    # Read off the spectral decompositions; the literal dense product
    # phi_(d-2)(M) (I - F_0 - F_d) is the oracle.
    for d in range(2, 5):
        checks = _relator_checks(check_polynomial_images(contexts[d]))
        assert [c.name for c in checks] == list(RELATOR_CHECKS)
        assert all(c.passed for c in checks)
        assert checks == _relator_checks(section_oracles.check_polynomial_images_dense(contexts[d]))
    assert _relator_checks(check_polynomial_images(contexts[1])) == []
    assert _relator_checks(section_oracles.check_polynomial_images_dense(contexts[1])) == []


def test_polynomial_images_check_order(contexts):
    names = [c.name for c in check_polynomial_images(contexts[3])]
    assert names == [
        "krawtchouk_images_of_adjacency",
        "krawtchouk_images_of_dual_adjacency",
        "minimal_polynomial_of_adjacency",
        "minimal_polynomial_of_dual_adjacency",
        *RELATOR_CHECKS,
    ]


def test_polynomial_images_form_no_matrix_product(monkeypatch):
    # q(M) = sum_j q(theta_j) F_j: no power of A or A* and no product of
    # matrices is formed.
    cases = [build_hypercube_context(d, (1 << d) - 1) for d in range(0, 7)]
    want = [check_polynomial_images(ctx) for ctx in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("matrix product formed")

    monkeypatch.setattr(RationalMatrix, "__matmul__", refuse)
    monkeypatch.setattr(subconstituent, "exact_matmul", refuse)
    for ctx, checks in zip(cases, want):
        assert check_polynomial_images(ctx) == checks, ctx.d
        assert all(c.passed for c in checks), ctx.d


def _tampered(ctx, field, i):
    """ctx with entry (0, 0) of the row field[i] raised by one: the class-0
    value of a class row, the vertex-0 entry of a held diagonal."""
    mats = list(getattr(ctx, field))
    num = mats[i].num.astype(object)
    num[0, 0] += mats[i].den
    mats[i] = RationalMatrix(num, mats[i].den)
    return dataclasses.replace(ctx, **{field: tuple(mats)})


def test_polynomial_images_fail_on_tampered_context(contexts):
    for d in range(2, 5):
        ctx = contexts[d]
        for i in range(d + 1):
            checks = check_polynomial_images(_tampered(ctx, "A_star", i))
            check = next(c for c in checks if c.name == "krawtchouk_images_of_dual_adjacency")
            assert not check.passed, (d, i)
            assert check.witness == f"F_{i}(A*)", (d, i)
            # A shifted class row of E_i breaks sum_j E_j = I = F_0(A).
            checks = check_polynomial_images(_tampered(ctx, "E", i))
            check = next(c for c in checks if c.name == "krawtchouk_images_of_adjacency")
            assert not check.passed, (d, i)
            assert check.witness == "F_0(A)", (d, i)


def test_polynomial_images_identical_on_the_object_path(monkeypatch):
    # With the int64 bound at 1 every nonzero scaling and difference in the
    # identities crosses to object arithmetic.
    cases = [build_hypercube_context(d, 1) for d in range(2, 7)]
    expected = [check_polynomial_images(ctx) for ctx in cases]
    converted = []
    real_to_object = _intops.to_object

    def counting(arr):
        converted.append(arr.dtype != object)
        return real_to_object(arr)

    monkeypatch.setattr(_intops, "INT64_SAFE", 1)
    monkeypatch.setattr(echelon, "INT64_SAFE", 1)
    monkeypatch.setattr(_intops, "to_object", counting)
    for ctx, checks in zip(cases, expected):
        assert check_polynomial_images(ctx) == checks, ctx.d
        assert all(c.passed for c in checks), ctx.d
    assert any(converted)


IMAGE_AND_RELATOR_CHECKS = (
    "krawtchouk_images_of_adjacency",
    "krawtchouk_images_of_dual_adjacency",
    *RELATOR_CHECKS,
)


def _images_and_relators(ctx):
    """The checks of check_polynomial_images that the dense oracle forms."""
    return [c for c in check_polynomial_images(ctx) if c.name in IMAGE_AND_RELATOR_CHECKS]


def _respectraled(ctx):
    """ctx with one eigenvalue of A or of A* moved (by 1/2, so the rebuilt
    generator is not integral) or merged, and A* rebuilt from it, so the
    spectral premise still holds (for A, see _spectral_adjacency)."""
    theta, theta_star = list(ctx.theta), list(ctx.theta_star)
    for label, old in (("theta", theta), ("theta*", theta_star)):
        moved = [old[0] + Fraction(1, 2)] + old[1:]
        merged = [old[1]] + old[1:]
        for change, new in (("moved", moved), ("merged", merged)):
            spectra = (new, theta_star) if label == "theta" else (theta, new)
            yield f"{label}_0 {change}", _respectral(ctx, *spectra)


def test_polynomial_images_match_dense_evaluation():
    # The spectral evaluation q(M) = sum_j q(theta_j) F_j of both halves
    # against poly_eval_matrix on the dense A and np.diag(A*), verdicts and
    # witnesses alike.  A context with a changed theta is evaluated at
    # M = sum theta_j E_j.
    for d in range(1, 8):
        for x in (0, (1 << d) - 1):
            ctx = build_hypercube_context(d, x)
            tampers = [
                (f"A_star[{i}] entry", _tampered(ctx, "A_star", i))
                for i in range(d + 1)
                if i != 1
            ]
            respectraled = list(_respectraled(ctx)) if d <= 4 else []
            for change, case in [("as built", ctx), *tampers, *respectraled]:
                got = _images_and_relators(case)
                adjacency = _spectral_adjacency(case) if change.startswith("theta") else None
                want = section_oracles.check_polynomial_images_dense(case, adjacency)
                assert got == want, (d, x, change)
                if change == "as built" or "entry" in change:
                    assert all(c.passed for c in got) == (change == "as built"), (d, x, change)
            # Tampering A*_1 tampers the generator A* itself and breaks
            # A* = sum theta*_j E*_j: both fail, the spectral check at F_1(A*)
            # (the untampered A* against the tampered A*_1), the dense one
            # at a higher F_i.
            stars = list(ctx.A_star)
            stars[1] = stars[1] * 2
            doubled = dataclasses.replace(ctx, A_star=tuple(stars))
            for change, case in (("A*_1 entry", _tampered(ctx, "A_star", 1)), ("2 A*_1", doubled)):
                got = _images_and_relators(case)[1]
                want = section_oracles.check_polynomial_images_dense(case)[1]
                assert not got.passed and not want.passed, (d, x, change)
                assert got.witness == "F_1(A*)", (d, x, change)
                if change == "A*_1 entry":
                    assert want.witness == "F_2(A*)", (d, x, change)


def _minimal_checks(ctx):
    names = ("minimal_polynomial_of_adjacency", "minimal_polynomial_of_dual_adjacency")
    return [c for c in check_polynomial_images(ctx) if c.name in names]


def _min_poly_oracle(ctx, adjacency):
    """The minimal-polynomial checks as matrix_min_poly of the given A and
    of A* at width n^2."""
    phi = ctx.params.phi
    out = []
    a_star = dense_diagonal(ctx.dual_adjacency_row)
    for g, name in ((adjacency, "adjacency"), (a_star, "dual_adjacency")):
        mp = matrix_min_poly(g)
        witness = None if mp == phi else f"{mp} != {phi}"
        out.append(Check(f"minimal_polynomial_of_{name}", mp == phi, witness))
    return out


def _respectral(ctx, theta, theta_star):
    """ctx with new eigenvalues, and A* = sum theta*_i E*_i rebuilt from
    them.  The context reads A off dist; the dense oracles take
    _spectral_adjacency(ctx) in its place, so the spectral premise holds."""
    a_star = sum((e * t for e, t in zip(ctx.E_star, theta_star)), RationalMatrix.zeros(1, ctx.n))
    stars = list(ctx.A_star)
    stars[1] = a_star
    return dataclasses.replace(
        ctx, theta=tuple(theta), theta_star=tuple(theta_star), A_star=tuple(stars)
    )


def _spectral_adjacency(ctx):
    """sum theta_i E_i as a dense n x n matrix."""
    terms = zip(dense_idempotents(ctx), ctx.theta)
    return sum((e * t for e, t in terms), RationalMatrix.zeros(ctx.n, ctx.n))


def test_minimal_polynomials_match_min_poly_oracle(contexts):
    cases = [(f"d={d}", contexts[d]) for d in range(0, 5)]
    cases += [(f"d=5 x={x}", build_hypercube_context(5, x)) for x in (0, 31)]
    for name, ctx in cases:
        assert _minimal_checks(ctx) == _min_poly_oracle(ctx, ctx.A), name
    # Tampered spectra: one eigenvalue moved, and two made equal, so the
    # minimal polynomial has one factor fewer.
    for d in range(1, 5):
        ctx = contexts[d]
        theta, theta_star = list(ctx.theta), list(ctx.theta_star)
        moved = [theta[0] + 1] + theta[1:]
        merged = [theta[1]] + theta[1:]
        for new, new_star in (
            (moved, theta_star), (theta, moved), (merged, theta_star), (theta, merged)
        ):
            case = _respectral(ctx, new, new_star)
            got = _minimal_checks(case)
            assert got == _min_poly_oracle(case, _spectral_adjacency(case)), (d, new, new_star)
            assert [c.passed for c in got] == [new == theta, new_star == theta_star]


def test_idempotents_and_dual_distance_matrices_are_canonical(monkeypatch):
    # Built in lowest terms from d+1 class values (E_i) or n diagonal
    # entries (A*_i): equal, dtype included, to the canonicalized rows and
    # matrices that the n^2 gcd gave.
    cases = [(f"cube d={d}", build_hypercube_context(d, (1 << d) - 1)) for d in range(0, 8)]
    cases += [(name, build_context(g, x)) for name, g, x in _oracle_graphs()]
    cases += list(_benchmark_graph_contexts(monkeypatch))
    for name, ctx in cases:
        dist = ctx.dist.dist
        for i, (Ei, Ai_star) in enumerate(zip(ctx.E, ctx.A_star)):
            col = [row[i] for row in ctx.Q.dense_rows()]
            common = int(np.lcm.reduce([q.denominator for q in col]))
            nums = np.array([int(q * common) for q in col], dtype=object)
            den = ctx.n * common
            want_row = RationalMatrix(nums[None], den)
            want_e = RationalMatrix(nums[dist], den)
            want_star = RationalMatrix(nums[dist[ctx.x]][None] * ctx.n, den)
            for got, want in (
                (Ei, want_row), (ctx.class_matrix(Ei), want_e), (Ai_star, want_star)
            ):
                assert got == want, (name, i)
                assert got.num.dtype == want.num.dtype, (name, i)


def test_relator_images_match_dense_products(contexts):
    # A middle eigenvalue moved fails its own relator and leaves the other;
    # theta_0 moved leaves both: phi(M) (I - F_0 - F_d) does not see it.
    for d in range(2, 5):
        ctx = contexts[d]
        theta, theta_star = list(ctx.theta), list(ctx.theta_star)
        middle = d // 2
        cases = [(ctx, [True, True])]
        for side, old in enumerate((theta, theta_star)):
            for j, expected in ((middle, False), (0, True)):
                new = old[:j] + [old[j] + 1] + old[j + 1:]
                spectra = (new, theta_star) if side == 0 else (theta, new)
                want = [True, True]
                want[side] = expected
                cases.append((_respectral(ctx, *spectra), want))
        for case, expected in cases:
            got = _relator_checks(check_polynomial_images(case))
            dense = section_oracles.check_polynomial_images_dense(case, _spectral_adjacency(case))
            oracle = _relator_checks(dense)
            assert got == oracle, d
            assert [c.passed for c in got] == expected, d


def test_vertex_choice_is_immaterial(contexts):
    moved = build_hypercube_context(3, x=5)
    assert moved.x == 5
    assert moved.algebra_basis().dim == 20
    assert check_triple_products(moved).passed
    assert triple_span_dim(moved) == 20


def test_vertex_out_of_range():
    with pytest.raises(ValueError):
        build_hypercube_context(2, x=4)


def test_general_path_six_cycle():
    ctx = build_context(cycle(6))
    assert ctx.d == 3
    assert [int(t) for t in ctx.theta] == [2, 1, -1, -2]
    assert all(c.passed for c in check_section_identities(ctx))
    assert check_triple_products(ctx).passed
    assert ctx.algebra_basis().dim == 20


def test_general_path_rejects_non_distance_regular():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="not distance-regular"):
        build_context(g)


def test_general_path_rejects_irrational_spectrum():
    with pytest.raises(ValueError, match="irrational"):
        build_context(cycle(5))


def _b1(g):
    """The counted intersection matrix B_1[h, j] = p^h_1j, as build_context
    reads it, and the diameter."""
    dd = DistanceData.compute(g)
    p = subconstituent._intersection_numbers(g, dd, 0)
    b1 = p[:, 1, :] if dd.diameter >= 1 else np.zeros((1, 1), dtype=np.int64)
    return RationalMatrix(b1), dd.diameter


def test_e0_is_a_cyclic_vector_of_b1():
    # B_1[j+1, j] = c_(j+1) != 0, so the annihilator of e_0 is the minimal
    # polynomial of B_1, of degree d + 1.
    cases = [
        ("Petersen", test_graphs.kneser(5, 2)),
        ("H(3,3)", test_graphs.hamming(3, 3)),
        ("C_6", test_graphs.cycle(6)),
        ("J(6,3)", test_graphs.johnson(6, 3)),
    ]
    cases += [(f"Q_{d}", hypercube(d)) for d in range(7)]
    for name, g in cases:
        b1, d = _b1(g)
        mp = min_poly(b1, [1] + [0] * d)
        assert mp == matrix_min_poly(b1), name
        assert mp.degree == d + 1, name
    for name, g in (("C_5", test_graphs.cycle(5)), ("C_7", test_graphs.cycle(7))):
        b1, d = _b1(g)
        with pytest.raises(ValueError) as got:
            build_context(g)
        assert str(got.value) == (
            "adjacency matrix has an irrational eigenvalue: minimal polynomial "
            f"{matrix_min_poly(b1)} does not split over the integers"
        ), name


def test_polynomial_images_require_hypercube():
    ctx = build_context(cycle(6))
    with pytest.raises(ValueError):
        check_polynomial_images(ctx)


def test_general_path_petersen_triple_products():
    # Petersen is not formally self-dual: the primal and dual zero patterns
    # differ, and each must match its own parameter table.
    ctx = build_context(Graph.from_edges(10, PETERSEN_EDGES))
    assert ctx.d == 2
    assert [int(t) for t in ctx.theta] == [3, 1, -2]
    assert check_triple_products(ctx).passed
    assert int(ctx.p_table[1, 1, 1]) == 0
    assert section_oracles.krein_fractions(ctx)[1][1][1] != 0
    e1 = dense_class_matrix(ctx, ctx.E[1])
    assert not (e1 @ dense_diagonal(ctx.A_star[1]) @ e1).is_zero()
    e1_star = dense_diagonal(ctx.E_star[1])
    assert (e1_star @ ctx.A @ e1_star).is_zero()


def test_graph_command_petersen(tmp_path):
    path = tmp_path / "petersen.txt"
    lines = ["10 15"] + [f"{u} {v}" for u, v in PETERSEN_EDGES]
    path.write_text("\n".join(lines) + "\n")
    result = CliRunner().invoke(main, ["graph", "--file", str(path), "--format", "json"])
    assert result.exit_code == 0, result.output
    assert all(c["pass"] for c in json.loads(result.output)["checks"])


def _literal_dual_zeros(ctx):
    """Zero pattern of E_h A_i* E_j from the two literal dense products."""
    d = ctx.d
    nums = [e.num for e in dense_idempotents(ctx)]
    stars = [dense_diagonal(a).num for a in ctx.A_star]
    big_e = max(int(np.abs(m).max()) for m in nums)
    big_star = max(int(np.abs(m).max()) for m in stars)
    # Plain int64 products are exact below this bound.
    assert ctx.n**2 * big_e**2 * big_star < 2**63
    zeros = np.zeros((d + 1,) * 3, dtype=bool)
    for h in range(d + 1):
        for i in range(d + 1):
            left = nums[h] @ stars[i]
            for j in range(d + 1):
                zeros[h, i, j] = not (left @ nums[j]).any()
    return zeros


def _differential_contexts():
    for d in range(1, 6):
        for x in (0, (1 << d) - 1):
            yield f"cube d={d} x={x}", build_hypercube_context(d, x)
    yield "petersen", build_context(Graph.from_edges(10, PETERSEN_EDGES), 3)
    yield "J(6,3)", build_context(johnson(6, 3), 7)


def _dense_triple_span_dim(ctx):
    """Reference: each E_h* A_i E_j* as an n x n matrix, at width n^2."""
    n = ctx.n
    span = EchelonSpan(n * n)
    e_star = [dense_diagonal(e) for e in ctx.E_star]
    for Eh in e_star:
        for Ai in section_oracles.distance_matrices(ctx):
            for Ej in e_star:
                span.add((Eh @ Ai @ Ej).num.ravel())
    return span.dim


def test_triple_span_dim_matches_dense_span():
    cubes = [
        (f"cube d={d} x={x}", build_hypercube_context(d, x))
        for d in range(1, 7)
        for x in (1, (1 << d) - 2)
    ]
    for name, ctx in [*_differential_contexts(), *cubes]:
        assert triple_span_dim(ctx) == _dense_triple_span_dim(ctx), name


def test_dual_triple_zeros_match_literal_products():
    for name, ctx in _differential_contexts():
        zeros = dual_triple_zeros(ctx)
        assert zeros.shape == (ctx.d + 1,) * 3, name
        assert np.array_equal(zeros, _literal_dual_zeros(ctx)), name


def test_differential_graphs_are_not_formally_self_dual():
    # The zero patterns of p and of Krein differ, so the dual flags are
    # checked against their own table and not a copy of the primal one.
    for g in (Graph.from_edges(10, PETERSEN_EDGES), johnson(6, 3)):
        ctx = build_context(g)
        d = ctx.d
        krein = section_oracles.krein_fractions(ctx)
        krein_zero = np.array(
            [[[krein[h][i][j] == 0 for j in range(d + 1)] for i in range(d + 1)]
             for h in range(d + 1)]
        )
        assert not np.array_equal(ctx.p_table == 0, krein_zero)
        assert np.array_equal(dual_triple_zeros(ctx), krein_zero)


def test_triple_products_reject_dual_matrix_not_constant_on_sphere(contexts):
    ctx = contexts[3]
    diag = ctx.A_star[2].num.copy()
    y = int(ctx.spheres[1][0])  # sphere S_1 has three vertices
    diag[0, y] += 1
    bad_star = ctx.A_star[:2] + (RationalMatrix(diag),) + ctx.A_star[3:]
    bad = dataclasses.replace(ctx, A_star=bad_star)
    with pytest.raises(VerificationError, match="A\\*_2 is not constant on sphere S_1"):
        check_triple_products(bad)


def test_held_diagonals_name_the_first_row_then_its_first_vertex(contexts):
    # Row 2 breaks on S_2 at vertex 5 and on S_1 at vertex 4, row 3 on S_2:
    # the witness is row 2 at vertex 4, for dual_triple_zeros and for
    # diagonal_table alike.
    ctx = contexts[3]
    s1, s2 = ctx.spheres[1].tolist(), ctx.spheres[2].tolist()
    assert (s1, s2) == ([1, 2, 4], [3, 5, 6])
    diags = np.array([a.num[0] for a in ctx.A_star])
    for i, y in ((3, 6), (2, 5), (2, 4)):
        diags[i, y] += 1
    bad = dataclasses.replace(ctx, A_star=tuple(RationalMatrix(row[None]) for row in diags))
    with pytest.raises(VerificationError, match="^A\\*_2 is not constant on sphere S_1$"):
        check_triple_products(bad)
    with pytest.raises(VerificationError, match="^diagonal is not constant on sphere S_1$"):
        diagonal_table(ctx, RationalMatrix(diags[2][None]))


# -- dense oracles for the section identities and triple-product flags --------


def _oracle_orthogonal(ctx):
    """idempotents_orthogonal from all (d+1)^2 dense products E_i E_j."""
    zero = RationalMatrix.zeros(ctx.n, ctx.n)
    E = dense_idempotents(ctx)
    for i, Ei in enumerate(E):
        for j, Ej in enumerate(E):
            if Ei @ Ej != (Ei if i == j else zero):
                return Check("idempotents_orthogonal", False, f"E_{i} E_{j}")
    return Check("idempotents_orthogonal", True)


def _oracle_dual_orthogonal(ctx):
    """dual_idempotents_orthogonal from all (d+1)^2 dense products E*_i E*_j."""
    zero = RationalMatrix.zeros(ctx.n, ctx.n)
    e_star = [dense_diagonal(e) for e in ctx.E_star]
    for i, Ei in enumerate(e_star):
        for j, Ej in enumerate(e_star):
            if Ei @ Ej != (Ei if i == j else zero):
                return Check("dual_idempotents_orthogonal", False, f"E*_{i} E*_{j}")
    return Check("dual_idempotents_orthogonal", True)


def _oracle_krein(ctx):
    """krein_expansion_of_hadamard_products, one RationalMatrix sum per (i, j)."""
    n = ctx.n
    E = dense_idempotents(ctx)
    krein = section_oracles.krein_fractions(ctx)
    for i, Ei in enumerate(E):
        for j, Ej in enumerate(E):
            acc = RationalMatrix.zeros(n, n)
            for h, Eh in enumerate(E):
                acc = acc + Eh * (krein[h][i][j] * Fraction(1, n))
            if Ei.hadamard(Ej) != acc:
                return Check(
                    "krein_expansion_of_hadamard_products", False, f"E_{i} o E_{j}"
                )
    return Check("krein_expansion_of_hadamard_products", True)


def _oracle_primal_zeros(ctx):
    """Zero pattern of E_h* A_i E_j*, one sphere-block comparison per triple."""
    d = ctx.d
    dist = ctx.dist.dist
    zeros = np.zeros((d + 1,) * 3, dtype=bool)
    for h, sph_h in enumerate(ctx.spheres):
        for i in range(d + 1):
            for j, sph_j in enumerate(ctx.spheres):
                zeros[h, i, j] = not (dist[np.ix_(sph_h, sph_j)] == i).any()
    return zeros


def _assert_matches_oracles(ctx, name):
    checks = {c.name: c for c in check_section_identities(ctx)}
    assert checks["idempotents_orthogonal"] == _oracle_orthogonal(ctx), name
    assert checks["krein_expansion_of_hadamard_products"] == _oracle_krein(ctx), name
    assert checks["dual_idempotents_orthogonal"] == _oracle_dual_orthogonal(ctx), name
    return checks


def _with_E(ctx, h, Eh):
    return dataclasses.replace(ctx, E=ctx.E[:h] + (Eh,) + ctx.E[h + 1:])


def _negative_bases():
    yield "cube d=3", build_hypercube_context(3, 5)
    yield "petersen", build_context(Graph.from_edges(10, PETERSEN_EDGES), 3)


def test_section_identities_match_dense_oracles():
    for name, ctx in _differential_contexts():
        checks = _assert_matches_oracles(ctx, name)
        assert all(c.passed for c in checks.values()), name


def test_triple_product_flags_match_oracles():
    for name, ctx in _differential_contexts():
        assert np.array_equal(
            ctx.triple_counts == 0, _oracle_primal_zeros(ctx)
        ), name
        assert np.array_equal(dual_triple_zeros(ctx), _literal_dual_zeros(ctx)), name


def test_swapped_idempotents_are_orthogonal_but_mislabelled():
    for name, ctx in _negative_bases():
        E = list(ctx.E)
        E[1], E[2] = E[2], E[1]
        checks = _assert_matches_oracles(dataclasses.replace(ctx, E=tuple(E)), name)
        assert checks["idempotents_orthogonal"].passed, name
        assert not checks["adjacency_spectral_decomposition"].passed, name


def test_perturbed_idempotent_matches_oracles():
    # A +-1 change to one class value of E_h, on the diagonal class 0 and
    # off it, for every h.
    for name, ctx in _negative_bases():
        for h in range(ctx.d + 1):
            for a, delta in ((0, -1), (1, 1), (ctx.d, -1)):
                bad = _with_class_value(ctx, h, a, delta)
                checks = _assert_matches_oracles(bad, f"{name} h={h} a={a}")
                assert not checks["idempotents_orthogonal"].passed
                assert not checks["krein_expansion_of_hadamard_products"].passed


def test_scaled_idempotent_is_not_orthogonal():
    # 2 E_h still satisfies A (2 E_h) = theta_h (2 E_h) on both sides and is
    # orthogonal to every other E_i, but (2 E_h)^2 = 4 E_h.
    for name, ctx in _negative_bases():
        for h, Eh in enumerate(ctx.E):
            checks = _assert_matches_oracles(_with_E(ctx, h, Eh * 2), f"{name} h={h}")
            assert not checks["idempotents_sum_to_identity"].passed
            assert checks["idempotents_orthogonal"].witness == f"E_{h} E_{h}"


def _with_E_star(ctx, h, Eh):
    return dataclasses.replace(ctx, E_star=ctx.E_star[:h] + (Eh,) + ctx.E_star[h + 1:])


def _tampered_dual_idempotents(ctx):
    """Changed E*_h, each with the name of the change."""
    for h, Eh in enumerate(ctx.E_star):
        yield f"2 E*_{h}", _with_E_star(ctx, h, Eh * 2)
        yield f"E*_{h} / 2", _with_E_star(ctx, h, Eh * Fraction(1, 2))
        # One more diagonal 1, on a vertex of the next sphere: overlaps E*_(h+1).
        y = int(ctx.spheres[(h + 1) % len(ctx.spheres)][0])
        num = Eh.num.copy()
        num[0, y] = 1
        yield f"E*_{h} + e_{y}", _with_E_star(ctx, h, RationalMatrix(num))
    E = list(ctx.E_star)
    E[0], E[-1] = E[-1], E[0]
    yield "swapped E*_0, E*_d", dataclasses.replace(ctx, E_star=tuple(E))


def test_tampered_dual_idempotents_match_dense_oracle():
    for name, ctx in _negative_bases():
        for change, bad in _tampered_dual_idempotents(ctx):
            checks = _assert_matches_oracles(bad, f"{name}: {change}")
            verdict = checks["dual_idempotents_orthogonal"]
            assert verdict.passed == change.startswith("swapped"), (name, change)


def test_dual_orthogonality_reads_only_diagonals(monkeypatch):
    # Diagonal E*_i form no n x n product: a RationalMatrix product raises.
    ctx = build_hypercube_context(4, 3)

    def refuse(self, other):
        raise AssertionError("dense product formed")

    monkeypatch.setattr(RationalMatrix, "__matmul__", refuse)
    assert subconstituent._dual_orthogonality_witness(ctx.E_star) is None
    bad = ctx.E_star[:2] + (ctx.E_star[2] * 2,) + ctx.E_star[3:]
    assert subconstituent._dual_orthogonality_witness(bad) == "E*_2 E*_2"


def test_checks_identical_on_the_object_path(monkeypatch):
    # With the int64 bound at 1 every nonzero product, Hadamard product and
    # scaling in the checks crosses to object arithmetic.
    cases = list(_differential_contexts())
    expected = [
        (check_section_identities(ctx), dual_triple_zeros(ctx), check_triple_products(ctx))
        for _, ctx in cases
    ]
    monkeypatch.setattr(_intops, "INT64_SAFE", 1)
    monkeypatch.setattr(echelon, "INT64_SAFE", 1)
    for (name, ctx), (checks, dual, report) in zip(cases, expected):
        assert check_section_identities(ctx) == checks, name
        assert np.array_equal(dual_triple_zeros(ctx), dual), name
        assert check_triple_products(ctx) == report, name


# -- the spectral-projector construction, kept as an oracle -------------------


def hamming(d, q):
    """Hamming graph H(d, q): words over q letters, adjacent at distance 1."""
    verts = list(product(range(q), repeat=d))
    edges = [
        (a, b)
        for (a, sa), (b, sb) in combinations(enumerate(verts), 2)
        if sum(s != t for s, t in zip(sa, sb)) == 1
    ]
    return Graph.from_edges(len(verts), edges)


def folded_cube(d):
    """The d-cube with antipodes identified: (d-1)-bit words, adjacent when
    they differ in one bit or in all of them."""
    n = 1 << (d - 1)
    flips = [1 << b for b in range(d - 1)] + [n - 1]
    edges = {(min(u, u ^ f), max(u, u ^ f)) for u in range(n) for f in flips}
    return Graph.from_edges(n, sorted(edges))


def _projector_context(g, x):
    """The context from the spectral projectors of A.

    E_i = prod_(j != i) (A - theta_j I) / (theta_i - theta_j) with theta the
    integer roots of matrix_min_poly(A), and P[i][j] read off
    A_j E_i = P[i][j] E_i.
    Each E_i is asserted to be a class function before its class row is
    read off row x.
    """
    dd = DistanceData.compute(g)
    ok, result = section_oracles.dense_distance_regularity(dd)
    if not ok:
        h, i, j, pair_a, count_a, pair_b, count_b = result
        raise ValueError(
            f"graph is not distance-regular: (h,i,j)=({h},{i},{j}) gives "
            f"{count_a} for pair {pair_a} but {count_b} for pair {pair_b}"
        )
    d = dd.diameter
    n = g.n
    A_dist = tuple(distance_matrix(g, dd, j) for j in range(d + 1))
    A = A_dist[1] if d >= 1 else RationalMatrix.zeros(n, n)
    mp = matrix_min_poly(A)
    k = max(len(nb) for nb in g.neighbors)
    theta = [t for t in range(k, -k - 1, -1) if mp.eval_scalar(t) == 0]
    if len(theta) != mp.degree:
        raise ValueError(
            "adjacency matrix has an irrational eigenvalue: minimal polynomial "
            f"{mp} does not split over the integers"
        )
    ident = RationalMatrix.identity(n)
    E = []
    for i, th_i in enumerate(theta):
        proj = ident
        for j, th_j in enumerate(theta):
            if j != i:
                proj = proj @ (A - ident * th_j) * Fraction(1, th_i - th_j)
        E.append(proj)
    P = []
    for Ei in E:
        u, v = (int(t) for t in np.argwhere(Ei.num)[0])
        row = []
        for Aj in A_dist:
            prod = Aj @ Ei
            coeff = prod[u, v] / Ei[u, v]
            assert prod == Ei * coeff
            row.append(coeff)
        P.append(row)
    Pm = RationalMatrix.from_rows(P)
    reps = [int(np.flatnonzero(dd.dist[x] == a)[0]) for a in range(d + 1)]
    rows = []
    for Ei in E:
        v = Ei.num[x, reps]
        assert np.array_equal(Ei.num, v[dd.dist]), "projector is not a class function"
        rows.append(RationalMatrix(v[None], Ei.den))
    # _assemble reads the E_i off Q; the projectors' own class rows replace
    # them, with the section checks run again on those rows.
    ctx = dataclasses.replace(
        _assemble(g, dd, x, Pm, inverse(Pm) * n, result, None), E=tuple(rows)
    )
    return dataclasses.replace(ctx, section_checks=tuple(check_section_identities(ctx)))


def _oracle_graphs():
    yield "C_6", cycle(6), 2
    yield "K_4", Graph.from_edges(4, list(combinations(range(4), 2))), 3
    yield "Q_3", hypercube(3), 5
    yield "Q_4", hypercube(4), 9
    yield "petersen", Graph.from_edges(10, PETERSEN_EDGES), 3
    yield "H(3,3)", hamming(3, 3), 13
    yield "J(6,3)", johnson(6, 3), 7
    yield "folded 5-cube", folded_cube(5), 6


def _rejected_graphs():
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    heawood = [(p, 7 + i) for i, line in enumerate(fano) for p in line]
    yield "P_4", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    yield "prism", Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    yield "house", Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    yield "C_5", cycle(5)
    yield "C_7", cycle(7)
    yield "heawood", Graph.from_edges(14, heawood)


def test_build_context_matches_spectral_projector_oracle():
    for name, g, x in _oracle_graphs():
        ctx = build_context(g, x)
        want = _projector_context(g, x)
        assert np.array_equal(ctx.p_table, want.p_table), name
        assert ctx.theta == want.theta, name
        assert ctx.P == want.P, name
        assert ctx.Q == want.Q, name
        assert ctx.E == want.E, name
        assert ctx.A_star == want.A_star, name
        assert section_oracles.krein_fractions(ctx) == section_oracles.krein_fractions(want), name
        assert ctx.section_checks == want.section_checks, name
        assert all(c.passed for c in ctx.section_checks), name


# Reference Krein table, solved from the n x n Hadamard products E_i o E_j
# one distance class at a time.

def _distance_profile(m: RationalMatrix, classes: Sequence[np.ndarray]):
    """Value of a distance-class-constant matrix on each class.

    Args:
        classes: flat indices of the entries at distance a, for each a.

    Raises:
        VerificationError: if the matrix is not constant on some class.
    """
    prof = []
    flat = m.num.ravel()
    for a, idx in enumerate(classes):
        vals = flat[idx]
        first = int(vals[0])
        if not bool((vals == first).all()):
            raise VerificationError(f"matrix not constant on distance class {a}")
        prof.append(Fraction(first, m.den))
    return prof


def _compute_krein(E: Sequence[RationalMatrix], dist: np.ndarray, d: int):
    """Solve E_i o E_j = |X|^(-1) sum_h krein[h][i][j] E_h exactly.

    E_i o E_j = E_j o E_i, so only i <= j is solved and q^h_ji = q^h_ij is
    mirrored; the matrix-level Krein check compares every (i, j).
    """
    n = E[0].nrows
    flat_dist = dist.ravel()
    classes = [np.flatnonzero(flat_dist == a) for a in range(d + 1)]
    prof_E = [_distance_profile(E[h], classes) for h in range(d + 1)]
    # System matrix: column h is E_h's distance profile.
    sys_rows = [[prof_E[h][a] for h in range(d + 1)] for a in range(d + 1)]
    inv_sys = inverse(RationalMatrix.from_rows(sys_rows))
    krein = [[[Fraction(0)] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(i, d + 1):
            had = E[i].hadamard(E[j])
            prof = _distance_profile(had, classes)
            rhs = RationalMatrix.from_rows([[v] for v in prof])
            coeffs = inv_sys @ rhs
            for h in range(d + 1):
                krein[h][i][j] = krein[h][j][i] = coeffs[h, 0] * n
    return tuple(tuple(tuple(row) for row in layer) for layer in krein)


def test_krein_table_matches_hadamard_product_oracle():
    for d in range(1, 7):
        for x in (0, (1 << d) - 1):
            ctx = build_hypercube_context(d, x)
            want = _compute_krein(dense_idempotents(ctx), ctx.dist.dist, d)
            assert section_oracles.krein_fractions(ctx) == want, (d, x)
    for name, g, x in _oracle_graphs():
        ctx = build_context(g, x)
        want = _compute_krein(dense_idempotents(ctx), ctx.dist.dist, ctx.d)
        assert section_oracles.krein_fractions(ctx) == want, name


def test_build_context_errors_match_spectral_projector_oracle():
    for name, g in _rejected_graphs():
        with pytest.raises(ValueError) as got:
            build_context(g)
        with pytest.raises(ValueError) as want:
            _projector_context(g, 0)
        assert str(got.value) == str(want.value), name
    assert "irrational" in str(got.value)


def test_dual_distance_matrices_match_fraction_diagonals():
    for name, ctx in _differential_contexts():
        for Ei, Ai_star in zip(dense_idempotents(ctx), ctx.A_star):
            row = [int(v) * ctx.n for v in Ei.num[ctx.x]]
            assert Ai_star == RationalMatrix([row], Ei.den), name


def _with_krein(ctx, entries):
    """ctx with 1 added to q^h_ij at each (h, i, j) of entries."""
    krein = ctx.krein.copy()
    for h, i, j in entries:
        krein[h, i, j] += ctx.krein_den
    return dataclasses.replace(ctx, krein=krein)


def test_tampered_krein_table_matches_oracle():
    # The check forms E_i o E_j only for i <= j once the table is symmetric
    # in (i, j).  A one-sided change breaks the symmetry, so the whole table
    # is read and a change at i > j is still found.
    for name, ctx in _negative_bases():
        d = ctx.d
        cases = (
            ([(0, 1, 0)], "E_1 o E_0"),
            ([(1, 0, 1)], "E_0 o E_1"),
            ([(d, 2, 1)], "E_2 o E_1"),
            ([(d, 2, 1), (d, 1, 2)], "E_1 o E_2"),
            ([(0, d, d)], f"E_{d} o E_{d}"),
        )
        for entries, witness in cases:
            checks = _assert_matches_oracles(_with_krein(ctx, entries), f"{name} {entries}")
            got = checks["krein_expansion_of_hadamard_products"]
            assert not got.passed
            assert got.witness == witness


# -- whole-table triple checks against the loops they replaced ---------------


def _parameter_tampers(ctx):
    """Contexts whose p_table or Krein table is changed, each with a name.

    The first zero and the last nonzero entry of each table, in the order
    of (h, i, j), are made nonzero or zero; both tables at once; and, on
    the Krein table, a nonzero entry is raised by 1 without moving a zero.
    """
    zero_p = tuple(int(v) for v in np.argwhere(ctx.p_table == 0)[0])
    some_p = tuple(int(v) for v in np.argwhere(ctx.p_table != 0)[-1])
    zero_q = tuple(int(v) for v in np.argwhere(ctx.krein == 0)[0])
    some_q = tuple(int(v) for v in np.argwhere(ctx.krein != 0)[-1])

    def tampered(field, changes, base=ctx):
        table = getattr(ctx, field).copy()
        for index, value in changes:
            table[index] = value
        return dataclasses.replace(base, **{field: table})

    yield f"p{zero_p} = 1", tampered("p_table", [(zero_p, 1)])
    yield f"p{some_p} = 0", tampered("p_table", [(some_p, 0)])
    yield f"q{zero_q} = 1", tampered("krein", [(zero_q, ctx.krein_den)])
    yield f"q{some_q} = 0", tampered("krein", [(some_q, 0)])
    yield f"q{some_q} + 1", tampered("krein", [(some_q, ctx.krein[some_q] + ctx.krein_den)])
    both = tampered("p_table", [(zero_p, 2)])
    yield "both tables", tampered("krein", [(zero_q, 1), (some_q, 0)], both)


def test_triple_checks_on_tampered_tables_match_the_triple_loops():
    # The whole-table checks name the same mismatches, in the same order,
    # as the loops over every (h, i, j), with Python int indices and bool
    # flags, and the same self-duality verdict and witness.
    for name, ctx in [*_negative_bases(), ("J(6,3)", build_context(johnson(6, 3), 7))]:
        for change, bad in [("as built", ctx), *_parameter_tampers(ctx)]:
            label = f"{name}: {change}"
            got = check_triple_products(bad).mismatches
            assert got == section_oracles.triple_product_mismatches(bad), label
            assert bool(got) == (change != "as built" and not change.endswith("+ 1")), label
            for h, i, j, flags in got:
                assert [type(v) for v in (h, i, j)] == [int] * 3, label
                assert {type(f) for f in flags} == {bool}, label
            assert check_krein_self_dual(bad) == section_oracles.krein_self_dual(bad), label


def test_triple_product_witness_names_python_flags():
    prep = verify._prepare(3, 5)
    bad = _with_krein(prep.ctx, [(0, 1, 2)])
    record = verify._diameter_record(dataclasses.replace(prep, ctx=bad), 4, (2,))
    checks = {c.name: c for c in record.checks}
    assert checks["triple_products_match_parameter_zeros"] == Check(
        "triple_products_match_parameter_zeros",
        False,
        "(h,i,j)=(0,1,2) flags=(True, True, True, False, True)",
    )
    assert checks["krein_table_equals_intersection_table"].witness == "(h,i,j)=(0,1,2): 1 vs 0"


# -- class tables against the dense section checks they replaced -------------


def _benchmark_graph_contexts(monkeypatch):
    """Contexts of the drg-graphs workload's six relabelled graphs."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    for item in workloads.graph_items(7):
        g = parse_graph_file(item["text"])
        yield item["family"].name, build_context(g, item["vertex"])


def _table_contexts(monkeypatch):
    for d in range(0, 8):
        for x in sorted({0, (1 << d) - 1}):
            yield f"cube d={d} x={x}", build_hypercube_context(d, x)
    for name, g, x in _oracle_graphs():
        yield name, build_context(g, x)
    yield from _benchmark_graph_contexts(monkeypatch)


def _assert_matches_dense_code(ctx, name):
    """Every section check, witness included, and both triple-zero arrays
    equal the dense code's."""
    checks = check_section_identities(ctx)
    assert checks == section_oracles.check_section_identities(ctx), name
    assert np.array_equal(
        ctx.triple_counts == 0, section_oracles._primal_triple_zeros(ctx)
    ), name
    assert np.array_equal(
        dual_triple_zeros(ctx), section_oracles.dual_triple_zeros(ctx)
    ), name
    return {c.name: c for c in checks}


def test_class_tables_match_dense_section_checks(monkeypatch):
    for name, ctx in _table_contexts(monkeypatch):
        checks = _assert_matches_dense_code(ctx, name)
        assert all(c.passed for c in checks.values()), name


def _with_class_value(ctx, h, a, delta):
    """ctx with the value of E_h on the class a changed by delta / den."""
    Eh = ctx.E[h]
    v = Eh.num[0].astype(object)
    v[a] += delta
    return _with_E(ctx, h, RationalMatrix(v[None], Eh.den))


def test_class_value_tamper_takes_the_table_failure_branch():
    # A changed class value fails on the class tables, with the verdicts and
    # witnesses of the dense code.
    for name, ctx in _negative_bases():
        for h in range(ctx.d + 1):
            for a in range(ctx.d + 1):
                bad = _with_class_value(ctx, h, a, 1)
                checks = _assert_matches_dense_code(bad, f"{name} h={h} a={a}")
                assert not checks["idempotents_sum_to_identity"].passed
                assert not checks["krein_expansion_of_hadamard_products"].passed


def _tampered_fields(ctx):
    """Shifted, scaled, swapped and moved rows of every kind the checks
    read, and a changed theta."""
    for field in ("E", "E_star", "A_star"):
        for i in range(ctx.d + 1):
            yield f"{field}[{i}] entry", _tampered(ctx, field, i)
    for h in range(ctx.d):
        # The sum stays I, but A (E_(h+1) - E_h) != theta_(h+1) (E_(h+1) - E_h).
        moved = _with_E(ctx, h, ctx.E[h] * 2)
        yield f"E_{h} moved into E_{h + 1}", _with_E(moved, h + 1, ctx.E[h + 1] - ctx.E[h])
    yield "2 E_1", _with_E(ctx, 1, ctx.E[1] * 2)
    E = list(ctx.E)
    E[1], E[2] = E[2], E[1]
    yield "E_1, E_2 swapped", dataclasses.replace(ctx, E=tuple(E))
    stars = list(ctx.A_star)
    stars[1], stars[2] = stars[2], stars[1]
    yield "A*_1, A*_2 swapped", dataclasses.replace(ctx, A_star=tuple(stars))
    yield "theta_0 moved", dataclasses.replace(ctx, theta=(ctx.theta[0] + 1,) + ctx.theta[1:])


def test_tampered_contexts_match_dense_section_checks():
    for name, ctx in _negative_bases():
        for change, bad in _tampered_fields(ctx):
            checks = check_section_identities(bad)
            assert checks == section_oracles.check_section_identities(bad), (name, change)
            assert not all(c.passed for c in checks), (name, change)


# -- the construction certificate --------------------------------------------


def _with_distances(monkeypatch, table):
    """Make DistanceData.compute return the given distance array."""
    table = np.array(table)
    table.flags.writeable = False
    dd = DistanceData(table, int(table.max()))
    monkeypatch.setattr(DistanceData, "compute", classmethod(lambda cls, g: dd))


def _cube_distances(d):
    return DistanceData.compute(hypercube(d)).dist.copy()


def test_construction_rejects_an_asymmetric_distance_array(monkeypatch):
    dist = _cube_distances(3)
    dist[1, 2] = 3  # dist(2, 1) stays 2
    _with_distances(monkeypatch, dist)
    for build in (lambda: build_hypercube_context(3), lambda: build_context(hypercube(3))):
        with pytest.raises(VerificationError, match="^distance array is not symmetric$"):
            build()


def test_construction_rejects_an_off_diagonal_zero_distance(monkeypatch):
    dist = _cube_distances(3)
    dist[1, 2] = dist[2, 1] = 0
    _with_distances(monkeypatch, dist)
    for build in (lambda: build_hypercube_context(3), lambda: build_context(hypercube(3))):
        with pytest.raises(VerificationError, match="^distance-0 class is not the diagonal$"):
            build()


def test_construction_rejects_an_empty_sphere(monkeypatch):
    # No vertex at distance 3 from 0, though other pairs keep diameter 3.
    dist = _cube_distances(3)
    dist[0, 7] = dist[7, 0] = 2
    _with_distances(monkeypatch, dist)
    message = "^sphere S_3 around vertex 0 is empty$"
    for build in (lambda: build_hypercube_context(3), lambda: build_context(hypercube(3))):
        with pytest.raises(VerificationError, match=message):
            build()
    # Around vertex 1, every sphere is nonempty: the counted table rejects it.
    with pytest.raises(ValueError, match="not distance-regular"):
        build_context(hypercube(3), 1)


def test_construction_rejects_a_closed_form_table_that_disagrees(monkeypatch):
    real = HypercubeParams.build

    def wrong(d):
        params = real(d)
        table = params.p_table.copy()
        table[1, 1, 2] += 1
        return dataclasses.replace(params, p_table=table)

    monkeypatch.setattr(HypercubeParams, "build", staticmethod(wrong))
    with pytest.raises(VerificationError) as info:
        build_hypercube_context(3)
    assert str(info.value) == (
        "construction identities failed: intersection_numbers_match_brute_force "
        "(closed form disagrees with counted table)"
    )


def test_intersection_numbers_are_the_last_hypercube_section_check(contexts):
    for ctx in contexts.values():
        last = ctx.section_checks[-1]
        assert last == Check("intersection_numbers_match_brute_force", True)
    petersen = build_context(Graph.from_edges(10, PETERSEN_EDGES))
    names = [c.name for c in petersen.section_checks]
    assert "intersection_numbers_match_brute_force" not in names


def test_triple_counts_are_valency_times_intersection_numbers(monkeypatch):
    # N[k, a, l] = #{y in S_k, z in S_l : dist(y, z) = a} = k_k p^k_al.
    cubes = (build_hypercube_context(d, (1 << d) - 1) for d in range(0, 8))
    named = [(f"cube d={c.d}", c) for c in cubes]
    for name, ctx in named + list(_benchmark_graph_contexts(monkeypatch)):
        counts = ctx.triple_counts
        want = np.array(ctx.valencies)[:, None, None] * ctx.p_table
        assert np.array_equal(counts, want), name


def test_triple_products_form_no_dense_hadamard_product(monkeypatch):
    cases = list(_differential_contexts())
    original = subconstituent.exact_mul_elementwise

    def refuse_2d(a, b):
        if np.ndim(a) == 2 or np.ndim(b) == 2:
            raise AssertionError("n x n Hadamard product formed")
        return original(a, b)

    monkeypatch.setattr(subconstituent, "exact_mul_elementwise", refuse_2d)
    for name, ctx in cases:
        assert check_triple_products(ctx).passed, name


def test_each_context_counts_its_triples_once(monkeypatch):
    # The reports read N off the context, which counts it at construction.
    sizes = []
    real = subconstituent.count_triples

    def counting(dist, x, size):
        sizes.append(size)
        return real(dist, x, size)

    monkeypatch.setattr(subconstituent, "count_triples", counting)
    run_verification(5)
    assert sizes == [1, 2, 3, 4, 5, 6]
    sizes.clear()
    build_graph_report(Graph.from_edges(10, PETERSEN_EDGES))
    assert sizes == [3]
