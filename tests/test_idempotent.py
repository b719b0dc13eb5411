"""Tests for the primary central idempotent."""

import dataclasses
import sys
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from dense_views import (
    contains,
    dense_diagonal,
    dense_idempotents,
    dense_triple_table,
    dense_u0,
    densify,
    sphere_indicator_matrix,
)

from terwalg import _intops, echelon, idempotent, linalg, verify, wedderburn
from terwalg.closure import CellForm, closure
from terwalg.echelon import EchelonSpan
from terwalg.idempotent import (
    absorbs,
    class_table,
    compute_u0,
    diagonal_table,
    is_idempotent,
    sphere_of_classes,
    u0_formulas_agree,
    verify_u0,
)
from terwalg.linalg import RationalMatrix
from terwalg.subconstituent import (
    TerwContext,
    VerificationError,
    build_context,
    build_hypercube_context,
)
from terwalg.graphs import Graph


@pytest.fixture(scope="module")
def suite():
    data = {}
    dims = {}
    for d in range(0, 5):
        ctx = build_hypercube_context(d)
        basis = ctx.algebra_basis()
        dims[d] = basis.dim
        data[d] = (ctx, basis)
    return data, dims


def _dense_formulas(ctx):
    """Both tables of compute_u0 as dense n x n matrices."""
    primal, dual, den = compute_u0(ctx)
    return dense_triple_table(ctx, primal, den), dense_triple_table(ctx, dual, den)


def test_both_formulas_identity_for_small_d(suite):
    data, _ = suite
    for d in (0, 1):
        ctx, _basis = data[d]
        primal, dual = _dense_formulas(ctx)
        ident = RationalMatrix.identity(ctx.n)
        assert primal == ident and dual == ident


def test_u0_frozen_matrix_d2(suite):
    # Spheres around vertex 0 are {0}, {1,2}, {3}.
    data, _ = suite
    ctx, _basis = data[2]
    primal, dual = _dense_formulas(ctx)
    half = Fraction(1, 2)
    expected = RationalMatrix.from_rows(
        [
            [1, 0, 0, 0],
            [0, half, half, 0],
            [0, half, half, 0],
            [0, 0, 0, 1],
        ]
    )
    assert primal == expected and dual == expected


def _literal_u0(ctx):
    """Both defining formulas summed term by term: the reference for compute_u0."""
    n = ctx.n
    primal = RationalMatrix.zeros(n, n)
    dual = RationalMatrix.zeros(n, n)
    e_star = [dense_diagonal(e) for e in ctx.E_star]
    E = dense_idempotents(ctx)
    for i in range(ctx.d + 1):
        term = e_star[i] @ E[0] @ e_star[i]
        primal = primal + term * Fraction(n, ctx.valencies[i])
        term = E[i] @ e_star[0] @ E[i]
        dual = dual + term * Fraction(n, ctx.dual_valencies[i])
    return primal, dual


def _same(got, want):
    """Equal as rational matrices, numerator dtype included."""
    return got == want and got.num.dtype == want.num.dtype


def _parity_cases():
    for d in range(0, 9):
        for vertex in sorted({0, 5, (1 << d) - 1}):
            if vertex < 1 << d:
                yield d, vertex


@pytest.mark.parametrize("d, vertex", list(_parity_cases()))
def test_u0_formulas_match_literal_sums(d, vertex):
    # The tables, expanded entry by entry to n x n, are the literal sums.
    ctx = build_hypercube_context(d, vertex)
    got, want = _dense_formulas(ctx), _literal_u0(ctx)
    assert _same(got[0], want[0]) and _same(got[1], want[1])
    assert got[0] == got[1]
    assert u0_formulas_agree(ctx, *compute_u0(ctx)[:2])


def _diag(values, den=1):
    """A held diagonal: the 1 x n row of the values."""
    return RationalMatrix(np.asarray(values, dtype=np.int64)[None], den)


def _tampered_contexts(ctx):
    """Contexts with one of E_0, E_0*, E_i* or E_i changed, by name.

    Each change is made at i = 0, which the dual formula reads as E_0*, and
    at i = d.  The entry of 2 sits at vertex x + 1, so on E_0* it widens
    the support to two vertices.  Every change to an E_i* breaks the
    precondition that it is the 0/1 indicator of S_i.
    """
    d, n = ctx.d, ctx.n
    e0 = ctx.E[0]
    moved = e0.num.copy()
    moved[0, d] += 1
    yield "E_0 class value moved", dataclasses.replace(
        ctx, E=(RationalMatrix(moved, e0.den),) + ctx.E[1:]
    )
    star = list(ctx.E_star)
    star[0] = _diag(np.eye(n, dtype=np.int64)[(ctx.x + 1) % n])
    yield "E*_0 moved", dataclasses.replace(ctx, E_star=tuple(star))
    for i in sorted({0, d}):
        diag = ctx.E_star[i].num[0].copy()
        diag[(ctx.x + 1) % n] = 2
        star = list(ctx.E_star)
        star[i] = _diag(diag)
        yield f"E*_{i} entry 2", dataclasses.replace(ctx, E_star=tuple(star))
        star[i] = ctx.E_star[i] * Fraction(1, 3)
        yield f"E*_{i} over 3", dataclasses.replace(ctx, E_star=tuple(star))
        idem = list(ctx.E)
        idem[i] = ctx.E[i] * Fraction(5, 2)
        yield f"E_{i} scaled", dataclasses.replace(ctx, E=tuple(idem))


@pytest.mark.parametrize("d, vertex", [(1, 1), (2, 0), (3, 5), (4, 5), (5, 31)])
def test_tampered_u0_formulas_match_literal_sums(d, vertex):
    ctx = build_hypercube_context(d, vertex)
    verdicts = set()
    for name, bad in _tampered_contexts(ctx):
        star = name.split()[0]
        if star.startswith("E*_"):
            i = star[3:]
            message = rf"E\*_{i} is not the 0/1 indicator of sphere S_{i}$"
            with pytest.raises(VerificationError, match=message):
                compute_u0(bad)
            continue
        got, want = _dense_formulas(bad), _literal_u0(bad)
        assert _same(got[0], want[0]) and _same(got[1], want[1]), name
        agree = u0_formulas_agree(bad, *compute_u0(bad)[:2])
        assert agree == (got[0] == got[1]) == (want[0] == want[1]), name
        verdicts.add(want[0] == want[1])
    assert False in verdicts


def test_u0_formulas_form_no_rational_matrix_product(monkeypatch):
    ctxs = [build_hypercube_context(d, (1 << d) - 1) for d in (0, 2, 5, 7)]
    want = [_literal_u0(ctx) for ctx in ctxs]

    def refuse(self, other):
        raise AssertionError("compute_u0 formed a RationalMatrix product")

    monkeypatch.setattr(RationalMatrix, "__matmul__", refuse)
    for ctx, (primal, dual) in zip(ctxs, want):
        got = _dense_formulas(ctx)
        assert _same(got[0], primal) and _same(got[1], dual)


def test_reports_pass(suite):
    data, dims = suite
    for d in range(0, 5):
        ctx, basis = data[d]
        rep = verify_u0(ctx, basis, dim_smaller=dims.get(d - 2))
        assert rep.passed, (d, rep)
        assert rep.rank_U0 == d + 1
        assert rep.dim_T_u0 == (d + 1) ** 2
        assert rep.is_identity == (d <= 1)


def test_ideal_dimension_frozen_d3(suite):
    data, _ = suite
    ctx, basis = data[3]
    rep = verify_u0(ctx, basis)
    assert rep.dim_T_u0 == 16


def test_absorption_d2(suite):
    data, _ = suite
    ctx, _basis = data[2]
    u0 = dense_u0(ctx)
    e2 = dense_idempotents(ctx)[2]
    assert u0 @ e2 == e2
    assert absorbs(ctx, class_table(ctx, ctx.E[2]))
    e2_star = dense_diagonal(ctx.E_star[2])
    assert u0 @ e2_star == e2_star
    assert absorbs(ctx, diagonal_table(ctx, ctx.E_star[2]))


def test_report_dict_shape(suite):
    data, _ = suite
    ctx, basis = data[2]
    rep = verify_u0(ctx, basis)
    d = rep.as_dict()
    assert set(d) == {
        "formulas_agree",
        "idempotent",
        "central",
        "rank",
        "dim_ideal",
        "absorbs",
    }
    assert d["absorbs"] == [True, True, True, True]


def _literally_central(u0, matrices):
    return all(u0 @ b == b @ u0 for b in matrices)


def _wrong_p_table(ctx, a, v, b):
    """ctx with p^a_vb raised by 1: the cell table still reads dist and the
    classes are still the spheres, so the counts are read off the wrong
    table."""
    table = ctx.p_table.copy()
    table[a, v, b] += 1
    return dataclasses.replace(ctx, p_table=table)


def test_centrality_checks_every_basis_element(suite):
    # Each cell of a block (a, b) with a != b, in turn, is given a wrong
    # row count p^a_vb + 1, whatever its place in the basis, so a check
    # reduced to A and A* (or to a prefix of the basis) would still report
    # central=True.  The true counts give True, as the dense products do.
    data, _ = suite
    for d in (2, 3, 4):
        ctx, basis = data[d]
        assert verify_u0(ctx, basis).central is True
        assert _literally_central(dense_u0(ctx), densify(basis))
        sigma = sphere_of_classes(ctx, basis.classes)
        table = basis.table
        for (h, j), v in zip(table.blocks.tolist(), table.values.tolist()):
            a, b = sigma[h], sigma[j]
            if a != b:
                rep = verify_u0(_wrong_p_table(ctx, a, v, b), basis)
                assert rep.central is False and not rep.passed, (d, a, v, b)


def test_centrality_holds_for_diagonal_and_dense_elements(suite):
    # Elements of T that are diagonal (E_i*, A_i*) or dense (E_i) lie in the
    # span of the cells and commute with U0, as verify_u0 reports for the
    # whole span.
    data, _ = suite
    ctx, basis = data[4]
    u0 = dense_u0(ctx)
    extra = [dense_diagonal(e) for e in ctx.E_star] + dense_idempotents(ctx)
    extra += [dense_diagonal(a) for a in ctx.A_star]
    assert _literally_central(u0, extra)
    assert all(contains(basis, mtx) for mtx in extra)
    assert verify_u0(ctx, basis).central is True


def _oracle_cases():
    for d in range(0, 7):
        for vertex in sorted({0, 5, (1 << d) - 1}):
            if vertex < 1 << d:
                yield d, vertex


@pytest.fixture(scope="module")
def oracle_suite():
    out = []
    for d, vertex in _oracle_cases():
        ctx = build_hypercube_context(d, vertex)
        out.append((ctx, ctx.algebra_basis()))
    return out


def test_block_centrality_matches_dense_products(oracle_suite):
    # central is the dense verdict: U0 commutes with every element of T,
    # each formed at n x n.  A wrong count on one cell of a block (a, b),
    # a != b, turns it to False.
    for ctx, basis in oracle_suite:
        u0 = dense_u0(ctx)
        want = [_literally_central(u0, [b]) for b in densify(basis)]
        assert verify_u0(ctx, basis).central is all(want) is True, (ctx.d, ctx.x)
        off = [(a, v, b) for a, v, b in np.argwhere(ctx.p_table != 0).tolist() if a != b]
        if off:  # below d = 1 every block is diagonal
            rep = verify_u0(_wrong_p_table(ctx, *off[-1]), basis)
            assert rep.central is False, (ctx.d, ctx.x)


def test_block_ideal_dimension_matches_dense_span(oracle_suite):
    # Every field of the report against its dense oracle: dim_T_u0 is the
    # rank of {B S^T} over the dense elements B of T, and the rest are read
    # off the dense U0.
    for ctx, basis in oracle_suite:
        u0 = dense_u0(ctx)
        s = sphere_indicator_matrix(ctx)
        span = EchelonSpan(ctx.n * (ctx.d + 1))
        for b in densify(basis):
            span.add((b.num @ s.T).ravel())
        rep = verify_u0(ctx, basis)
        assert rep.dim_T_u0 == span.dim == (ctx.d + 1) ** 2, (ctx.d, ctx.x)
        assert rep.passed, (ctx.d, ctx.x)
        assert rep.idempotent == (u0 @ u0 == u0)
        assert rep.rank_U0 == linalg.rank(u0)
        assert rep.is_identity == (u0 == RationalMatrix.identity(ctx.n))
        assert rep.absorbs_all


def test_idempotence_and_absorption_match_dense_products():
    # Table absorption against the dense U0 @ E == E for every E_i, E_i*
    # and A_i*; at d >= 2 both verdicts occur.
    for d in range(0, 6):
        for vertex in sorted({0, 5 % (1 << d), (1 << d) - 1}):
            ctx = build_hypercube_context(d, vertex)
            u0 = dense_u0(ctx)
            big = lcm(*ctx.valencies)
            m = [big // k for k in ctx.valencies]
            assert is_idempotent(ctx.valencies, m, big)
            assert not is_idempotent(ctx.valencies, [2 * mh for mh in m], big)
            cases = [(dense_idempotents(ctx)[i], class_table(ctx, e)) for i, e in enumerate(ctx.E)]
            for e in ctx.E_star + ctx.A_star:
                cases.append((dense_diagonal(e), diagonal_table(ctx, e)))
            verdicts = set()
            for dense, table in cases:
                want = u0 @ dense == dense
                assert absorbs(ctx, table) == want, (d, vertex)
                verdicts.add(want)
            assert verdicts == ({True, False} if d >= 2 else {True}), (d, vertex)


def test_diagonal_table_needs_a_sphere_constant_diagonal(suite):
    data, _ = suite
    ctx, _basis = data[3]
    diag = np.zeros(ctx.n, dtype=np.int64)
    diag[ctx.spheres[2][0]] = 1
    with pytest.raises(VerificationError, match="not constant on sphere S_2"):
        diagonal_table(ctx, RationalMatrix(diag[None]))


def test_u0_rejects_classes_that_are_not_spheres(suite):
    # T(x') in cell form over ctx's own dist, for a vertex x' that is
    # neither x nor its antipode: its classes are the spheres around x',
    # which cut or join the spheres around x.
    data, _ = suite
    ctx, _basis = data[3]
    for other in (1, 5):
        span = closure(build_hypercube_context(3, other).generators(), ctx.dist.dist)
        assert isinstance(span, CellForm) and span.table.labels is ctx.dist.dist
        with pytest.raises(ValueError, match="not exactly one sphere"):
            verify_u0(ctx, span)


def test_empty_class_is_not_a_sphere(suite):
    data, _ = suite
    ctx, _basis = data[2]
    classes = [np.asarray(sph) for sph in ctx.spheres] + [np.array([], dtype=np.intp)]
    with pytest.raises(ValueError, match="not exactly one sphere"):
        sphere_of_classes(ctx, classes)


def test_u0_checks_identical_on_the_object_path(suite, monkeypatch):
    # With the int64 bound at 1 the triple tables run on Python ints; the
    # report and the tables must not change.
    data, dims = suite
    expected = {
        d: verify_u0(ctx, basis, dims.get(d - 2)) for d, (ctx, basis) in data.items()
    }
    formulas = {d: compute_u0(ctx) for d, (ctx, _basis) in data.items()}
    converted = []
    real_to_object = _intops.to_object

    def counting(arr):
        converted.append(arr.dtype != object)
        return real_to_object(arr)

    monkeypatch.setattr(_intops, "INT64_SAFE", 1)
    monkeypatch.setattr(echelon, "INT64_SAFE", 1)
    monkeypatch.setattr(_intops, "to_object", counting)
    for d, (ctx, basis) in data.items():
        rep = verify_u0(ctx, basis, dims.get(d - 2))
        assert rep == expected[d], d
        assert rep.passed
        primal, dual, den = compute_u0(ctx)
        assert den == formulas[d][2], d
        assert np.array_equal(primal, formulas[d][0]), d
        assert np.array_equal(dual, formulas[d][1]), d
    assert any(converted)  # the tables really ran on Python ints


def test_u0_requires_hypercube():
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    ctx = build_context(g)
    with pytest.raises(ValueError):
        compute_u0(ctx)


def _corner(ctx, basis):
    return wedderburn.complement_algebra(ctx, basis, verify_u0(ctx, basis))


def test_u0_path_forms_no_n_wide_matrix(suite, monkeypatch):
    # verify_u0 and complement_algebra read the triple tables and the block
    # pieces: no dense class matrix, no product with an n-wide
    # operand, and rank only of the (d+1) x (d+1) sphere table.
    data, _ = suite
    cases = [data[d] for d in (2, 3, 4)]
    cases += [(ctx, ctx.algebra_basis()) for ctx in [build_hypercube_context(6, 37)]]
    expected = [(verify_u0(ctx, basis), _corner(ctx, basis)) for ctx, basis in cases]
    n_now = [0]
    ranked = []

    def refuse(*_args, **_kwargs):
        raise AssertionError("an n x n class matrix was formed")

    real_matmul = idempotent.exact_matmul
    real_rank = linalg.rank

    def narrow_matmul(a, b):
        assert n_now[0] not in a.shape + b.shape, (a.shape, b.shape)
        return real_matmul(a, b)

    def recording_rank(m):
        ranked.append(m.shape)
        return real_rank(m)

    monkeypatch.setattr(TerwContext, "class_matrix", refuse)
    for name, module in list(sys.modules.items()):
        if name == "terwalg" or name.startswith("terwalg."):
            if hasattr(module, "exact_matmul"):
                monkeypatch.setattr(module, "exact_matmul", narrow_matmul)
    monkeypatch.setattr(idempotent, "rank", recording_rank)
    for (ctx, basis), (rep, corner) in zip(cases, expected):
        n_now[0] = ctx.n
        ranked.clear()
        got = verify_u0(ctx, basis)
        assert got == rep
        assert ranked == [(ctx.d + 1, ctx.d + 1)]
        again = wedderburn.complement_algebra(ctx, basis, got)
        assert densify(again) == densify(corner) and again.identity == corner.identity


def test_u0_report_states_the_u0_lines_of_a_record():
    # U0Report.checks() is the only statement of the U0 predicates: a
    # diameter record carries its checks in order, and passed reads them.
    for d in range(1, 6):
        smaller = (None, None)
        if d >= 2:
            smaller = (verify.expected_dimension(d - 2), verify.expected_blocks(d - 2))
        prep = verify._prepare(d, (1 << d) - 1)
        record = verify._diameter_record(prep, *smaller)
        rep = verify_u0(prep.ctx, prep.basis, dim_smaller=smaller[0])
        u0_lines = [c for c in record.checks if c.name.startswith("u0_")]
        assert [c.name for c in rep.checks()] == [c.name for c in u0_lines], d
        assert rep.checks() == u0_lines and all(c.passed for c in u0_lines), d
        assert rep.passed, d
        flips = {
            name: not getattr(rep, name)
            for name in (
                "formulas_agree", "idempotent", "central", "absorbs_E0",
                "absorbs_Ed", "absorbs_E0_star", "absorbs_Ed_star", "peel_identity",
            )
        }
        flips.update(d=d + 1, rank_U0=rep.rank_U0 + 1, dim_T_u0=rep.dim_T_u0 - 1)
        # is_identity reads m and L: make U0 = I, or not.
        flips["m"] = tuple(m + 1 for m in rep.m) if rep.is_identity else (rep.L,) * len(rep.m)
        for name, value in flips.items():
            assert not dataclasses.replace(rep, **{name: value}).passed, (d, name)
