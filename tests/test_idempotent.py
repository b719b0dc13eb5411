"""Tests for the primary central idempotent."""

import random
from fractions import Fraction

import numpy as np
import pytest

from terwalg.closure import AlgebraBasis
from terwalg.idempotent import compute_u0, verify_u0
from terwalg.linalg import RationalMatrix
from terwalg.subconstituent import build_context, build_hypercube_context
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


def test_both_formulas_identity_for_small_d(suite):
    data, _ = suite
    for d in (0, 1):
        ctx, _basis = data[d]
        primal, dual = compute_u0(ctx)
        ident = RationalMatrix.identity(ctx.n)
        assert primal == ident and dual == ident


def test_u0_frozen_matrix_d2(suite):
    # Spheres around vertex 0 are {0}, {1,2}, {3}.
    data, _ = suite
    ctx, _basis = data[2]
    primal, dual = compute_u0(ctx)
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
    u0, _dual = compute_u0(ctx)
    assert u0 @ ctx.E[2] == ctx.E[2]
    assert u0 @ ctx.E_star[2] == ctx.E_star[2]


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


def test_centrality_checks_every_basis_element(suite):
    # A random element appended after the genuine basis commutes with
    # neither generator's products, so a check reduced to A and A* (or to a
    # prefix of the basis) would still report central=True.
    data, _ = suite
    for d in (2, 3, 4):
        ctx, basis = data[d]
        u0, _dual = compute_u0(ctx)
        rng = random.Random(d)
        rogue = RationalMatrix(
            np.array(
                [[rng.randint(-5, 5) for _ in range(ctx.n)] for _ in range(ctx.n)],
                dtype=np.int64,
            ),
            rng.randint(1, 7),
        )
        widened = AlgebraBasis(
            basis.side,
            basis.matrices + (rogue,),
            basis.provenance + (("seed",),),
            basis.span,
        )
        assert verify_u0(ctx, basis).central is True
        assert _literally_central(u0, basis.matrices)
        rep = verify_u0(ctx, widened)
        assert rep.central is False
        assert not _literally_central(u0, widened.matrices)
        assert not rep.passed


def test_centrality_holds_for_diagonal_and_dense_elements(suite):
    # Elements of T that are diagonal (E_i*) or dense (E_i) commute with U0,
    # whichever kernel path their products take.
    data, _ = suite
    ctx, basis = data[4]
    u0, _dual = compute_u0(ctx)
    extra = ctx.E_star + ctx.E + ctx.A_star
    widened = AlgebraBasis(
        basis.side,
        basis.matrices + extra,
        basis.provenance + (("seed",),) * len(extra),
        basis.span,
    )
    assert _literally_central(u0, extra)
    assert verify_u0(ctx, widened).central is True


def test_u0_requires_hypercube():
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    ctx = build_context(g)
    with pytest.raises(ValueError):
        compute_u0(ctx)
