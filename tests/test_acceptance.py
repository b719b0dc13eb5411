"""Acceptance suite.

One test per criterion, so `pytest -v` shows one pass/fail line each.  Every
comparison is bit-exact; the only non-equality assertions are the wall-clock
budgets, which are generous (measured times are well under a tenth of each
budget on a laptop).

The d=8 extensions of the dimension and Wedderburn criteria run with the
rest; together they take well under a second.
"""

import json
import re
import time

import pytest
from click.testing import CliRunner

from terwalg.cli import main
from terwalg.graphs import is_distance_regular
from terwalg.hypercube import (
    check_shift_lemma_down,
    check_shift_lemma_up,
    permissible_set,
)
from terwalg.idempotent import verify_u0
from terwalg.poly_identities import verify_phi_factorial, verify_phi_images
from terwalg.subconstituent import (
    build_hypercube_context,
    check_krein_self_dual,
    check_polynomial_images,
    check_triple_products,
)
from terwalg.verify import expected_blocks, expected_dimension
from terwalg.wedderburn import SPLIT, complement_algebra, decompose

DMAX = 7
EXPECTED_DIMS = [1, 4, 10, 20, 35, 56, 84, 120]


class Prepared:
    """Contexts, closures, U0 reports, and decompositions for d = 0..7.

    Built once per session.  The closure phase is timed separately because
    the dimension criterion carries its own runtime budget.
    """

    def __init__(self):
        start = time.monotonic()
        self.ctx = {d: build_hypercube_context(d) for d in range(DMAX + 1)}
        self.basis = {d: self.ctx[d].algebra_basis() for d in range(DMAX + 1)}
        self.closure_seconds = time.monotonic() - start
        self.dims = {d: self.basis[d].dim for d in range(DMAX + 1)}
        self.u0 = {
            d: verify_u0(self.ctx[d], self.basis[d], self.dims.get(d - 2))
            for d in range(1, DMAX + 1)
        }
        self.dec = {
            d: decompose(self.basis[d], self.ctx[d].generators())
            for d in range(DMAX + 1)
        }


@pytest.fixture(scope="session")
def prepared():
    return Prepared()


def criterion(num: int, ok: bool, description: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num:02d}: {description}"


def test_criterion_01_dimension_formula(prepared):
    got = [prepared.dims[d] for d in range(1, DMAX + 1)]
    want = [expected_dimension(d) for d in range(1, DMAX + 1)]
    ok = got == want == EXPECTED_DIMS[1:] and prepared.closure_seconds < 180.0
    criterion(
        1,
        ok,
        f"dim T(x) for d=1..7 equals sum of (d+1-2r)^2: {got} "
        f"(closures took {prepared.closure_seconds:.1f}s, budget 180s)",
    )


def test_criterion_01_optional_d8():
    start = time.monotonic()
    dim = build_hypercube_context(8).algebra_basis().dim
    elapsed = time.monotonic() - start
    ok = dim == expected_dimension(8) == 165 and elapsed < 600.0
    criterion(1, ok, f"dim T(x) at d=8 is {dim} ({elapsed:.1f}s, budget 600s)")


def test_criterion_02_u0_suite(prepared):
    ok = all(
        rep.formulas_agree
        and rep.idempotent
        and rep.central
        and rep.absorbs_all
        and rep.rank_U0 == d + 1
        and rep.dim_T_u0 == (d + 1) ** 2
        for d, rep in prepared.u0.items()
    )
    criterion(
        2,
        ok,
        "for d=1..7 the two U0 formulas agree, U0 is a central idempotent of "
        "rank d+1, it absorbs E_0, E_d, E_0*, E_d*, and its ideal has "
        "dimension (d+1)^2",
    )


def test_criterion_03_degenerate_base_case(prepared):
    rep = prepared.u0[1]
    ok = rep.is_identity and prepared.dims[1] == 4
    criterion(3, ok, "at d=1, U0 equals the identity and dim T(x) = 4")


def test_criterion_04_triple_products(prepared):
    reports = [check_triple_products(prepared.ctx[d]) for d in range(1, 7)]
    ok = all(r.passed and r.total == (r.d + 1) ** 3 for r in reports)
    criterion(
        4,
        ok,
        "for d=1..6 and all (d+1)^3 triples, vanishing of E_h* A_i E_j* and "
        "of E_h A_i* E_j agrees with the intersection-number zeros, the "
        "Krein zeros, and the permissible-triple predicate simultaneously",
    )


def test_criterion_05_intersection_numbers(prepared):
    ok = True
    for d in range(1, 7):
        ctx = prepared.ctx[d]
        regular, table = is_distance_regular(ctx.graph, ctx.dist)
        ok = ok and bool(regular) and (table == ctx.params.p_table).all()
    criterion(
        5,
        bool(ok),
        "for d=1..6 the binomial closed form for p^h_{ij} equals the "
        "brute-force count for every triple",
    )


def test_criterion_06_self_duality(prepared):
    checks = [check_krein_self_dual(prepared.ctx[d]) for d in range(1, 6)]
    criterion(
        6,
        all(c.passed for c in checks),
        "for d=1..5 the exactly computed Krein table equals the "
        "intersection-number table entrywise",
    )


def test_criterion_07_polynomial_layer(prepared):
    start = time.monotonic()
    checks = [
        c
        for d in range(1, DMAX + 1)
        for c in check_polynomial_images(prepared.ctx[d])
    ]
    factorial_ok = verify_phi_factorial(32)
    elapsed = time.monotonic() - start
    ok = all(c.passed for c in checks) and factorial_ok and elapsed < 5.0
    criterion(
        7,
        ok,
        "F_i(A) = A_i and F_i(A*) = A_i* with min poly Phi_d on both sides "
        f"for d<=7, and Phi_d = (d+1)! F_(d+1) for d<=32 ({elapsed:.2f}s, "
        "budget 5s)",
    )


def test_criterion_08_descent_shift_relators(prepared):
    images_ok = all(verify_phi_images(d).passed for d in range(2, 33))
    triples = [frozenset(permissible_set(d)) for d in range(17)]
    shifts_ok = all(
        check_shift_lemma_down(d, triples[d], triples[d - 2])[0]
        and check_shift_lemma_up(d, triples[d], triples[d - 2])[0]
        for d in range(2, 17)
    )
    relators = [
        [c for c in check_polynomial_images(prepared.ctx[d]) if "relator" in c.name]
        for d in range(2, DMAX + 1)
    ]
    relators_ok = all(len(r) == 2 and all(c.passed for c in r) for r in relators)
    ok = images_ok and shifts_ok and relators_ok
    criterion(
        8,
        ok,
        "descent identities for F_i hold for d=2..32, excluded-triple shift "
        "lemmas hold exhaustively for d=2..16, and the relator images "
        "Phi_(d-2)(A)(I - E_0 - E_d) and the dual vanish for d=2..7",
    )


def test_criterion_09_peeling(prepared):
    peel_ok = all(
        prepared.dims[d] - (d + 1) ** 2 == prepared.dims[d - 2]
        for d in range(2, DMAX + 1)
    )
    complement_ok = True
    for d in range(2, 7):
        ctx, basis = prepared.ctx[d], prepared.basis[d]
        corner = complement_algebra(ctx, basis, prepared.u0[d])
        dec = decompose(corner.span, ctx.generators(), corner.identity)
        small = prepared.dec[d - 2]
        # An inconclusive split on either side fails this criterion.
        complement_ok = complement_ok and (
            dec.status == small.status == SPLIT and dec.multiset == small.multiset
        )
    ok = peel_ok and complement_ok
    criterion(
        9,
        ok,
        "dim T_d - (d+1)^2 = dim T_(d-2) for d=2..7, and the complement "
        "ideal of U0 has the block multiset of T_(d-2) for d=2..6",
    )


def test_criterion_10_wedderburn_blocks(prepared):
    ok = all(
        prepared.dec[d].status == SPLIT
        and prepared.dec[d].multiset == expected_blocks(d)
        and prepared.dec[d].center_dim == d // 2 + 1
        for d in range(1, 7)
    )
    criterion(
        10,
        ok,
        "for d=1..6 the Wedderburn block multiset is {d+1-2r} and the "
        "center has dimension floor(d/2)+1",
    )


def test_criterion_10_optional_d8():
    ctx = build_hypercube_context(8)
    basis = ctx.algebra_basis()
    dec = decompose(basis, ctx.generators())
    corner = complement_algebra(ctx, basis, verify_u0(ctx, basis))
    corner_dec = decompose(corner.span, ctx.generators(), corner.identity)
    ok = (
        dec.status == corner_dec.status == SPLIT
        and dec.center_dim == 5
        and dec.multiset == expected_blocks(8) == (9, 7, 5, 3, 1)
        and corner_dec.multiset == expected_blocks(6) == (7, 5, 3, 1)
    )
    criterion(
        10,
        ok,
        "at d=8 the center has dimension 5, the blocks are (9, 7, 5, 3, 1), "
        f"and the U0 complement splits as (7, 5, 3, 1): got {dec.multiset}, "
        f"corner {corner_dec.multiset}",
    )


def test_criterion_11_determinism():
    runner = CliRunner()
    outputs = []
    for vertex in ("0", "0", "21"):
        result = runner.invoke(
            main,
            ["verify", "--max-d", "5", "--format", "json", "--vertex", vertex],
        )
        assert result.exit_code == 0
        outputs.append(result.output)
    normalized = [re.sub(r'"vertex": [0-9]+', '"vertex": N', o) for o in outputs]
    ok = (
        outputs[0] == outputs[1]
        and normalized[0] == normalized[2]
        and json.loads(outputs[0])["overall"] == "pass"
    )
    criterion(
        11,
        ok,
        "verify --max-d 5 produces byte-identical JSON across runs, and across "
        "base vertices 0 and 21 once the vertex fields are normalized",
    )
