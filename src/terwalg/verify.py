"""Orchestration of the full verification run and one-off report builders.

run_verification drives, for every diameter in range, the construction of
the algebra context, all named identity checks, the closure dimension, the
primary idempotent suite, and the block decomposition, then attaches the
range-wide polynomial and enumeration checks.

The diameters run one at a time, in increasing order.  The record for d
reads only two facts from the cube two diameters down: dim T and the block
multiset, for the dimension peel and the U0 complement.  Those facts of the
last two diameters are all that crosses from one diameter to the next; the
context, basis and split of d are dropped once its record is written, so
the peak memory is that of the largest diameter, not of the whole range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .checks import Check
from .closure import BlockSpans, closure
from .graphs import DistanceData, Graph
from .hypercube import (
    check_permissible_equivalence,
    check_shift_lemma_down,
    check_shift_lemma_up,
    permissible_mask,
    permissible_set,
)
from .idempotent import verify_u0
from .poly_identities import Families
from .report import DiameterRecord, VerificationReport
from .subconstituent import (
    TerwContext,
    VerificationError,
    build_context,
    build_hypercube_context,
    check_krein_self_dual,
    check_polynomial_images,
    check_triple_products,
    distance_regular_table,
    triple_counts,
    triple_span_dim,
)
from .wedderburn import (
    SPLIT,
    BlockDecomposition,
    complement_algebra,
    decompose,
)

# The largest diameter verify and report accept.
MAX_D = 12
PHI_IMAGE_MAX_D = 32
PHI_FACTORIAL_MAX_D = 32
SHIFT_LEMMA_MAX_D = 16
PERMISSIBLE_MAX_D = 8


def expected_dimension(d: int) -> int:
    """sum of (d+1-2r)^2 over 0 <= r <= floor(d/2)."""
    return sum((d + 1 - 2 * r) ** 2 for r in range(d // 2 + 1))


def expected_blocks(d: int) -> tuple[int, ...]:
    return tuple(d + 1 - 2 * r for r in range(d // 2 + 1))


@dataclass(frozen=True)
class _Prepared:
    """The context, closure basis and block split of one diameter."""

    ctx: TerwContext
    basis: BlockSpans
    dec: BlockDecomposition


def _prepare(d: int, x: int) -> _Prepared:
    ctx = build_hypercube_context(d, x)
    # One dense A, with the diagonal row of A*, serves the closure and the
    # split; it is dropped on return, before complement_algebra, and the
    # corner's split builds its own.
    generators = ctx.generators()
    basis = closure(generators, ctx.dist.dist)  # labels: TerwContext.algebra_basis
    dec = decompose(basis, generators)
    return _Prepared(ctx, basis, dec)


def _fraction_json(f: Fraction):
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def _diameter_record(
    prep: _Prepared,
    dim_smaller: int | None,
    blocks_smaller: tuple[int, ...] | None,
) -> DiameterRecord:
    ctx = prep.ctx
    basis = prep.basis
    dec = prep.dec
    d = ctx.d
    checks: list[Check] = list(ctx.section_checks)

    counts = triple_counts(ctx)
    tp = check_triple_products(ctx, counts)
    witness = None
    if tp.mismatches:
        h, i, j, flags = tp.mismatches[0]
        witness = f"(h,i,j)=({h},{i},{j}) flags={flags}"
    checks.append(Check("triple_products_match_parameter_zeros", tp.passed, witness))

    checks.append(check_krein_self_dual(ctx))
    checks.extend(check_polynomial_images(ctx))

    exp_dim = expected_dimension(d)
    checks.append(
        Check(
            "closure_dimension_matches_formula",
            basis.dim == exp_dim,
            None if basis.dim == exp_dim else f"{basis.dim} != {exp_dim}",
        )
    )

    u0rep = verify_u0(ctx, basis, dim_smaller=dim_smaller)
    checks.append(Check("u0_formulas_agree", u0rep.formulas_agree))
    checks.append(Check("u0_idempotent", u0rep.idempotent))
    checks.append(Check("u0_central_in_algebra", u0rep.central))
    checks.append(
        Check(
            "u0_rank_is_diameter_plus_one",
            u0rep.rank_U0 == d + 1,
            None if u0rep.rank_U0 == d + 1 else f"rank {u0rep.rank_U0}",
        )
    )
    checks.append(
        Check(
            "u0_ideal_dimension_is_square_of_rank",
            u0rep.dim_T_u0 == (d + 1) ** 2,
            None if u0rep.dim_T_u0 == (d + 1) ** 2 else f"dim {u0rep.dim_T_u0}",
        )
    )
    checks.append(Check("u0_absorbs_extremal_idempotents", u0rep.absorbs_all))
    checks.append(
        Check("u0_identity_iff_diameter_at_most_one", u0rep.is_identity == (d <= 1))
    )
    if d >= 2:
        checks.append(
            Check(
                "dimension_peel_to_smaller_cube",
                u0rep.peel_identity,
                None
                if u0rep.peel_identity
                else f"{basis.dim} - {(d + 1) ** 2} != {dim_smaller}",
            )
        )

    if dec.status == SPLIT:
        center_ok = dec.center_dim == d // 2 + 1
        checks.append(
            Check(
                "center_dimension_expected",
                center_ok,
                None if center_ok else f"center dim {dec.center_dim}",
            )
        )
        blocks_ok = dec.multiset == expected_blocks(d)
        checks.append(
            Check(
                "block_multiset_expected",
                blocks_ok,
                None if blocks_ok else f"blocks {dec.multiset}",
            )
        )
        squares = sum(n * n for n in dec.block_sizes)
        checks.append(
            Check(
                "block_squares_sum_to_dimension",
                squares == basis.dim,
                None if squares == basis.dim else f"{squares} != {basis.dim}",
            )
        )
        divisible = all(
            r % n == 0 for n, r in zip(dec.block_sizes, dec.block_ranks)
        )
        checks.append(Check("block_sizes_divide_idempotent_ranks", divisible))
    else:
        checks.append(
            Check(
                "block_decomposition_split",
                False,
                f"probe minimal polynomial {dec.probe_min_poly}",
            )
        )

    if d >= 2:
        corner = complement_algebra(ctx, basis, u0rep)
        comp_dim_ok = corner.dim == basis.dim - (d + 1) ** 2
        checks.append(
            Check(
                "complement_dimension_matches_peel",
                comp_dim_ok,
                None if comp_dim_ok else f"complement dim {corner.dim}",
            )
        )
        # Splitting the corner on A and A* needs U0 central (wedderburn).
        if u0rep.central:
            comp = decompose(corner.span, ctx.generators(), corner.identity)
            comp_ok = comp.status == SPLIT and comp.multiset == blocks_smaller
            witness = f"complement {comp.blocks_json()} vs {blocks_smaller}"
        else:
            comp_ok, witness = False, "U0 not central"
        checks.append(
            Check(
                "complement_blocks_match_smaller_cube",
                comp_ok,
                None if comp_ok else witness,
            )
        )

    return DiameterRecord(
        d=d,
        vertex=ctx.x,
        dim_T=basis.dim,
        expected_dim=exp_dim,
        triple_span_dim=triple_span_dim(ctx, counts),
        u0=u0rep.as_dict(),
        blocks=dec.blocks_json(),
        checks=tuple(checks),
    )


def global_checks() -> tuple[Check, ...]:
    """Range-wide enumeration and polynomial checks, independent of max_d.

    Each Krawtchouk family and spectrum polynomial is built once for the
    whole range, on integers, and shared by the checks that read it.  Each
    permissible set P_d is one boolean mask (permissible_mask), built once
    and read by both shift lemmas, which compare whole masks at once; the
    equivalence with the nonzero intersection numbers compares the mask
    with the table.  Every witness is the first failing triple in
    lexicographic order, the one a loop over all triples would name.
    """
    checks = []
    perm_ok = True
    witness = None
    for d in range(1, PERMISSIBLE_MAX_D + 1):
        ok, bad = check_permissible_equivalence(d)
        if not ok:
            perm_ok = False
            witness = f"d={d} triple {bad}"
            break
    checks.append(
        Check("permissible_triples_match_nonzero_intersection_numbers", perm_ok, witness)
    )

    families = Families.build(max(PHI_IMAGE_MAX_D, PHI_FACTORIAL_MAX_D))
    rep = families.descent_failure(PHI_IMAGE_MAX_D)
    witness = None if rep is None else f"d={rep.d} indices {rep.failing_indices()}"
    checks.append(Check("krawtchouk_descent_identities", rep is None, witness))

    checks.append(
        Check(
            "spectrum_polynomial_factorial_identity",
            families.factorial_holds(PHI_FACTORIAL_MAX_D),
        )
    )

    masks = [permissible_mask(d) for d in range(SHIFT_LEMMA_MAX_D + 1)]
    down_ok = True
    up_ok = True
    down_witness = None
    up_witness = None
    for d in range(2, SHIFT_LEMMA_MAX_D + 1):
        ok, bad = check_shift_lemma_down(d, masks[d], masks[d - 2])
        if not ok and down_ok:
            down_ok = False
            down_witness = f"d={d} triple {bad}"
        ok, bad = check_shift_lemma_up(d, masks[d], masks[d - 2])
        if not ok and up_ok:
            up_ok = False
            up_witness = f"d={d} triple {bad}"
    checks.append(Check("excluded_triple_shift_down", down_ok, down_witness))
    checks.append(Check("excluded_triple_shift_up", up_ok, up_witness))
    return tuple(checks)


def run_verification(max_d: int, vertex: int = 0, threads: int = 1) -> VerificationReport:
    """Full verification for d = 1..max_d plus the range-wide checks."""
    if not 1 <= max_d <= MAX_D:
        raise ValueError(f"max_d must be between 1 and {MAX_D}")
    # threads stays only because the benchmark harness (perfbench) passes threads=1.
    if threads != 1:
        raise ValueError("threads must be 1")
    records = []
    facts = [(None, None), (None, None)]  # (dim T, blocks or None) at d-2, d-1
    for d in range(max_d + 1):
        prep = _prepare(d, vertex % (1 << d))
        if d:
            records.append(_diameter_record(prep, *facts[0]))
        blocks = prep.dec.multiset if prep.dec.status == SPLIT else None
        facts = [facts[1], (prep.basis.dim, blocks)]
        del prep  # only the facts cross diameters
    return VerificationReport(
        version=__version__,
        results=tuple(records),
        global_checks=global_checks(),
    )


# -- one-off report builders for the CLI -----------------------------------


def _parameter_fields(ctx: TerwContext, counts: np.ndarray | None = None) -> dict:
    """The fields both one-off reports take from the context: its size,
    base vertex and eigenvalues, the valencies, the parameter tables and
    the triple span dimension, from counts (triple_counts) when given.  An
    integer Fraction renders as an int."""
    return {
        "num_vertices": ctx.n,
        "vertex": ctx.x,
        "eigenvalues": [_fraction_json(t) for t in ctx.theta],
        "valencies": list(ctx.valencies),
        "dual_valencies": list(ctx.dual_valencies),
        "p_table": ctx.p_table.tolist(),
        "krein_table": [
            [[_fraction_json(Fraction(int(v), ctx.krein_den)) for v in row] for row in layer]
            for layer in ctx.krein
        ],
        "P": [[_fraction_json(v) for v in row] for row in ctx.P.dense_rows()],
        "Q": [[_fraction_json(v) for v in row] for row in ctx.Q.dense_rows()],
        "triple_span_dim": triple_span_dim(ctx, counts),
    }


def build_parameter_report(d: int, vertex: int = 0) -> dict:
    """Parameter tables, dimension, u0 summary, and blocks for one cube.

    Raises:
        ValueError: if vertex is not a vertex of the d-cube, 0 <= vertex < 2^d.
    """
    prep = _prepare(d, vertex)
    ctx = prep.ctx
    u0rep = verify_u0(ctx, prep.basis)
    return {
        **_parameter_fields(ctx),
        "d": d,
        "dual_eigenvalues": [int(t) for t in ctx.theta_star],
        "permissible_set": [list(t) for t in permissible_set(d)],
        "dim_T": prep.basis.dim,
        "expected_dim": expected_dimension(d),
        "u0": u0rep.as_dict(),
        "u0_is_identity": u0rep.is_identity,
        "blocks": prep.dec.blocks_json(),
    }


def build_graph_report(g: Graph, vertex: int = 0) -> tuple[dict, bool]:
    """Distance-regular graph report plus an overall pass flag.

    The triple-product check runs against the graph's own parameter
    tables; Krein entries may be proper fractions here.  The section
    identities come from the context, which exists only if they all hold.

    Raises:
        ValueError: if the graph is not distance-regular (witness included,
            whatever the vertex), its diameter is past the p-table cap
            (graphs.MAX_P_TABLE), or it has an irrational adjacency
            eigenvalue.
    """
    try:
        ctx = build_context(g, vertex)
    except VerificationError:
        # Construction certifies the spheres around the vertex before it
        # counts the intersection numbers, so a vertex whose eccentricity is
        # below the diameter fails there first; such a graph is not
        # distance-regular, and is named by the witness every vertex gets.
        distance_regular_table(g, DistanceData.compute(g))
        raise
    basis = ctx.algebra_basis()
    counts = triple_counts(ctx)
    tp = check_triple_products(ctx, counts)
    data = {
        **_parameter_fields(ctx, counts),
        "diameter": ctx.d,
        "distance_regular": True,
        "dim_T": basis.dim,
        "checks": [c.as_dict() for c in ctx.section_checks]
        + [
            {
                "name": "triple_products_match_parameter_zeros",
                "pass": tp.passed,
            }
        ],
    }
    return data, tp.passed
