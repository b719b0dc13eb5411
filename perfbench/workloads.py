"""The three benchmark workloads: seeded inputs, the timed program calls, and
the correctness checks applied to their outputs.

Each workload is closed-loop with one caller.  The seed picks base vertices
and relabellings only; the program sees only the generated inputs.  One
operation is one checked program call: a diameter record of the sweep, one
d = 8 call, or one graph.

Workload choice (see NOTES.md for the predictions each one carries):

- cube-sweep-d7: the work of ``terwalg verify --max-d 7 --format json
  --vertex V``; the Fraction center solve and block split are about half of
  it, with many small echelon calls.
- cube-d8-core: context, closure, triple products and U0 at d = 8, where
  256 x 256 int64 products dominate and no Fraction elimination runs.
- drg-graphs: the ``graph`` subcommand path on six distance-regular graphs,
  which uses spectral projectors, tracked min_poly at width n^2 and the
  brute-force distance-regularity check instead of the hypercube fast path.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from terwalg import graphs, idempotent, subconstituent, verify

import families

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

SWEEP_MAX_D = 7
CORE_D = 8
VERTEX_FIELD = re.compile(rb'"vertex": \d+')

# Graphs whose ``graph`` report fails only through the known triple-product
# defect: check_triple_products demands that the primal zero pattern
# (p^h_ij) equal the dual one (q^h_ij), which holds only for formally
# self-dual graphs.  Their correct verdict is pass, so each counts as a
# failed operation; any other failure makes the run incorrect.
KNOWN_DEFECT_GRAPHS = frozenset({"folded-9-cube", "johnson-9-4", "petersen"})
TRIPLE_CHECK = "triple_products_match_parameter_zeros"


@dataclass
class OpResult:
    """Outcome of one checked operation."""

    name: str
    problems: list[str] = field(default_factory=list)
    known_defect: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], dict]
    run: Callable[[dict], object]
    check: Callable[[dict, object], list[OpResult]]
    # Traced sites this workload must reach; a site with no call fails the
    # traced run, which is how a missed rebinding shows.
    expected_sites: tuple[str, ...]


def _expect(problems: list[str], what: str, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# -- cube-sweep-d7 -----------------------------------------------------------


def normalize_vertices(text: bytes) -> bytes:
    return VERTEX_FIELD.sub(b'"vertex": 0', text)


def sweep_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "vertex": rng.randrange(1 << SWEEP_MAX_D),
        "reference": (REFERENCE_DIR / "cube-sweep-d7.json").read_bytes(),
    }


def sweep_run(inp: dict) -> str:
    report = verify.run_verification(SWEEP_MAX_D, vertex=inp["vertex"], threads=1)
    return report.to_json()


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, indent=2).encode()


def sweep_check(inp: dict, text: str) -> list[OpResult]:
    raw = text.encode()
    data = json.loads(raw)
    ref = json.loads(inp["reference"])
    results = []
    for d in range(1, SWEEP_MAX_D + 1):
        op = OpResult(f"d={d}")
        recs = [r for r in data["results"] if r["d"] == d]
        if len(recs) != 1:
            op.problems.append(f"{len(recs)} records for d={d}")
            results.append(op)
            continue
        rec = recs[0]
        table = families.hypercube_family(d).p_table()
        _expect(op.problems, "vertex", rec["vertex"], inp["vertex"] % (1 << d))
        _expect(op.problems, "dim_T", rec["dim_T"], families.cube_expected_dimension(d))
        _expect(op.problems, "expected_dim", rec["expected_dim"], families.cube_expected_dimension(d))
        _expect(op.problems, "blocks", rec["blocks"], families.cube_expected_blocks(d))
        _expect(op.problems, "u0 rank", rec["u0"]["rank"], d + 1)
        _expect(op.problems, "u0 dim_ideal", rec["u0"]["dim_ideal"], (d + 1) ** 2)
        _expect(op.problems, "triple_span_dim", rec["triple_span_dim"], families.nonzero_triples(table))
        failing = [c["name"] for c in rec["checks"] if not c["pass"]]
        _expect(op.problems, "failing checks", failing, [])
        ref_rec = [r for r in ref["results"] if r["d"] == d]
        rec_bytes = normalize_vertices(_dump(rec))
        if not ref_rec or rec_bytes != _dump(ref_rec[0]):
            op.problems.append("record differs from the reference")
        results.append(op)

    op = OpResult("range-wide")
    failing = [c["name"] for c in data["global_checks"] if not c["pass"]]
    _expect(op.problems, "failing range-wide checks", failing, [])
    _expect(op.problems, "overall", data["overall"], "pass")
    # Byte-for-byte against the reference, apart from the vertex fields.
    if normalize_vertices(raw) != inp["reference"]:
        op.problems.append("report bytes differ from the reference")
    results.append(op)
    return results


# -- cube-d8-core ------------------------------------------------------------


def core_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"vertex": rng.randrange(1 << CORE_D)}


def core_run(inp: dict) -> dict:
    ctx = subconstituent.build_hypercube_context(CORE_D, inp["vertex"])
    basis = ctx.algebra_basis()
    tp = subconstituent.check_triple_products(ctx)
    u0 = idempotent.verify_u0(
        ctx, basis, dim_smaller=families.cube_expected_dimension(CORE_D - 2)
    )
    return {"ctx": ctx, "basis": basis, "tp": tp, "u0": u0}


def core_check(inp: dict, out: dict) -> list[OpResult]:
    d = CORE_D
    fam = families.hypercube_family(d)
    ctx, basis, tp, u0 = out["ctx"], out["basis"], out["tp"], out["u0"]

    op_ctx = OpResult("build_hypercube_context")
    _expect(op_ctx.problems, "n", ctx.n, fam.n)
    _expect(op_ctx.problems, "d", ctx.d, fam.diameter)
    _expect(op_ctx.problems, "x", ctx.x, inp["vertex"])
    _expect(op_ctx.problems, "valencies", list(ctx.valencies), fam.valencies())
    _expect(op_ctx.problems, "dual valencies", list(ctx.dual_valencies), fam.valencies())
    _expect(op_ctx.problems, "theta", [int(t) for t in ctx.theta], list(fam.eigenvalues))
    _expect(op_ctx.problems, "theta*", [int(t) for t in ctx.theta_star], list(fam.eigenvalues))
    _expect(op_ctx.problems, "p_table", ctx.p_table.tolist(), fam.p_table())

    op_basis = OpResult("algebra_basis")
    _expect(op_basis.problems, "dim", basis.dim, families.cube_expected_dimension(d))

    op_tp = OpResult("check_triple_products")
    _expect(op_tp.problems, "triples", tp.total, (d + 1) ** 3)
    _expect(op_tp.problems, "mismatches", list(tp.mismatches), [])

    op_u0 = OpResult("verify_u0")
    _expect(op_u0.problems, "rank", u0.rank_U0, d + 1)
    _expect(op_u0.problems, "ideal dimension", u0.dim_T_u0, (d + 1) ** 2)
    _expect(op_u0.problems, "passed", u0.passed, True)
    return [op_ctx, op_basis, op_tp, op_u0]


# -- drg-graphs --------------------------------------------------------------


def graph_families() -> list[families.Family]:
    return [
        families.hypercube_family(7),
        families.folded_cube_family(4),
        families.johnson_family(9, 4),
        families.hamming_family(3, 5),
        families.hamming_family(4, 3),
        families.petersen_family(),
    ]


def relabelled_edge_list(fam: families.Family, rng: random.Random) -> str:
    """Edge-list file text with shuffled labels, edge order and orientation."""
    perm = list(range(fam.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in fam.edges]
    rng.shuffle(edges)
    lines = [f"{fam.n} {len(edges)}"]
    for u, v in edges:
        lines.append(f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}")
    return "\n".join(lines) + "\n"


def graph_items(seed: int) -> list[dict]:
    """Each graph as edge-list text, with its family and base vertex."""
    rng = random.Random(seed)
    items = []
    for fam in graph_families():
        text = relabelled_edge_list(fam, rng)
        items.append({"family": fam, "text": text, "vertex": rng.randrange(fam.n)})
    return items


def drg_inputs(seed: int) -> dict:
    reference = json.loads((REFERENCE_DIR / "drg-graphs.json").read_text())
    return {"graphs": graph_items(seed), "reference": reference}


def drg_run(inp: dict) -> list[tuple[str, bool]]:
    """Per graph: the JSON the ``graph`` subcommand prints, and its pass flag."""
    out = []
    for item in inp["graphs"]:
        g = graphs.parse_graph_file(item["text"])
        data, all_ok = verify.build_graph_report(g, item["vertex"])
        out.append((json.dumps(data, sort_keys=True, indent=2) + "\n", all_ok))
    return out


def seed_invariant_view(data: dict) -> dict:
    """The report without its vertex and check verdicts.

    The six graphs are distance-transitive, so relabelling and base vertex
    change none of the remaining fields.
    """
    view = {k: v for k, v in data.items() if k != "vertex"}
    view["checks"] = [c["name"] for c in data["checks"]]
    return view


def drg_check(inp: dict, out) -> list[OpResult]:
    results = []
    for item, (text, all_ok) in zip(inp["graphs"], out):
        fam = item["family"]
        op = OpResult(fam.name)
        data = json.loads(text)
        _expect(op.problems, "num_vertices", data["num_vertices"], fam.n)
        _expect(op.problems, "vertex", data["vertex"], item["vertex"])
        _expect(op.problems, "diameter", data["diameter"], fam.diameter)
        _expect(op.problems, "eigenvalues", data["eigenvalues"], list(fam.eigenvalues))
        _expect(op.problems, "valencies", data["valencies"], fam.valencies())
        table = fam.p_table()
        _expect(op.problems, "p_table", data["p_table"], table)
        _expect(op.problems, "triple_span_dim", data["triple_span_dim"], families.nonzero_triples(table))
        ref = inp["reference"].get(fam.name)
        if ref is None or seed_invariant_view(data) != ref:
            op.problems.append("seed-invariant fields differ from the reference")
        failing = [c["name"] for c in data["checks"] if not c["pass"]]
        verdict_problems = []
        _expect(verdict_problems, "failing checks", failing, [])
        _expect(verdict_problems, "all_ok", all_ok, True)
        op.known_defect = (
            fam.name in KNOWN_DEFECT_GRAPHS
            and not op.problems
            and failing == [TRIPLE_CHECK]
        )
        op.problems.extend(verdict_problems)
        results.append(op)
    return results


# -- registry ----------------------------------------------------------------

_COMMON_SITES = (
    "intops.exact_matmul",
    "echelon.EchelonSpan.add",
    "linalg.inverse",
    "linalg.RationalMatrix.matmul",
    "closure.closure",
    "subconstituent.check_section_identities",
    "subconstituent.check_triple_products",
    "graphs.DistanceData.compute",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cube-sweep-d7",
            sweep_inputs,
            sweep_run,
            sweep_check,
            _COMMON_SITES
            + (
                "echelon.EchelonSpan.add_tracked",
                "linalg.kernel_basis",
                "linalg.rref",
                "linalg.min_poly",
                "linalg.rank",
                "wedderburn.decompose",
                "wedderburn.center_basis",
                "wedderburn.split_center",
                "wedderburn.block_sizes",
                "wedderburn.complement_algebra",
                "idempotent.verify_u0",
                "subconstituent.build_hypercube_context",
                "subconstituent.triple_span_dim",
                "subconstituent.check_polynomial_images",
                "graphs.is_distance_regular",
                "verify.global_checks",
                "report.VerificationReport.to_json",
            ),
        ),
        Workload(
            "cube-d8-core",
            core_inputs,
            core_run,
            core_check,
            _COMMON_SITES
            + (
                "linalg.rank",
                "idempotent.verify_u0",
                "subconstituent.build_hypercube_context",
            ),
        ),
        Workload(
            "drg-graphs",
            drg_inputs,
            drg_run,
            drg_check,
            _COMMON_SITES
            + (
                "echelon.EchelonSpan.add_tracked",
                "linalg.rref",
                "linalg.min_poly",
                "subconstituent.build_context",
                "subconstituent.triple_span_dim",
                "graphs.is_distance_regular",
                "graphs.parse_graph_file",
            ),
        ),
    )
}
