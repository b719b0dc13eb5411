"""Exact-arithmetic toolkit for subconstituent algebras of hypercubes.

Builds the algebra generated by the adjacency and dual adjacency matrices
of the d-cube over the rationals, computes its dimension and Wedderburn
block structure, and verifies the defining matrix and polynomial
identities exactly, with no floating point anywhere.
"""

__version__ = "0.1.0"

from .checks import Check
from .closure import BlockSpans, CellForm, closure

# Loading the submodule .hypercube binds the package attribute "hypercube"
# to it, so the graph constructor of that name is imported after it.
from .hypercube import (
    HypercubeParams,
    intersection_number,
    krawtchouk_polys,
    permissible,
    permissible_mask,
    permissible_set,
    spectrum_poly,
)
from .graphs import DistanceData, Graph, hypercube, is_distance_regular, parse_graph_file
from .idempotent import U0Report, compute_u0, verify_u0
from .linalg import RationalMatrix, kernel_basis, min_poly, rank, rref
from .poly_identities import PhiImageReport, verify_phi_factorial, verify_phi_images
from .polys import RationalPoly
from .report import DiameterRecord, VerificationReport
from .subconstituent import (
    TerwContext,
    build_context,
    build_hypercube_context,
    check_polynomial_images,
    check_section_identities,
    check_triple_products,
    triple_span_dim,
)
from .wedderburn import (
    BlockDecomposition,
    block_sizes,
    center_basis,
    decompose,
    split_center,
)

__all__ = [
    "BlockDecomposition",
    "BlockSpans",
    "CellForm",
    "Check",
    "DiameterRecord",
    "DistanceData",
    "Graph",
    "HypercubeParams",
    "PhiImageReport",
    "RationalMatrix",
    "RationalPoly",
    "TerwContext",
    "U0Report",
    "VerificationReport",
    "block_sizes",
    "build_context",
    "build_hypercube_context",
    "center_basis",
    "check_polynomial_images",
    "check_section_identities",
    "check_triple_products",
    "closure",
    "compute_u0",
    "decompose",
    "hypercube",
    "intersection_number",
    "is_distance_regular",
    "kernel_basis",
    "krawtchouk_polys",
    "min_poly",
    "parse_graph_file",
    "permissible",
    "permissible_mask",
    "permissible_set",
    "rank",
    "rref",
    "spectrum_poly",
    "split_center",
    "triple_span_dim",
    "verify_phi_factorial",
    "verify_phi_images",
    "verify_u0",
]
