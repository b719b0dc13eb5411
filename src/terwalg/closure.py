"""Unital matrix algebra closure under a fixed deterministic schedule.

Starting from the identity, every basis element is left-multiplied by each
generator in a fixed order (generators in the order given, basis in insertion
order); residuals that are independent join the basis and are queued in turn.
Each basis element is processed exactly once per generator, which makes the
span closed under left multiplication by every generator and hence equal to
the full unital algebra the generators generate.  The echelon engine keeps
the final row set canonical, so the resulting basis does not depend on
anything but the generators themselves.

Matrices are vectorized row-major; denominators are dropped before reduction
because scaling an element does not change the span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._intops import exact_matmul
from .echelon import EchelonSpan
from .linalg import RationalMatrix

Provenance = tuple  # ("seed",) or ("product", generator index, parent index)


@dataclass(frozen=True)
class AlgebraBasis:
    """Echelonized basis of a matrix algebra, in insertion order."""

    side: int
    matrices: tuple[RationalMatrix, ...]
    provenance: tuple[Provenance, ...]
    span: EchelonSpan

    @property
    def dim(self) -> int:
        return len(self.matrices)

    def contains(self, m: RationalMatrix) -> bool:
        """Exact membership of a matrix in the span."""
        return self.span.contains(m.num.ravel())


def closure(generators: Sequence[RationalMatrix]) -> AlgebraBasis:
    """Basis of the unital algebra generated by the given square matrices.

    Args:
        generators: square matrices of one common size.

    Returns:
        AlgebraBasis whose span contains the identity and is closed under
        multiplication by every generator.
    """
    if not generators:
        raise ValueError("at least one generator expected")
    n = generators[0].nrows
    for g in generators:
        if g.shape != (n, n):
            raise ValueError(f"generator shape {g.shape} differs from ({n}, {n})")
    span = EchelonSpan(n * n)
    snapshots: list[np.ndarray] = []
    provenance: list[Provenance] = []

    idx = span.add(np.eye(n, dtype=np.int64).ravel())
    snapshots.append(span.row(idx).copy())
    provenance.append(("seed",))

    gen_nums = [g.num for g in generators]
    pos = 0
    while pos < len(snapshots):
        parent = snapshots[pos].reshape(n, n)
        for gi, gnum in enumerate(gen_nums):
            candidate = exact_matmul(gnum, parent)
            idx = span.add(candidate.ravel())
            if idx is not None:
                snapshots.append(span.row(idx).copy())
                provenance.append(("product", gi, pos))
        pos += 1

    # Read-only views of the final span rows; nothing is added to the span
    # after this point, so the rows are never replaced under the views.
    matrices = tuple(
        RationalMatrix(row.reshape(n, n), 1, _canonical=True) for row in span.rows
    )
    return AlgebraBasis(n, matrices, tuple(provenance), span)

