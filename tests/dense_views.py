"""Dense n x n views of block pieces, for the reference checks in the tests."""

import numpy as np

from terwalg.linalg import RationalMatrix


def densify(basis) -> tuple[RationalMatrix, ...]:
    """Every element as a dense integer n x n matrix, in insertion order.

    basis is a closure.BlockSpans, or an object holding one as `span` (an
    AlgebraBasis or a CompressedAlgebra).
    """
    span = getattr(basis, "span", basis)
    out = []
    for k in range(span.dim):
        h, j, block = span.element(k)
        dense = np.zeros((span.n, span.n), dtype=block.dtype)
        dense[np.ix_(span.classes[h], span.classes[j])] = block
        out.append(RationalMatrix(dense, 1, _canonical=True))
    return tuple(out)
