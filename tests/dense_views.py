"""Dense n x n views of block pieces and of the diagonals a context holds,
for the reference checks in the tests."""

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


def dense_diagonal(row: RationalMatrix) -> RationalMatrix:
    """The n x n diagonal matrix of a held diagonal (a 1 x n row), such as
    TerwContext.E_star[i] or A_star[i], canonicalized on its own."""
    return RationalMatrix(np.diag(row.num[0]), row.den)
