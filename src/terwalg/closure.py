"""Unital matrix algebra closure, one class block at a time.

The coordinates 0..n-1 are split into the joint value classes S_1..S_c of
the diagonal generators: two coordinates share a class when every diagonal
generator has the same diagonal entry at both.  The class projections P_h
(the 0/1 diagonal indicators of S_h) are polynomials in the diagonal
generators, so they lie in the algebra T, sum to I and are orthogonal
idempotents.  Hence T is the direct sum of its blocks P_h T P_j, and an
n x n matrix lies in T exactly when each of its blocks does.  Conversely T is
generated by the P_h and the non-diagonal generators, since every diagonal
generator is a combination of the P_h.

The closure runs on blocks.  The seeds are the P_h, in class order.  Every
basis piece X of block (h, j) is left-multiplied by each non-diagonal
generator g in the order given, and each row block P_h' g X = g[S_h', S_h] X
is reduced in the echelon span of block (h', j), at width |S_h'| |S_j|;
independent residuals join the basis and are queued in turn.  A diagonal
generator acts on a block as a scalar, so it is never multiplied, and
P_h' X is X or 0.  The pieces are therefore closed under left multiplication
by every P_h and every generator, and span T.  With no diagonal generator
there is one class and this is the plain closure from the identity.

The supports of different blocks are disjoint, and a block's coordinates in
row-major order are its entries' order in the row-major n x n matrix, so the
union of the blocks' reduced echelon rows is the reduced echelon basis of T
at width n^2: the row set depends only on the generators.  In particular
the first nonzero entry of a piece in block row-major order, mapped through
its classes, is the element's first nonzero entry in the n x n matrix: its
pivot.  The pieces are the only form in which the basis is kept.
Denominators are dropped before reduction because scaling an element does
not change the span.

The loop proves that the span is closed under left multiplication by every
generator and contains I, so it is the unital algebra T itself: closed
under multiplication, with unit I.  closure() records that on the span as
its closedness certificate (BlockSpans.closed_unit = I); wedderburn
splits only a span that carries one, and checks it on pivot entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._intops import exact_matmul
from .echelon import EchelonSpan
from .linalg import RationalMatrix


class BlockSpans:
    """Reduced echelon spans of the blocks P_h X P_j of n x n matrices.

    Block (h, j) holds the entries in rows classes[h] and columns classes[j],
    flattened row-major; each class is an ascending array of coordinates.
    Elements are numbered in the order they were inserted, across blocks.

    closed_unit is the closedness certificate: None, or a unit e such that
    the span is known to be closed under multiplication and to contain e.
    Only closure() and wedderburn.complement_algebra set it, each after
    proving it; inserting a new element clears it.
    """

    def __init__(self, n: int, classes: Sequence[np.ndarray]):
        self.n = n
        self.classes = tuple(classes)
        self._spans: dict[tuple[int, int], EchelonSpan] = {}
        self._elements: list[tuple[int, int, int]] = []  # (h, j, row index)
        self.closed_unit: RationalMatrix | None = None

    @property
    def dim(self) -> int:
        return len(self._elements)

    def add(self, h: int, j: int, block: np.ndarray) -> int | None:
        """Reduce an integer |S_h| x |S_j| block in the span of block (h, j).

        Returns:
            The new element's number, or None when it was already spanned.
        """
        span = self._spans.get((h, j))
        if span is None:
            width = len(self.classes[h]) * len(self.classes[j])
            span = self._spans[(h, j)] = EchelonSpan(width)
        idx = span.add(block.ravel())
        if idx is None:
            return None
        self.closed_unit = None
        self._elements.append((h, j, idx))
        return len(self._elements) - 1

    def element(self, k: int) -> tuple[int, int, np.ndarray]:
        """(h, j, current reduced block) of element k (do not mutate)."""
        h, j, idx = self._elements[k]
        block = self._spans[(h, j)].row(idx)
        return h, j, block.reshape(len(self.classes[h]), len(self.classes[j]))

    def contains(self, m: np.ndarray) -> bool:
        """Exact membership of an integer n x n matrix, block by block."""
        for h, rows in enumerate(self.classes):
            for j, cols in enumerate(self.classes):
                block = m[np.ix_(rows, cols)]
                span = self._spans.get((h, j))
                if span is None:
                    if np.any(block):
                        return False
                elif not span.contains(block.ravel()):
                    return False
        return True


@dataclass(frozen=True)
class AlgebraBasis:
    """Echelonized basis of a matrix algebra, held as its block spans."""

    span: BlockSpans

    @property
    def side(self) -> int:
        return self.span.n

    @property
    def dim(self) -> int:
        return self.span.dim

    def contains(self, m: RationalMatrix) -> bool:
        """Exact membership of a matrix in the span."""
        return self.span.contains(m.num)


def _is_diagonal(a: np.ndarray) -> bool:
    return not np.any(a[~np.eye(a.shape[0], dtype=bool)])


def joint_classes(n: int, diagonals: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Classes of coordinates on which every given diagonal agrees.

    Each class is an ascending array; classes are ordered by their smallest
    coordinate.  With no diagonals there is one class, 0..n-1.
    """
    keys = list(zip(*(d.tolist() for d in diagonals))) if diagonals else [()] * n
    members: dict[tuple, list[int]] = {}
    for v, key in enumerate(keys):
        members.setdefault(key, []).append(v)
    return tuple(np.array(vs, dtype=np.intp) for vs in members.values())


def closure(generators: Sequence[RationalMatrix]) -> AlgebraBasis:
    """Basis of the unital algebra generated by the given square matrices.

    Args:
        generators: square matrices of one common size.

    Returns:
        AlgebraBasis whose span contains the identity and is closed under
        multiplication by every generator, certified by span.closed_unit = I.
        Its first elements are the class projections; every later one is a
        block of a product, see the module docstring.
    """
    if not generators:
        raise ValueError("at least one generator expected")
    n = generators[0].nrows
    for g in generators:
        if g.shape != (n, n):
            raise ValueError(f"generator shape {g.shape} differs from ({n}, {n})")
    diagonal = [_is_diagonal(g.num) for g in generators]
    classes = joint_classes(
        n, [g.num.diagonal() for g, diag in zip(generators, diagonal) if diag]
    )
    # For each non-diagonal generator and source class h, its nonzero row
    # blocks g[S_h', S_h] with their target class h'.
    actions = []
    for g, diag in zip(generators, diagonal):
        if diag:
            continue
        by_source = []
        for cols in classes:
            targets = []
            for h2, rows in enumerate(classes):
                block = g.num[np.ix_(rows, cols)]
                if np.any(block):
                    targets.append((h2, block))
            by_source.append(targets)
        actions.append(by_source)

    spans = BlockSpans(n, classes)
    # Each element is multiplied as it was inserted, copied before later
    # insertions reduce its stored row.
    pieces: list[tuple[int, int, np.ndarray]] = []
    for h, cls in enumerate(classes):
        k = spans.add(h, h, np.eye(len(cls), dtype=np.int64))
        pieces.append((h, h, spans.element(k)[2].copy()))

    pos = 0
    while pos < len(pieces):
        h, j, x = pieces[pos]
        for by_source in actions:
            for h2, block in by_source[h]:
                k = spans.add(h2, j, exact_matmul(block, x))
                if k is not None:
                    pieces.append((h2, j, spans.element(k)[2].copy()))
        pos += 1

    spans.closed_unit = RationalMatrix.identity(n)
    return AlgebraBasis(spans)
