"""Unital matrix algebra closure, one class block at a time.

closure() returns one of two span types: the product loop's BlockSpans of
echelon rows, or the certified triple-label basis, a CellForm over the
cells of the caller's labels that carries its closedness certificate.  The
split (wedderburn) and the U0 checks (idempotent) take a CellForm only;
every other reader reads either type through dim alone.

A generator is given in one of two forms: an n x n matrix, or a 1 x n row
that stands for the diagonal matrix diag(row).  A 1 x 1 matrix is both
forms and the same matrix.  The rows are the diagonal generators; an
n x n matrix is closed over as it stands, even when it is diagonal.

The coordinates 0..n-1 are split into the joint value classes S_1..S_c of
the rows: two coordinates share a class when every row has the same entry
at both.  The class projections P_h (the 0/1 diagonal indicators of S_h)
are polynomials in the diagonal generators, so they lie in the algebra T,
sum to I and are orthogonal idempotents.  Hence T is the direct sum of its
blocks P_h T P_j, and an n x n matrix lies in T exactly when each of its
blocks does.  Conversely T is generated by the P_h and the n x n
generators, since every diagonal generator is a combination of the P_h.

The closure runs on blocks, and its queue is the span itself.  The seeds
are the P_h, in class order.  Element k, in block (h, j), is taken in turn,
k = 0, 1, ... while k < dim, as its row stands at that turn, X_k; it is
left-multiplied by each n x n generator g in the order given, and each row
block P_h' g X_k = g[S_h', S_h] X_k is reduced in the echelon span of block
(h', j), at width |S_h'| |S_j|; an independent residual joins the span as a
new element, whose turn comes later.  A diagonal generator acts on a block
as a scalar, so it is never multiplied, and P_h' X_k is X_k or 0.  With no
row there is one class and this is the plain closure from the identity.

Why the rows as they stand at their turns suffice.  Let r_k be row k as
inserted.  Until its turn, row k changes only when a later row v of the
same block span clears its pivot from it: r <- (a r - b v) / g with a != 0,
and v is inserted after k, so its own turn comes after k's.  So the rows
multiplied, X_0, X_1, ..., are unitriangular in the inserted rows (X_k is
a nonzero multiple of r_k plus later rows of its block) and span the same
space, the span at the end.  Every product g X_k is reduced into that span,
so the span is closed under left multiplication by every n x n generator
and, blockwise, by every P_h; it contains I, so it is T.  A stored row is
never written in place (clearing stores a new array, and stored rows are
read-only, echelon), so the view read at a turn stays valid with no copy.

The supports of different blocks are disjoint, and a block's coordinates in
row-major order are its entries' order in the row-major n x n matrix, so the
union of the blocks' reduced echelon rows is the reduced echelon basis of T
at width n^2: the row set depends only on the algebra and its classes.  In
particular the first nonzero entry of a piece in block row-major order,
mapped through its classes, is the element's first nonzero entry in the
n x n matrix: its pivot.  The pieces are the only form in which the basis
is kept.  Denominators are dropped before reduction because scaling an
element does not change the span.

The loop proves that the span is closed under left multiplication by every
generator and contains I, so it is the unital algebra T itself: closed
under multiplication, with unit I.  Its BlockSpans carries no certificate
of that, and the split refuses it.

The triple-label basis.  A caller may pass an n x n integer table labels
with a guarantee: every triple class indicator 1_C, the 0/1 matrix of
C = {(y, z) in S_h x S_j : labels[y, z] = v}, lies in T.  For T(x) of a
distance-regular graph, labels = dist gives 1_C = P_h A_v P_j with
A_v = v_v(A) a polynomial in A, so the guarantee holds once construction
has certified distance-regularity (subconstituent.TerwContext.
algebra_basis, verify._prepare).  The indicators of one block have disjoint
supports, so they are primitive 0/1 rows that are zero at each other's
pivots: in pivot order they are already the block's reduced echelon rows,
with no reduction, and each row's pivot is the first pair of its class,
with value 1.  closure() takes them as the basis when three checks hold,
and otherwise runs the product loop unchanged:

- Each class projection is a sum of classes: on a diagonal block (h, h),
  a label on the diagonal occurs nowhere off it.  Then P_h, and I, lie in
  the span.
- Every n x n generator g is 0/1, and each step y -> w of its support
  (g[y, w] = 1) moves every label by at most 1:
  |labels[w, z] - labels[y, z]| <= 1 for all z.
- For each class S_h' and delta in {-1, 0, 1}, the count
  N_h',delta(y, z) = #{w in S_h' : g[y, w] = 1, labels[w, z] = labels[y, z] + delta}
  is constant on every triple class.

Then, for a class C in block (h', j) with label v and (y, z) in a class C'
of block (h, j), (g 1_C)[y, z] = #{w in S_h' : g[y, w] = 1,
labels[w, z] = v}, which is N_h',v-labels[y,z](y, z) when v is within 1 of
labels[y, z], and 0 otherwise: a constant on C'.  So g 1_C is a combination
of class indicators, the span is closed under left multiplication by every
n x n generator, and under the P_h and so every diagonal generator, since
P_h' 1_C is 1_C or 0.  It contains I, so it contains T, and the caller's
guarantee gives the other inclusion: the span is T, with unit I, and its
certificate closed_unit is the table of I.

The counts are read per row class S_h, over whole |S_h| x n tables in the
class order of the coordinates, through the gather of g's support sorted
by target class (_slot_tables, _step_key).  The path also asks that the
number r of steps from y into S_h' be the same for every y of S_h; when
the diagonal of S_h x S_h is one label, as it is for dist, the third check
implies it, since r(y) is the sum of the three counts at (y, y).  The
label changes of the r steps sum to N_1 - N_-1 and their absolute values
to N_1 + N_-1, so that pair of int8 sums names the three counts; one key
table packs the pairs of all target classes, and the key of every pair is
compared with the key at one fixed pair of its class: one in the first row
of S_h.  A class that misses that row is compared with the row's first
pair instead, which can only fail the certificate, never pass it wrongly;
for dist every class meets every row of S_h, since its row counts are
intersection numbers.  All of this runs before any element is found, so a
graph that fails pays for no more.  Elements are numbered in a fixed order
that depends only on the classes and the labels: the diagonal labels of
the diagonal blocks first, class by class, so the first c elements are the
class projections when the diagonal is one label, as it is for dist; then
every other class, block by block in row-major order of (h, j), each block
in pivot order.  A class's first pair is its first column in the first
row of S_h x n that meets it, in class order, where a block's columns are
consecutive.

The cell form.  A certified span is a CellForm over a CellTable, with no
row: cell k is the triple class of element k, and the table maps each
pair (y, z) to its cell.  No n x n array of it is built: it keeps the
caller's labels by reference and a (c, c nv) lookup of cell numbers by row
class, column class and label, and forms only the part a reader asks for,
in the narrow dtype of the lookup: the m pivot rows and columns that
wedderburn's split reads (CellForm.positions), or the diagonal.  It names
the block and the label of each cell (CellTable.blocks, CellTable.values);
for labels = dist that fixes the cell's line counts, which are
intersection numbers (idempotent.cell_line_counts), so no reader counts
them.  A closure whose span is never split, as in the U0 checks alone or
the graph reports, forms no part of the table.

A unit is held as a class table (u, den) over the span's classes: the
matrix e = I - sum_h (u_h / den) J_{S_h}, with J_{S_h} the all-ones block
on S_h x S_h, u a tuple of Python ints, den > 0 and gcd(u, den) = 1.  The
table of an e is unique, so two units are equal exactly when their tables
are; unit_table brings a table to that form, and every unit is made by
it.  I is ((0,) * c, 1); the U0 corner's unit I - U0 is
(m_sigma(h) for each class h, L), from L U0 = sum_a m_a J_{S_a}
(idempotent.verify_u0).  No unit is formed at n x n: the split reads one
at the pivots of its basis (wedderburn._PivotBasis.unit_coordinates),
e[R_k, C_k] = [R_k = C_k] - [h_k = j_k] u_{h_k} / den, since e is I plus
a constant on each diagonal block S_h x S_h and zero off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._intops import exact_matmul, narrow_dtype
from .echelon import EchelonSpan
from .linalg import RationalMatrix

# (u, den): the unit I - sum_h (u_h / den) J_{S_h} (module docstring).
Unit = tuple[tuple[int, ...], int]


def unit_table(u, den: int) -> Unit:
    """The unit table of I - sum_h (u_h / den) J_{S_h}, for integer u_h and
    den != 0, in lowest terms: den > 0 and gcd(u, den) = 1."""
    u = [int(v) for v in u]
    g = math.gcd(den, *u) * (1 if den > 0 else -1)
    return tuple(v // g for v in u), den // g


def identity_unit(classes: int) -> Unit:
    """The unit table of I over a span with the given number of classes."""
    return unit_table((0,) * classes, 1)


class CellTable:
    """The cell table of a certified triple-label span: the map from each
    pair (y, z) to the element of the span whose triple class holds it.

    Cell k is the class {(y, z) in S_h x S_j : labels[y, z] = v} of element k
    of the span closure() certified (module docstring).  No n x n array of
    the table is held: each reader forms the part it asks for from the
    caller's labels, which the table references and never copies, through
    a (c, c nv) lookup of cell numbers by row class and (column class,
    label), c classes and nv label values.  Every part is held in the
    narrow dtype of the lookup, with no n^2 temporary.
    """

    def __init__(self, classes, labels: np.ndarray, lo: int, nv: int, owner, lookup, blocks):
        self.classes = classes
        self.labels = labels  # the caller's array, by reference
        self._lo = lo
        self._nv = nv
        self._held = narrow_dtype(nv - 1)
        self._owner = owner  # owner[y]: the class of coordinate y
        self._tag = (owner * nv).astype(narrow_dtype(len(classes) * nv))
        self._lookup = lookup  # lookup[h, j nv + v]: the cell, or -1
        self.blocks = blocks  # blocks[k] = (h, j), the block of cell k
        hs, keys = np.nonzero(lookup >= 0)
        self.values = np.empty(len(blocks), dtype=np.int64)  # values[k] = v, the label of cell k
        self.values[lookup[hs, keys]] = keys % nv + lo

    @property
    def size(self) -> int:
        return len(self.blocks)

    def _values(self, part: np.ndarray) -> np.ndarray:
        """Labels read from the table, shifted to 0..nv-1, held narrow."""
        if self._lo or part.dtype != self._held:
            part = (part.astype(np.int64) - self._lo).astype(self._held)
        return part

    def rows(self, ys: np.ndarray) -> np.ndarray:
        """The rows cells[ys, :], a len(ys) x n array."""
        key = self._tag + self._values(self.labels[ys])
        return self._lookup[self._owner[ys, None], key]

    def cols(self, zs: np.ndarray) -> np.ndarray:
        """The columns cells[:, zs], an n x len(zs) array."""
        key = self._tag[zs] + self._values(self.labels[:, zs])
        return self._lookup[self._owner[:, None], key]

    def diagonal(self) -> np.ndarray:
        """cells[y, y] for every coordinate y."""
        return self._lookup[self._owner, self._tag + self._values(self.labels.diagonal())]


@dataclass(frozen=True)
class CellForm:
    """A certified span in cell form: T's triple-label basis, or the U0
    corner read off it.  Its elements are integer combinations of the cells
    of a CellTable: element k is sum_s coef[k, s] 1_{cell index[k, s]}, the
    dim x #cells matrix M with at most w = index.shape[1] entries per row,
    and pivots[k] = (r, c, value, max): its pivot X[r, c] = value and max|X|
    in its block X, which the maker states.  The triple-label basis T has
    M = I (w = 1); the U0 corner has two entries per row
    (wedderburn.complement_algebra).  All the cells of one element lie in
    one block (h, j), its block.

    closed_unit is the closedness certificate: None, or the unit table of
    an e such that the span is known to be closed under multiplication and
    to contain e (module docstring).  Only closure() and
    wedderburn.complement_algebra set it, each after proving it.
    """

    table: CellTable
    index: np.ndarray  # dim x w cell numbers
    coef: np.ndarray  # dim x w int64 coefficients
    pivots: list[tuple[int, int, int, int]]
    closed_unit: Unit | None = None

    @property
    def n(self) -> int:
        return len(self.table.labels)

    @property
    def classes(self) -> tuple[np.ndarray, ...]:
        return self.table.classes

    @property
    def dim(self) -> int:
        return len(self.index)

    def block(self, k: int) -> tuple[int, int]:
        """(h, j): the block of element k."""
        return tuple(self.table.blocks[self.index[k, 0]].tolist())

    def pivot(self, k: int) -> tuple[int, int, int]:
        """(r, c, value) of the pivot of element k's block X: its first
        nonzero in row-major order, X[r, c] = value."""
        return self.pivots[k][:3]

    def row_max(self, k: int) -> int:
        """max|X| of element k's block X."""
        return self.pivots[k][3]

    def weights(self, c: np.ndarray) -> np.ndarray:
        """c M: the weight of each cell in sum_k c_k (element k), summed
        exactly on c's dtype (int64 or object); the caller bounds it."""
        out = np.zeros(self.table.size, dtype=c.dtype)
        np.add.at(out, self.index, c[:, None] * self.coef)
        return out

    def positions(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) for m pivots (rows[i], cols[i]): the m x n positions
        i #cells + cells[t, cols[i]] and i #cells + cells[rows[i], t] at
        (i, t), flat, in an m x #cells table (sums).  numpy's ufunc.at and
        take are fastest on one flat index array, and one held as int32
        keeps their temporaries small."""
        top = len(rows) * self.table.size
        base = np.arange(len(rows))[:, None] * self.table.size
        held = np.int32 if top <= np.iinfo(np.int32).max else np.intp
        left = np.ravel(base + self.table.cols(cols).T).astype(held)
        return left, np.ravel(base + self.table.rows(rows)).astype(held)

    def sums(self, part: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The m x #cells sums S[i, C] of the entries part[i, t] of an m x n
        part at position at[i, t] = i #cells + C (positions): one exact
        scatter-add on part's own dtype (int64 or object); the caller
        bounds it."""
        out = np.zeros(len(part) * self.table.size, dtype=part.dtype)
        np.add.at(out, at, part.ravel())
        return out.reshape(len(part), -1)

    def combine(self, sums: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """S M^T at the columns ks: column c is
        sum_s coef[k, s] S[:, index[k, s]], k = ks[c]; the caller bounds it."""
        index, coef = self.index[ks], self.coef[ks]
        out = sums[:, index[:, 0]] * coef[:, 0]
        for s in range(1, index.shape[1]):
            out += sums[:, index[:, s]] * coef[:, s]
        return out

    def own(self, sums: np.ndarray) -> np.ndarray:
        """The diagonal of S M^T: entry k is sum_s coef[k, s] S[k, index[k, s]];
        the caller bounds it."""
        at = np.arange(len(sums))
        return sum(sums[at, self.index[:, s]] * self.coef[:, s] for s in range(self.index.shape[1]))

    @property
    def is_cells(self) -> bool:
        """Is every element one cell, element k cell k (M = I)?"""
        return (
            self.index.shape == (self.dim, 1)
            and np.array_equal(self.index[:, 0], np.arange(self.dim))
            and bool((self.coef == 1).all())
        )


class BlockSpans:
    """The product loop's span: reduced echelon spans of the blocks
    P_h X P_j of n x n matrices, held as echelon rows.

    Block (h, j) holds the entries in rows classes[h] and columns classes[j],
    flattened row-major; each class is an ascending array of coordinates.
    Elements are numbered in the order they were inserted, across blocks.
    The span carries no closedness certificate, and the split refuses it.
    """

    def __init__(self, n: int, classes: Sequence[np.ndarray]):
        self.n = n
        self.classes = tuple(classes)
        self._spans: dict[tuple[int, int], EchelonSpan] = {}
        self._elements: list[tuple[int, int, int]] = []  # (h, j, row index)

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
        self._elements.append((h, j, idx))
        return len(self._elements) - 1

    def element(self, k: int) -> tuple[int, int, np.ndarray]:
        """(h, j, current reduced block) of element k, a read-only view of
        the row its span holds narrow (echelon)."""
        h, j, idx = self._elements[k]
        block = self._spans[(h, j)].row(idx)
        return h, j, block.reshape(len(self.classes[h]), len(self.classes[j]))


def zero_sum_span(t: CellForm, sizes: Sequence[int]) -> CellForm:
    """The span of the combinations sum_C b_C 1_C of the cells of each
    block with sum_C b_C |C| = 0, for a span t whose elements are its cells
    (CellForm.is_cells) and sizes[k] = |cell k|.  It carries no
    certificate.

    On a block with cells C in t's order and C0 the one whose first pair
    comes last, the rows are (|C0| 1_C - |C| 1_C0) / gcd(|C0|, |C|) for
    every other C, in t's order: pivot the first pair of C, with value
    |C0| / gcd, which lies in no other row, and content 1.  So they are the
    block's reduced echelon basis already, and no reduction runs.
    """
    offset = [t.pivot(k)[:2] for k in range(t.dim)]
    blocks = [t.block(k) for k in range(t.dim)]
    last: dict[tuple[int, int], int] = {}
    for k, block in enumerate(blocks):
        if offset[k] > offset[last.setdefault(block, k)]:
            last[block] = k
    index, coef, pivots = [], [], []
    for k, block in enumerate(blocks):
        k0 = last[block]
        if k != k0:
            g = math.gcd(sizes[k0], sizes[k])
            a, b = sizes[k0] // g, sizes[k] // g
            index.append((k, k0))
            coef.append((a, -b))
            pivots.append((*offset[k], a, max(a, b)))
    return CellForm(
        t.table,
        np.array(index, dtype=np.intp).reshape(-1, 2),
        np.array(coef, dtype=np.int64).reshape(-1, 2),
        pivots,
    )


def diagonal_row(g: RationalMatrix) -> np.ndarray | None:
    """The numerators of diag(row) when the generator g is given as a 1 x n
    row (module docstring); None when g is an n x n matrix with n > 1."""
    return g.num[0] if g.nrows == 1 else None


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


def _slot_tables(n, owner, starts, generators, diagonals, perm):
    """For each n x n generator g, its support as slot tables in the class
    order of the coordinates (perm), or None when some g is not 0/1 or the
    number of g-steps from y into a class S_h' is not the same for every y
    of y's class.

    Entry h of a generator's list is (slots, groups): row s of slots lists,
    for every y of S_h, the s-th w with g[y, w] = 1, the w sorted by class;
    groups holds (first slot, r) for each class h' that the steps reach, r
    steps from each y.  Coordinates are positions in perm.
    """
    c = len(starts) - 1
    inv = np.empty(n, dtype=np.intp)
    inv[perm] = np.arange(n)
    out = []
    for g, row in zip(generators, diagonals):
        if row is not None:
            continue
        if g.den != 1:
            return None
        ys, ws = np.nonzero(g.num)
        if not np.all(g.num[ys, ws] == 1):
            return None
        ws = inv[ws]
        key = inv[ys] * c + owner[ws]
        order = np.argsort(key, kind="stable")
        ws = ws[order]
        counts = np.bincount(key, minlength=n * c).reshape(n, c)
        per_class = counts[starts[:-1]]
        if not np.array_equal(counts, np.repeat(per_class, np.diff(starts), axis=0)):
            return None
        tables = []
        offset = 0
        for h, r in enumerate(per_class):
            size, k = starts[h + 1] - starts[h], int(r.sum())
            slots = np.ascontiguousarray(ws[offset : offset + size * k].reshape(size, k).T)
            offset += size * k
            firsts = np.cumsum(r) - r
            tables.append((slots, [(int(firsts[t]), int(r[t])) for t in np.flatnonzero(r)]))
        out.append(tables)
    return out


def _step_key(lab, block_rows, slots, groups):
    """The count key of one row block S_h, or None when some step moves a
    label by more than 1 or the key has no int64 dtype.

    For each group (h', r), N_delta(y, z) counts the r steps y -> w into
    S_h' with lab[w, z] - lab[y, z] = delta.  The steps' label changes sum
    to N_1 - N_-1 and their absolute values to N_1 + N_-1, with
    N_-1 + N_0 + N_1 = r, so the pair of sums names the three counts; the
    key packs the pairs of all groups in mixed radix, one int table.  The
    sums are formed in place, outside _intops.guarded: a group's two sums
    lie in [-r, r] and every partial key in [0, top), so each is exact in
    the dtype narrow_dtype picks from that bound.
    """
    top = 1
    for _, r in groups:
        top *= (2 * r + 1) * (r + 1)
    held = narrow_dtype(top)  # every key, and every partial one, is below top
    if held is None:
        return None
    key = None
    buf = np.empty_like(block_rows)
    for first, r in groups:
        acc = narrow_dtype(r)
        net = np.zeros(block_rows.shape, dtype=acc)
        moved = np.zeros(block_rows.shape, dtype=acc)
        for s in range(first, first + r):
            np.take(lab, slots[s], axis=0, out=buf, mode="clip")
            np.subtract(buf, block_rows, out=buf)
            net += buf
            np.abs(buf, out=buf)
            if buf.max() > 1:
                return None
            moved += buf
        part = moved.astype(held)
        part *= 2 * r + 1
        part += net
        part += r
        if key is None:
            key = part
        else:
            key *= (2 * r + 1) * (r + 1)
            key += part
    return key


def _triple_label_spans(n, classes, generators, diagonals, labels) -> CellForm | None:
    """The triple-label basis, certified to span the algebra, or None.

    The caller guarantees that every indicator of a triple class
    {(y, z) in S_h x S_j : labels[y, z] = v} lies in the algebra (module
    docstring).  Element k is the indicator of cell k, held in cell form
    (CellForm, certified with the unit table of I), with its pivot at the
    first pair of its class in block row-major order, value 1; the elements
    are the indicators of the diagonal blocks' diagonal labels, class by
    class, then every other class, block by block in row-major order of
    (h, j), each block in pivot order.  None when the certificate fails,
    which is checked before any element is found.
    """
    labels = np.asarray(labels)
    if labels.shape != (n, n) or labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be an integer ({n}, {n}) array")
    c = len(classes)
    sizes = [len(cls) for cls in classes]
    starts = np.concatenate(([0], np.cumsum(sizes)))
    perm = np.concatenate(classes)
    owner = np.repeat(np.arange(c), sizes)
    tables = _slot_tables(n, owner, starts, generators, diagonals, perm)
    if tables is None:
        return None
    lo, hi = int(labels.min()), int(labels.max())
    nv = hi - lo + 1
    if nv > n:
        return None  # each block is compared with every label value
    # The labels in class order, shifted to 0..nv-1, held narrow.  One n x n
    # copy: its rows are gathered whole, then its columns permuted a slab of
    # rows at a time (numpy's take is several times faster than a gather at
    # np.ix_(perm, perm)).
    lab = labels.take(perm, axis=0)
    for s in range(0, n, 256):
        lab[s : s + 256] = lab[s : s + 256].take(perm, axis=1)
    held = narrow_dtype(nv - 1)
    if lo or lab.dtype != held:
        lab = (lab.astype(np.int64) - lo).astype(held)
    tag = (owner * nv).astype(narrow_dtype(c * nv))  # class id base of column z

    # The certificate first, read from the labels alone: no element is
    # found for a graph that fails it.
    on_diagonal = []
    for h in range(c):
        block_rows = lab[starts[h] : starts[h + 1]]
        # The class projection is the sum of the indicators of the labels on
        # the diagonal: none may occur off it.
        square = block_rows[:, starts[h] : starts[h + 1]]
        seen = np.bincount(square.diagonal(), minlength=nv)
        on = seen > 0
        if not np.array_equal(seen[on], np.bincount(square.ravel(), minlength=nv)[on]):
            return None
        on_diagonal.append(on.tolist())
        classed = tag + block_rows
        # rep[j nv + v]: one position per class (h, j, v) at which the key of
        # every pair of the class is read: a pair of the class in the first
        # row of S_h, or position 0 for a class that misses that row.
        rep = np.zeros(c * nv, dtype=np.intp)
        rep[classed[0]] = np.arange(n)
        for tables_g in tables:
            slots, groups = tables_g[h]
            if not groups:
                continue
            key = _step_key(lab, block_rows, slots, groups)
            if key is None or not np.array_equal(key.ravel()[rep].take(classed), key):
                return None

    # The elements, by block, then pivot: the first row of S_h x n that meets
    # each class key j nv + v, and its first column there (module docstring).
    diagonal, rest = [], []
    for h in range(c):
        classed = tag + lab[starts[h] : starts[h + 1]]
        seen = np.zeros((c * nv, len(classed)), dtype=bool)
        seen[classed, np.arange(len(classed))[:, None]] = True
        keys = np.flatnonzero(seen.any(axis=1))
        rs = seen[keys].argmax(axis=1)
        zs = (classed[rs] == keys[:, None]).argmax(axis=1)
        found = zip(keys.tolist(), rs.tolist(), zs.tolist())
        for key, r, z in sorted(found, key=lambda e: (e[0] // nv, e[1], e[2])):
            j, v = divmod(key, nv)
            element = (h, j, key, (r, z - int(starts[j]), 1, 1))
            (diagonal if h == j and on_diagonal[h][v] else rest).append(element)
    hs, js, keys, pivots = zip(*(diagonal + rest))
    dim = len(keys)
    # The cell table: cell k is the class of element k.
    lookup = np.full((c, c * nv), -1, dtype=narrow_dtype(dim))
    lookup[hs, keys] = np.arange(dim)
    owner_at = np.empty(n, dtype=np.intp)
    owner_at[perm] = owner
    table = CellTable(classes, labels, lo, nv, owner_at, lookup, np.column_stack((hs, js)))
    index, coef = np.arange(dim)[:, None], np.ones((dim, 1), np.int64)
    return CellForm(table, index, coef, list(pivots), closed_unit=identity_unit(c))


def closure(
    generators: Sequence[RationalMatrix], labels: np.ndarray | None = None
) -> BlockSpans | CellForm:
    """Basis of the unital algebra generated by the given matrices.

    Args:
        generators: n x n matrices and 1 x n rows, each row standing for
            the diagonal matrix diag(row) (module docstring).
        labels: an optional n x n integer array such that every triple
            class indicator {(y, z) in S_h x S_j : labels[y, z] = v} lies in
            the algebra.  The triple-label basis is then tried first, and
            taken when its certificate holds (module docstring).

    Returns:
        A span that contains the identity and is closed under multiplication
        by every generator: the triple-label basis as a CellForm, certified
        by closed_unit = the unit table of I, when its certificate holds, and
        otherwise the product loop's BlockSpans, which carry no certificate.
        Its first elements are the class projections; on the product loop
        every later one is a block of a product, see the module docstring.
    """
    if not generators:
        raise ValueError("at least one generator expected")
    n = generators[0].ncols
    for g in generators:
        if g.shape not in ((n, n), (1, n)):
            raise ValueError(f"generator shape {g.shape} is neither ({n}, {n}) nor (1, {n})")
    rows = [diagonal_row(g) for g in generators]
    classes = joint_classes(n, [row for row in rows if row is not None])
    if labels is not None:
        spans = _triple_label_spans(n, classes, generators, rows, labels)
        if spans is not None:
            return spans
    # For each n x n generator and source class h, its nonzero row blocks
    # g[S_h', S_h] with their target class h', the left factor of every
    # product with an element of block (h, j).
    actions = []
    for g, row in zip(generators, rows):
        if row is not None:
            continue
        by_source = []
        for cols in classes:
            targets = []
            for h2, members in enumerate(classes):
                block = g.num[np.ix_(members, cols)]
                if np.any(block):
                    targets.append((h2, block))
            by_source.append(targets)
        actions.append(by_source)

    spans = BlockSpans(n, classes)
    for h, cls in enumerate(classes):
        spans.add(h, h, np.eye(len(cls), dtype=np.int64))
    k = 0
    while k < spans.dim:
        h, j, x = spans.element(k)
        for by_source in actions:
            for h2, block in by_source[h]:
                spans.add(h2, j, exact_matmul(block, x))
        k += 1

    return spans
