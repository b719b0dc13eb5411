"""Block structure of the algebra: center, central idempotents, block sizes.

Everything here works in the pivot coordinates of the algebra's reduced
echelon basis b_1..b_m, held as the block pieces of closure.BlockSpans: b_k
is an integer piece X_k on rows S_h x columns S_j and zero elsewhere, and no
b_k is formed at n x n.  The pivot of b_j is its first nonzero entry, at
matrix position (R_j, C_j) with value pv_j, and every other basis element is
zero there, so an element c of the span has coordinates c[R_j, C_j] / pv_j
and is zero exactly when its m pivot entries are.  Precondition: the span is
closed under multiplication and contains the generators and the unit e.  Then
every product the split needs lies in the span and is read through its
pivot entries alone.

Every element the split makes (the center basis, the probe, the central
idempotents) is held as integer coordinates (c, den), the element
z = sum_k c_k b_k / den.  b_k is the only basis element that is nonzero at
pivot k, so z's pivot entries are c_k pv_k / den.  The unit e is passed as
its class table (u, den), e = I - sum_h (u_h / den) J_{S_h} (closure.Unit),
and read into coordinates at the pivots alone
(_PivotBasis.unit_coordinates): e is I plus a constant on each diagonal
block S_h x S_h and zero off them, so
e[R_k, C_k] = [R_k = C_k] - [h_k = j_k] u_{h_k} / den.  Every operand (a
generator, the unit, the probe, an idempotent) is read only through its
frame, its m pivot rows z[R, :] and m pivot columns z[:, C]: a pivot entry
of g b_k or b_k g takes one pivot row or column of g (below), a pivot entry
of z^2 is z[R_k, :] z[:, C_k], and a block-size trace reads the pivot
columns.  A generator comes in either of closure's two forms: an n x n
matrix, whose frame is g[R, :], g[:, C], or a 1 x n row standing for
diag(row), whose frame holds row[R_k] at (k, R_k) of its m x n rows and
row[C_k] at (C_k, k) of its n x m columns, and is zero elsewhere
(_PivotBasis.diagonal_frame).  A coordinate vector's is summed from the
pieces: piece k of block (h, j) adds c_k X_k[r_i, :] to each pivot row R_i
in S_h, at columns S_j, and c_k X_k[:, c_i] to each pivot column C_i in
S_j, at rows S_h; each entry is at most sum_k |c_k| max|X_k|, the bound
handed to _intops.guarded.  Each half is built only where it is read: the
probe's rows, an idempotent's columns for its block size, both for the
guard.  So no n x n matrix is formed here: the only ones are the n x n
generators the caller passes, and the frames are m x n.

The cell path.  A span closure() certified on its triple-label basis is
held in cell form alone, over a cell table (closure.CellTable):
cells[y, z] is the triple class C that holds (y, z), and
b_k = sum_C M[k, C] 1_C for a small integer matrix M (closure.CellForm),
the identity on T and two entries per row on the U0 corner.  The split
reads such a span through the table, at its m pivot rows and columns, and
never through its pieces.  The frame of z = sum_k c_k b_k is one gather
of its cell weights w = c M:
z[R_i, t] = w[cells[R_i, t]] and z[t, C_i] = w[cells[t, C_i]].  A pivot
entry of g b_k is sum_C M[k, C] sum_{t : cells[t, C_i] = C} g[R_i, t], so
the pivot products of g are one exact scatter-add S[i, C] of g's pivot
rows by cell (numpy's add.at, on int64 or Python ints), then S M^T; b_k g
scatters g's pivot columns by cells[R_i, t] alike, and the trace entry
(b_k z)[R_k, C_k] is entry (k, k) of that product.  tr b_k is
sum_C M[k, C] #{y : cells[y, y] = C}.  Every value is the piece path's, and
each kernel states the piece path's bound.

- The center, filtered by class-diagonal generators.  Call a generator g
  class-diagonal when it is a row, constant, g_h, on every class S_h of the
  span, as A* is on the spheres; an n x n generator is never taken as one,
  diagonal or not, and a row that is not constant on the classes is read
  through its frame like any other generator.  For b_k in block (h, j),
  b_k g = g_j b_k and g b_k = g_h b_k, so [b_k, g] = (g_j - g_h) b_k.  The
  pivot entries of b_k are pv_k at pivot k and zero at every other pivot,
  so g's row block of the commutator matrix is diagonal, with the nonzero
  (g_j - g_h) pv_k exactly in the columns k with g_h != g_j.  Each such
  column is the only nonzero of its own row, so every kernel vector has
  alpha_k = 0 there, and g's rows impose nothing else.  The kernel is
  therefore the kernel of the other generators' rows restricted to the
  kept columns, padded with zeros.  The center basis is unchanged too:
  kernel_basis returns, for each free column f, the unique kernel vector
  that is 1 at f and 0 at the other free columns, and the free columns are
  the non-pivot columns of the row space.  That row space is
  span{e_k : k dropped} plus the kept-column row space, two subspaces on
  disjoint coordinates, so its pivot columns are the dropped columns plus
  the kept-column pivots, and the free columns are the same in both
  problems.  The filter needs no closure assumption.  A generator that is
  not class-diagonal contributes the pivot entries of [b_k, g] for the kept
  columns: g b_k vanishes outside columns S_j, so its pivot entries are zero
  except at the pivots with C_i in S_j, where they are
  sum_{t in S_h} g[R_i, t] X_k[t, C_i], read from g's pivot row R_i; b_k g
  vanishes outside rows S_h and has sum_{t in S_j} X_k[R_i, t] g[t, C_i],
  read from g's pivot column C_i, at the pivots with R_i in S_h.
  On the spheres of T(x), A* keeps only the columns of the diagonal blocks
  E*_h T E*_h, so the kernel runs on an m x m' matrix of A's rows, m' =
  sum_h dim E*_h T E*_h, not on a 2m x m one.
- Block sizes by trace.  If z in the span has z^2 = z, then R_z: b -> b z
  maps the closed span into itself and R_z^2 = R_z, so
  dim span{b_k z} = rank R_z = tr R_z.  Column k of R_z in coordinates is
  the coordinate vector of b_k z, so
  tr R_z = sum_k (b_k z)[R_k, C_k] / pv_k, and
  (b_k z)[R_k, C_k] = sum_{t in S_j} X_k[r_k, t] z[S_j[t], C_k] is one dot
  product of length |S_j| with z's pivot column C_k.  The block size n_r is
  the integer square root of tr R_{z_r}.
- The left-regular probe.  A deterministic probe p of the center, an
  integer combination of the center basis held as coordinates, acts on
  coordinates by L_p = D^-1 (pivot entries of p b_l), D = diag(pv), read
  from p's pivot rows.  Then
  q(L_p) coords(e) = coords(q(p) e), coordinates are injective, and
  p e = p, so q(L_p) coords(e) = 0 exactly when q(p) = 0:
  min_poly(L_p, coords(e)), on Krylov vectors of width m, is the minimal
  polynomial of p relative to e.  When it factors into distinct integer
  roots (polys.integer_roots isolates them exactly by Sturm sequences, with
  no search bound), the Lagrange idempotents
  prod (L_p - mu) / (lambda - mu) coords(e) are formed as coordinate
  vectors and kept as (c, den).  Each block rank is the trace of its
  idempotent, sum_k c_k tr(b_k) / den, where tr(b_k) = tr(X_k) for a piece
  of a diagonal block (h, h) and 0 off them (S_h and S_j are disjoint).
- The corner.  The complement algebra (I - U0) T (I - U0) is spanned by
  W B W with W = L (I - U0), where L U0 = S^T M S, M = diag(m), is the
  factorization that idempotent.verify_u0 verifies on U0's triple table and
  keeps on its report as (m, L).  The corner is read off T's certified
  triple-label basis of dist, and complement_algebra refuses any other span
  (idempotent.cell_line_counts names the condition it fails).  On a sphere
  S_a, L U0 is m_a J, and each class of T's blocks is one sphere, so W B W
  stays in the block E*_a T E*_b of B.  Each cell C of block (h, j) has
  constant row and column counts, the intersection numbers p^a_vb and
  p^b_av that idempotent.cell_line_counts takes from the p-table, so
  |C| = k_a p^a_vb, the line sums of 1_C are |C| / |S_h| and |C| / |S_j|,
  and m_a |S_a| = L, so W 1_C W = L^2 (1_C - |C| / (|S_h| |S_j|) J).  The
  block's corner is then {sum_C b_C 1_C : sum_C b_C |C| = 0}, of dimension
  #cells - 1, spanned by the rows (|C0| 1_C - |C| 1_C0) / gcd(|C0|, |C|),
  C0 the cell whose first pair comes last (closure.zero_sum_span).  Each
  row's pivot is the first pair of C, with value |C0| / gcd, it lies in no
  other row, and the row's content is 1: the rows are the block's reduced
  echelon basis already, and none is formed or reduced.  The corner's
  identity I - U0 is its unit table (m_sigma(h) for each class h, L), so
  the corner forms no n x n array either.
  The corner is split on T's own generators A and A*.  If U0 is an
  idempotent that commutes with g, then so is e = I - U0, and every c of
  the corner has c = e c e, so (e g e) c = e g c = g e c = g c and
  c (e g e) = c g e = c e g = c g.  Hence every pivot entry and
  commutator the split and its guard read is the same for g as for e g e;
  and e A e, e A* e and e generate the corner, since c -> e c is a
  homomorphism of T onto it when U0 is central in T.  verify_u0
  certifies that U0 commutes with T, which holds A and A*, and the caller
  splits the corner only when it does.

The closedness certificate.  Only a span certified closed with unit e
(BlockSpans.closed_unit equal, as a unit table, to the identity the split
is asked for) is split; any other span yields status "inconclusive" and no
idempotents.  closure() sets the certificate to the table of I: its loop
proves the span closed under every generator, starting from I.
complement_algebra sets it to the table of e = I - U0 on the corner, and
only when verify_u0 found U0 central in T and idempotent and T itself is
certified with unit I.  The corner is spanned
by the W B W = L^2 e B e, and e commutes with T, so e B e = e^2 B = e B
and (e A e)(e B e) = e A B e, which lies in the corner because A B lies in
T; and e = e I e lies in it too.

On a certified span no n x n product is needed to trust the split.  Let
the span be closed with unit e and hold every generator g, or, on the
corner, hold e g e (shown above).  Then every commutator [b_k, g] lies in
the span: on T, b_k g and g b_k are products in a closed span; on the
corner, e g = g e and b_k = e b_k e give b_k g = b_k (e g e) and
g b_k = (e g e) b_k.  So center_basis, which reads [b_k, g] on its pivot
entries, returns exactly the elements of the span that commute with every
g: the exact center.  The probe is one of them, and every Lagrange
idempotent is a polynomial in the probe whose constant term is a multiple
of e, which commutes with g too (e = I on T; e g = g e on the corner).  So
every central idempotent commutes with A and A*, and no n x n product
checks it.  The idempotent guard (_pivot_idempotent_dims) checks
e^2 = e, z_r^2 = z_r and sum z_r = e: these elements lie in the span with
e and z_r, and an element of the span is fixed by its m pivot entries.  So
each square is compared on the real products at the pivots, the m entries
z[R_k, :] z[:, C_k] of frame rows times frame columns, O(m n) each, against
den times z's pivot entries; and the sum is an equality of coordinate
vectors, e's read from its unit table at the pivots.
The block dimensions are traces read off the same pivots, which assumes
the same closed span: the guard reads each from the pivot columns it built
for the square check and keeps it on the decomposition
(BlockDecomposition.block_dims), and block_sizes takes square roots.

A probe that fails to split after three weight schedules, or a split that
fails the guard, yields status "inconclusive" with the offending
polynomial attached; that is a result, not an error.

All of this works relative to an arbitrary identity element, so the same
code decomposes both the full algebra (identity I) and the compressed
complement algebra (I - U0) T (I - U0) (identity I - U0), whose pivot values
need not be 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._intops import (
    content,
    demote,
    exact_matmul,
    exact_mul_elementwise,
    exact_scale,
    exact_sub,
    guarded,
    max_abs,
    to_object,
)
from .closure import BlockSpans, Unit, diagonal_row, identity_unit, unit_table, zero_sum_span
from .idempotent import U0Report, cell_line_counts
from .linalg import RationalMatrix, kernel_basis, min_poly
from .polys import RationalPoly, integer_roots

SPLIT = "split"
INCONCLUSIVE = "inconclusive"


Coords = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class BlockDecomposition:
    """Center and block data of one semisimple algebra.

    Each central idempotent is held as its coordinates (c, den) over the
    basis b_1..b_m of the split algebra: z = sum_k c_k b_k / den, with c a
    tuple of m Python ints, den > 0 and gcd(c, den) = 1.  block_dims holds,
    for each z_r, the trace of b -> b z_r, which is dim span{b_k z_r}, the
    dimension of its block (module docstring): split_center's guard reads
    it from the pivot columns it builds, and block_sizes fills in its
    square roots.
    """

    center_dim: int
    central_idempotents: tuple[Coords, ...]
    eigenvalues: tuple[int, ...]
    block_sizes: tuple[int, ...]
    block_dims: tuple[Fraction, ...]
    block_ranks: tuple[int, ...]
    status: str
    probe_min_poly: RationalPoly | None

    @property
    def multiset(self) -> tuple[int, ...]:
        """Block sizes as a canonical (descending) multiset."""
        return tuple(sorted(self.block_sizes, reverse=True))

    def blocks_json(self):
        if self.status != SPLIT:
            return INCONCLUSIVE
        return list(self.multiset)


class _PivotBasis:
    """A reduced echelon basis with its pivots and bounds, read in the form
    its span holds: through its cells (module docstring, "The cell path")
    when the span is in cell form, as T on its certified triple-label basis
    and the U0 corner are; otherwise through its block pieces, as a span
    from closure's product loop is (the graph path on a graph that fails
    the label certificate, or any span passed to decompose).

    b_k is the piece X_k of block (h_k, j_k).  Its pivot is the first nonzero
    of X_k in block row-major order, at (R, C) = (S_h[r], S_j[c]): the first
    nonzero of b_k, since the classes are ascending (see closure).
    """

    def __init__(self, span: BlockSpans):
        self.n = span.n
        self.classes = span.classes
        self.cells = span.cells
        self._span = span
        # The pivots and maxima are the span's own, not recomputed.
        rows, cols, local, self.pivvals = [], [], [], []
        for k in range(span.dim):
            h, j = span.block(k)
            r, c, value = span.pivot(k)
            rows.append(self.classes[h][r])
            cols.append(self.classes[j][c])
            local.append((h, j, r, c))
            self.pivvals.append(value)
        self.rows = np.array(rows, dtype=np.intp)
        self.cols = np.array(cols, dtype=np.intp)
        # Pivot k lies in the classes (h_k, j_k) of its piece, at offsets
        # (r_k, c_k) inside them; _in_rows[h] lists the pivots in rows S_h.
        self._h, self._j, self._r, self._c = (
            np.array(local, dtype=np.intp).reshape(-1, 4).T
        )
        self._in_rows = [np.flatnonzero(self._h == h) for h in range(len(self.classes))]
        self._in_cols = [np.flatnonzero(self._j == j) for j in range(len(self.classes))]
        self.pivlcm = math.lcm(1, *self.pivvals)
        self.maxes = [span.row_max(k) for k in range(span.dim)]
        # Echelon stores its rows narrow, so a piece is object only when its
        # max|X| is past the int64 bound, and so is every bound below that
        # counts the piece: no flag for object pieces is needed.  So the
        # kernels here hand guarded no piece: one that scales a piece by a
        # Python int widens each slice it takes (_frame), and one that only
        # meets a piece against its frame operand reads the pieces as they
        # are held, since numpy computes int8 against int64 in int64 and
        # anything against object on Python ints (_pivot_products,
        # pivot_trace).
        self._bmax = max(self.maxes, default=0)
        self.closed_unit = span.closed_unit
        if self.cells is None:
            # tr b_k: a piece off the diagonal blocks has no diagonal entry.
            self.traces = [int(np.trace(x)) if h == j else 0 for h, j, x in self.pieces]
        else:
            self._cell_setup()

    @functools.cached_property
    def pieces(self) -> list[tuple[int, int, np.ndarray]]:
        """(h, j, X_k) of every element, read from the span on first use:
        the piece path reads them, the cell path does not."""
        return [self._span.element(k) for k in range(self.dim)]

    def _cell_setup(self) -> None:
        """The cell path's positions at the pivots (closure.CellForm.
        positions) and tr b_k = sum_s coef[k, s] #{y : cells[y, y] = index[k, s]}."""
        form = self.cells
        self._left_at, self._right_at = form.positions(self.rows, self.cols)
        counts = np.bincount(form.table.diagonal(), minlength=form.table.size)[form.index]
        bound = self.n * self._bmax * form.index.shape[1]
        traces = guarded(bound, lambda a, b: (a * b).sum(axis=1), form.coef, counts)
        self.traces = [int(v) for v in traces]

    @property
    def dim(self) -> int:
        return len(self.pivvals)

    def unit_coordinates(self, unit: Unit) -> tuple[np.ndarray, int]:
        """Coordinates (c, den) of a unit table (closure.Unit), read at the
        pivots alone: c_k / den = e[R_k, C_k] / pv_k, with
        e[R_k, C_k] = [R_k = C_k] - [h_k = j_k] u_{h_k} / den."""
        u, den = unit
        pivots = zip(self.rows.tolist(), self.cols.tolist(), self._h.tolist(), self._j.tolist())
        num = [
            (den * (r == c) - (h == j) * u[h]) * (self.pivlcm // v)
            for (r, c, h, j), v in zip(pivots, self.pivvals)
        ]
        return demote(np.array(num, dtype=object)), den * self.pivlcm

    def frame_rows(self, c) -> np.ndarray:
        """The m pivot rows z[R, :] of z = sum_k c_k b_k, for integer c.

        Piece k, in block (h, j), adds c_k X_k[r_i, :] to each pivot row R_i
        in S_h, at columns S_j.
        """
        return self._frame(c, rows=True)

    def frame_cols(self, c) -> np.ndarray:
        """The m pivot columns z[:, C] of z = sum_k c_k b_k, for integer c.

        Piece k, in block (h, j), adds c_k X_k[:, c_i] to each pivot column
        C_i in S_j, at rows S_h.
        """
        return self._frame(c, rows=False)

    def _frame(self, c, rows: bool) -> np.ndarray:
        """One half of the frame (frame_rows, frame_cols).  Every entry is at
        most sum_k |c_k| max|X_k|; past the int64 bound it is summed on
        Python ints and kept object, not demoted.  On the cell path it is
        one gather of the cell weights c M (module docstring)."""
        c = [int(v) for v in c]
        used = [k for k, v in enumerate(c) if v]
        shape = (self.dim, self.n) if rows else (self.n, self.dim)

        def total(dtype):
            out = np.zeros(shape, dtype=dtype)
            for k in used:
                h, j, x = self.pieces[k]
                if rows:
                    sel = self._in_rows[h]
                    at, part = np.ix_(sel, self.classes[j]), x[self._r[sel]]
                else:
                    sel = self._in_cols[j]
                    at, part = np.ix_(self.classes[h], sel), x[:, self._c[sel]]
                # Only the slice added is widened (_intops module docstring).
                out[at] += c[k] * part.astype(dtype, copy=False)
            return out

        def gather(dtype):
            # z[R_i, t] = (c M)[cells[R_i, t]], read in m copies of c M.
            cm = np.tile(self.cells.weights(np.array(c, dtype=dtype)), self.dim)
            out = cm.take(self._right_at if rows else self._left_at).reshape(self.dim, self.n)
            return out if rows else out.T

        if self.cells is not None:
            total = gather
        return guarded(
            sum(abs(c[k]) * self.maxes[k] for k in used),
            lambda: total(np.int64),
            exact=lambda: total(object),
        )

    def _pivot_products(self, part: np.ndarray, left: bool, ks=None) -> np.ndarray:
        """m x len(ks) array whose column c holds the pivot entries of g b_k
        or b_k g, for k = ks[c] (every k when ks is None), read from g's
        frame: part is its pivot rows (left) or its pivot columns (right).

        Only the pivots in the columns (rows) of b_k's block are filled, see
        the module docstring.  Each entry sums at most n products, so
        n * max|part| * max|X| bounds it (guarded).  The pieces are read as
        they are held (see __init__).
        """
        bound = self.n * max_abs(part) * self._bmax
        if self.cells is not None:
            # S M^T at the columns ks, for the sums S of part by cell; g's
            # pivot rows are m x n and its pivot columns n x m, and both are
            # read at (i, t), the layout of the positions.
            part, at = (part, self._left_at) if left else (part.T, self._right_at)
            ks = np.arange(self.dim) if ks is None else ks
            return guarded(bound, lambda p: self.cells.combine(self.cells.sums(p, at), ks), part)
        ks = range(self.dim) if ks is None else ks

        def products(part):
            out = np.zeros((self.dim, len(ks)), dtype=np.result_type(np.int64, part))
            for c, k in enumerate(ks):
                h, j, x = self.pieces[k]
                if left:
                    sel = self._in_cols[j]
                    a, b = part[np.ix_(sel, self.classes[h])], x[:, self._c[sel]]
                else:
                    sel = self._in_rows[h]
                    a, b = x[self._r[sel], :], part[np.ix_(self.classes[j], sel)]
                out[sel, c] = np.einsum("it,ti->i", a, b)
            return out

        return guarded(bound, products, part)

    def left(self, rows: np.ndarray, ks=None) -> np.ndarray:
        """Column c holds the pivot entries of g b_k, k = ks[c], for g with
        pivot rows rows."""
        return self._pivot_products(rows, left=True, ks=ks)

    def right(self, cols: np.ndarray, ks=None) -> np.ndarray:
        """Column c holds the pivot entries of b_k g, k = ks[c], for g with
        pivot columns cols."""
        return self._pivot_products(cols, left=False, ks=ks)

    def class_values(self, row: np.ndarray) -> np.ndarray | None:
        """The value of diag(row) on each class, if row is constant on every
        class; None otherwise."""
        vals = row[[c[0] for c in self.classes]]
        if not all(np.all(row[c] == v) for c, v in zip(self.classes, vals)):
            return None
        return vals

    def diagonal_frame(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The frame of diag(row): its m x n pivot rows, with row[R_k] at
        (k, R_k), and its n x m pivot columns, with row[C_k] at (C_k, k)."""
        k = np.arange(self.dim)
        rows = np.zeros((self.dim, self.n), dtype=row.dtype)
        rows[k, self.rows] = row[self.rows]
        cols = np.zeros((self.n, self.dim), dtype=row.dtype)
        cols[self.cols, k] = row[self.cols]
        return rows, cols

    def pivot_trace(self, cols: np.ndarray, den: int) -> Fraction:
        """sum_k (b_k z)[R_k, C_k] / pv_k: the trace of b -> b z in coordinates,
        for z with pivot columns cols / den.

        Entry k is one dot product of length |S_j| (module docstring), so
        n * max|cols| * max|X| bounds it (guarded).  The pieces are read as
        they are held (see __init__).
        """

        def entries(g):
            pieces = enumerate(zip(self.pieces, self._r))
            return np.array([x[r] @ g[self.classes[j], k] for k, ((_, j, x), r) in pieces], g.dtype)

        def cell_entries(g):
            # Entry k of S M^T for the sums S of g by the cells of the pivot
            # rows: (b_k z)[R_k, C_k], as right(cols) has it.
            return self.cells.own(self.cells.sums(g.T, self._right_at))

        bound = self.n * max_abs(cols) * self._bmax
        dots = guarded(bound, entries if self.cells is None else cell_entries, cols)
        total = sum(int(v) * (self.pivlcm // p) for v, p in zip(dots, self.pivvals))
        return Fraction(total, self.pivlcm * den)

    def square_pivot_entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The m pivot entries rows[k, :] cols[:, k] of the square of the
        numerator with pivot rows rows and pivot columns cols.

        Each sums n products, so n * max|rows| * max|cols| bounds it
        (guarded).
        """
        bound = self.n * max_abs(rows) * max_abs(cols)
        return guarded(bound, lambda r, c: np.einsum("kt,tk->k", r, c), rows, cols)

    def left_regular(self, rows: np.ndarray) -> RationalMatrix:
        """Matrix of c -> p c in the coordinates of the basis: D^-1 left(p),
        for p with pivot rows rows.

        D = diag(pv) is kept: a basis whose pivot values are not all 1 (the
        U0 corner's) has coordinates c[R_j, C_j] / pv_j, not c[R_j, C_j].
        """
        scale = [[self.pivlcm // v] for v in self.pivvals]
        scale = demote(np.array(scale, dtype=object))
        return RationalMatrix(exact_mul_elementwise(self.left(rows), scale), self.pivlcm)


def _pivot_basis(t) -> _PivotBasis:
    if isinstance(t, _PivotBasis):
        return t
    return _PivotBasis(t)


def center_basis(
    t, generators: Sequence[RationalMatrix]
) -> list[tuple[np.ndarray, int]]:
    """Echelonized basis of {c in span(t) : c g = g c for all generators}, as
    coordinates (c, den) over the basis of t.

    Precondition: t, a closure.BlockSpans, spans a closed algebra that
    contains the generators.  Then every commutator [b_k, g] lies in the
    algebra and is zero exactly when its pivot entries are.  Each
    generator is an n x n matrix or a 1 x n row standing for diag(row).  A
    class-diagonal generator (a row constant on every class) only drops the
    columns of the blocks (h, j) on which its class values differ; the
    others give the pivot entries of [b_k, g] on the kept columns, read
    from g's frame, and the center coordinates are their kernel
    vectors padded with zeros, each over its least common denominator
    (module docstring).  On a span that is not
    closed the result may be wrong; split_center does not split such a
    span.
    """
    pb = _pivot_basis(t)
    if not pb.dim:
        return []
    keep = np.ones(pb.dim, dtype=bool)
    frames = []
    for g in generators:
        row = diagonal_row(g)
        if row is None:
            frames.append((g.num[pb.rows], g.num[:, pb.cols]))
            continue
        vals = pb.class_values(row)
        if vals is None:
            frames.append(pb.diagonal_frame(row))
        else:
            keep &= vals[pb._h] == vals[pb._j]
    kept = np.flatnonzero(keep)
    if not len(kept):
        return []
    parts = [exact_sub(pb.right(cols, kept), pb.left(rows, kept)) for rows, cols in frames]
    rows = np.concatenate(parts) if parts else np.zeros((0, len(kept)), dtype=np.int64)
    center = []
    for beta in kernel_basis(RationalMatrix(rows)):
        den = math.lcm(1, *(b.denominator for b in beta))
        alpha = np.zeros(pb.dim, dtype=object)
        alpha[kept] = [int(b * den) for b in beta]
        center.append((demote(alpha), den))
    return center


def _lagrange_coordinates(
    lp: RationalMatrix, roots: Sequence[int], lam: int, x: np.ndarray, den: int
) -> Coords:
    """Coordinates of prod_{mu != lam} (p - mu e) / (lam - mu) times x / den.

    lp = num / lp.den is the left-regular matrix of p; the vector stays an
    integer numerator over one denominator, reduced by their gcd, with the
    sign of den, at each step; roots holds lam, so the result is reduced.
    """
    for mu in roots:
        if mu != lam:
            x = exact_sub(exact_matmul(lp.num, x), exact_scale(x, mu * lp.den))
            den *= lp.den * (lam - mu)
        g = math.gcd(content(x), den) * (1 if den > 0 else -1)
        x, den = demote(x // g), den // g
    return tuple(int(v) for v in x), den


def split_center(
    t, center: Sequence[tuple[np.ndarray, int]], identity: Unit | None = None
) -> BlockDecomposition:
    """Split a commutative semisimple algebra into primitive idempotents.

    The probe p = sum_k w^k c_k, times the least common denominator of its
    coordinates, is read through its left-regular matrix L_p in the
    coordinates of t, built from p's pivot rows.  On a closed span with
    unit e, q(L_p) coords(e) = coords(q(p) e), coordinates are injective,
    and p e = p, so min_poly(L_p, coords(e)) is the minimal polynomial of
    p relative to e; each Lagrange idempotent is its coordinate vector, and
    its rank is its trace, sum_k c_k tr(b_k) / den.
    A span that is not certified closed with unit identity is not split
    (module docstring); the unit's coordinates are read at the pivots
    (_PivotBasis.unit_coordinates).

    Args:
        t: closure.BlockSpans of the algebra (same precondition as
            center_basis).
        center: basis of the center as coordinates (c, den), as produced by
            center_basis.
        identity: unit table (closure.Unit) of the algebra's identity
            element, compared with the span's certificate; None means I.
            The complement algebra passes I - U0 here.
    """
    center = list(center)
    m = len(center)
    if m == 0:
        raise ValueError("center basis is empty")
    pb = _pivot_basis(t)
    if identity is None:
        identity = identity_unit(len(pb.classes))
    if pb.closed_unit != identity:
        return _inconclusive(m, None)
    e, e_den = pb.unit_coordinates(identity)
    lcd = math.lcm(*(den for _, den in center))

    last_poly = None
    for base in (m + 1, m + 2, 2 * m + 3):
        coeffs = sum(base**k * (lcd // den) * to_object(c) for k, (c, den) in enumerate(center))
        # coeffs / lcd are the probe's coordinates.  Drop their least common
        # denominator: scaling the probe scales its eigenvalues by an
        # integer and leaves the Lagrange idempotents unchanged.
        lp = pb.left_regular(pb.frame_rows(coeffs // math.gcd(lcd, *coeffs)))
        mp = min_poly(lp, e)
        last_poly = mp
        if mp.degree != m:
            continue
        roots = integer_roots(mp)
        if roots is None:
            continue
        idems = [_lagrange_coordinates(lp, roots, lam, e, e_den) for lam in roots]
        dims = _pivot_idempotent_dims(pb, idems, (e, e_den))
        if dims is None:
            continue
        # Each z is an exact idempotent, so its rank is its trace.
        ranks = tuple(sum(v * tr for v, tr in zip(c, pb.traces)) // den for c, den in idems)
        return BlockDecomposition(
            center_dim=m,
            central_idempotents=tuple(idems),
            eigenvalues=tuple(roots),
            block_sizes=(),
            block_dims=dims,
            block_ranks=ranks,
            status=SPLIT,
            probe_min_poly=mp,
        )
    return _inconclusive(m, last_poly)


def _inconclusive(m: int, probe_min_poly: RationalPoly | None) -> BlockDecomposition:
    return BlockDecomposition(
        center_dim=m,
        central_idempotents=(),
        eigenvalues=(),
        block_sizes=(),
        block_dims=(),
        block_ranks=(),
        status=INCONCLUSIVE,
        probe_min_poly=probe_min_poly,
    )


def _pivot_idempotent_dims(
    pb: _PivotBasis, idems: Sequence[Coords], e: tuple[np.ndarray, int]
) -> tuple[Fraction, ...] | None:
    """The block dimension tr(b -> b z_r) of each z_r, if the z_r are
    orthogonal idempotents summing to e; None otherwise.  e and every z_r
    are given as coordinates (c, den).

    The span is closed and contains e (its certificate) and each z_r, so
    e^2 and z_r^2 lie in it, and each square identity holds exactly when it
    holds at the m pivots: rows[k, :] cols[:, k] of each frame against den
    times its pivot entries c_k pv_k (module docstring).  The sum is
    compared in coordinates, which fix an element of the span.  Each
    trace is read from the pivot columns its square check built
    (_PivotBasis.pivot_trace), so no frame is built twice.

    Only e^2 = e, z_r^2 = z_r and sum z_r = e are checked; orthogonality
    follows.  Over Q an idempotent's rank is its trace, so
    rank(e) = tr(e) = sum tr(z_r) = sum rank(z_r) >= dim sum Im(z_r) >= rank(e),
    the last step because e = sum z_r maps into sum Im(z_r).  Hence Im(e) is
    the direct sum of the Im(z_r).  For w = z_s v, w lies in Im(e), so
    w = e w = sum_r z_r w with z_r w in Im(z_r), and also w = z_s w; the sum
    is direct, so z_r w = z_r z_s v = 0 for r != s.
    """
    dims = []
    for r, (c, den) in enumerate((e, *idems)):
        piv = demote(np.array([int(v) * p for v, p in zip(c, pb.pivvals)], dtype=object))
        cols = pb.frame_cols(c)
        square = pb.square_pivot_entries(pb.frame_rows(c), cols)
        if not np.array_equal(square, exact_scale(piv, den)):
            return None
        if r:
            dims.append(pb.pivot_trace(cols, den))
    e_num, e_den = e
    common = math.lcm(e_den, *(den for _, den in idems))
    acc = exact_scale(np.array(e_num, dtype=object), common // e_den)
    for c, den in idems:
        acc = exact_sub(acc, exact_scale(np.array(c, dtype=object), common // den))
    return None if np.any(acc) else tuple(dims)


def block_sizes(dec: BlockDecomposition) -> BlockDecomposition:
    """Fill in block sizes: n_r = isqrt of dim span{b_k z_r}.

    Every b_k z_r lies in the algebra and z_r is idempotent, so the span's
    dimension is the trace of b -> b z_r, which split_center's guard read
    off m pivot entries of z_r's pivot columns into dec.block_dims (same
    precondition as center_basis; see the module docstring).

    Raises:
        ValueError: if the decomposition is not split or some block
            dimension is not a perfect square.
    """
    if dec.status != SPLIT:
        raise ValueError("cannot take block sizes of an inconclusive split")
    sizes = []
    for dim in dec.block_dims:
        nr = math.isqrt(max(dim.numerator, 0))
        if dim.denominator != 1 or nr * nr != dim:
            raise ValueError(f"block dimension {dim} is not a perfect square")
        sizes.append(nr)
    return replace(dec, block_sizes=tuple(sizes))


def decompose(
    t,
    generators: Sequence[RationalMatrix],
    identity: Unit | None = None,
) -> BlockDecomposition:
    """center_basis + split_center + block_sizes in one call.

    Each generator is an n x n matrix or a 1 x n row standing for
    diag(row), as closure takes them.  Precondition: the span of t holds
    every generator g, or, on the U0
    corner, every (I - U0) g (I - U0).  On a span certified closed with
    unit identity, a unit table (None means I), the split is then exact
    and its idempotents commute with the generators (module docstring); any
    other span is not split.
    """
    pb = _pivot_basis(t)
    center = center_basis(pb, generators)
    dec = split_center(pb, center, identity=identity)
    if dec.status != SPLIT:
        return dec
    return block_sizes(dec)


@dataclass(frozen=True)
class CompressedAlgebra:
    """The complement corner (I - U0) T (I - U0) with its own identity,
    held as its unit table (closure.Unit) over the span's classes."""

    span: BlockSpans
    identity: Unit

    @property
    def dim(self) -> int:
        return self.span.dim


def complement_algebra(ctx, t: BlockSpans, rep: U0Report) -> CompressedAlgebra:
    """Basis and identity of (I - U0) T (I - U0).

    Compression of a spanning set spans the corner, so the corner is
    spanned by {W B W} with W = L (I - U0), where L U0 = S^T diag(m) S is
    the factorization that verify_u0 verified and rep holds as (m, L) (the
    scalar L does not move the span).  On T's cells the reduced basis is
    read off the cell sizes |C| = k_a p^a_vb, with no row formed or reduced
    (closure.zero_sum_span, module docstring).  The identity I - U0 is
    I - J / k_h on S_h x S_h, with k_h = L / m_h, and zero off those blocks:
    it is held as its unit table (m_sigma(h) for each class h, L), and no
    n x n array is formed.

    rep is the U0Report that verify_u0 made for t.  The corner is certified
    closed with unit I - U0 (module docstring) only when that report found
    U0 central and idempotent and t is certified with unit I.

    Raises:
        ValueError: if t is not the triple-label basis of ctx.dist.dist in
            cell form with the spheres as its classes (cell_line_counts
            names the condition).
    """
    m, big = rep.m, rep.L
    sigma, rows, _cols = cell_line_counts(ctx, t)
    # Cell C of block (h, j) has |C| = k_a p^a_vb: |S_h| = k_a rows, p^a_vb pairs each.
    hs = t.cells.table.blocks[:, 0].tolist()
    span = zero_sum_span(t, [r * len(t.classes[h]) for r, h in zip(rows.tolist(), hs)])
    identity = unit_table((m[a] for a in sigma), big)
    if rep.central and rep.idempotent and t.closed_unit == identity_unit(len(t.classes)):
        span.closed_unit = identity
    return CompressedAlgebra(span, identity)
