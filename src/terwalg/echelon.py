"""Incremental reduced echelon bases of integer vectors over the rationals.

The engine maintains a growing basis of the span of the vectors fed to it.
Rows are kept integer and primitive (content 1, positive leading entry) and
every pivot coordinate is cleared from all other rows, so reducing a candidate
is a single pass and the stored row set is the canonical reduced basis of the
span regardless of insertion history.  Scaling a candidate does not change the
span, so callers may clear denominators before feeding vectors.  A stored row
is never written in place: clearing a pivot from it stores a new array, and
every stored row is read-only, so a row read from the span keeps its entries
after later insertions.

Arithmetic follows the int64/object discipline of _intops: exact bounds are
checked with Python integers before every fast-path vector operation.

A stored row is held narrow: in the narrowest signed dtype that holds its
largest entry (_intops.narrow), which the span tracks exactly for every
row.  The engine holds the blocks of closure's product loop (BlockSpans)
and the small systems of rref, rank and min_poly (linalg).  Narrow rows
are storage only.  A reduction works in its own int64 (or object) buffer
v: v -= row and v += row are computed in v's dtype, and a row scaled by
an integer is widened first (_intops.wide), since numpy would keep
b * row in the row's dtype and wrap.  Clearing a pivot widens the old row
the same way and subtracts a multiple of the new row as it stood before
it was stored narrow.  Every array a caller reads (row, rows) is the
narrow stored row; its pivot, pivot value and largest entry are read from
the span (pivot, row_max), not recomputed.

A reduction takes no gcd pass over a candidate on entry.  Each step
replaces v by a·v − b·row, a nonzero multiple of v minus a combination of
stored rows, so the residual is a nonzero rational multiple of the same
vector whatever multiple of v it starts from: the one with zeros at every
stored pivot.  When a step's bound would reach INT64_SAFE the loop
divides out the content first.  Every integer multiple of a primitive v
is an integer multiple m·v, and the step bound a·max|v| + |b|·max|row| of
m·v is at least that of v, so an int64 candidate takes the object path at
a step only when a reduction shrunk on entry would have taken it there or
earlier.  A new row is then made primitive with a positive pivot, which
fixes it among the multiples of the residual; the content divides the
pivot entry, so when that is ±1 the gcd pass is skipped.  The stored
rows, their order and their pivots are therefore the same as with a
shrink on entry and a full gcd pass.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction

import numpy as np

from ._intops import INT64_SAFE, content, demote, max_abs, narrow, python_ints, to_object, wide


def _step(c: int, pv: int, vmax: int, rmax: int) -> tuple[int, int, int]:
    """(a, b, bound) for the step a v - b row that clears an entry c of v
    against a row with pivot value pv: g = gcd(c, pv), a = pv / g and
    b = c / g.  bound = a vmax + |b| rmax bounds the result, for
    vmax >= max|v| and rmax = max|row|."""
    g = math.gcd(abs(c), pv)
    a, b = pv // g, c // g
    return a, b, a * vmax + abs(b) * rmax


class EchelonSpan:
    """Growing reduced basis of a rational span of integer vectors.

    Every vector passed to add() or add_tracked() gets an add-sequence
    number.  With track=True the span also keeps, for each stored row, the
    vector whose insertion stored it and that vector's sequence number;
    add_tracked() reads the exact linear dependency of a dependent vector
    off them.
    """

    def __init__(self, width: int, track: bool = False):
        self.width = width
        self.track = track
        self._rows: list[np.ndarray] = []
        self._pivots: list[int] = []
        self._pivvals: list[int] = []
        self._maxes: list[int] = []
        self._order: list[tuple[int, int]] = []  # (pivot, row index), sorted
        self._inputs: list[np.ndarray] = []  # track=True: input of row idx
        self._seqs: list[int] = []  # track=True: its add-sequence number
        self._raw_count = 0

    @property
    def dim(self) -> int:
        return len(self._rows)

    def row(self, idx: int) -> np.ndarray:
        """Current idx-th basis row (read-only, held narrow)."""
        return self._rows[idx]

    def pivot(self, idx: int) -> tuple[int, int]:
        """(column, value) of the pivot of row idx: its first nonzero."""
        return self._pivots[idx], self._pivvals[idx]

    def row_max(self, idx: int) -> int:
        """max|row idx|, exactly."""
        return self._maxes[idx]

    @property
    def rows(self) -> list[np.ndarray]:
        return self._rows

    # -- public operations -------------------------------------------------

    def add(self, vec) -> int | None:
        """Reduce vec against the basis and insert the residual if nonzero.

        Returns:
            The new row index, or None when vec was already in the span.
        """
        return self._add(vec)[0]

    def add_tracked(self, vec) -> tuple[int | None, dict[int, Fraction] | None]:
        """Like add(), but with dependency tracking (requires track=True).

        A dependent vec lies in the span of the stored rows' inputs u_j,
        which are independent, and an element of that span is fixed by its
        entries at the k pivot columns (every row is zero at the pivots of
        the others).  So the k x (k+1) system [u_1 .. u_k | vec], taken at
        those columns, has rank k, and its reduced rows, found by an
        EchelonSpan(k + 1), are pv_j e_j + r_j e_(k+1): vec equals
        sum_j (-r_j / pv_j) u_j.

        Returns:
            (row index, None) when independent, or (None, expr) when
            dependent, where expr maps add-sequence numbers to rational
            coefficients with sum_j expr[j] * vec_j == 0 and the coefficient
            of the current vector nonzero.
        """
        if not self.track:
            raise ValueError("EchelonSpan was created with track=False")
        seq = self._raw_count
        idx, u = self._add(vec)
        if idx is not None:
            return idx, None
        k = self.dim
        system = np.stack([w[self._pivots] for w in self._inputs] + [u[self._pivots]], axis=1)
        solver = EchelonSpan(k + 1)
        for eq in system:
            solver._add(eq)
        expr = {seq: Fraction(1)}
        for j in range(k):
            col, pv = solver.pivot(j)
            r = int(solver.row(j)[k])
            if r:
                expr[self._seqs[col]] = Fraction(-r, pv)
        return None, expr

    def contains(self, vec) -> bool:
        v, vmax = self._prepare(vec)
        v, _ = self._reduce(v, vmax)
        return not np.any(v)

    # -- internals ---------------------------------------------------------

    def _prepare(self, vec) -> tuple[np.ndarray, int]:
        if isinstance(vec, np.ndarray):
            if vec.dtype == object:
                v = demote(python_ints(vec.ravel().copy()))
            elif vec.dtype.kind == "i" or (vec.dtype.kind == "u" and vec.itemsize < 8):
                v = vec.ravel().astype(np.int64)
            elif vec.dtype.kind == "u":
                v = demote(vec.ravel().astype(object))
            else:
                raise TypeError(f"integer vector expected, got dtype {vec.dtype}")
        else:
            v = np.array(vec, dtype=object).ravel()
            for x in v.flat[:1]:
                if not isinstance(x, (int, np.integer)):
                    raise TypeError("integer vector expected")
            v = demote(python_ints(v))
        if v.shape[0] != self.width:
            raise ValueError(f"vector length {v.shape[0]} != width {self.width}")
        return v, max_abs(v)

    def _shrink(self, v):
        """Divide out the content of v."""
        g = content(v)
        if g > 1:
            v = v // g
        return demote(v), max_abs(v)

    def _reduce(self, v, vmax):
        """Fully reduce v against all stored rows (single pass).

        The loop shrinks v before any int64 bound is crossed (module
        docstring).
        """
        for piv, idx in self._order:
            c = int(v[piv])
            if c == 0:
                continue
            pv, rmax = self._pivvals[idx], self._maxes[idx]
            a, b, bound = _step(c, pv, vmax, rmax)
            if bound >= INT64_SAFE and v.dtype != object:
                v, vmax = self._shrink(v)
                a, b, bound = _step(int(v[piv]), pv, vmax, rmax)
            row = self._rows[idx]
            if bound >= INT64_SAFE or v.dtype == object or row.dtype == object:
                v = a * to_object(v) - b * to_object(row)
            else:
                # v is this reduction's own buffer (_prepare copies), so it
                # is updated in place.
                if a != 1:
                    v *= a
                if b == 1:
                    v -= row
                elif b == -1:
                    v += row
                else:
                    v -= b * wide(row)
            vmax = bound
            # Conservative bounds inflate quickly; refresh with the true
            # maximum before it forces a needless object-dtype switch.
            if v.dtype != object and vmax >= (1 << 55):
                vmax = max_abs(v)
        return v, vmax

    def _add(self, vec) -> tuple[int | None, np.ndarray | None]:
        """(new row index or None, vec as prepared when the span is
        tracked, else None)."""
        v, vmax = self._prepare(vec)
        seq = self._raw_count
        self._raw_count += 1
        u = v.copy() if self.track else None
        v, vmax = self._reduce(v, vmax)
        nonzero = v != 0
        piv = int(nonzero.argmax())
        if not nonzero[piv]:
            return None, u

        # Normalize the residual to a primitive row with positive pivot.  The
        # content divides the pivot entry, so a pivot entry of ±1 leaves
        # nothing to divide out.
        if abs(int(v[piv])) == 1:
            vmax = max_abs(v)
            v = demote(v, vmax)
        else:
            v, vmax = self._shrink(v)
        if v[piv] < 0:
            v = -v
        pv = int(v[piv])

        idx = len(self._rows)
        stored = narrow(v, vmax)
        stored.flags.writeable = False
        self._rows.append(stored)
        self._pivots.append(piv)
        self._pivvals.append(pv)
        self._maxes.append(vmax)
        if self.track:
            self._inputs.append(u)
            self._seqs.append(seq)
        insort(self._order, (piv, idx))

        # Clear the new pivot coordinate from all earlier rows so single-pass
        # reduction stays valid.
        for idx2 in range(idx):
            r2 = self._rows[idx2]
            c2 = int(r2[piv])
            if c2 == 0:
                continue
            a, b, bound = _step(c2, pv, self._maxes[idx2], vmax)
            if bound >= INT64_SAFE or r2.dtype == object or v.dtype == object:
                new = a * to_object(r2) - b * to_object(v)
            else:
                new = (r2 if a == 1 else a * wide(r2)) - b * v
            # v is zero at r2's pivot, so new is a * pv2 there and its content
            # divides a * pv2: when that is 1 the full-width gcd is skipped.
            g2 = 1 if a * self._pivvals[idx2] == 1 else content(new)
            if g2 > 1:
                new = new // g2
            self._maxes[idx2] = max_abs(new)
            new = narrow(new, self._maxes[idx2])
            new.flags.writeable = False
            self._rows[idx2] = new
            self._pivvals[idx2] = int(new[self._pivots[idx2]])
        return idx, u
