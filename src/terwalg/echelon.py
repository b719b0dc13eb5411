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
row.  The basis rows of T(x) are 0/1 on the cubes and the distance-regular
graphs checked, so they are held as int8, an eighth of their int64 size.
Narrow rows are storage only.  A reduction works in its own int64 (or
object) buffer v: v -= row and v += row are computed in v's dtype, and a
row scaled by an integer is widened first (_intops.wide), since numpy
would keep b * row in the row's dtype and wrap.  Clearing a pivot widens
the old row the same way and subtracts a multiple of the new row as it
stood before it was stored narrow.  Every array a caller reads (row, rows)
is the narrow stored row; its pivot, pivot value and largest entry are
read from the span (pivot, row_max), not recomputed.

An untracked reduction (add and contains on a span with track=False) takes
no gcd pass over a candidate on entry.  Each step replaces v by a·v − b·row,
a nonzero multiple of v minus a combination of stored rows, so the residual
is a nonzero rational multiple of the same vector whatever multiple of v it
starts from: the one with zeros at every stored pivot.  When a step's bound
would reach INT64_SAFE the loop divides out the content first.  Every
integer multiple of a primitive v is an integer multiple m·v, and the step
bound a·max|v| + |b|·max|row| of m·v is at least that of v, so an int64
candidate takes the object path at a step only when a reduction shrunk on
entry would have taken it there or earlier.  A new row is then made primitive
with a positive pivot, which fixes it among the multiples of the residual;
the content divides the pivot entry, so when that is ±1 the gcd pass is
skipped.  The stored rows, their order and their pivots are therefore the
same as with a shrink on entry and a full gcd pass.  A tracked reduction
keeps both passes, since its dependency coefficients carry the scale.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction

import numpy as np

from ._intops import INT64_SAFE, content, demote, max_abs, narrow, python_ints, to_object, wide


class EchelonSpan:
    """Growing reduced basis of a rational span of integer vectors.

    With track=True every vector passed to add() gets a sequence number and,
    when a vector turns out to be dependent, add() also returns the exact
    linear dependency on the previously added vectors.
    """

    def __init__(self, width: int, track: bool = False):
        self.width = width
        self.track = track
        self._rows: list[np.ndarray] = []
        self._pivots: list[int] = []
        self._pivvals: list[int] = []
        self._maxes: list[int] = []
        self._exprs: list[dict[int, Fraction]] = []
        self._order: list[tuple[int, int]] = []  # (pivot, row index), sorted
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
        idx, _ = self._add(vec, want_expr=False)
        return idx

    def add_tracked(self, vec) -> tuple[int | None, dict[int, Fraction] | None]:
        """Like add(), but with dependency tracking (requires track=True).

        Returns:
            (row index, None) when independent, or (None, expr) when
            dependent, where expr maps add-sequence numbers to rational
            coefficients with sum_j expr[j] * vec_j == 0 and the coefficient
            of the current vector nonzero.
        """
        if not self.track:
            raise ValueError("EchelonSpan was created with track=False")
        return self._add(vec, want_expr=True)

    def contains(self, vec) -> bool:
        v, vmax = self._prepare(vec)
        v, _, _ = self._reduce(v, vmax, None)
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

    def _shrink(self, v, expr):
        """Divide out the content of v (and rescale expr to match)."""
        g = content(v)
        if g > 1:
            v = v // g
            if expr is not None:
                expr = {k: f / g for k, f in expr.items()}
        return demote(v), max_abs(v), expr

    def _reduce(self, v, vmax, expr):
        """Fully reduce v against all stored rows (single pass).

        A tracked reduction first divides out the content of v; an untracked
        one leaves that to the loop, which shrinks v before any int64 bound
        is crossed (module docstring).
        """
        if expr is not None:
            v, vmax, expr = self._shrink(v, expr)
        for piv, idx in self._order:
            c = int(v[piv])
            if c == 0:
                continue
            pv = self._pivvals[idx]
            g = math.gcd(abs(c), pv)
            a = pv // g
            b = c // g
            bound = a * vmax + abs(b) * self._maxes[idx]
            if bound >= INT64_SAFE and v.dtype != object:
                v, vmax, expr = self._shrink(v, expr)
                c = int(v[piv])
                g = math.gcd(abs(c), pv)
                a = pv // g
                b = c // g
                bound = a * vmax + abs(b) * self._maxes[idx]
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
            if expr is not None:
                new = {k: a * f for k, f in expr.items()}
                for k, f in self._exprs[idx].items():
                    new[k] = new.get(k, Fraction(0)) - b * f
                expr = {k: f for k, f in new.items() if f != 0}
            # Conservative bounds inflate quickly; refresh with the true
            # maximum before it forces a needless object-dtype switch.
            if v.dtype != object and vmax >= (1 << 55):
                vmax = max_abs(v)
        return v, vmax, expr

    def _add(self, vec, want_expr: bool):
        v, vmax = self._prepare(vec)
        seq = self._raw_count
        self._raw_count += 1
        expr = {seq: Fraction(1)} if self.track else None
        v, vmax, expr = self._reduce(v, vmax, expr)
        nonzero = v != 0
        piv = int(nonzero.argmax())
        if not nonzero[piv]:
            return None, (expr if want_expr else None)

        # Normalize the residual to a primitive row with positive pivot.  The
        # content divides the pivot entry, so a pivot entry of ±1 leaves
        # nothing to divide out.
        if abs(int(v[piv])) == 1:
            vmax = max_abs(v)
            v = demote(v, vmax)
        else:
            v, vmax, expr = self._shrink(v, expr)
        if v[piv] < 0:
            v = -v
            if expr is not None:
                expr = {k: -f for k, f in expr.items()}
        pv = int(v[piv])

        idx = len(self._rows)
        stored = narrow(v, vmax)
        stored.flags.writeable = False
        self._rows.append(stored)
        self._pivots.append(piv)
        self._pivvals.append(pv)
        self._maxes.append(vmax)
        self._exprs.append(expr if expr is not None else {})
        insort(self._order, (piv, idx))

        # Clear the new pivot coordinate from all earlier rows so single-pass
        # reduction stays valid.
        for idx2 in range(idx):
            r2 = self._rows[idx2]
            c2 = int(r2[piv])
            if c2 == 0:
                continue
            g = math.gcd(abs(c2), pv)
            a = pv // g
            b = c2 // g
            bound = a * self._maxes[idx2] + abs(b) * self._maxes[idx]
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
            if self.track:
                e2 = {k: a * f for k, f in self._exprs[idx2].items()}
                for k, f in self._exprs[idx].items():
                    e2[k] = e2.get(k, Fraction(0)) - b * f
                if g2 > 1:
                    e2 = {k: f / g2 for k, f in e2.items()}
                self._exprs[idx2] = {k: f for k, f in e2.items() if f != 0}
        return idx, None
