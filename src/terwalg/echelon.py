"""Incremental reduced echelon bases of integer vectors over the rationals.

The engine maintains a growing basis of the span of the vectors fed to it.
Rows are kept integer and primitive (content 1, positive leading entry) and
every pivot coordinate is cleared from all other rows, so reducing a candidate
is a single pass and the stored row set is the canonical reduced basis of the
span regardless of insertion history.  Scaling a candidate does not change the
span, so callers may clear denominators before feeding vectors.

Arithmetic follows the int64/object discipline of _intops: exact bounds are
checked with Python integers before every fast-path vector operation.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction

import numpy as np

from ._intops import INT64_SAFE, content, demote, max_abs, python_ints, to_object


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
        """Current idx-th basis row (do not mutate)."""
        return self._rows[idx]

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
        """Fully reduce v against all stored rows (single pass)."""
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
                v = a * v - b * row
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
        if not np.any(v):
            return None, (expr if want_expr else None)

        # Normalize the residual to a primitive row with positive pivot.
        v, vmax, expr = self._shrink(v, expr)
        piv = int(np.nonzero(v)[0][0])
        if v[piv] < 0:
            v = -v
            if expr is not None:
                expr = {k: -f for k, f in expr.items()}
        pv = int(v[piv])

        idx = len(self._rows)
        self._rows.append(v)
        self._pivots.append(piv)
        self._pivvals.append(pv)
        self._maxes.append(vmax if v.dtype == object else max_abs(v))
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
                new = a * r2 - b * v
            # v is zero at r2's pivot, so new is a * pv2 there and its content
            # divides a * pv2: when that is 1 the full-width gcd is skipped.
            g2 = 1 if a * self._pivvals[idx2] == 1 else content(new)
            if g2 > 1:
                new = new // g2
            new = demote(new)
            self._rows[idx2] = new
            self._pivvals[idx2] = int(new[self._pivots[idx2]])
            self._maxes[idx2] = max_abs(new)
            if self.track:
                e2 = {k: a * f for k, f in self._exprs[idx2].items()}
                for k, f in self._exprs[idx].items():
                    e2[k] = e2.get(k, Fraction(0)) - b * f
                if g2 > 1:
                    e2 = {k: f / g2 for k, f in e2.items()}
                self._exprs[idx2] = {k: f for k, f in e2.items() if f != 0}
        return idx, None
