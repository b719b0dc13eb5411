"""Exact rational matrices and the linear algebra used everywhere else.

A RationalMatrix stores one integer numerator array (int64 fast path, Python
object fallback) plus a single positive denominator, normalized so that the
gcd of all numerators and the denominator is 1.  That canonical form makes
value equality structural equality and keeps results bit-reproducible.  No
floating point is used anywhere.

Every elimination here runs on the one integer echelon engine (echelon.py):
rank counts its rows, rref reads the unique reduced row echelon form off its
rows, kernel_basis and inverse are thin layers over rref, and min_poly finds
the first dependency among the Krylov vectors v, m v, m**2 v, ... with its
tracked mode, at the width n of v.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

from ._intops import (
    content,
    demote,
    exact_add,
    exact_matmul,
    exact_mul_elementwise,
    exact_scale,
    exact_sub,
    python_ints,
    to_object,
)
from .echelon import EchelonSpan
from .polys import RationalPoly


class RationalMatrix:
    """Immutable exact matrix over the rationals."""

    __slots__ = ("num", "den")

    def __init__(self, num, den: int = 1, *, _canonical: bool = False):
        if isinstance(num, np.ndarray):
            if _canonical and (num.dtype == object or num.dtype == np.int64):
                arr = num
            elif num.dtype == object:
                arr = python_ints(np.array(num, dtype=object))
            elif num.dtype.kind == "i":
                # A narrow array (a stored echelon row, say) is widened.
                arr = num.astype(np.int64)
            elif num.dtype.kind == "u":
                arr = num.astype(object)
            else:
                raise TypeError(f"integer numerators expected, got dtype {num.dtype}")
        else:
            arr = np.array(num, dtype=object)
            if arr.size and not isinstance(arr.flat[0], (int, np.integer)):
                raise TypeError("integer numerators expected; use from_rows for Fractions")
            arr = python_ints(arr)
        if arr.ndim != 2:
            raise ValueError(f"2-dimensional array expected, got shape {arr.shape}")
        den = int(den)
        if den == 0:
            raise ZeroDivisionError("denominator is zero")
        if not _canonical:
            if den < 0:
                arr, den = -arr, -den
            c = content(arr)
            g = gcd(c, den)
            if g > 1:
                # A zero array is left as it is: its g is den, which may be
                # past int64, where numpy cannot divide an int64 array by it.
                if c:
                    arr = arr // g
                den //= g
            arr = demote(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "num", arr)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(np.eye(n, dtype=np.int64), 1, _canonical=True)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls(np.zeros((nrows, ncols), dtype=np.int64), 1, _canonical=True)

    @classmethod
    def ones(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls(np.ones((nrows, ncols), dtype=np.int64), 1, _canonical=True)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "RationalMatrix":
        """Build from nested Fractions or ints, clearing denominators.

        The common denominator is one lcm of the entries' denominators, and
        each numerator is v.numerator · (den // v.denominator), a product of
        Python ints: numpy integers and their numerators are read through
        int(), so no product wraps at 64 bits.  Any other entry is read
        through Fraction(v).
        """
        data = [
            [v if isinstance(v, (int, Fraction, np.integer)) else Fraction(v) for v in row]
            for row in rows
        ]
        if not data:
            raise ValueError("at least one row expected")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        den = lcm(*{int(v.denominator) for row in data for v in row})
        num = [[int(v.numerator) * (den // int(v.denominator)) for v in row] for row in data]
        return cls(np.array(num, dtype=object), den)

    # -- views -------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return self.num.shape[0]

    @property
    def ncols(self) -> int:
        return self.num.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.num.shape

    # A matrix has no one row form (Fractions, or 1 x n matrices), so it is
    # not iterable: iter, list and for raise TypeError at once, instead of
    # falling back to __getitem__ with an int.  dense_rows gives the rows.
    __iter__ = None

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        """Entry (i, j), as a Fraction."""
        if not (isinstance(key, tuple) and len(key) == 2):
            raise TypeError(f"RationalMatrix is indexed by (i, j), got {key!r}")
        i, j = key
        return Fraction(int(self.num[i, j]), self.den)

    def dense_rows(self) -> list[list[Fraction]]:
        d = self.den
        return [[Fraction(int(v), d) for v in row] for row in self.num]

    def is_zero(self) -> bool:
        return not np.any(self.num)

    def transpose(self) -> "RationalMatrix":
        arr = self.num.T.copy()
        return RationalMatrix(arr, self.den, _canonical=True)

    def trace(self) -> Fraction:
        total = sum(int(v) for v in self.num.diagonal())
        return Fraction(total, self.den)

    # -- arithmetic --------------------------------------------------------

    def _require_same_shape(self, other: "RationalMatrix"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        self._require_same_shape(other)
        d = lcm(self.den, other.den)
        a = exact_scale(self.num, d // self.den)
        b = exact_scale(other.num, d // other.den)
        return RationalMatrix(exact_add(a, b), d)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        self._require_same_shape(other)
        d = lcm(self.den, other.den)
        a = exact_scale(self.num, d // self.den)
        b = exact_scale(other.num, d // other.den)
        return RationalMatrix(exact_sub(a, b), d)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(-self.num, self.den, _canonical=True)

    def __mul__(self, scalar) -> "RationalMatrix":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        scalar = Fraction(scalar)
        return RationalMatrix(
            exact_scale(self.num, scalar.numerator), self.den * scalar.denominator
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch for product: {self.shape} @ {other.shape}")
        return RationalMatrix(exact_matmul(self.num, other.num), self.den * other.den)

    def hadamard(self, other: "RationalMatrix") -> "RationalMatrix":
        """Entrywise product."""
        self._require_same_shape(other)
        return RationalMatrix(
            exact_mul_elementwise(self.num, other.num), self.den * other.den
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.shape == other.shape
            and self.den == other.den
            and bool(np.array_equal(self.num, other.num))
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.nrows}x{self.ncols}, den={self.den})"


# -- free functions --------------------------------------------------------


def _nonzero_rows(num: np.ndarray) -> np.ndarray:
    """The rows of num that are not zero: a zero row spans nothing, so rank
    and rref give the engine only these."""
    return num[(num != 0).any(axis=1)]


def rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form, read off the integer echelon engine.

    The engine stores primitive integer multiples of the reduced echelon rows
    of the row space, each with a positive leading entry that is its pivot.
    Ordering them by pivot and dividing each by its pivot entry gives the
    reduced row echelon form, which is unique.

    Returns:
        (rref matrix, pivot column indices).
    """
    span = EchelonSpan(m.ncols)
    for row in _nonzero_rows(m.num):
        span.add(row)
    led = sorted((int(np.flatnonzero(row)[0]), row) for row in span.rows)
    den = lcm(*(int(row[p]) for p, row in led))
    num = np.zeros(m.shape, dtype=object)
    for k, (p, row) in enumerate(led):
        num[k] = to_object(row) * (den // int(row[p]))
    return RationalMatrix(num, den), tuple(p for p, _ in led)


def rank(m: RationalMatrix) -> int:
    """Exact rank (denominator is irrelevant)."""
    span = EchelonSpan(m.ncols)
    for row in _nonzero_rows(m.num):
        span.add(row)
    return span.dim


def kernel_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of the right kernel.

    One vector per free column (ascending), with the free coordinate set to 1
    and the whole vector rescaled so its first nonzero entry is positive.
    """
    reduced, pivots = rref(m)
    ncols = m.ncols
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r_idx, p_col in enumerate(pivots):
            v[p_col] = -reduced[r_idx, f]
        for entry in v:
            if entry != 0:
                if entry < 0:
                    v = [-x for x in v]
                break
        basis.append(tuple(v))
    return basis


def inverse(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse of a square matrix: the right half of rref([num | den I])."""
    if m.nrows != m.ncols:
        raise ValueError("square matrix expected")
    n = m.nrows
    right = exact_scale(np.eye(n, dtype=np.int64), m.den)
    reduced, pivots = rref(RationalMatrix(np.hstack([m.num, right])))
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return RationalMatrix(reduced.num[:, n:], reduced.den)


def min_poly(m: RationalMatrix, v) -> RationalPoly:
    """Monic polynomial q of least degree with q(m) v == 0.

    The Krylov vectors v, m v, m**2 v, ... are fed at width n to the tracked
    echelon engine; the first dependency yields the coefficients exactly.
    Each vector is kept as an integer numerator reduced by its content, with
    a Fraction scale recording what was divided out.  When v is cyclic (its
    Krylov vectors span the whole space), q is the minimal polynomial of m.

    Args:
        m: square matrix.
        v: nonzero integer vector of length m.nrows; scaling it leaves q
            unchanged.
    """
    w = demote(python_ints(np.array(v, dtype=object)))
    if m.shape != w.shape * 2:
        raise ValueError(f"n x n matrix and length-n vector expected, got {m.shape}, {w.shape}")
    g = content(w)
    if g == 0:
        raise ValueError("zero vector")
    span = EchelonSpan(m.nrows, track=True)
    scales = [Fraction(g)]
    while True:
        # m**t v == scales[t] * w with w integer and primitive.
        w = demote(w // g)
        idx, expr = span.add_tracked(w)
        if idx is None:
            # sum_j expr[j] * w_j == 0 with w_j == m**j v / scales[j].
            coeffs = [Fraction(0)] * len(scales)
            for j, f in expr.items():
                coeffs[j] = f / scales[j]
            return RationalPoly([c / coeffs[-1] for c in coeffs])
        w = exact_matmul(m.num, w)
        g = content(w) or 1
        scales.append(scales[-1] * g / m.den)
