"""Univariate polynomials with exact rational coefficients.

Coefficients are stored low degree first as a tuple of Fractions with no
trailing zeros, so equal polynomials compare equal structurally.  The zero
polynomial has an empty coefficient tuple and degree None.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"rational coefficient expected, got {type(value).__name__}")


class RationalPoly:
    """Immutable polynomial over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int] = ()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RationalPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RationalPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "RationalPoly":
        return cls((c,))

    @classmethod
    def from_roots(cls, roots: Iterable[Fraction | int]) -> "RationalPoly":
        """Monic polynomial with the given roots (with multiplicity)."""
        p = cls.one()
        for r in roots:
            p = p * cls((-_coerce(r), 1))
        return p

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        """Coefficient of z**k (zero beyond the stored degree)."""
        if k < 0:
            raise ValueError("negative exponent")
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPoly([c * other for c in self.coeffs])
        if not isinstance(other, RationalPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def monic(self) -> "RationalPoly":
        return self * (1 / self.leading)

    # -- evaluation and division ------------------------------------------

    def eval_scalar(self, v: Fraction | int) -> Fraction:
        """Horner evaluation at an exact rational point."""
        v = _coerce(v)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def deflate(self, root: Fraction | int) -> tuple["RationalPoly", Fraction]:
        """Synthetic division by (z - root).

        Returns:
            (quotient, remainder); remainder == 0 iff root is a root.
        """
        root = _coerce(root)
        if self.is_zero():
            return RationalPoly.zero(), Fraction(0)
        acc = Fraction(0)
        out = []
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        rem = out.pop()
        return RationalPoly(list(reversed(out))), rem

    # -- comparison and display -------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPoly({self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = mag + ("z" if k == 1 else f"z^{k}")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)
