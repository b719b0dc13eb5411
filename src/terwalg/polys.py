"""Univariate polynomials with exact rational coefficients.

A polynomial is stored the way RationalMatrix stores a matrix: a tuple of
integer numerators ``num`` (low degree first) over one positive denominator
``den``, in canonical form.  The numerator tuple has no trailing zeros, the
gcd of all numerators and the denominator is 1, and the zero polynomial is
``((), 1)`` with degree None.  The coefficient of z**k is num[k] / den, and
structural equality of (num, den) is value equality.

Arithmetic runs on plain Python ints and normalizes once per result; the
``coeffs`` property gives the same coefficients as a tuple of Fractions.

integer_roots is the package's one root finder (the Wedderburn probe and the
graph eigenvalues).  If p = z^k + a1 z^(k-1) + a2 z^(k-2) + ... is a product
of distinct (z - r), r integer, the squares of its roots sum to a1^2 - 2 a2,
so all lie in [-B, B], B = isqrt(a1^2 - 2 a2).  By Sturm's theorem p has
V(lo) - V(hi) distinct real roots in (lo, hi], V(t) being the sign variations
of its Sturm sequence at t, zeros dropped.  (-B-1, B] must hold all k
roots; it is bisected on integers to unit width, and (t-1, t] must hold
exactly one root, with p(t) = 0.  A repeated root leaves the sequence at
most k terms, too few to count k roots.  No search bound can cut this short.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"rational coefficient expected, got {type(value).__name__}")


class RationalPoly:
    """Immutable polynomial over the rationals."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Sequence[Fraction | int] = ()):
        cs = [_coerce(c) for c in coeffs]
        den = lcm(1, *(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, num: list[int], den: int):
        """Store num / den (den > 0) in canonical form."""
        while num and num[-1] == 0:
            num.pop()
        if not num:
            den = 1
        else:
            g = gcd(den, *num)
            if g > 1:
                num = [c // g for c in num]
                den //= g
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    @classmethod
    def _make(cls, num: list[int], den: int) -> "RationalPoly":
        """num / den from integer numerators; den must be positive."""
        p = cls.__new__(cls)
        p._set(num, den)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls._make([], 1)

    @classmethod
    def one(cls) -> "RationalPoly":
        return cls._make([1], 1)

    @classmethod
    def x(cls) -> "RationalPoly":
        return cls._make([0, 1], 1)

    @classmethod
    def from_roots(cls, roots: Iterable[Fraction | int]) -> "RationalPoly":
        """Monic polynomial with the given roots (with multiplicity)."""
        p = cls.one()
        for r in roots:
            r = _coerce(r)
            p = p * cls._make([-r.numerator, r.denominator], r.denominator)
        return p

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, low degree first."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.num) - 1 if self.num else None

    def is_zero(self) -> bool:
        return not self.num

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "RationalPoly", sign: int) -> "RationalPoly":
        """self + sign * other over the common denominator."""
        d = lcm(self.den, other.den)
        sa, sb = d // self.den, sign * (d // other.den)
        a = [c * sa for c in self.num] if sa != 1 else list(self.num)
        b = other.num
        if len(a) < len(b):
            a.extend([0] * (len(b) - len(a)))
        for i, c in enumerate(b):
            a[i] += c * sb
        return RationalPoly._make(a, d)

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self._combine(other, 1)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly._make([-c for c in self.num], self.den)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return RationalPoly._make([c * p for c in self.num], self.den * q)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return RationalPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return RationalPoly._make(out, self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def monic(self) -> "RationalPoly":
        # Coefficient k of the monic polynomial is num[k] / num[-1].
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        lead = self.num[-1]
        if lead < 0:
            return RationalPoly._make([-c for c in self.num], -lead)
        return RationalPoly._make(list(self.num), lead)

    # -- evaluation --------------------------------------------------------

    def eval_scalar(self, v: Fraction | int) -> Fraction:
        """Horner evaluation at an exact rational point.

        At v = p/q the integer Horner pass over the homogenized numerators
        ends at den * q**deg times the value.
        """
        v = _coerce(v)
        if not self.num:
            return Fraction(0)
        p, q = v.numerator, v.denominator
        acc, qpow = 0, 1
        for c in reversed(self.num):
            acc = acc * p + c * qpow
            qpow *= q
        return Fraction(acc, self.den * (qpow // q))

    # -- comparison and display -------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalPoly)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalPoly({self})"

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
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


# -- integer roots ---------------------------------------------------------


def _value(f: Sequence[int], t: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * t + c
    return acc


def _sturm_sequence(f: list[int]) -> list[list[int]]:
    """Sturm sequence of f (integers, low degree first): f, f', then each
    -prem(f_(i-2), f_(i-1)) over its content.  The pseudo-division scales by
    |lc(f_(i-1))|, so each term is a positive multiple of Sturm's."""
    seq = [f, [k * c for k, c in enumerate(f)][1:]]
    while True:
        r, b = list(seq[-2]), seq[-1]
        s = abs(b[-1])
        sign = 1 if b[-1] > 0 else -1
        while len(r) >= len(b):
            c, shift = sign * r[-1], len(r) - len(b)
            r = [s * x for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= c * y
            while r and r[-1] == 0:
                r.pop()
        if not r:
            return seq
        g = gcd(*r)
        seq.append([-x // g for x in r])


def integer_roots(p: RationalPoly) -> list[int] | None:
    """The roots of p in ascending order if p = prod (z - r) over distinct
    integers r, else None: p is not monic with integer coefficients, has a
    repeated root, or has a root that is not an integer.  The method is in
    the module docstring.
    """
    if p.den != 1 or not p.num or p.num[-1] != 1:
        return None
    f = list(p.num)
    k = len(f) - 1
    if k == 0:
        return []
    squares = f[k - 1] ** 2 - 2 * (f[k - 2] if k >= 2 else 0)
    if squares < 0:
        return None
    seq = _sturm_sequence(f)

    def variations(t: int) -> int:
        signs = [v > 0 for v in (_value(g, t) for g in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    lo, hi = -isqrt(squares) - 1, isqrt(squares)
    vlo, vhi = variations(lo), variations(hi)
    if vlo - vhi != k:
        return None
    roots, stack = [], [(lo, vlo, hi, vhi)]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if vlo - vhi > 1 or _value(f, hi):
                return None
            roots.append(hi)
            continue
        mid = (lo + hi) // 2
        vmid = variations(mid)
        stack += [(mid, vmid, hi, vhi), (lo, vlo, mid, vmid)]
    return roots
