"""Cross-diameter identities between the Krawtchouk-type families.

These are pure univariate polynomial statements relating the family for
diameter d to the family for diameter d-2 and the smaller spectrum
polynomial.  Everything is decided by exact coefficient comparison; a
negative index always denotes the zero polynomial.  A check over a range
of diameters builds each family once (Families) and reads every identity
from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .hypercube import krawtchouk_polys, spectrum_poly
from .polys import RationalPoly


def _member(family: tuple[RationalPoly, ...], j: int) -> RationalPoly:
    if j < 0:
        return RationalPoly.zero()
    return family[j]


@dataclass(frozen=True)
class PhiImageReport:
    """Per-index outcome of the descent identities for one diameter."""

    d: int
    branch_results: tuple[bool, ...]

    @property
    def passed(self) -> bool:
        return all(self.branch_results)

    def failing_indices(self) -> tuple[int, ...]:
        return tuple(i for i, ok in enumerate(self.branch_results) if not ok)


def _descent_report(
    d: int,
    big: list[RationalPoly],
    small: list[RationalPoly],
    phi_small: RationalPoly,
) -> PhiImageReport:
    results = []
    for i in range(d + 1):
        if i == d:
            expect = RationalPoly.x() * phi_small * Fraction(1, math.factorial(d))
            expect = expect - _member(small, d - 2)
        elif i == d - 1:
            expect = phi_small * Fraction(1, math.factorial(d - 1))
            expect = expect - _member(small, d - 3)
        elif i == 0:
            expect = RationalPoly.one()
        elif i == 1:
            expect = RationalPoly.x()
        else:
            expect = _member(small, i) - _member(small, i - 2)
        results.append(big[i] == expect)
    return PhiImageReport(d, tuple(results))


def verify_phi_images(d: int) -> PhiImageReport:
    """Check how each F_i^(d) descends to the diameter d-2 data.

    For 0 <= i <= d the expected identity is:
        i in {0, 1}:       F_i^(d) = 1 resp. z
        2 <= i <= d-2:     F_i^(d) = F_i^(d-2) - F_{i-2}^(d-2)
        i = d-1:           F_{d-1}^(d) = Phi_{d-2}/(d-1)! - F_{d-3}^(d-2)
        i = d:             F_d^(d) = z Phi_{d-2}/d! - F_{d-2}^(d-2)
    with the last two taking precedence when indices collide (they agree
    with the general branches where both apply).
    """
    if d < 2:
        raise ValueError("descent identities require d >= 2")
    return _descent_report(
        d, krawtchouk_polys(d), krawtchouk_polys(d - 2), spectrum_poly(d - 2)
    )


@dataclass(frozen=True)
class Families:
    """F^(d) = krawtchouk_polys(d) and Phi_d = spectrum_poly(d) for every
    0 <= d <= dmax, each built once, for the checks over a range of d."""

    F: tuple[list[RationalPoly], ...]
    phi: tuple[RationalPoly, ...]

    @classmethod
    def build(cls, dmax: int) -> "Families":
        return cls(
            F=tuple(krawtchouk_polys(d) for d in range(dmax + 1)),
            phi=tuple(spectrum_poly(d) for d in range(dmax + 1)),
        )

    def descent_failure(self, dmax: int) -> PhiImageReport | None:
        """The report of the first 2 <= d <= dmax whose descent identities
        fail (see verify_phi_images), or None when all hold."""
        for d in range(2, dmax + 1):
            rep = _descent_report(d, self.F[d], self.F[d - 2], self.phi[d - 2])
            if not rep.passed:
                return rep
        return None

    def factorial_holds(self, dmax: int) -> bool:
        """Phi_d = (d+1)! F_{d+1} for every 1 <= d <= dmax."""
        return all(
            self.phi[d] == self.F[d][d + 1] * math.factorial(d + 1)
            for d in range(1, dmax + 1)
        )


def verify_phi_factorial(dmax: int) -> bool:
    """Phi_d = (d+1)! F_{d+1} for every 1 <= d <= dmax."""
    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    return Families.build(dmax).factorial_holds(dmax)
