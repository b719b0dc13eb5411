"""Tiny named-check record shared by all verification layers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """One named pass/fail outcome with an optional witness string."""

    name: str
    passed: bool
    witness: str | None = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out

