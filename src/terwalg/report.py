"""Report structures for the verifier: plain data, deterministic bytes.

Records hold only JSON-ready values (ints, bools, strings, lists, dicts) so
that serialization round-trips losslessly and two runs that compute the
same facts emit byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .checks import Check

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DiameterRecord:
    """Verification outcome for a single diameter."""

    d: int
    vertex: int
    dim_T: int
    expected_dim: int
    triple_span_dim: int
    u0: dict
    blocks: list | str
    checks: tuple[Check, ...]

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "vertex": self.vertex,
            "dim_T": self.dim_T,
            "expected_dim": self.expected_dim,
            "triple_span_dim": self.triple_span_dim,
            "u0": self.u0,
            "blocks": self.blocks,
            "checks": [c.as_dict() for c in self.checks],
        }

    @staticmethod
    def from_dict(data: dict) -> "DiameterRecord":
        return DiameterRecord(
            d=data["d"],
            vertex=data["vertex"],
            dim_T=data["dim_T"],
            expected_dim=data["expected_dim"],
            triple_span_dim=data["triple_span_dim"],
            u0=data["u0"],
            blocks=data["blocks"],
            checks=tuple(
                Check(c["name"], c["pass"], c.get("witness")) for c in data["checks"]
            ),
        )


@dataclass(frozen=True)
class VerificationReport:
    """All per-diameter records plus the range-wide polynomial checks."""

    version: str
    results: tuple[DiameterRecord, ...]
    global_checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def overall(self) -> str:
        named = all(c.passed for r in self.results for c in r.checks)
        if named and all(c.passed for c in self.global_checks):
            return "pass"
        return "fail"

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "version": self.version,
            "results": [r.as_dict() for r in self.results],
            "global_checks": [c.as_dict() for c in self.global_checks],
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        data = json.loads(text)
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported report schema: {data.get('schema')!r}")
        return VerificationReport(
            version=data["version"],
            results=tuple(DiameterRecord.from_dict(r) for r in data["results"]),
            global_checks=tuple(
                Check(c["name"], c["pass"], c.get("witness"))
                for c in data["global_checks"]
            ),
        )

    def to_text(self) -> str:
        lines = [f"terwalg verification report (version {self.version})"]
        for r in self.results:
            lines.append(
                f"d={r.d} vertex={r.vertex}: dim T = {r.dim_T} "
                f"(expected {r.expected_dim}), triple span = {r.triple_span_dim}, "
                f"blocks = {r.blocks}"
            )
            lines.append(
                "  u0: rank={rank} dim_ideal={dim_ideal} "
                "formulas_agree={formulas_agree} idempotent={idempotent} "
                "central={central} absorbs={absorbs}".format(**r.u0)
            )
            for c in r.checks:
                lines.append(_check_line(c, indent="  "))
        if self.global_checks:
            lines.append("range-wide checks:")
            for c in self.global_checks:
                lines.append(_check_line(c, indent="  "))
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines) + "\n"


def _check_line(c: Check, indent: str = "") -> str:
    mark = "PASS" if c.passed else "FAIL"
    suffix = "" if c.witness is None else f"  [{c.witness}]"
    return f"{indent}{mark} {c.name}{suffix}"
