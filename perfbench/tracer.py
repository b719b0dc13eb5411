"""Per-layer tracing of terwalg from outside the package.

The tracer replaces chosen public functions and methods of the terwalg
modules with wrappers that record one span per call (name, start, end,
parent span) plus per-site counters.  terwalg binds most names with
``from ._intops import exact_matmul`` and the like, so a function is rebound
in every terwalg module that holds it, not only where it is defined;
``install`` then scans the modules again and refuses to run if any original
is still reachable.

A site's self time is its total time minus the time its direct child spans
cover.  Calls are single-threaded (the benchmark runs with one thread), so
child spans never overlap.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Site:
    """Aggregates for one wrapped function."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def bump(self, key: str, amount: int = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def raise_to(self, key: str, value: int):
        self.counters[key] = max(self.counters.get(key, 0), value)


def _matmul_counts(site: Site, args, result):
    a, b = args[0], args[1]
    inner = a.shape[-1]
    rows = a.size // inner if inner else 0
    cols = b.size // inner if inner else 0
    site.bump("madds", rows * inner * cols)
    if result.dtype == object:
        site.bump("object_calls")
        biggest = max((abs(v) for v in result.flat), default=0)
    else:
        # int64 results stay below 2**62, so abs cannot overflow.
        biggest = int(np.abs(result).max()) if result.size else 0
    site.raise_to("max_bits", int(biggest).bit_length())


def _echelon_counts(site: Site, args, result, dim_before: int):
    span = args[0]
    site.bump("row_ops", span.width * dim_before)
    idx = result[0] if isinstance(result, tuple) else result
    if idx is None:
        site.bump("dependent")


def _stage_key(name: str, args, kwargs):
    """Matrix side of a stage call, used to split stage time by diameter.

    A decompose call with an explicit identity is the complement corner and
    is keyed apart from the full algebra.
    """
    if name == "wedderburn.decompose" and (len(args) > 2 or "identity" in kwargs):
        return ("corner", _side(args[0]))
    return _side(args[0])


def _side(first) -> int | None:
    if isinstance(first, int):
        return 1 << first  # build_hypercube_context(d, ...)
    for attr in ("n", "side"):
        value = getattr(first, attr, None)
        if isinstance(value, int):
            return value
    if isinstance(first, (list, tuple)) and first and hasattr(first[0], "nrows"):
        return first[0].nrows
    return None


PACKAGE = "terwalg"

# (module, attribute path, counter) for every traced site.  Stage-level
# sites carry the matrix side of their call so the trace can be split by d.
SITES = (
    ("_intops", "exact_matmul", "matmul"),
    ("echelon", "EchelonSpan.add", "echelon"),
    ("echelon", "EchelonSpan.add_tracked", "echelon"),
    ("linalg", "kernel_basis", None),
    ("linalg", "rref", None),
    ("linalg", "min_poly", None),
    ("linalg", "rank", None),
    ("linalg", "inverse", None),
    ("linalg", "RationalMatrix.__matmul__", None),
    ("closure", "closure", "stage"),
    ("wedderburn", "decompose", "stage"),
    ("wedderburn", "center_basis", None),
    ("wedderburn", "split_center", None),
    ("wedderburn", "block_sizes", None),
    ("wedderburn", "complement_algebra", "stage"),
    ("idempotent", "verify_u0", "stage"),
    ("subconstituent", "build_hypercube_context", "stage"),
    ("subconstituent", "build_context", "stage"),
    ("subconstituent", "check_section_identities", None),
    ("subconstituent", "check_triple_products", "stage"),
    ("subconstituent", "triple_span_dim", None),
    ("subconstituent", "check_polynomial_images", None),
    ("graphs", "DistanceData.compute", None),
    ("graphs", "is_distance_regular", None),
    ("graphs", "parse_graph_file", None),
    ("verify", "global_checks", None),
    ("report", "VerificationReport.to_json", None),
)


def site_name(module: str, path: str) -> str:
    """Metric prefix of a site; metric names must start with a letter."""
    return f"{module.lstrip('_')}.{path.replace('__matmul__', 'matmul')}"


class Tracer:
    """Installs wrappers on terwalg, records spans, and restores on exit."""

    def __init__(self):
        self.sites: dict[str, Site] = {}
        self.spans: list[tuple] = []  # (id, name, start, end, parent, side)
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str | None):
        site = self.sites.setdefault(name, Site())
        if kind == "matmul":
            site.counters.update(madds=0, object_calls=0, max_bits=0)
        elif kind == "echelon":
            site.counters.update(row_ops=0, dependent=0)
        stack = self._stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            dim_before = args[0].dim if kind == "echelon" else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                site.calls += 1
                site.total_s += elapsed
                site.self_s += elapsed - frame[1]
                side = _stage_key(name, args, kwargs) if kind == "stage" else None
                spans.append((span_id, name, start, end, parent, side))
            if kind == "matmul":
                _matmul_counts(site, args, result)
            elif kind == "echelon":
                _echelon_counts(site, args, result, dim_before)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _modules(self):
        return [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self):
        """Wrap every site and rebind it at every terwalg import site.

        Raises:
            RuntimeError: if an original function is still bound somewhere
                in terwalg after rebinding.
        """
        originals = {}
        for module_name, path, kind in SITES:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = site_name(module_name, path)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(name, fn, kind)
                setattr(cls, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                self._undo.append((cls, attr, raw))
            else:
                fn = getattr(module, path)
                originals[id(fn)] = (fn, self._wrap(name, fn, kind))
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))
        for module in self._modules():
            for attr, value in vars(module).items():
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    raise RuntimeError(f"{module.__name__}.{attr} was not rebound")

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float | int]:
        """Flat per-site metrics: calls, total_s, self_s and counters."""
        out: dict[str, float | int] = {}
        for name, site in self.sites.items():
            out[f"{name}.calls"] = site.calls
            out[f"{name}.total_s"] = site.total_s
            out[f"{name}.self_s"] = site.self_s
            for key, value in site.counters.items():
                out[f"{name}.{key}"] = value
        return out

    def stage_split(self) -> dict[str, dict[str, float]]:
        """Total seconds of each stage-level site, keyed by matrix side."""
        split: dict[str, dict[str, float]] = {}
        for _, name, start, end, _, side in self.spans:
            if side is None:
                continue
            stage = name
            if isinstance(side, tuple):
                stage, side = name + "[corner]", side[1]
            per_side = split.setdefault(f"n={side}", {})
            per_side[stage] = per_side.get(stage, 0.0) + (end - start)
        return split

    def write_spans(self, path):
        """One JSON array per line: id, name, start, end, parent id."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([span_id, name, start, end, parent]) + "\n")
