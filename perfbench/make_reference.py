"""Regenerate the reference outputs the benchmark compares against.

    python3 perfbench/make_reference.py

Run from the repository root, only when a change to the program is meant to
change its report.  The sweep reference is ``verify --max-d 7 --format
json`` with every vertex field set to 0.  The graph reference holds the
seed-invariant fields of each graph report; it is produced from two seeds
and written only if they agree.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    workloads = run.load_workloads()
    sweep = workloads.sweep_run({"vertex": 0}).encode()
    (workloads.REFERENCE_DIR / "cube-sweep-d7.json").write_bytes(
        workloads.normalize_vertices(sweep)
    )

    views = []
    for seed in (0, 1):
        inputs = {"graphs": workloads.graph_items(seed)}
        out = workloads.drg_run(inputs)
        views.append({
            item["family"].name: workloads.seed_invariant_view(json.loads(text))
            for item, (text, _) in zip(inputs["graphs"], out)
        })
    if views[0] != views[1]:
        print("graph reports depend on the seed; reference not written", file=sys.stderr)
        return 1
    (workloads.REFERENCE_DIR / "drg-graphs.json").write_text(
        json.dumps(views[0], sort_keys=True, indent=2) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
