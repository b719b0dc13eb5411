"""Run one terwalg benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload cube-sweep-d7 --seed 1 --seconds 10 --trace 0

Workloads: cube-sweep-d7, cube-d8-core, drg-graphs (see workloads.py and
NOTES.md).  The program is imported from ``src/`` next to this directory, so
no install step is needed; without it the benchmark exits with code 2.

With ``--trace 0`` the run measures the end-to-end metrics listed under
``end_to_end`` in BENCHMARK.json: passes over the workload, repeated until
``--seconds`` have elapsed (at least one), reporting the median pass, and
set-up time as the median of fresh interpreters that import terwalg and
generate the inputs, half run before and half after the passes.  With
``--trace 1`` it makes one untraced and one traced pass and reports the
``per_layer`` metrics; spans and a stage split go to ``perfbench/out/``.
Every pass is checked.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("cube-sweep-d7", "cube-d8-core", "drg-graphs")
SETUP_PROBES = 4  # before and again after the timed passes


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import and generate inputs, then exit (one set-up sample)",
    )
    return parser.parse_args(argv)


def load_workloads():
    """Import terwalg from this checkout's src/ and the workload module.

    Raises:
        ImportError: when src/terwalg is missing or another copy would load.
    """
    # Integer products do not use BLAS, but pin any pool to the one caller.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import terwalg

    if Path(terwalg.__file__).resolve().parent != src / "terwalg":
        raise ImportError(f"terwalg loaded from {terwalg.__file__}, not {src}")
    import workloads

    return workloads


def _setup_sample(args) -> float:
    """Wall time of a fresh interpreter that imports and generates inputs."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        check=True,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _timed_pass(workload, inputs):
    """Run the workload's program calls once, timed, then check the outputs."""
    # Start every pass from a collected heap, so garbage left by the previous
    # pass is not collected inside this one.
    gc.collect()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    out = workload.run(inputs)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return wall, cpu, workload.check(inputs, out)


def _end_to_end(workload, inputs, args):
    # Set-up samples bracket the timed passes, so their median spans the
    # machine's state over the whole run rather than one moment of it.
    setup = [_setup_sample(args) for _ in range(SETUP_PROBES)]
    walls, cpus, ops = [], [], []
    start = time.perf_counter()
    while True:
        wall, cpu, pass_ops = _timed_pass(workload, inputs)
        walls.append(wall)
        cpus.append(cpu)
        ops.extend(pass_ops)
        if time.perf_counter() - start >= args.seconds:
            break
    setup += [_setup_sample(args) for _ in range(SETUP_PROBES)]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"passes: {len(walls)}; wall per pass: {walls}; set-up samples: {setup}")
    return metrics, ops, True


def _traced(workload, inputs, args):
    from tracer import Tracer

    untraced_wall, _, ops = _timed_pass(workload, inputs)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, _, traced_ops = _timed_pass(workload, inputs)
    finally:
        tracer.uninstall()
    ops = ops + traced_ops
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    missing = [s for s in workload.expected_sites if tracer.sites[s].calls == 0]
    for site in missing:
        print(f"COVERAGE {site}: no call recorded", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"{args.workload}.spans.jsonl")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "metrics": metrics,
        "stage_split_s": tracer.stage_split(),
    }
    (OUT_DIR / f"{args.workload}.summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    print(f"tracing overhead: {metrics['trace.overhead_s']:.3f} s "
          f"({traced_wall:.3f} s traced vs {untraced_wall:.3f} s untraced)")
    return metrics, ops, not missing


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = load_workloads()
    except (OSError, ImportError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    if args.setup_only:
        return 0

    measure = _traced if args.trace else _end_to_end
    computed, ops, covered = measure(workload, inputs, args)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    failed = [op for op in ops if op.failed]
    for op in failed:
        tag = "KNOWN DEFECT" if op.known_defect else "FAIL"
        print(f"{tag} {args.workload} {op.name}: {'; '.join(op.problems)}", file=sys.stderr)
    correct = covered and all(op.known_defect for op in failed)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(f"  ops_attempted = {len(ops)} count")
    print(f"  ops_failed = {len(failed)} count")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
