"""One workload process of the benchmark: set up, then measure or trace.

run.py starts this script once per measurement, so that ``ru_maxrss`` is the
high-water mark of one workload, and again for each extra set-up sample. The
last line of its standard output is one JSON object; everything else goes to
standard error.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --scale full|smoke --workdir DIR --t0 MONOTONIC [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there to the end of the warm-up pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_pass(ops, threads, tracer=None, check=True):
    """Run each operation once; only ``op.run`` is timed and traced.

    Returns (timed seconds, CSV bytes of the threaded operations, failures).
    """
    wall = 0.0
    csv_bytes = {}
    failures = []
    for op in ops:
        start = time.perf_counter()
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                out = op.run(threads)
        except Exception as exc:
            traceback.print_exc()
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            wall += time.perf_counter() - start
        if op.threaded:
            csv_bytes[op.name] = Path(out).read_bytes()
        if check:
            try:
                op.check(out)
            except Exception as exc:
                traceback.print_exc()
                failures.append(f"{op.name} check: {type(exc).__name__}: {exc}")
    return wall, csv_bytes, failures


def measure(workload, seconds: float) -> dict:
    """Timed passes while another one fits in ``seconds``; stops at a failure."""
    walls, failures = [], []
    while not walls or (sum(walls) + statistics.median(walls) <= seconds and not failures):
        wall, _, failed = run_pass(workload.ops, workload.threads)
        walls.append(wall)
        failures += failed
    return {"passes": walls, "traj_steps": workload.traj_steps,
            "attempted": len(walls) * len(workload.ops), "failures": failures}


def trace(workload, seconds: float, census_workloads) -> dict:
    """Per-layer metrics from traced passes, against untraced ones.

    Every round runs an untraced pass at 1 thread, one at 2 threads when the
    workload has a --threads operation (its CSVs must match byte for byte),
    and a traced pass at 1 thread, so self times of nested layers add up on
    one thread. Layers the workload never reaches are traced on the smoke-size
    census workloads, so every per-layer metric is a measurement.
    """
    import tracing

    threaded = any(op.threaded for op in workload.ops)
    one, two, traced, per_pass = [], [], [], []
    failures, attempted = [], 0

    def compare(label, want, got):
        nonlocal attempted
        for name, blob in got.items():
            attempted += 1
            if blob != want.get(name):
                failures.append(f"{name}: CSV at {label} differs from the 1-thread CSV")

    while not traced or sum(one + two + traced) * (1 + 1 / len(traced)) <= seconds:
        wall, base, failed = run_pass(workload.ops, 1)
        one.append(wall)
        failures += failed
        if threaded:
            wall, blobs, failed = run_pass(workload.ops, 2)
            two.append(wall)
            failures += failed
            compare("2 threads", base, blobs)
        tracer = tracing.Tracer()
        wall, blobs, failed = run_pass(workload.ops, 1, tracer)
        traced.append(wall)
        failures += failed
        compare("1 thread traced", base, blobs)
        per_pass.append(tracing.layer_metrics(tracer))
        attempted += (3 if threaded else 2) * len(workload.ops)
        if failures:
            break

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    census, absent = [], set(tracer.absent)
    unreached = {layer for _, _, layer, _ in tracing.METRICS
                 if layer is not None and not tracer.reached(layer)}
    if unreached:
        probe = tracing.Tracer()
        for other in census_workloads:
            _, _, failed = run_pass(other.ops, 1, probe)
            attempted += len(other.ops)
            failures += failed
        absent |= probe.absent
        census = sorted(layer for layer in unreached if probe.reached(layer))
        from_probe = tracing.layer_metrics(probe)
        for name, _, layer, _ in tracing.METRICS:
            if layer in census:
                metrics[name] = from_probe[name]
    if not threaded:
        census.append("fieldsim.threads")
        wide = next(w for w in census_workloads if any(op.threaded for op in w.ops))
        one_c = run_pass(wide.ops, 1, check=False)[0]
        two_c = run_pass(wide.ops, 2, check=False)[0]
        metrics["fieldsim.threads.speedup"] = one_c / two_c
    else:
        metrics["fieldsim.threads.speedup"] = statistics.median(one) / statistics.median(two)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(one)
    layers = [(name, metrics[name], unit) for name, unit, _, _ in tracing.METRICS]
    return {"layers": layers, "attempted": attempted, "failures": failures,
            "census": census, "absent": sorted(absent),
            "untraced_s": statistics.median(one), "traced_s": statistics.median(traced)}


def machine() -> dict:
    """What a number depends on besides the code: cores, versions, SIMD."""
    import numpy
    import scipy

    try:
        simd = numpy.show_config(mode="dicts")["SIMD Extensions"]
    except (TypeError, KeyError):
        simd = "unknown"
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "numpy_simd": simd}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.build(args.workload, args.scale, args.seed, args.workdir / "run")
    warm = workloads.build(args.workload, "smoke", args.seed, args.workdir / "warm-up")
    run_pass(warm.ops, warm.threads, check=False)
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        if args.trace:
            census = [workloads.build(name, "smoke", args.seed, args.workdir / "census")
                      for name in workloads.WORKLOADS]
            result.update(trace(workload, args.seconds, census))
        else:
            result.update(measure(workload, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result["machine"] = machine()
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
