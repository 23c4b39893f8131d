"""Benchmark of blochrate, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ensemble-wide, ensemble-narrow, field-stats, memory-kernel (see
perfbench/README.md for why each was chosen and what it loads). The package
is imported from ./src; nothing is installed.

With --trace 0 the workload runs untraced in a fresh process for S seconds of
timed passes, after set-up in that process and in SETUP_SAMPLES - 1 extra
processes; the end-to-end metrics are setup_s, wall_s, traj_steps_per_s,
peak_rss_mb and success_rate. With --trace 1 one process traces the layers and
reports the per-layer metrics. Each metric is printed with its unit, then the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit code 0 means a result was printed; a
failed check still exits 0 and reads correct: false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ensemble-wide", "ensemble-narrow", "field-stats", "memory-kernel")
SETUP_SAMPLES = 3       # setup_s is the median over this many fresh processes
TIME_LIMIT = 175.0      # seconds for the whole run, workers included


class WorkerFailed(RuntimeError):
    """A workload process crashed, timed out or printed no result."""


def _spawn(args, workdir: Path, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale, "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([*cmd, "--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{args.workload} worker ran past the {TIME_LIMIT:g} s limit") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{args.workload} worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def _show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<48} {value:>16.6g} {unit:<6} {note}".rstrip())


def timed_run(args, workdir: Path, deadline: float):
    setups = [_spawn(args, workdir / f"setup{i}", deadline, setup_only=True)["setup_s"]
              for i in range(SETUP_SAMPLES - 1)]
    res = _spawn(args, workdir / "measure", deadline)
    setups.append(res["setup_s"])
    wall = statistics.median(res["passes"])
    attempted, failed = res["attempted"], len(res["failures"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "traj_steps_per_s": (res["traj_steps"] / wall, "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "success_rate": ((attempted - failed) / attempted, "1"),
    }
    print(f"machine {json.dumps(res['machine'])}")
    print(f"{args.workload} seed {args.seed}: {len(res['passes'])} timed passes of "
          f"{res['traj_steps']} trajectory-steps; setup samples "
          + ", ".join(f"{s:.4f}" for s in setups))
    for name, (value, unit) in metrics.items():
        _show(name, value, unit)
    _show("error_rate", failed / attempted, "1", f"({failed} of {attempted} operations failed)")
    return metrics, attempted, res["failures"]


def traced_run(args, workdir: Path, deadline: float):
    res = _spawn(args, workdir / "trace", deadline)
    print(f"machine {json.dumps(res['machine'])}")
    print(f"{args.workload} seed {args.seed}: traced pass {res['traced_s']:.4f} s, "
          f"untraced {res['untraced_s']:.4f} s")
    if res["census"]:
        print("  taken from the smoke-size census (not reached by this workload): "
              + ", ".join(res["census"]))
    if res["absent"]:
        print("  absent from the package, reported as 0: " + ", ".join(res["absent"]))
    metrics = {name: (value, unit) for name, value, unit in res["layers"]}
    for name, (value, unit) in metrics.items():
        _show(name, value, unit)
    return metrics, res["attempted"], res["failures"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke runs every operation at reduced size")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "blochrate" / "__init__.py").is_file():
        print(f"error: no blochrate sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    args.seed %= 2 ** 64
    deadline = time.monotonic() + TIME_LIMIT
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        metrics, attempted, failures = run(args, workdir, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in failures:
        print(f"FAILED {message}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
