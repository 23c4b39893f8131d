"""Smoke test of the benchmark: every workload at reduced size, untraced and traced.

Each run must exit 0, read correct with no failed operation, and emit exactly
the metrics that BENCHMARK.json names, with the units it gives them. Run from
the repository root; it takes about a minute:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    script = spec["command"][1:]
    problems = []
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, *script, "--workload", workload["name"], "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
            if proc.returncode != 0 or not proc.stdout:
                problems.append(f"{label}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: missing {sorted(want.keys() - got.keys())}, "
                                f"unexpected {sorted(got.keys() - want.keys())}, wrong unit "
                                f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
            print(f"{label}: {len(got)} metrics, {result['attempted']} operations")
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
