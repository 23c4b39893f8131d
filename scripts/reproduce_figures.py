#!/usr/bin/env python3
"""Regenerate every canned figure bundle (CSV plus SVG) in one run.

The full version reproduces the shipped defaults and takes a few minutes
single threaded; --quick shrinks the ensembles of every figure that reads
n_traj to a smoke test (fig2's ensemble sizes are fixed).
"""

import argparse

from blochrate.cli import FIGURES, KEY_TABLE, main as blochrate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="figures", help="output directory")
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="200 trajectories per ensemble instead of 10000")
    args = ap.parse_args(argv)

    for name in FIGURES:
        cmd = ["figure", name, "--out", args.out, "--seed", str(args.seed),
               "--threads", str(args.threads), "--plot"]
        if args.quick and "n_traj" in KEY_TABLE[name]:
            cmd += ["--set", "n_traj=200"]
        print(f"[{name}] -> {args.out}/")
        rc = blochrate(cmd)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
