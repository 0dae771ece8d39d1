#!/usr/bin/env python3
"""Full-scale lambda sweep (n=2000, lambda 14..350 step 2, mu=lambda/2,
3000 runs per setting).  This is the long-running target: about 320 CPU-hours
(13.5 CPU-days) on a 2-vCPU host, as `bench/run.py --workload all` projects.
The runtime curve takes its minimum near lambda ~ 20 and the border-hit
curve decays exponentially, with the phase transition between 250 and 300."""

import sys

from umda.cli import main

if __name__ == "__main__":
    args = sys.argv[1:]
    if "--out" not in args:
        args = ["--out", "umda2000-3000.txt"] + args
    sys.exit(
        main(
            args
            + [
                "sweep",
                "--n", "2000",
                "--lambdas", "14:350:2",
                "--mu-rule", "lam/2",
                "--borders", "restricted",
                "--runs", "3000",
            ]
        )
    )
