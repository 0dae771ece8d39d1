#!/usr/bin/env python3
"""Scaling studies for the two parent-count regimes.

Both run lambda = 2 mu.  Above the phase transition (mu ~ 3 sqrt(n) log n)
the generation count grows like sqrt(n); below it (mu ~ 5 log n, borders
on) it grows roughly linearly in n."""

import sys

from umda.cli import main

if __name__ == "__main__":
    extra = sys.argv[1:]
    rc = main(
        extra
        + [
            "scaling",
            "--n-values", "64,256,1024",
            "--mu-rule", "ceil(3*sqrt(n)*log(n))",
            "--runs", "50",
        ]
    )
    if rc:
        sys.exit(rc)
    sys.exit(
        main(
            extra
            + [
                "scaling",
                "--n-values", "128,512,2048",
                "--mu-rule", "ceil(5*log(n))",
                "--runs", "50",
            ]
        )
    )
