#!/usr/bin/env python3
"""Borderless (UMDA*) stagnation probe at n=500 with lambda = 2*mu: nearly
every run stagnates at mu = ceil(3 log n) = 19, while most succeed at
mu = ceil(3 sqrt(n) log n) = 417."""

import sys

from umda.cli import main

if __name__ == "__main__":
    sys.exit(
        main(
            sys.argv[1:]
            + [
                "phase",
                "--n", "500",
                "--mu-small", "19",
                "--mu-large", "417",
                "--runs", "100",
            ]
        )
    )
