#!/usr/bin/env python3
"""Key rates versus fiber length, analytic columns plus Monte Carlo checks.

This is ``cowqkd sweep --preset 5v --axis distance --values 0,10,25,50,75``
with seed 3, 2e6 frames, 1000-bit blocks and ``--out out``; any flag of that
command given here wins over those defaults, e.g. ``--values 0,10,25,50``.
"""

import sys

from cowqkd import cli

DEFAULTS = [
    "sweep", "--preset", "5v", "--axis", "distance", "--values", "0,10,25,50,75",
    "--seed", "3", "--frames", "2000000", "--out", "out",
    "--set", "distill.block_length=1000", "--set", "distill.disclosure_size=100",
]


def summary(args, cfg, rows) -> None:
    for row in rows:
        print(f"{row['distance_km']:6.1f} km  p_sift={row['p_sift']:.3e} "
              f"(mc {row['p_sift_mc']:.3e})  p_sec={row['p_sec']:.3e}  insecure={row['insecure']}")
    print(f"wrote {args.out / 'sweep_distance.csv'}")


if __name__ == "__main__":
    sys.exit(cli.main(DEFAULTS + sys.argv[1:], show=summary))
