#!/usr/bin/env python3
"""Sweep the detector excess-bias points and tabulate rates plus attack yield.

This is ``cowqkd sweep --preset paper --axis bias --values 2v,5v,7v`` with
seed 2, 4000-bit blocks and ``--out out``; any flag of that command given
here wins over those defaults.
"""

import sys

from cowqkd import cli

DEFAULTS = [
    "sweep", "--preset", "paper", "--axis", "bias", "--values", "2v,5v,7v",
    "--seed", "2", "--frames", "7800000", "--out", "out",
    "--set", "distill.block_length=4000", "--set", "distill.disclosure_size=400",
]


def summary(args, cfg, rows) -> None:
    for row in rows:
        print(f"{row['bias_v']}: p_sift={row['p_sift_mc']:.3e} qber={row['p_err_mc']:.3e} "
              f"learning={row['learning_rate_mc']:.4f} p_sec={row['p_sec']:.3e}")
    print(f"wrote {args.out / 'sweep_bias.csv'}")


if __name__ == "__main__":
    sys.exit(cli.main(DEFAULTS + sys.argv[1:], show=summary))
