#!/usr/bin/env python3
"""Run the reference tabletop configuration and print the headline numbers.

This is ``cowqkd replicate-paper --seed 11 --out out/replicate``; any flag
of that command given here wins over those defaults.  For example,
``--set spad.facet_reflectance=0`` disables facet reflections so the
eavesdropper sees only avalanche light.
"""

import sys

from cowqkd import cli

DEFAULTS = ["replicate-paper", "--seed", "11", "--out", "out/replicate"]


def summary(args, cfg, res) -> None:
    c = res.counts
    print(f"sifted detections      {c.n_sift}")
    print(f"retained key bits      {c.n_retained}")
    print(f"eve backflash on key   {c.n_eve_backflash}  (fraction {c.n_eve_backflash / c.n_retained:.4f})")
    b = res.trials[0].blocks[0]
    z, o = b.inference.bit_tallies()
    print(f"assigned zeros/ones    {z}/{o}")
    print(f"attack metrics         {res.manifest['learning'][0]}")
    for r in res.report.rows:
        emp = "-" if r.empirical is None else f"{r.empirical:.6g}"
        print(f"{r.name:<14} analytic {r.analytic:.6g}  empirical {emp}  ok={r.ok}")
    print(f"artifacts in {args.out}")


if __name__ == "__main__":
    sys.exit(cli.main(DEFAULTS + sys.argv[1:], show=summary))
