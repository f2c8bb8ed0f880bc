#!/usr/bin/env python3
"""Dark-exposure start-stop histograms for several gate widths.

With the source blocked, every receiver click is dark-triggered, so the
click-to-leak delay histogram profiles the backflash emission alone.

This is ``cowqkd correlate --widths 2000,4000,6000 --clicks 200000 --seed 5
--out out/correlation``; any flag of that command given here wins over those
defaults.
"""

import sys

from cowqkd import cli

DEFAULTS = ["correlate", "--widths", "2000,4000,6000", "--clicks", "200000",
            "--seed", "5", "--out", "out/correlation"]


def summary(args, cfg, hists) -> None:
    prev = None
    for w, h in hists.items():
        growth = "" if prev is None else f"  ({100 * (h.std_ps() - prev) / prev:+.1f}% vs previous)"
        print(f"gate {w/1000:.0f} ns: {h.total()} stops, spread {h.std_ps():.0f} ps{growth}")
        prev = h.std_ps()
    print(f"histograms in {args.out}")


if __name__ == "__main__":
    sys.exit(cli.main(DEFAULTS + sys.argv[1:], show=summary))
