#!/usr/bin/env python3
"""Dark-exposure start-stop histograms for several gate widths.

With the source blocked, every receiver click is dark-triggered, so the
click-to-leak delay histogram profiles the backflash emission alone.  Each
width's spread is printed next to that of the closed-form stop law.

This is ``cowqkd correlate --widths 2000,4000,6000 --clicks 200000 --seed 5
--out out/correlation``; any flag of that command given here wins over those
defaults.
"""

import math
import sys

from cowqkd import cli
from cowqkd.experiment import correlation_law

DEFAULTS = ["correlate", "--widths", "2000,4000,6000", "--clicks", "200000",
            "--seed", "5", "--out", "out/correlation"]


def summary(args, cfg, hists) -> None:
    prev = None
    for w, h in hists.items():
        # No growth from a spread of 0 (every stop in one bin) or before the first width.
        growth = "" if not prev else f"  ({100 * (h.std_ps() - prev) / prev:+.1f}% vs previous)"
        # The closed-form spread over the same bins, when any stop is expected.
        share = correlation_law(cfg, w, h)
        law = ""
        if share.sum() > 0:
            share /= share.sum()
            law = f" (law {math.sqrt(share @ (h.centers_ps - share @ h.centers_ps) ** 2):.0f} ps)"
        print(f"gate {w/1000:.0f} ns: {h.total()} stops, spread {h.std_ps():.0f} ps{law}{growth}")
        prev = h.std_ps()
    print(f"histograms in {args.out}")


if __name__ == "__main__":
    sys.exit(cli.main(DEFAULTS + sys.argv[1:], show=summary))
