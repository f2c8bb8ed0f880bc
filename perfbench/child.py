"""One measured cowqkd run in a fresh interpreter; started by run.py.

    python3 perfbench/child.py SPAWN_NS TRACE RESULT_JSON -- CLI_ARGS...

SPAWN_NS is ``time.monotonic_ns()`` read by the parent just before it started
this process, so ``setup_s`` covers interpreter start-up and the import of
``cowqkd.cli`` with numpy and scipy.stats.  After the run the process times
a fixed reference loop, which run.py uses to correct for the machine's speed.
It exits with the CLI's exit code after writing RESULT_JSON.
"""

import json
import resource
import sys
import time

import cowqkd.cli as cli
import numpy as np

SETUP_DONE_NS = time.monotonic_ns()


def simulated_gates(argv: list[str]) -> int:
    """Gate periods the run covered, from the CLI's own config resolution."""
    args = cli.build_parser().parse_args(argv)
    if args.command != "correlate":
        cfg = cli.load_config(args, default_preset="paper" if args.command == "replicate-paper" else None)
        return cfg.frames_per_trial * cfg.trials
    # The dark exposure of each width spans as many gates as
    # emit_timing_correlation draws to expect --clicks dark counts, plus 5%.
    rate = cli.load_config(args).spad.dark_count_rate_cps
    widths = [int(float(t)) for t in args.widths.split(",") if t.strip()]
    return sum(int(args.clicks / (rate * w * 1e-12) * 1.05) + 1 for w in widths)


def reference_seconds(samples: int = 4) -> list[float]:
    """Times of a fixed loop that mixes numpy draws and sorting with a Python
    scan, as the workloads do; it does not depend on cowqkd."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        x = np.sort(np.random.default_rng(0).integers(0, 1 << 40, size=3_000_000))
        dead = 0
        for v in x[:600_000].tolist():
            if v >= dead:
                dead = v + 1000
        out.append(time.perf_counter() - t0)
    return out


def main() -> int:
    spawn_ns, trace, result_path = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    if tracer is None:
        code = cli.main(argv)
    else:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    wall_s = time.perf_counter() - t0

    result = {
        "exit_code": code,
        "setup_s": (SETUP_DONE_NS - spawn_ns) / 1e9,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gates": simulated_gates(argv),
        "ref_s": reference_seconds(),
        "cowqkd_file": cli.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
