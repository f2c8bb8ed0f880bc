#!/usr/bin/env python3
"""cowqkd benchmark: end-to-end run metrics and a per-module traced breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 11 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each measured run is a fresh single-process interpreter (child.py) that
imports cowqkd from ./src and calls ``cowqkd.cli.main(argv)`` with one trial
and one worker.  Runs go one at a time until --seconds is used up, and every
metric is the median over them.  With --trace 0 the runs are untraced and
give the end-to-end metrics.  With --trace 1 untraced and traced runs
alternate: the traced ones wrap each module's public functions from outside
(tracer.py) and give the per-layer metrics, and the difference between the
two wall times is the tracing overhead.  Times are reported at a nominal
machine speed, measured by a reference loop in the same processes (see
REF_NOMINAL_S).

Each run's outputs are checked; a run fails if the CLI exits non-zero, Eve's
calibration is missing from the manifest, a block's matched accuracy is at
most 0.5, the funnel is violated (more sifted bits than Bob clicks, more
correct than assigned Eve bits), or a correlation width got no stops.  A
rate row outside its 99.7% band is not a failure; it is counted in
``rate_rows_out_of_band``.  Artifacts go to a temporary directory under
``.perfbench_tmp/`` in the checkout that is removed after each run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
CHILD_TIMEOUT_S = 120
# Every reported time is in seconds of a machine on which child.py's
# reference loop takes this long: raw times are scaled by REF_NOMINAL_S over
# the median reference time of the same invocation's runs.  On a shared
# 2-vCPU box the machine's speed drifts by up to 25% over minutes; the
# workload and the loop slow together, so the scaled times stay steady.
REF_NOMINAL_S = 0.125

# name -> default seed, held-out seed for confirming a performance claim,
# and the CLI arguments before --seed and --out.
WORKLOADS = {
    # The paper's reference run (7.8e6 frames).  Nearly all time goes to the
    # dense per-pulse sampler: 24,005 of 15.6e6 pulses give a kept click.
    "paper": {"seed": 11, "held_out": 23, "argv": ["replicate-paper"]},
    # 4x the frames at ~7x the click density: per-event work in distill,
    # attack and artifact writing grows to about a quarter of the wall time,
    # and memory that grows with run length shows.  Its ~10 s runs leave too
    # few per invocation for a steady median, so BENCHMARK.json leaves it out;
    # it runs by name or with --workload all.
    "high-rate": {"seed": 11, "held_out": 23, "argv": [
        "replicate-paper", "--frames", "31200000", "--set", "spad.hold_off_s=1e-6"]},
    # The C8 dark-exposure study: no source, sifting or attack.  Time goes to
    # the hold-off loop, SNSPD darks over ~8e3 s and correlation_histogram;
    # source and sampler changes should leave it unchanged.
    "dark-correlation": {"seed": 5, "held_out": 17, "argv": [
        "correlate", "--widths", "2000,4000,6000", "--clicks", "1000000"]},
}


def run_once(workload: str, seed: int, traced: bool) -> dict:
    """One fresh-interpreter run; returns the child's figures plus ``problems``."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    try:
        out_dir = tmp / "out"
        result_path = tmp / "result.json"
        cli_argv = WORKLOADS[workload]["argv"] + ["--seed", str(seed), "--out", str(out_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        spawn_ns = time.monotonic_ns()
        cmd = [sys.executable, str(HERE / "child.py"), str(spawn_ns), str(int(traced)),
               str(result_path), "--", *cli_argv]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"traced": traced, "problems": [f"no exit within {CHILD_TIMEOUT_S} s"]}
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"traced": traced, "problems": [f"exit code {proc.returncode}: {tail[0]}"]}
        rep = json.loads(result_path.read_text())
        rep["traced"] = traced
        try:
            rep["problems"] = check_run(workload, out_dir, rep)
        except (OSError, KeyError, ValueError) as exc:
            rep["problems"] = [f"outputs unreadable: {exc!r}"]
        if not Path(rep["cowqkd_file"]).resolve().is_relative_to(SRC.resolve()):
            rep["problems"].append(f"cowqkd imported from {rep['cowqkd_file']}, not {SRC}")
        rep["artifact_bytes"] = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        return rep
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_run(workload: str, out_dir: Path, rep: dict) -> list[str]:
    """Correctness problems of one run; sets ``rate_rows_out_of_band`` on ``rep``."""
    argv = WORKLOADS[workload]["argv"]
    problems: list[str] = []
    rep["rate_rows_out_of_band"] = 0
    if argv[0] == "correlate":
        for w in argv[argv.index("--widths") + 1].split(","):
            path = out_dir / f"correlation_w{int(w)}.csv"
            if not path.exists() or _column_sum(path, "count") == 0:
                problems.append(f"gate width {w} ps yielded no stops")
        return problems

    manifest = json.loads((out_dir / "manifest.json").read_text())
    rows = manifest["report"]["rows"]
    rep["rate_rows_out_of_band"] = sum(r["empirical"] is not None and not r["ok"] for r in rows)
    if not manifest.get("calibration_offsets_ps"):
        problems.append("Eve's calibration is missing from the manifest")
    for i, block in enumerate(manifest["learning"]):
        if block["accuracy_matched"] <= 0.5:
            problems.append(f"block {i} accuracy_matched {block['accuracy_matched']:.4f} <= 0.5")

    detections = (out_dir / "detections.csv").read_bytes()
    bob_clicks, eve_counts = detections.count(b"\nbob,"), detections.count(b"\neve,")
    counts = manifest["counts"]
    if counts["n_sift"] > bob_clicks:
        problems.append(f"{counts['n_sift']} sifted bits exceed {bob_clicks} Bob clicks")
    if counts["n_eve_correct"] > eve_counts:
        problems.append(f"{counts['n_eve_correct']} correct Eve bits exceed {eve_counts} Eve counts")
    layers = rep.get("layers")
    if layers is not None:
        if layers["distill.sifted_bits"] > layers["detectors.bob_clicks"]:
            problems.append("traced sifted bits exceed traced Bob clicks")
        if layers["attack.eve_correct"] > layers["attack.eve_assigned"]:
            problems.append("traced correct Eve bits exceed assigned Eve bits")
    return problems


def _column_sum(path: Path, column: str) -> int:
    with open(path, newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return sum(int(row[column]) for row in rows)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload for ``seconds`` and reduce the runs to medians."""
    kinds = (False, True) if trace else (False,)
    reps: list[dict] = []
    start = time.monotonic()
    last = 0.0
    # Start another run only while it is expected to end within the budget,
    # but always complete one run of each kind.
    while len(reps) < len(kinds) or time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        reps.append(run_once(workload, seed, kinds[len(reps) % len(kinds)]))
        last = time.monotonic() - t

    ok = [r for r in reps if "wall_s" in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    values: dict[str, float] = {}
    raw: dict[str, float] = {}
    if plain and (traced or not trace):
        if trace:
            raw = {key: _median(traced, lambda r: r["layers"][key]) for key in traced[0]["layers"]}
            raw["experiment.artifact_bytes"] = _median(traced, lambda r: r["artifact_bytes"])
            raw["rate_rows_out_of_band"] = _median(traced, lambda r: r["rate_rows_out_of_band"])
            raw["tracing_overhead_s"] = (_median(traced, lambda r: r["wall_s"])
                                         - _median(plain, lambda r: r["wall_s"]))
        else:
            raw = {
                "setup_s": _median(plain, lambda r: r["setup_s"]),
                "wall_s": _median(plain, lambda r: r["wall_s"]),
                "frames_per_s": _median(plain, lambda r: r["gates"] / r["wall_s"]),
                "peak_rss_mb": _median(plain, lambda r: r["peak_rss_mb"]),
                "rate_rows_out_of_band": _median(plain, lambda r: r["rate_rows_out_of_band"]),
            }
        ref_s = statistics.median(t for r in ok for t in r["ref_s"])
        values = {key: _at_nominal_speed(key, v, REF_NOMINAL_S / ref_s) for key, v in raw.items()}
        raw["reference_loop_s"] = ref_s
    return {
        "workload": workload,
        "seed": seed,
        "attempted": len(reps),
        "failed": sum(bool(r["problems"]) for r in reps),
        "samples": len(traced) if trace else len(plain),
        "problems": sorted({p for r in reps for p in r["problems"]}),
        "values": values,
        "raw": raw,
    }


def _median(reps: list[dict], get) -> float:
    return statistics.median(get(r) for r in reps)


def _at_nominal_speed(key: str, value: float, scale: float) -> float:
    if key.endswith("per_s"):
        return value / scale
    if key.endswith("_s"):
        return value * scale
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics from traced runs")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "cowqkd" / "cli.py").is_file():
        print(f"perfbench: no cowqkd sources at {SRC / 'cowqkd'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        results = [
            measure(w, WORKLOADS[w]["seed"] if args.seed is None else args.seed, args.seconds, bool(args.trace))
            for w in workloads
        ]
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)

    report: dict[str, dict] = {}
    for res in results:
        print(f"{res['workload']}: seed {res['seed']}, {res['attempted']} run(s), "
              f"{res['failed']} failed; medians of {res['samples']} "
              f"{'traced' if args.trace else 'untraced'} run(s)")
        for problem in res["problems"]:
            print(f"  FAILED: {problem}")
        if res["raw"]:
            print(f"  reference loop median {res['raw']['reference_loop_s']:.4f} s (nominal {REF_NOMINAL_S} s);"
                  " raw medians in the last column")
        if not res["values"]:
            print(f"perfbench: no {res['workload']} run completed", file=sys.stderr)
            return 1
        shown = metrics if args.trace else metrics + [{"name": "rate_rows_out_of_band", "unit": "count"}]
        for m in shown:
            value = res["values"][m["name"]]
            print(f"  {m['name']:<36}{value:>16.6g} {m['unit']:<6}{res['raw'][m['name']]:>16.6g}")
            key = m["name"] if len(results) == 1 else f"{res['workload']}/{m['name']}"
            if m in metrics:
                report[key] = {"value": value, "unit": m["unit"]}

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
