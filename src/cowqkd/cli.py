"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 attack calibration failure,
4 the requested key rate clamped to zero (insecure).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .attack import CalibrationError
from .experiment import (
    SWEEP_AXES,
    ExperimentConfig,
    apply_overrides,
    artifact_headers,
    config_hash,
    emit_timing_correlation,
    preset_config,
    read_config_file,
    run_simulation,
    run_sweep,
    write_rates_csv,
)
from .rates import McCounts, compare
from .source import ConfigError
from .timebase import TimeRangeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3
EXIT_INSECURE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cowqkd", description="COW-QKD backflash side-channel simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="flat key = value config file")
        p.add_argument("--preset", choices=["2v", "5v", "7v", "paper"], help="named starting configuration")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--trials", type=int, help="independent repetitions")
        p.add_argument("--frames", type=int, help="frames per trial")
        p.add_argument("--out", type=Path, help="artifact directory")
        p.add_argument("--set", dest="sets", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-key override, repeatable")

    p = sub.add_parser("simulate", help="run the Monte Carlo pipeline")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep one axis and tabulate rates")
    common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rates", help="print closed-form rates for a configuration")
    common(p)
    p.add_argument("--qber", type=float, help="override the error rate used for key rates")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("correlate", help="dark-exposure start-stop timing histograms")
    common(p)
    p.add_argument("--widths", default="2000,4000,6000", help="comma-separated gate widths in ps")
    p.add_argument("--clicks", type=int, default=100_000, help="target receiver clicks per width")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("replicate-paper", help="run the reference tabletop configuration")
    common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def load_config(args, default_preset: str | None = None) -> ExperimentConfig:
    if getattr(args, "preset", None):
        cfg = preset_config(args.preset)
    elif default_preset:
        cfg = preset_config(default_preset)
    else:
        cfg = ExperimentConfig()
    if getattr(args, "config", None):
        cfg = apply_overrides(cfg, read_config_file(args.config))
    overrides: dict[str, str] = {}
    for item in getattr(args, "sets", []):
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    direct: dict[str, str] = {}
    if getattr(args, "seed", None) is not None:
        direct["seed"] = str(args.seed)
    if getattr(args, "trials", None) is not None:
        direct["trials"] = str(args.trials)
    if getattr(args, "frames", None) is not None:
        direct["frames_per_trial"] = str(args.frames)
    if direct:
        cfg = apply_overrides(cfg, direct)
    return cfg


def _print_report(report, stream=None) -> None:
    stream = stream or sys.stdout
    print(f"{'name':<14}{'analytic':>14}{'empirical':>14}{'lo':>12}{'hi':>12}  ok", file=stream)
    for r in report.rows:
        emp = "-" if r.empirical is None else f"{r.empirical:.6g}"
        lo = "-" if r.lo is None else f"{r.lo:.5g}"
        hi = "-" if r.hi is None else f"{r.hi:.5g}"
        print(f"{r.name:<14}{r.analytic:>14.6g}{emp:>14}{lo:>12}{hi:>12}  {'yes' if r.ok else 'NO'}", file=stream)


def cmd_simulate(args, cfg: ExperimentConfig) -> int:
    result = run_simulation(cfg, out_dir=args.out)
    print(f"config {config_hash(cfg)}: {cfg.trials} trial(s) x {cfg.frames_per_trial} frames")
    print(f"sifted {result.counts.n_sift}  errors {result.counts.n_err}  "
          f"retained {result.counts.n_retained}  eve-backflash {result.counts.n_eve_backflash}")
    _print_report(result.report)
    if args.out:
        print(f"artifacts written to {args.out}")
    if result.report.insecure:
        print("key rate clamped to zero: leakage exceeds the distillable fraction", file=sys.stderr)
        return EXIT_INSECURE
    return EXIT_OK


def cmd_sweep(args, cfg: ExperimentConfig) -> int:
    values: list = []
    for tok in args.values.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            values.append(float(tok))
        except ValueError:
            values.append(tok)
    out_path = None
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        out_path = args.out / f"sweep_{args.axis}.csv"
    rows = run_sweep(cfg, args.axis, values, out_path)
    cols = ["value", "p_sift", "p_err", "p_b", "p_learn", "p_sec"]
    print("  ".join(f"{c:>13}" for c in cols))
    for row in rows:
        print("  ".join(f"{_cell(row.get(c)):>13}" for c in cols))
    if out_path:
        print(f"wrote {out_path}")
    return EXIT_OK


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def cmd_rates(args, cfg: ExperimentConfig) -> int:
    report = compare(McCounts(n_frames=0, n_sift=0, n_err=0), cfg.rate_inputs(qber=args.qber))
    _print_report(report)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        out_path = args.out / "rates.csv"
        write_rates_csv(report, out_path, artifact_headers(cfg))
        print(f"wrote {out_path}")
    if report.insecure:
        print("key rate clamped to zero: leakage exceeds the distillable fraction", file=sys.stderr)
        return EXIT_INSECURE
    return EXIT_OK


def cmd_correlate(args, cfg: ExperimentConfig) -> int:
    widths = []
    for tok in filter(None, map(str.strip, args.widths.split(","))):
        try:
            widths.append(float(tok))
        except ValueError:
            raise ConfigError(f"gate width {tok!r} is not a number") from None
    hists = emit_timing_correlation(cfg, widths, clicks_per_width=args.clicks, out_dir=args.out)
    print(f"{'gate_width_ps':>14}{'stops':>10}{'mean_ps':>10}{'std_ps':>10}")
    for w, h in hists.items():
        print(f"{w:>14}{h.total():>10}{h.mean_ps():>10.1f}{h.std_ps():>10.1f}")
    if args.out:
        print(f"artifacts written to {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        default = "paper" if args.command == "replicate-paper" else None
        cfg = load_config(args, default_preset=default)
        return args.func(args, cfg)
    except (ConfigError, TimeRangeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION


if __name__ == "__main__":
    sys.exit(main())
