"""Command-line front end, and the one entry path of the study scripts.

Exit codes: 0 success, 2 configuration error or an ``--out`` that cannot
be written, 3 attack calibration failure, 4 the requested key rate clamped
to zero (insecure).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .attack import CalibrationError
from .experiment import (
    PRESETS,
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
    write_table_csv,
)
from .rates import McCounts, RateReport, compare
from .timebase import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3
EXIT_INSECURE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cowqkd", description="COW-QKD backflash side-channel simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, run, show, runs_frames: bool) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="flat key = value config file")
        p.add_argument("--preset", choices=PRESETS, help="named starting configuration")
        p.add_argument("--seed", type=int, help="base RNG seed")
        if runs_frames:
            p.add_argument("--trials", type=int, help="independent repetitions")
            p.add_argument("--frames", type=int, help="frames per trial")
        p.add_argument("--out", type=Path, help="artifact directory")
        p.add_argument("--set", dest="sets", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-key override, repeatable")
        p.set_defaults(run=run, show=show)
        return p

    command("simulate", "run the Monte Carlo pipeline", _simulate, _show_simulate, True)

    p = command("sweep", "sweep one axis and tabulate rates", _sweep, _show_sweep, True)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated axis values")

    p = command("rates", "print closed-form rates for a configuration", _rates, _show_rates, False)
    p.add_argument("--qber", type=float, help="override the error rate used for key rates")

    p = command("correlate", "dark-exposure start-stop timing histograms", _correlate, _show_correlate, False)
    p.add_argument("--widths", default="2000,4000,6000", help="comma-separated gate widths in ps")
    p.add_argument("--clicks", type=int, default=100_000, help="target receiver clicks per width")

    command("replicate-paper", "run the reference tabletop configuration", _simulate, _show_simulate, True)
    return parser


def load_config(args, default_preset: str | None = None) -> ExperimentConfig:
    """The config of parsed ``args``, validated once.

    The preset is the base.  The config file, each ``--set``, then
    ``--seed``, ``--trials`` and ``--frames`` fill one dict, a later source
    winning on a repeated key, and ``apply_overrides`` applies it in one pass.
    """
    preset = getattr(args, "preset", None) or default_preset
    cfg = preset_config(preset) if preset else ExperimentConfig()
    overrides = read_config_file(args.config) if getattr(args, "config", None) else {}
    for item in getattr(args, "sets", []):
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    for flag, key in (("seed", "seed"), ("trials", "trials"), ("frames", "frames_per_trial")):
        if getattr(args, flag, None) is not None:
            overrides[key] = str(getattr(args, flag))
    return apply_overrides(cfg, overrides)


def _print_report(report) -> None:
    print(f"{'name':<14}{'analytic':>14}{'empirical':>14}{'lo':>12}{'hi':>12}  ok")
    for r in report.rows:
        emp = "-" if r.empirical is None else f"{r.empirical:.6g}"
        lo = "-" if r.lo is None else f"{r.lo:.5g}"
        hi = "-" if r.hi is None else f"{r.hi:.5g}"
        print(f"{r.name:<14}{r.analytic:>14.6g}{emp:>14}{lo:>12}{hi:>12}  {'yes' if r.ok else 'NO'}")


def _simulate(args, cfg: ExperimentConfig):
    return run_simulation(cfg, out_dir=args.out)


def _show_simulate(args, cfg: ExperimentConfig, result) -> None:
    print(f"config {config_hash(cfg)}: {cfg.trials} trial(s) x {cfg.frames_per_trial} frames")
    print(f"sifted {result.counts.n_sift}  errors {result.counts.n_err}  "
          f"retained {result.counts.n_retained}  eve-backflash {result.counts.n_eve_backflash}")
    _print_report(result.report)
    if args.out:
        print(f"artifacts written to {args.out}")


def _sweep(args, cfg: ExperimentConfig) -> list[dict]:
    values: list = []
    for tok in filter(None, map(str.strip, args.values.split(","))):
        try:
            values.append(float(tok))
        except ValueError:
            values.append(tok)
    return run_sweep(cfg, args.axis, values, args.out / f"sweep_{args.axis}.csv" if args.out else None)


def _show_sweep(args, cfg: ExperimentConfig, rows: list[dict]) -> None:
    cols = ["value", "p_sift", "p_err", "p_b", "p_learn", "p_sec"]
    print("  ".join(f"{c:>13}" for c in cols))
    for row in rows:
        print("  ".join(f"{_cell(row.get(c)):>13}" for c in cols))
    if args.out:
        print(f"wrote {args.out / f'sweep_{args.axis}.csv'}")


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _rates(args, cfg: ExperimentConfig) -> RateReport:
    report = compare(McCounts(n_frames=0, n_sift=0, n_err=0), cfg.rate_inputs(args.qber))
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        write_table_csv([vars(r) for r in report.rows], args.out / "rates.csv", artifact_headers(cfg))
    return report


def _show_rates(args, cfg: ExperimentConfig, report: RateReport) -> None:
    _print_report(report)
    if args.out:
        print(f"wrote {args.out / 'rates.csv'}")


def _correlate(args, cfg: ExperimentConfig) -> dict:
    widths = []
    for tok in filter(None, map(str.strip, args.widths.split(","))):
        try:
            widths.append(float(tok))
        except ValueError:
            raise ConfigError(f"gate width {tok!r} is not a number") from None
    return emit_timing_correlation(cfg, widths, clicks_per_width=args.clicks, out_dir=args.out)


def _show_correlate(args, cfg: ExperimentConfig, hists: dict) -> None:
    print(f"{'gate_width_ps':>14}{'stops':>10}{'mean_ps':>10}{'std_ps':>10}")
    for w, h in hists.items():
        print(f"{w:>14}{h.total():>10}{h.mean_ps():>10.1f}{h.std_ps():>10.1f}")
    if args.out:
        print(f"artifacts written to {args.out}")


def main(argv: list[str] | None = None, show=None) -> int:
    """Run one command and return its exit code.

    ``show(args, cfg, result)`` prints the result in place of the command's
    own printout; each script in ``scripts/`` passes its summary.
    """
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args, default_preset="paper" if args.command == "replicate-paper" else None)
        result = args.run(args, cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    (show or args.show)(args, cfg, result)
    report = getattr(result, "report", result)
    if isinstance(report, RateReport) and report.insecure:
        print("key rate clamped to zero: leakage exceeds the distillable fraction", file=sys.stderr)
        return EXIT_INSECURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
