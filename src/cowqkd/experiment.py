"""Experiment orchestration: full runs, sweeps, and reproducible artifacts.

A run is ``trials`` independent repetitions of the same configuration with
per-trial RNG streams.  Frames are simulated in fixed-size chunks so memory
stays bounded while hold-off state flows across chunk borders.  Identical
(config, seed) pairs produce byte-identical artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import attack as attack_mod
from . import distill as distill_mod
from .attack import AttackConfig, CalibrationResult, EveInference
from .detectors import (
    SPAD_BIAS_TABLE,
    Cause,
    DetectionLog,
    Histogram,
    SnspdConfig,
    SpadConfig,
    SpadResult,
    snspd_detect,
    spad_detect,
    spad_preset,
    write_detections_csv,
)
from .distill import ClassicalTranscript, DistillConfig, SiftedBits, sift
from .rates import (
    McCounts,
    RateInputs,
    RateReport,
    compare,
    composite_efficiency,
    dark_probability_per_gate,
    gate_mean_photon,
    p_sift_holdoff,
    stops_per_start,
)
from .source import ChannelConfig, FrameBatch, SourceConfig, channel_transmittance, generate_frames, write_frames_csv
from .timebase import DRAW_SCHEME, TIMING_CORRELATION_STUDY, ConfigError, DeviceRngs, check_time_range, write_csv

# Fixed so chunking never affects drawn sequences.  Chunks bound the arrays
# over click candidates: peak RSS of `replicate-paper --seed 11`, chunked
# against one chunk per run (2-vCPU Xeon, Python 3.11, numpy 2.4), is 42.8
# against 53.1 MB; 54.5 against 100.9 MB at 31.2e6 frames; 44.3 against
# 68.7 MB with random bits and 5% decoys; the unchunked runs are slower.
CHUNK_FRAMES = 1_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    source: SourceConfig = field(default_factory=SourceConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    spad: SpadConfig = field(default_factory=SpadConfig)
    snspd: SnspdConfig = field(default_factory=SnspdConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    seed: int = 0
    trials: int = 1
    frames_per_trial: int = 7_800_000
    attack_enabled: bool = True
    export_frames: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.frames_per_trial < 1:
            raise ConfigError("frames_per_trial must be >= 1")
        if not 0 <= self.export_frames <= self.frames_per_trial:
            raise ConfigError("export_frames must lie in [0, frames_per_trial]")
        # The SPAD gate opens once per source frame.
        if self.spad.gate_width_ps > self.source.frame_period_ps:
            raise ConfigError("SPAD gate width cannot exceed the source frame period")
        if self.spad.gate_phase_ps >= self.source.frame_period_ps:
            raise ConfigError("SPAD gate phase must lie in [0, source frame period)")
        check_time_range(self.frames_per_trial * self.source.frame_period_ps + 10**9)

    def rate_inputs(self, qber: float | None = None) -> RateInputs:
        """The closed forms' inputs for a run of this config, with error rate
        ``qber`` when given: no leak (``p_b`` = 0) without the attack."""
        eta = composite_efficiency(channel_transmittance(self.channel), self.spad.detection_efficiency)
        return RateInputs(
            mu=gate_mean_photon(self.source.mean_photon_number, self.source.bits_per_frame),
            eta=eta,
            p_dark=dark_probability_per_gate(self.spad.dark_count_rate_cps, self.spad.gate_width_ps),
            opportunity_rate_hz=self.source.frame_rate_hz,
            hold_off_s=self.spad.hold_off_s,
            p_b=self.spad.backflash_probability * self.snspd.detection_efficiency if self.attack_enabled else 0.0,
            qber=qber,
        )

    def analytic_p_sift(self) -> float:
        r = self.rate_inputs()
        return p_sift_holdoff(r.mu, r.eta, r.p_dark, r.opportunity_rate_hz, r.hold_off_s)


# ---------------------------------------------------------------------------
# Flat dotted-key config mapping (config files and --set overrides).  The
# keys are the fields of ExperimentConfig and of its section dataclasses.

def _flat_fields(cfg: ExperimentConfig) -> Iterator[tuple[str, str | None, dataclasses.Field]]:
    """(key, section, field) for every config key: a top-level field has no
    section and is its own key; a section's field is ``section.field``."""
    for f in dataclasses.fields(cfg):
        sub = getattr(cfg, f.name)
        if dataclasses.is_dataclass(sub):
            for g in dataclasses.fields(sub):
                yield f"{f.name}.{g.name}", f.name, g
        else:
            yield f.name, None, f


def config_to_flat(cfg: ExperimentConfig) -> dict[str, str]:
    return {
        key: _fmt(getattr(getattr(cfg, sec) if sec else cfg, f.name))
        for key, sec, f in _flat_fields(cfg)
    }


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def apply_overrides(cfg: ExperimentConfig, overrides: dict[str, str]) -> ExperimentConfig:
    """Return a new config with dotted-key overrides applied."""
    fields = {key: (sec, f) for key, sec, f in _flat_fields(cfg)}
    by_section: dict[str | None, dict] = {}
    for key, raw in overrides.items():
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        sec, f = fields[key]
        by_section.setdefault(sec, {})[f.name] = _parse_value(f.type, raw, key)
    top = by_section.pop(None, {})
    sections = {sec: replace(getattr(cfg, sec), **vals) for sec, vals in by_section.items()}
    return replace(cfg, **top, **sections)


def _parse_value(annotation: str, raw: str, key: str):
    """``raw`` read as a value of a field annotated ``annotation``, one of
    bool, int, float and str."""
    raw = raw.strip()
    if annotation == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if annotation == "str":
        return raw
    if annotation not in ("int", "float"):
        raise TypeError(f"{key}: no parser for a field annotated {annotation!r}")
    try:
        value = int(raw) if annotation == "int" else float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r}") from exc
    if annotation == "float" and not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def read_config_file(path) -> dict[str, str]:
    """Flat dotted-key file: one ``key = value`` per line, '#' comments."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = s.partition("=")
        out[key.strip()] = value.strip()
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    text = "\n".join(f"{k} = {v}" for k, v in sorted(config_to_flat(cfg).items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Presets.

PRESETS = (*SPAD_BIAS_TABLE, "paper")


def preset_config(name: str) -> ExperimentConfig:
    key = name.lower()
    if key not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected {', '.join(PRESETS[:-1])} or {PRESETS[-1]}")
    if key == "paper":
        # Reference tabletop run: 5 V bias point, zero-length channel,
        # alternating pattern, one full disclosure block.
        return ExperimentConfig(
            spad=spad_preset("5v"),
            source=SourceConfig(mean_photon_number=0.2, pattern="alternating"),
            channel=ChannelConfig(length_km=0.0),
            distill=DistillConfig(block_length=20000, disclosure_size=2000),
            frames_per_trial=7_800_000,
            attack_enabled=True,
        )
    return ExperimentConfig(
        spad=spad_preset(key),
        source=SourceConfig(mean_photon_number=0.1),
        frames_per_trial=1_000_000,
        attack_enabled=False,
    )


# ---------------------------------------------------------------------------
# Single-trial pipeline.

@dataclass
class BlockOutcome:
    transcript: ClassicalTranscript
    retained: SiftedBits
    clusters: attack_mod.ClusterMap | None = None
    inference: EveInference | None = None


@dataclass
class TrialResult:
    trial: int
    frames: FrameBatch | None  # the emission's first export_frames frames, when set
    sifted: SiftedBits
    bob_log: DetectionLog
    eve_log: DetectionLog
    blocks: list[BlockOutcome]
    leftover: int
    calibration: CalibrationResult | None
    counts: McCounts  # this trial's tallies; n_frames_covered is left unset


def _receiver_spans(
    emission: FrameBatch, spad: SpadConfig, channel: ChannelConfig, rngs: DeviceRngs, span_frames: int
) -> Iterator[tuple[FrameBatch, SpadResult]]:
    """:func:`spad_detect` on ``emission``, from frame 0 as
    :func:`generate_frames` makes it, in consecutive spans of ``span_frames``
    frames, the last one cut where the emission ends: each span with its
    result, the hold-off carried from one span to the next.  Each span draws
    on ``rngs`` when it is asked for, after whatever the caller drew on the
    span before."""
    dead_until = 0
    for start in range(0, len(emission), span_frames):
        span = emission.span(start, min(span_frames, len(emission) - start))
        res = spad_detect(span, spad, channel, rngs, dead_until_ps=dead_until)
        dead_until = res.dead_until_ps
        yield span, res


def run_trial(cfg: ExperimentConfig, trial: int) -> TrialResult:
    rngs = DeviceRngs(cfg.seed, trial=trial)
    period = cfg.source.frame_period_ps

    # One emission per trial; the chunks are spans of it, and so is the export.
    emission = generate_frames(cfg.source, cfg.frames_per_trial, rngs.bits)
    bob_parts: list[DetectionLog] = []
    eve_parts: list[DetectionLog] = []
    for span, res in _receiver_spans(emission, cfg.spad, cfg.channel, rngs, CHUNK_FRAMES):
        bob_parts.append(res.clicks)
        if cfg.attack_enabled:
            eve_parts.append(snspd_detect(res, cfg.snspd, [span.start_frame * period], len(span) * period, rngs))

    # Each click lies in its own frame, so the spans' clicks join in (time, cause) order.
    bob_log = DetectionLog.receiver(
        np.concatenate([p.time_ps for p in bob_parts]), np.concatenate([p.cause for p in bob_parts])
    )
    eve_log = DetectionLog.merge(eve_parts) if cfg.attack_enabled else DetectionLog.empty("eve")
    sifted = sift(bob_log.time_ps, emission)
    frames = emission.span(0, cfg.export_frames) if cfg.export_frames else None

    pairs, leftover = distill_mod.form_blocks(sifted, cfg.distill, rngs.disclose)
    blocks = [BlockOutcome(transcript=t, retained=r) for t, r in pairs]

    calibration = None
    n_eve_backflash = n_eve_backflash_blocks = n_eve_correct = 0
    if cfg.attack_enabled:
        if not blocks:
            raise attack_mod.CalibrationError("no full block available for the attack pipeline")
        eve_raw = eve_log.time_ps + cfg.attack.clock_offset_ps
        calibration = attack_mod.calibrate(eve_raw, blocks[0].transcript, period, cfg.source.bin_width_ps)
        calibrated = eve_raw + calibration.offset_ps

        # Eve's backflash counts whose avalanche is a retained click, and a
        # click in any block (retained or disclosed): one search per
        # avalanche in the clicks, which may repeat.  Both are in time order:
        # the blocks are consecutive slices of the sifted clicks, and each
        # keeps its retained clicks in order.
        av = eve_log.source_ps[eve_log.cause == Cause.BACKFLASH]

        def hits(clicks: np.ndarray) -> int:
            at = np.minimum(np.searchsorted(clicks, av), clicks.size - 1)
            return int(np.count_nonzero(clicks[at] == av))

        n_eve_backflash = hits(np.concatenate([b.retained.time_ps for b in blocks]))
        n_eve_backflash_blocks = hits(sifted.time_ps[: len(blocks) * cfg.distill.block_length])

        # Each block's counts within two frames of its retained clicks (at
        # least one: disclosure_size < block_length); both are in time order.
        # A block with no counts, or whose fold holds no backflash cluster,
        # gets no attack result; the other blocks and the tallies stand.
        ends = [(b.retained.time_ps[0] - 2 * period, b.retained.time_ps[-1] + 2 * period + 1) for b in blocks]
        for b, (lo, hi) in zip(blocks, np.searchsorted(calibrated, ends).tolist()):
            sub = calibrated[lo:hi]
            try:
                b.clusters = attack_mod.fold_and_cluster(sub, b.transcript, period)
            except attack_mod.CalibrationError:
                continue
            b.inference = attack_mod.infer_bits(sub, b.clusters, b.retained)
            n_eve_correct += b.inference.correct_count

    counts = McCounts(
        n_frames=cfg.frames_per_trial,
        n_sift=len(sifted),
        n_err=int(np.sum(sifted.bit != sifted.alice_bit)),
        n_retained=sum(len(b.retained) for b in blocks),
        n_eve_backflash=n_eve_backflash,
        n_eve_backflash_blocks=n_eve_backflash_blocks,
        n_eve_correct=n_eve_correct,
    )
    return TrialResult(trial, frames, sifted, bob_log, eve_log, blocks, leftover, calibration, counts)


# ---------------------------------------------------------------------------
# Full runs.

@dataclass
class RunResult:
    config: ExperimentConfig
    trials: list[TrialResult]
    counts: McCounts
    report: RateReport
    manifest: dict


def _check_before_draw(cfg: ExperimentConfig) -> None:
    """What a run of ``cfg`` must pass before any draw: the closed forms take
    its inputs, and, since the attack reads each trial's first full block,
    every trial expects to fill one."""
    compare(McCounts(n_frames=0, n_sift=0, n_err=0), cfg.rate_inputs())
    if cfg.attack_enabled:
        expected = cfg.frames_per_trial * cfg.analytic_p_sift()
        if expected < cfg.distill.block_length:
            raise ConfigError(
                f"expected {expected:.0f} sifted detections per trial cannot fill a "
                f"{cfg.distill.block_length}-bit block; add frames or shrink the block"
            )


def run_simulation(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> RunResult:
    _check_before_draw(cfg)
    trials = [run_trial(cfg, i) for i in range(cfg.trials)]

    # The run's tallies are the trials' summed field by field; the frames
    # covered by blocks are a share of the summed frames.
    total = {
        f.name: sum(getattr(t.counts, f.name) for t in trials)
        for f in dataclasses.fields(McCounts) if f.name != "n_frames_covered"
    }
    n_in_blocks = sum(len(b.retained) + len(b.transcript) for t in trials for b in t.blocks)
    covered = round(total["n_frames"] * n_in_blocks / total["n_sift"]) if total["n_sift"] else 0
    counts = McCounts(**total, n_frames_covered=covered)
    report = compare(counts, cfg.rate_inputs())

    manifest = {
        "config_hash": config_hash(cfg),
        "config": config_to_flat(cfg),
        "seeds": [cfg.seed] * cfg.trials,
        "draw_scheme": DRAW_SCHEME,
        "counts": dataclasses.asdict(counts),
        "qber": counts.n_err / counts.n_sift if counts.n_sift else 0.0,
        "leftover_bits": sum(t.leftover for t in trials),
        "blocks": sum(len(t.blocks) for t in trials),
        "report": dataclasses.asdict(report),
        "learning": [
            attack_mod.learning_metrics(b.inference, b.retained)
            for t in trials for b in t.blocks if b.inference is not None
        ],
        "calibration_offsets_ps": [
            t.calibration.offset_ps for t in trials if t.calibration is not None
        ],
        "artifacts": {},
    }
    result = RunResult(cfg, trials, counts, report, manifest)
    if out_dir is not None:
        write_run_artifacts(result, Path(out_dir))
    return result


def artifact_headers(cfg: ExperimentConfig) -> list[str]:
    """The ``#`` comment lines that head every artifact of a run of ``cfg``."""
    return [f"config_hash={config_hash(cfg)} seed={cfg.seed}"]


def write_run_artifacts(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    heads = artifact_headers(cfg)
    art: dict[str, str] = {}

    p = out_dir / "rates.csv"
    write_table_csv([vars(r) for r in result.report.rows], p, heads)
    art["rates"] = p.name

    t0 = result.trials[0]
    p = out_dir / "detections.csv"
    write_detections_csv([t0.bob_log, t0.eve_log], p, heads)
    art["detections"] = p.name

    for b in t0.blocks[:1]:
        p = out_dir / f"transcript_block{b.transcript.block_id}.csv"
        distill_mod.write_transcript(b.transcript, p, heads)
        art["transcript"] = p.name
        p = out_dir / f"key_block{b.transcript.block_id}.txt"
        distill_mod.write_key_file(b.retained, b.transcript.block_id, p, heads)
        art["key"] = p.name
        if b.clusters is not None:
            p = out_dir / f"attack_histogram_block{b.transcript.block_id}.csv"
            attack_mod.write_clusters_csv(b.clusters, p, heads)
            art["attack_histogram"] = p.name
        if b.inference is not None:
            p = out_dir / f"inference_block{b.transcript.block_id}.csv"
            attack_mod.write_inference_csv(b.inference, p, heads)
            art["inference"] = p.name

    if t0.frames is not None:
        p = out_dir / "frames.csv"
        write_frames_csv(t0.frames, p, heads)
        art["frames"] = p.name

    result.manifest["artifacts"] = art
    (out_dir / "manifest.json").write_text(
        json.dumps(result.manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_table_csv(rows: list[dict], path, header_lines: list[str] | None = None) -> None:
    """One CSV row per dict, with the first row's keys as the columns; a key
    a row lacks, or a None, is an empty cell."""
    cols = list(rows[0].keys())
    cells = [np.array([_csv_cell(row.get(c)) for row in rows], dtype="S") for c in cols]
    write_csv(path, header_lines, cols, cells)


def _csv_cell(v) -> bytes:
    if v is None:
        return b""
    if isinstance(v, bool):
        return b"%d" % v
    if isinstance(v, float):
        return f"{v:.10g}".encode()
    return str(v).encode()


# ---------------------------------------------------------------------------
# Sweeps.

# The keys each axis sets: a bias value is a point of SPAD_BIAS_TABLE, by
# label (7v) or in whole volts (7), and sets both of its numbers.
_AXIS_KEYS = {
    "distance": ("channel.length_km",),
    "bias": ("spad.detection_efficiency", "spad.dark_count_rate_cps"),
    "mu": ("source.mean_photon_number",),
    "backflash-probability": ("spad.backflash_probability",),
}
SWEEP_AXES = tuple(_AXIS_KEYS)


def _apply_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis not in _AXIS_KEYS:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = [value]
    if axis == "bias":
        if not isinstance(value, str):
            if not float(value).is_integer():
                raise ConfigError(f"bias value {value!r} is not a whole number of volts")
            value = f"{int(float(value))}v"
        point = spad_preset(value)
        values = [point.detection_efficiency, point.dark_count_rate_cps]
    return apply_overrides(cfg, {key: str(v) for key, v in zip(_AXIS_KEYS[axis], values)})


def run_sweep(cfg: ExperimentConfig, axis: str, values: list, out_path: str | Path | None = None) -> list[dict]:
    """One row per value; Monte Carlo columns are filled when trials run."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    # Every value, its rate inputs and its block fill are checked before the
    # first point runs.
    points = [_apply_axis(cfg, axis, value) for value in values]
    for point in points:
        _check_before_draw(point)
    rows = []
    for value, point in zip(values, points):
        run = run_simulation(point)
        pair = (point.spad.detection_efficiency, point.spad.dark_count_rate_cps)
        row = {
            "distance_km": point.channel.length_km,
            # The label of the table point whose pair ran, or empty.
            "bias_v": next((label for label, p in SPAD_BIAS_TABLE.items() if p == pair), ""),
            "axis": axis,
            "value": value,
            "config_hash": config_hash(point),
        }
        for r in run.report.rows:
            row[r.name] = r.analytic
            row[f"{r.name}_mc"] = r.empirical
            row[f"{r.name}_lo"] = r.lo
            row[f"{r.name}_hi"] = r.hi
        row["insecure"] = run.report.insecure
        learning = run.manifest["learning"]
        row["learning_rate_mc"] = (
            sum(m["learning_rate"] for m in learning) / len(learning) if learning else None
        )
        rows.append(row)
    if out_path is not None:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        write_table_csv(rows, out_path, artifact_headers(cfg))
    return rows


# ---------------------------------------------------------------------------
# Dark-exposure timing correlation (no input light).

# The C8 start-stop histogram: delays from a click to a stop in
# [0, CORRELATION_WINDOW_PS), in bins of CORRELATION_BIN_PS.
CORRELATION_WINDOW_PS = 6000
CORRELATION_BIN_PS = 10

# Expected receiver darks in one block of gates of a C8 width
# (:func:`_dark_clicks`).  It is part of the study's draw scheme, as its RNG
# key (TIMING_CORRELATION_STUDY) is: blocks start at multiples of their
# length from gate 0, so a run with more clicks repeats every full block of
# a shorter one, and another value draws other histograms of the same law.
# A block's arrays are about 1 MB.
STUDY_BLOCK_DARKS = 2**17


def emit_timing_correlation(
    cfg: ExperimentConfig,
    gate_widths_ps: list[int],
    clicks_per_width: int = 100_000,
    out_dir: str | Path | None = None,
) -> dict[int, Histogram]:
    """Start-stop histograms between receiver clicks and leaked photons.

    The light is blocked (:func:`_dark_clicks`): every avalanche is
    dark-triggered, so the histogram profiles the backflash delay alone.
    The delay support is capped at one gate width after the avalanche (not
    at the time left in the gate), which is what makes the spread grow with
    width until the intrinsic bound takes over.

    The eavesdropper's dark counts are drawn only where a stop can count:
    in the window of :data:`CORRELATION_WINDOW_PS` after each click, whose
    starts are the clicks themselves.  A Poisson process restricted to a set
    is Poisson on that set, so the histogram's law is that of darks over the
    whole exposure, at a cost that grows with the clicks, not the exposure
    time.  The clicks lie a hold-off (1 us) apart, so the windows are
    disjoint and each stop has at most one click in range.  Every stop is
    binned at its delay from the source its log names
    (:func:`snspd_detect`, which checks the windows' spacing): a backflash
    stop's avalanche, a dark's window start, each a click.  That is the
    click an experimenter's search would pair it with: a dark lies in its
    own click's window, and a backflash stop leaves at most the delay cap
    ``min(backflash_delay_max_ps, gate width)`` after its avalanche, so
    while the cap lies below the hold-off no later click comes first; a
    width whose cap reaches the hold-off is refused before any draw.
    :func:`correlation_law` is the histogram's closed-form law.

    Widths run one at a time, each in its own call, and a width runs in
    blocks of gates (:func:`_dark_clicks`): each block's clicks are the
    windows' starts for its stops, and the width's histogram is the sum of
    its blocks'.  That is exact: the hold-off carries across block seams,
    and a stop lies within 6 ns of its click, far less than the 1 us
    between clicks, so it pairs only with a click of its own block.  A
    width holds about three block-sized int64 arrays (the block before is
    kept while the next one draws, so the heap is not trimmed and refilled
    each block), whatever ``clicks_per_width``.  Each width has its own RNG
    key, so the order of the widths changes no histogram.
    """
    if clicks_per_width < 1:
        raise ConfigError("clicks_per_width must be >= 1")
    # Every width is checked against the frame period before any draw.
    period = cfg.source.frame_period_ps
    if not gate_widths_ps:
        raise ConfigError("the timing correlation needs at least one gate width")
    if len(set(gate_widths_ps)) != len(gate_widths_ps):
        raise ConfigError(f"gate widths repeat: {list(gate_widths_ps)}")
    for w in gate_widths_ps:
        if not 0 < w <= period or w != int(w):
            raise ConfigError(f"gate width {w:g} must be a whole number of ps in (0, {period}]")
        spad = _width_config(cfg, int(w)).spad
        if spad.backflash_delay_cap_ps >= spad.hold_off_ps:
            raise ConfigError(
                f"gate width {int(w)} caps the backflash delay at {spad.backflash_delay_cap_ps} ps, "
                f"which must lie below the {spad.hold_off_ps} ps hold-off"
            )
    out: dict[int, Histogram] = {}
    for w in map(int, gate_widths_ps):
        ran = _width_config(cfg, w)
        hist, _ = _width_correlation(ran, clicks_per_width)
        out[w] = hist
        if out_dir is not None:
            path = Path(out_dir)
            path.mkdir(parents=True, exist_ok=True)
            hist.write_csv(path / f"correlation_w{w}.csv", artifact_headers(ran) + [f"gate_width_ps={w}"])
    return out


def _width_config(cfg: ExperimentConfig, gate_width_ps: int) -> ExperimentConfig:
    """The config that runs one width of :func:`emit_timing_correlation`:
    that gate width and a 1 us hold-off."""
    return replace(cfg, spad=replace(cfg.spad, gate_width_ps=int(gate_width_ps), hold_off_s=1e-6))


def _width_correlation(ran: ExperimentConfig, clicks_per_width: int) -> tuple[Histogram, int]:
    """One width of :func:`emit_timing_correlation`, at the gate width of
    ``ran.spad``: its histogram and its number of clicks."""
    rngs = DeviceRngs(ran.seed, trial=ran.spad.gate_width_ps, study=TIMING_CORRELATION_STUDY)
    hist = Histogram.from_samples([], CORRELATION_BIN_PS, 0, CORRELATION_WINDOW_PS)
    n_clicks = 0
    for clicks, res in _dark_clicks(ran, clicks_per_width, rngs):
        stops = snspd_detect(res, ran.snspd, clicks, CORRELATION_WINDOW_PS, rngs)
        delays = stops.time_ps - stops.source_ps
        hist.counts += Histogram.from_samples(delays, CORRELATION_BIN_PS, 0, CORRELATION_WINDOW_PS).counts
        n_clicks += clicks.size
    return hist, n_clicks


def _dark_clicks(
    ran: ExperimentConfig, clicks_per_width: int, rngs: DeviceRngs
) -> Iterator[tuple[np.ndarray, SpadResult]]:
    """Receiver click times and their :func:`spad_detect` result, with the
    light sent toward the line, over enough gates of ``ran`` to expect
    ``clicks_per_width`` darks and 5% more, one block of gates at a time:
    the light is blocked, and the spans are of one emission that sends no
    decoy, so no pulse spends a draw and no slot is hashed.

    A block is ``ceil(STUDY_BLOCK_DARKS / p_dark_gate)`` gates, counted from
    gate 0, and the last block is cut where the gates end; the blocks are
    the spans of :func:`_receiver_spans`, as a trial's chunks are, so each
    draws on ``rngs`` after the block before and the hold-off carries
    across their seams.
    """
    spad = ran.spad
    p_dark_gate = max(dark_probability_per_gate(spad.dark_count_rate_cps, spad.gate_width_ps), 1e-30)
    gates = int(clicks_per_width / p_dark_gate * 1.05) + 1
    block = math.ceil(STUDY_BLOCK_DARKS / p_dark_gate)
    emission = generate_frames(replace(ran.source, decoy_probability=0.0), gates, rngs.bits)
    blocked = replace(spad, detection_efficiency=0.0, facet_reflectance=0.0)
    for _, res in _receiver_spans(emission, blocked, ran.channel, rngs, block):
        yield res.clicks.time_ps, res


def correlation_law(cfg: ExperimentConfig, gate_width_ps: int, hist: Histogram) -> np.ndarray:
    """Closed-form expected stops per click in each bin of ``hist``, one
    width's histogram from :func:`emit_timing_correlation`
    (:func:`cowqkd.rates.stops_per_start`), with the backflash delay capped
    at ``min(backflash_delay_max_ps, gate_width_ps)`` as the run caps it.

    The law needs each stop to pair with its own click alone.  The clicks
    lie a hold-off (1 us) apart, so that holds when the bins lie in [0,
    hold-off] and the cap is below the hold-off; other bins are refused.
    """
    spad = _width_config(cfg, gate_width_ps).spad
    cap = spad.backflash_delay_cap_ps
    if hist.start_ps < 0 or hist.stop_ps > spad.hold_off_ps or cap >= spad.hold_off_ps:
        raise ConfigError(
            f"the stop law needs bins within [0, {spad.hold_off_ps}] ps and a delay cap below it, "
            f"not [{hist.start_ps}, {hist.stop_ps}) and {cap}"
        )
    return stops_per_start(
        spad.backflash_probability, cfg.snspd.detection_efficiency, cfg.snspd.dark_count_rate_cps,
        spad.backflash_delay_scale_ps, cap, hist.edges_ps,
    )
