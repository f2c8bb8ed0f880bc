"""Receiver SPAD, eavesdropper SNSPD, and start-stop timing histograms.

The SPAD is gated once per frame of the source clock.  Each avalanche
(photon- or dark-triggered) may emit a backflash photon toward the line
after a bounded delay, and every incident pulse is partially reflected at
the fiber facet regardless of whether it produced a click.  Both leak paths are what the eavesdropper
collects.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .source import DARK_BLOCK, ChannelConfig, FrameBatch, channel_transmittance
from .timebase import (
    MAX_TIME_PS,
    PS_PER_S,
    ConfigError,
    DeviceRngs,
    check_time_range,
    sample_delay,
    write_csv,
)

BOB = "bob"
EVE = "eve"


class Cause(IntEnum):
    PHOTON = 0
    DARK = 1
    BACKFLASH = 2
    REFLECTION = 3


CAUSE_NAMES = {c: c.name.lower() for c in Cause}

# Excess-bias operating points: label -> (detection efficiency, dark counts/s).
SPAD_BIAS_TABLE = {
    "2v": (0.07, 100.0),
    "5v": (0.20, 200.0),
    "7v": (0.25, 350.0),
}


@dataclass(frozen=True)
class SpadConfig:
    """Gated receiver detector.

    The gate opens once per source frame, ``gate_phase_ps`` after the frame
    starts, for ``gate_width_ps``; both must fit in the frame period, which
    :class:`cowqkd.experiment.ExperimentConfig` checks.
    """

    detection_efficiency: float = 0.20
    dark_count_rate_cps: float = 200.0
    gate_width_ps: int = 4000
    gate_phase_ps: int = 0
    hold_off_s: float = 10e-6
    excess_bias_label: str = "5v"
    backflash_probability: float = 0.12
    # Avalanche-to-emission delay: exponential of this scale, truncated at max.
    backflash_delay_scale_ps: float = 600.0
    backflash_delay_max_ps: int = 5000
    facet_reflectance: float = 1e-2

    def __post_init__(self) -> None:
        if not 0.0 <= self.detection_efficiency <= 1.0:
            raise ConfigError("detection efficiency must lie in [0, 1]")
        _check_dark_rate(self.dark_count_rate_cps)
        if self.gate_width_ps <= 0:
            raise ConfigError("gate width must be positive")
        if self.gate_phase_ps < 0:
            raise ConfigError("gate phase must be >= 0")
        if self.hold_off_s < 0:
            raise ConfigError("hold-off must be >= 0")
        if not 0.0 <= self.backflash_probability <= 1.0:
            raise ConfigError("backflash probability must lie in [0, 1]")
        if self.backflash_delay_max_ps < 0:
            raise ConfigError("backflash delay max must be >= 0")
        if self.backflash_delay_max_ps > 0 and self.backflash_delay_scale_ps <= 0:
            raise ConfigError("backflash delay scale must be positive")
        if not 0.0 <= self.facet_reflectance <= 1.0:
            raise ConfigError("facet reflectance must lie in [0, 1]")

    @property
    def hold_off_ps(self) -> int:
        return int(round(self.hold_off_s * PS_PER_S))


def _check_dark_rate(rate_cps: float) -> None:
    # Darks are skips over picoseconds, each of which holds at most one.
    if not 0 <= rate_cps <= PS_PER_S:
        raise ConfigError(f"dark count rate must lie in [0, 1e12] counts/s, got {rate_cps:g}")


def spad_preset(label: str) -> SpadConfig:
    """SpadConfig for one of the tabulated excess-bias points (2v/5v/7v)."""
    key = label.lower()
    if key not in SPAD_BIAS_TABLE:
        raise ConfigError(f"unknown bias preset {label!r}; expected one of {sorted(SPAD_BIAS_TABLE)}")
    eff, dcr = SPAD_BIAS_TABLE[key]
    return SpadConfig(detection_efficiency=eff, dark_count_rate_cps=dcr, excess_bias_label=key)


@dataclass(frozen=True)
class SnspdConfig:
    """Eavesdropper's free-running detector (no dead time modeled)."""

    detection_efficiency: float = 0.74
    dark_count_rate_cps: float = 16.4

    def __post_init__(self) -> None:
        if not 0.0 <= self.detection_efficiency <= 1.0:
            raise ConfigError("detection efficiency must lie in [0, 1]")
        _check_dark_rate(self.dark_count_rate_cps)


@dataclass
class DetectionLog:
    """Columnar click record for one detector.

    ``source_ps`` is ground truth provenance (originating avalanche or pulse
    time, -1 for dark counts); it is kept out of exported transcripts.  The
    leak tallies behind ``p_b`` and ``p_learn`` read it on the
    eavesdropper's log, to find the click behind each backflash count;
    otherwise only tests and diagnostics read it.
    """

    detector: str
    time_ps: np.ndarray
    cause: np.ndarray
    source_ps: np.ndarray

    def __len__(self) -> int:
        return self.time_ps.size

    @classmethod
    def empty(cls, detector: str) -> "DetectionLog":
        z = np.empty(0, dtype=np.int64)
        return cls(detector, z, np.empty(0, dtype=np.int8), z.copy())

    @classmethod
    def merge(cls, parts: list["DetectionLog"]) -> "DetectionLog":
        """One log in (time, cause) order from one detector's chunk logs;
        ``parts`` holds at least one.  A chunk's backflash can leave after
        the next chunk's first counts, so the parts are sorted together."""
        t = np.concatenate([p.time_ps for p in parts])
        c = np.concatenate([p.cause for p in parts])
        s = np.concatenate([p.source_ps for p in parts])
        order = np.lexsort((c, t))
        return cls(parts[0].detector, t[order], c[order], s[order])

    def counts_by_cause(self) -> dict[str, int]:
        return {CAUSE_NAMES[c]: int(np.sum(self.cause == c)) for c in Cause}


def write_detections_csv(logs: list[DetectionLog], path, header_lines: list[str] | None = None) -> None:
    names = np.array([CAUSE_NAMES[c] for c in Cause], dtype="S")
    cols = [
        np.repeat(np.array([log.detector for log in logs], dtype="S"), [len(log) for log in logs]),
        np.concatenate([log.time_ps for log in logs]),
        names[np.concatenate([log.cause for log in logs])],
    ]
    write_csv(path, header_lines, ["detector", "timestamp_ps", "cause"], cols)


@dataclass
class EveArrivals:
    """Light leaving the receiver toward the line.

    Backflash photon ``i`` leaves at ``backflash_ps[i]``, emitted by the
    avalanche at ``avalanche_ps[i]``.  ``reflection_ps`` lists only the
    pulses that return at least one photon from the facet, each with
    probability 1 - exp(-reflected_mean_photon), at the pulse's arrival time.
    """

    avalanche_ps: np.ndarray
    backflash_ps: np.ndarray
    reflection_ps: np.ndarray
    reflected_mean_photon: float


@dataclass
class SpadResult:
    """Receiver clicks plus the light it sends back toward the line."""

    clicks: DetectionLog
    eve: EveArrivals
    dead_until_ps: int


def _dead_time_filter(times: np.ndarray, hold_off_ps: int, dead_until_ps: int) -> tuple[np.ndarray, int]:
    """Non-paralyzable dead time: suppressed candidates do not extend it.

    ``times`` must be sorted.  A candidate at or after ``dead_until_ps`` that
    follows the previous candidate by at least the hold-off is always kept,
    so those are accepted in bulk.  Only runs of closer candidates are
    walked, by a binary search from each kept click to the first candidate
    one hold-off later.
    """
    dead = int(dead_until_ps)
    if hold_off_ps <= 0:
        return np.ones(times.size, dtype=bool), dead
    if not times.size:
        return np.zeros(0, dtype=bool), dead
    keep = np.empty(times.size, dtype=bool)
    keep[0] = True
    np.greater_equal(np.diff(times), hold_off_ps, out=keep[1:])
    keep &= times >= dead

    close = np.flatnonzero(~keep)
    if close.size:
        split = np.flatnonzero(np.diff(close) > 1) + 1
        first = np.r_[0, split]
        starts = close[first]
        # A run is entered from the kept candidate just before it, or from
        # dead_until_ps when it opens the batch.
        entry_ps = times[np.maximum(starts - 1, 0)] + hold_off_ps
        entry_ps[starts == 0] = dead
        entry = np.searchsorted(times, entry_ps)
        # Walk in positions of ``close``; run k holds positions [lo, hi).
        close_ps = memoryview(times[close])
        kept = []
        for s, j, lo, hi in zip(starts.tolist(), entry.tolist(), first.tolist(), np.r_[split, close.size].tolist()):
            j += lo - s
            while j < hi:
                kept.append(j)
                j = bisect_left(close_ps, close_ps[j] + hold_off_ps, j, hi)
        keep[close[kept]] = True

    last = times.size - 1 - int(np.argmax(keep[::-1]))
    if keep[last]:
        dead = int(times[last]) + hold_off_ps
    return keep, dead


def _dark_times(spad: SpadConfig, period_ps: int, rngs: DeviceRngs, start_frame: int, gates: int) -> np.ndarray:
    """Sorted dark-count candidates on ``gates`` open gates, one per frame
    period ``period_ps``, from frame ``start_frame`` on.

    Each of the ``gates * gate_width_ps`` open-gate picoseconds holds a dark
    with probability ``dark_count_rate_cps / PS_PER_S``, so a gate holds
    rate * width darks on average (``dark_probability_per_gate``).  The darks
    are geometric skips over that lattice: open-gate picosecond k lies in
    gate k // w at offset k % w, and the times come out sorted as drawn, one
    exponential draw per dark.  Two darks cannot share a picosecond: any
    hold-off above zero would merge them into one click anyway, and only a
    hold-off of 0 would have kept both.  A gate that runs ``tail`` ps past
    its frame's end opens that frame's first ``tail`` ps instead.
    """
    w, phase = spad.gate_width_ps, spad.gate_phase_ps
    tail = max(0, phase + w - period_ps)
    t = _bernoulli_indices(spad.dark_count_rate_cps / PS_PER_S, gates * w, rngs.spad_dark)
    # k + (k // w) * (period - w) is frame k // w's start plus offset j = k % w,
    # and an offset j >= tail moves up by phase - tail.  Mapped in place a block
    # at a time so no second dark-sized array is held.
    for lo in range(0, t.size, DARK_BLOCK):
        block = t[lo: lo + DARK_BLOCK]
        shift = block // w
        shift *= period_ps - w
        shift += start_frame * period_ps + phase - tail
        if tail:
            shift[block % w < tail] -= phase - tail
        block += shift
    return t


def _backflash(clicks_ps: np.ndarray, spad: SpadConfig, rngs: DeviceRngs) -> tuple[np.ndarray, np.ndarray]:
    """Each accepted avalanche may emit one backflash photon: the emitting
    avalanches' times and their emission times.

    The emitters are geometric skips over the clicks, so only the clicks
    that emit cost a draw, and a probability of 1 costs none.  The delay is
    truncated at ``min(backflash_delay_max_ps, gate_width_ps)``, which
    reshapes timing but not the emission probability.  The cap is one gate
    width after the avalanche, not the time left in the gate, so a click
    late in the gate can emit after the gate has closed.
    """
    av = clicks_ps[_bernoulli_indices(spad.backflash_probability, clicks_ps.size, rngs.backflash)]
    cap = min(spad.backflash_delay_max_ps, spad.gate_width_ps)
    return av, av + sample_delay(spad.backflash_delay_scale_ps, cap, rngs.backflash, av.size)


def _bernoulli_indices(p: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices in [0, n), each present independently with probability ``p``.

    The gaps between present indices are Geometric(p), drawn by inversion
    as ceil(E / -log1p(-p)) with E ~ Exp(1) (Devroye 1986, X.2), so the cost
    grows with the number of indices returned rather than with ``n``.  For
    p < 1/3 this is numpy's own ``geometric``, draw for draw; p = 1 returns
    every index and spends no draw.  Each pass draws a batch of gaps and
    ends at the first partial sum at or past ``n``; a new pass restarts the
    walk, which is exact because the geometric law is memoryless.

    Gaps are clipped at ``MAX_TIME_PS`` (2**62), which ends the walk for any
    ``n`` below it.  The partial sums up to the first one at or past ``n``
    then stay below 2**63; later ones may wrap in int64 and are dropped.
    """
    if p <= 0 or n <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1:
        return np.arange(n, dtype=np.int64)
    check_time_range(n)
    scale = -math.log1p(-p)
    parts = []
    last = -1
    while True:
        mean = (n - 1 - last) * p
        gaps = rng.standard_exponential(int(mean + 4.0 * math.sqrt(mean)) + 16)
        # A tiny p sends a gap to inf, which the clip below ends the walk on.
        with np.errstate(over="ignore"):
            gaps /= scale
        np.ceil(gaps, out=gaps)
        np.minimum(gaps, MAX_TIME_PS, out=gaps)
        idx = gaps.astype(np.int64)
        del gaps
        idx[0] += last
        np.cumsum(idx, out=idx)
        end = int(np.argmax(idx >= n))
        if idx[end] >= n:
            parts.append(idx[:end])
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        parts.append(idx)
        last = int(idx[-1])


def _reflection_times(
    frames: FrameBatch,
    reflected_mu: float,
    occupied_ps: int,
    click_idx: np.ndarray,
    click_offset_ps: np.ndarray,
    rngs: DeviceRngs,
) -> np.ndarray:
    """Arrival times at the facet of the pulses that send a photon back.

    Each pulse returns at least one photon with probability
    1 - exp(-reflected_mu).  A returning pulse that also drew a click candidate arrived at that
    candidate's offset; every other one draws its offset on the reflection
    stream, so reflections never shift a receiver draw.
    """
    idx = _bernoulli_indices(-math.expm1(-reflected_mu), frames.n_pulses(), rngs.reflection)
    at = np.searchsorted(click_idx, idx)
    clicked = at < click_idx.size
    clicked[clicked] = click_idx[at[clicked]] == idx[clicked]
    offset = np.empty(idx.size, dtype=np.int64)
    offset[clicked] = click_offset_ps[at[clicked]]
    n_other = idx.size - int(np.count_nonzero(clicked))
    offset[~clicked] = rngs.reflection.integers(0, occupied_ps, size=n_other, dtype=np.int64)
    return frames.pulse_times(idx) + offset


def spad_detect(
    frames: FrameBatch,
    spad: SpadConfig,
    channel: ChannelConfig,
    rngs: DeviceRngs,
    dead_until_ps: int = 0,
) -> SpadResult:
    """Detect one batch of frames; the gate opens once per frame.

    Every pulse draws a click candidate on its own with probability
    1 - exp(-mu t eta), and a candidate counts if its arrival falls in the
    gate.  Only candidates are sampled: their pulse indices come from
    geometric skips and their arrival offsets are drawn one per candidate.
    Dark candidates are skips over the open-gate picoseconds
    (:func:`_dark_times`) and backflash emitters skips over the kept clicks
    (:func:`_backflash`); a picosecond holds at most one dark, so with a
    hold-off of 0 two darks never share a click time.  ``dead_until_ps``
    carries hold-off state across consecutive batches.  A detection
    efficiency and a facet reflectance of 0 block the light, as in the C8
    study: both skips then have p = 0 and spend no draw.
    """
    source = frames.source
    mu = source.mean_photon_number
    t_ch = channel_transmittance(channel)

    p_click = -math.expm1(-mu * t_ch * spad.detection_efficiency)
    cand = _bernoulli_indices(p_click, frames.n_pulses(), rngs.spad)
    pulse_ps = frames.pulse_times(cand)
    offset = rngs.arrival.integers(0, source.occupied_width_ps, size=cand.size, dtype=np.int64)
    arrival = pulse_ps + offset
    in_gate = ((arrival - spad.gate_phase_ps) % source.frame_period_ps) < spad.gate_width_ps
    photon_t = arrival[in_gate]

    # Photon and dark times are each sorted.  Photon i goes after the darks
    # before its time and before any at it, which is the (time, cause)
    # order: at position i plus the count of earlier darks.
    dark_t = _dark_times(spad, source.frame_period_ps, rngs, frames.start_frame, len(frames))
    at = np.searchsorted(dark_t, photon_t) + np.arange(photon_t.size)
    is_dark = np.ones(photon_t.size + dark_t.size, dtype=bool)
    is_dark[at] = False
    t = np.empty(is_dark.size, dtype=np.int64)
    t[at] = photon_t
    t[is_dark] = dark_t
    del dark_t

    # Cause and provenance are built for the kept clicks alone, the latter
    # after the backflash draws, whose scratch arrays are freed by then.
    keep, dead_after = _dead_time_filter(t, spad.hold_off_ps, dead_until_ps)
    t = t[keep]
    photon_src = pulse_ps[in_gate][keep[at]]
    # A bool read as int8 is Cause.DARK (1) for a dark, Cause.PHOTON (0) else.
    cause = is_dark[keep].view(np.int8)
    del is_dark, keep

    reflected_mu = mu * t_ch * spad.facet_reflectance
    reflection_ps = _reflection_times(frames, reflected_mu, source.occupied_width_ps, cand, offset, rngs)
    eve = EveArrivals(*_backflash(t, spad, rngs), reflection_ps, reflected_mu)

    src = np.full(t.size, -1, dtype=np.int64)
    src[cause == Cause.PHOTON] = photon_src
    return SpadResult(clicks=DetectionLog(BOB, t, cause, src), eve=eve, dead_until_ps=dead_after)


def snspd_detect(
    arrivals: EveArrivals,
    snspd: SnspdConfig,
    window_starts_ps: np.ndarray,
    window_ps: int,
    rngs: DeviceRngs,
) -> DetectionLog:
    """Thin arriving light onto the eavesdropper's detector and add darks.

    ``arrivals.reflection_ps`` lists only the pulses that sent at least one
    photon back, which each pulse does with probability 1 - exp(-m) for a
    reflected mean photon number m.  Each is detected with the conditional
    probability (1 - exp(-m eta)) / (1 - exp(-m)), so a pulse gives a
    reflection count with probability 1 - exp(-m eta) in all.

    Dark counts are drawn only in the windows [s, s + window_ps) for each s
    in ``window_starts_ps``, which must be sorted and at least ``window_ps``
    apart: a trial passes its chunk as one window, the start-stop study the
    window after each click where a stop can count.  They are drawn as the
    receiver's are (:func:`_dark_times`), on their own stream: each of the
    windows' picoseconds holds a dark with probability
    ``dark_count_rate_cps / PS_PER_S``, picosecond k lies in window
    k // window_ps at offset k % window_ps, and the skips over them come out
    sorted, one exponential draw per dark.
    """
    eff = snspd.detection_efficiency
    got_bf = rngs.snspd.random(arrivals.backflash_ps.size) < eff

    refl_t = arrivals.reflection_ps
    if refl_t.size:
        m = arrivals.reflected_mean_photon
        refl_t = refl_t[rngs.snspd.random(refl_t.size) < math.expm1(-m * eff) / math.expm1(-m)]

    starts = np.asarray(window_starts_ps, dtype=np.int64)
    k = _bernoulli_indices(snspd.dark_count_rate_cps / PS_PER_S, starts.size * window_ps, rngs.snspd_dark)
    dark_t = starts[k // window_ps] + k % window_ps

    sizes = [int(np.count_nonzero(got_bf)), refl_t.size, dark_t.size]
    t = np.concatenate([arrivals.backflash_ps[got_bf], refl_t, dark_t])
    cause = np.repeat(np.array([Cause.BACKFLASH, Cause.REFLECTION, Cause.DARK], dtype=np.int8), sizes)
    src = np.concatenate([arrivals.avalanche_ps[got_bf], refl_t, np.full(dark_t.size, -1, dtype=np.int64)])
    order = np.lexsort((cause, t))
    return DetectionLog(EVE, t[order], cause[order], src[order])


@dataclass
class Histogram:
    """Fixed-width histogram over integer picoseconds [start_ps, stop_ps);
    the last bin may be cut at stop_ps."""

    start_ps: int
    bin_width_ps: int
    counts: np.ndarray
    stop_ps: int

    @property
    def bin_starts_ps(self) -> np.ndarray:
        return self.start_ps + self.bin_width_ps * np.arange(self.counts.size, dtype=np.int64)

    @property
    def edges_ps(self) -> np.ndarray:
        """Bin edges: the bin starts, then stop_ps."""
        return np.append(self.bin_starts_ps, self.stop_ps)

    @property
    def centers_ps(self) -> np.ndarray:
        return self.bin_starts_ps + self.bin_width_ps / 2.0

    def normalized(self) -> np.ndarray:
        """Peak-normalized counts (all zero stays all zero)."""
        peak = self.counts.max() if self.counts.size else 0
        if peak <= 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / float(peak)

    def total(self) -> int:
        return int(self.counts.sum())

    def mean_ps(self) -> float:
        n = self.total()
        if n == 0:
            return float("nan")
        return float(np.sum(self.centers_ps * self.counts) / n)

    def std_ps(self) -> float:
        n = self.total()
        if n == 0:
            return float("nan")
        m = self.mean_ps()
        return float(np.sqrt(np.sum(self.counts * (self.centers_ps - m) ** 2) / n))

    def write_csv(self, path, header_lines: list[str] | None = None) -> None:
        norm = [f"{v:.10g}" for v in self.normalized().tolist()]
        write_csv(path, header_lines, ["bin_start_ps", "count", "normalized"], [self.bin_starts_ps, self.counts, norm])

    @classmethod
    def from_samples(cls, samples: np.ndarray, bin_width_ps: int, start_ps: int, stop_ps: int) -> "Histogram":
        _check_bins(bin_width_ps, start_ps, stop_ps)
        nbins = -(-(stop_ps - start_ps) // bin_width_ps)
        s = np.asarray(samples, dtype=np.int64)
        s = s[(s >= start_ps) & (s < stop_ps)]
        counts = np.bincount((s - start_ps) // bin_width_ps, minlength=nbins)
        return cls(int(start_ps), int(bin_width_ps), counts.astype(np.int64), int(stop_ps))


def correlation_histogram(
    start_ps: np.ndarray,
    stop_ps: np.ndarray,
    bin_width_ps: int,
    range_ps: tuple[int, int],
) -> Histogram:
    """Start-stop histogram: every stop within range of every start counts.

    ``range_ps`` is a (lo, hi) pair; differences d satisfy lo <= d < hi, so
    a stop pairs with the starts in (stop - hi, stop - lo].  The starts must
    be sorted and at least ``hi - lo`` apart, as the C8 study's clicks are:
    a hold-off (1 us) apart against a 6 ns range.  Then that interval holds
    at most one start, the last one at or before stop - lo, so one search
    per stop and one gather find every pair, and differences past the range
    drop out of the bins.  One pass of differences over the starts checks
    them and raises ValueError when they are out of order or closer; the
    stops may come in any order.
    """
    lo, hi = int(range_ps[0]), int(range_ps[1])
    _check_bins(bin_width_ps, lo, hi)
    starts = np.asarray(start_ps, dtype=np.int64)
    stops = np.asarray(stop_ps, dtype=np.int64)
    if starts.size > 1 and int(np.diff(starts).min()) < hi - lo:
        raise ValueError(f"starts must be sorted and at least the range, {hi - lo} ps, apart")
    if not starts.size:
        return Histogram.from_samples(starts, int(bin_width_ps), lo, hi)
    j = np.searchsorted(starts, stops - lo, side="right")
    # A stop before every start + lo gets j = -1 and reads the last start,
    # so its difference lies below lo and drops out of the bins.
    j -= 1
    return Histogram.from_samples(stops - starts[j], int(bin_width_ps), lo, hi)


def _check_bins(bin_width_ps: int, start_ps: int, stop_ps: int) -> None:
    if bin_width_ps <= 0 or stop_ps <= start_ps:
        raise ConfigError("histogram needs positive bin width and a non-empty range")
