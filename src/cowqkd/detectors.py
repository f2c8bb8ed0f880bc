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

from .source import ChannelConfig, FrameBatch, SourceConfig, channel_transmittance
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

# Values per step wherever an array is drawn, mapped, compared or compacted
# (darks, skip gaps, spacings, clicks): no second array of them all is held.
DARK_BLOCK = 2**16


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

    @property
    def backflash_delay_cap_ps(self) -> int:
        """The most a backflash photon leaves after its avalanche: one gate
        width, or ``backflash_delay_max_ps`` if that is less."""
        return min(self.backflash_delay_max_ps, self.gate_width_ps)


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

    ``source_ps`` is the eavesdropper's ground truth provenance: the
    originating avalanche for a backflash count, the pulse's arrival for a
    reflection, and for a dark count the start of the window it was drawn
    in (:func:`snspd_detect`).  On the receiver's log it is a read-only
    broadcast -1: a photon click's pulse starts the bin the click lies in,
    as the arrival offset stays below the occupied width, at most one bin.
    It is kept out of exported transcripts.  The leak tallies behind
    ``p_b`` and ``p_learn`` read it on the eavesdropper's log to find the
    click behind each backflash count, and the C8 start-stop study to place
    every stop at its delay from its source; otherwise only tests read it.
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
        the next chunk's first counts, so the parts are sorted together.
        When every part's provenance is a broadcast of one value, as the
        receiver's -1 is, the merged provenance is that broadcast too."""
        t = np.concatenate([p.time_ps for p in parts])
        c = np.concatenate([p.cause for p in parts])
        order = np.lexsort((c, t))
        heads = np.concatenate([p.source_ps[:1] for p in parts])
        if not any(p.source_ps.strides[0] for p in parts) and (heads == heads[:1]).all():
            s = np.broadcast_to(heads[:1], t.shape)
        else:
            s = np.concatenate([p.source_ps for p in parts])[order]
        return cls(parts[0].detector, t[order], c[order], s)

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
class SpadResult:
    """Receiver clicks, the end of the last click's hold-off (for the next
    batch), and the light the receiver sends back toward the line.

    Backflash photon ``i`` leaves at ``backflash_ps[i]``, emitted by the
    avalanche at ``avalanche_ps[i]``.  ``reflection_ps`` lists only the
    pulses that return at least one photon from the facet, each with
    probability 1 - exp(-reflected_mean_photon), at the pulse's arrival time.
    """

    clicks: DetectionLog
    dead_until_ps: int
    avalanche_ps: np.ndarray
    backflash_ps: np.ndarray
    reflection_ps: np.ndarray
    reflected_mean_photon: float


# Candidates that the hold-off walk searches first from a kept click, before
# the rest of its run: in a `paper` chunk the next kept click lies a median
# of 25 and at most 46 candidates on, in a run of about 78,000.  A run that
# ends within this reach of the click is searched once, to its end.
_WALK_REACH = 64


def _dead_time_filter(times: np.ndarray, hold_off_ps: int, dead_until_ps: int) -> tuple[np.ndarray, int]:
    """Non-paralyzable dead time: suppressed candidates do not extend it.

    ``times`` must be sorted.  A candidate at or after ``dead_until_ps`` that
    follows the previous candidate by at least the hold-off is always kept,
    so those are accepted in bulk, the spacings compared
    :data:`DARK_BLOCK` at a time so that no array of them is held.  The runs
    of closer candidates lie between the edges of that mask, which are
    found in blocks too.  Only the runs are walked, by a binary search in
    ``times`` from each kept click to the first candidate one hold-off
    later: first over the next :data:`_WALK_REACH` candidates, and over the
    rest of the run only when that one ends at its bound.  A run that ends
    within that reach takes one search, to its end.
    """
    dead = int(dead_until_ps)
    if hold_off_ps <= 0:
        return np.ones(times.size, dtype=bool), dead
    if not times.size:
        return np.zeros(0, dtype=bool), dead
    keep = np.empty(times.size, dtype=bool)
    keep[0] = True
    for lo in range(1, times.size, DARK_BLOCK):
        hi = min(lo + DARK_BLOCK, times.size)
        np.greater_equal(times[lo:hi] - times[lo - 1: hi - 1], hold_off_ps, out=keep[lo:hi])
    keep[: np.searchsorted(times, dead)] = False

    # A run of close candidates starts where keep turns False and ends,
    # exclusive, where it turns True again or at the end of the batch.
    edges = [np.array([] if keep[0] else [0], dtype=np.int64)]
    for lo in range(1, times.size, DARK_BLOCK):
        hi = min(lo + DARK_BLOCK, times.size)
        edges.append(lo + np.flatnonzero(keep[lo:hi] != keep[lo - 1: hi - 1]))
    if not keep[-1]:
        edges.append(np.array([times.size]))
    edges = np.concatenate(edges)
    if edges.size:
        starts, ends = edges[0::2], edges[1::2]
        # A run is entered from the kept candidate just before it, or from
        # dead_until_ps when it opens the batch.
        entry_ps = times[np.maximum(starts - 1, 0)] + hold_off_ps
        entry_ps[starts == 0] = dead
        times_ps = memoryview(times)
        kept = []
        append = kept.append
        for j, hi in zip(np.searchsorted(times, entry_ps).tolist(), ends.tolist()):
            while j < hi:
                append(j)
                x = times_ps[j] + hold_off_ps
                near = j + _WALK_REACH
                if near < hi:
                    j = bisect_left(times_ps, x, j, near)
                    if j == near:
                        j = bisect_left(times_ps, x, near, hi)
                else:
                    j = bisect_left(times_ps, x, j, hi)
        keep[kept] = True

    last = times.size - 1 - int(np.argmax(keep[::-1]))
    if keep[last]:
        dead = int(times[last]) + hold_off_ps
    return keep, dead


def _compress(t: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``t[keep]``.  A broadcast ``t``, one read-only value repeated, gives
    its first n values.  When at least half of ``t`` is kept, the kept
    values move to its front in place, :data:`DARK_BLOCK` at a time, and a
    view of them returns; a smaller share is gathered anew, since a view
    would pin all of ``t``."""
    n = int(np.count_nonzero(keep))
    if not t.strides[0]:
        return t[:n]
    if 2 * n < t.size:
        return t[keep]
    w = 0
    for lo in range(0, t.size, DARK_BLOCK):
        kept = t[lo: lo + DARK_BLOCK][keep[lo: lo + DARK_BLOCK]]
        t[w: w + kept.size] = kept
        w += kept.size
        del kept
    return t[:n]


def _merge(photon_t: np.ndarray, dark_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Photon and dark times, each sorted, in one sorted array in (time,
    cause) order, and the int8 :class:`Cause` of each.

    When one kind is missing, the other's array is the merged one as it
    stands, and its cause a read-only broadcast: nothing candidate-sized is
    copied.  Otherwise dark j goes after the photons at or before its time,
    at j plus their count, one search per dark, and the photons fill the
    places that the cause column leaves at :attr:`Cause.PHOTON`.
    """
    if not photon_t.size or not dark_t.size:
        t, cause = (dark_t, Cause.DARK) if dark_t.size else (photon_t, Cause.PHOTON)
        return t, np.broadcast_to(np.int8(cause), t.shape)
    dark_at = np.searchsorted(photon_t, dark_t, side="right")
    dark_at += np.arange(dark_t.size)
    t = np.empty(photon_t.size + dark_t.size, dtype=np.int64)
    cause = np.full(t.size, Cause.PHOTON, dtype=np.int8)
    cause[dark_at] = Cause.DARK
    t[cause == Cause.PHOTON] = photon_t
    t[dark_at] = dark_t
    return t, cause


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
        del shift
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
    delay = sample_delay(spad.backflash_delay_scale_ps, spad.backflash_delay_cap_ps, rngs.backflash, av.size)
    return av, av + delay


def _bernoulli_indices(p: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices in [0, n), each present independently with probability ``p``.

    The gaps between present indices are Geometric(p), drawn by inversion
    as ceil(E / -log1p(-p)) with E ~ Exp(1) (Devroye 1986, X.2), so the cost
    grows with the number of indices returned rather than with ``n``.  For
    p < 1/3 this is numpy's own ``geometric``, draw for draw; p = 1 returns
    every index and spends no draw.  Each pass draws a batch of gaps and
    ends at the first partial sum at or past ``n``; a new pass restarts the
    walk, which is exact because the geometric law is memoryless.  A pass
    fills its int64 gaps :data:`DARK_BLOCK` at a time from one float64
    buffer, so it holds one array of its size; split fills draw what one
    fill would.

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
        idx = np.empty(int(mean + 4.0 * math.sqrt(mean)) + 16, dtype=np.int64)
        buf = np.empty(min(idx.size, DARK_BLOCK))
        for lo in range(0, idx.size, DARK_BLOCK):
            gaps = rng.standard_exponential(out=buf[: idx.size - lo])
            # A tiny p sends a gap to inf, which the clip below ends the walk on.
            with np.errstate(over="ignore"):
                gaps /= scale
            np.ceil(gaps, out=gaps)
            np.minimum(gaps, MAX_TIME_PS, out=gaps)
            idx[lo: lo + gaps.size] = gaps
        del buf, gaps
        idx[0] += last
        np.cumsum(idx, out=idx)
        end = int(np.argmax(idx >= n))
        if idx[end] >= n:
            parts.append(idx[:end])
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        parts.append(idx)
        last = int(idx[-1])


def _pulse_hits(frames: FrameBatch, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted lattice positions (:meth:`FrameBatch.pulse_times`) of the
    pulses of ``frames`` that each hit on their own with probability ``p``.

    One skip walk over the slots picks the slots whose first pulse hits;
    that pulse lies in sub-bin ``values(s) & 1``, as a decoy opens sub-bin
    0.  Only with decoys on, a second walk over the slots on the same
    stream, kept where it lands on a decoy slot, picks the decoys' sub-bin-1
    pulses.  Only the walks' hits are hashed, and a run without decoys draws
    one walk.
    """
    k = frames.source.bits_per_frame
    first, n = frames.start_frame * k, len(frames) * k
    hits = _bernoulli_indices(p, n, rng)
    hits += first
    sub = frames.values(hits)
    sub &= 1
    hits *= 2
    hits += sub
    if frames.source.decoy_probability <= 0:
        return hits
    second = _bernoulli_indices(p, n, rng)
    second += first
    second = 2 * second[frames.is_decoy(second)] + 1
    # A stable sort is a timsort, which merges the two sorted runs in one pass.
    return np.sort(np.concatenate([hits, second]), kind="stable")


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
    1 - exp(-reflected_mu).  A returning pulse that also drew a click
    candidate (``click_idx`` holds their sorted lattice positions) arrived
    at that candidate's offset; every other one draws its offset on the
    reflection stream, so reflections never shift a receiver draw.
    """
    idx = _pulse_hits(frames, -math.expm1(-reflected_mu), rngs.reflection)
    at = np.searchsorted(click_idx, idx)
    clicked = at < click_idx.size
    clicked[clicked] = click_idx[at[clicked]] == idx[clicked]
    offset = np.empty(idx.size, dtype=np.int64)
    offset[clicked] = click_offset_ps[at[clicked]]
    n_other = idx.size - int(np.count_nonzero(clicked))
    offset[~clicked] = rngs.reflection.integers(0, occupied_ps, size=n_other, dtype=np.int64)
    offset += frames.pulse_times(idx)
    return offset


def _gate_holds_window(spad: SpadConfig, source: SourceConfig) -> bool:
    """Whether the gate is open at every offset in ``[0, signal_window_ps)``
    of a frame, where every pulse arrives, for a gate phase below the frame
    period and a width at most it: the gate opens at the frame start and
    lasts the window, or lasts the whole period, or runs past the frame end
    by at least the window."""
    phase, width = spad.gate_phase_ps, spad.gate_width_ps
    period, window = source.frame_period_ps, source.signal_window_ps
    return (phase == 0 and width >= window) or width == period or phase + width - period >= window


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
    gate.  Only candidates are sampled: pulses are named by lattice
    position, the candidates' positions come from skip walks over the slots
    (:func:`_pulse_hits`), and their arrival offsets, drawn one per
    candidate, are added in place to their pulse times once the reflections
    (their own stream) have read the positions.  Every arrival lies in the
    frame's signal window, so when the gate holds that window
    (:func:`_gate_holds_window`, as on the `paper` layout) no candidate is
    tested; otherwise each is, and when every arrival lies in the gate the
    arrivals are the photon candidates as they stand.  Dark
    candidates are skips over the open-gate picoseconds
    (:func:`_dark_times`).  :func:`_merge` gives the candidates' times and
    causes, and both columns go through the hold-off filter and
    :func:`_compress` together, the one path from candidates to clicks.
    The clicks' provenance is -1 (see :class:`DetectionLog`).  Backflash
    emitters are skips over the kept clicks (:func:`_backflash`).  A
    picosecond holds at most one dark, so with a hold-off of 0 two darks
    never share a click time.  ``dead_until_ps`` carries hold-off state
    across consecutive batches.  A detection efficiency and a facet
    reflectance of 0 block the light, as in the C8 study: every skip walk
    over the slots then has p = 0 and spends no draw, and the darks,
    compacted in place, are the clicks.
    """
    source = frames.source
    mu = source.mean_photon_number
    t_ch = channel_transmittance(channel)
    period = source.frame_period_ps

    p_click = -math.expm1(-mu * t_ch * spad.detection_efficiency)
    cand = _pulse_hits(frames, p_click, rngs.spad)
    arrival = frames.pulse_times(cand)
    offset = rngs.arrival.integers(0, source.occupied_width_ps, size=cand.size, dtype=np.int64)
    reflected_mu = mu * t_ch * spad.facet_reflectance
    reflection_ps = _reflection_times(frames, reflected_mu, source.occupied_width_ps, cand, offset, rngs)
    del cand
    arrival += offset
    del offset
    if not _gate_holds_window(spad, source):
        # The arrival less the last gate opening at or before it, which is
        # (arrival - phase) % period without numpy's slow integer remainder.
        since = arrival - spad.gate_phase_ps
        since //= period
        since *= period
        since += spad.gate_phase_ps
        np.subtract(arrival, since, out=since)
        in_gate = since < spad.gate_width_ps
        del since
        if not in_gate.all():
            arrival = arrival[in_gate]
        del in_gate

    dark_t = _dark_times(spad, period, rngs, frames.start_frame, len(frames))
    t, cause = _merge(arrival, dark_t)
    del arrival, dark_t
    keep, dead_after = _dead_time_filter(t, spad.hold_off_ps, dead_until_ps)
    t, cause = _compress(t, keep), _compress(cause, keep)
    del keep
    clicks = DetectionLog(BOB, t, cause, np.broadcast_to(np.int64(-1), t.shape))
    return SpadResult(clicks, dead_after, *_backflash(t, spad, rngs), reflection_ps, reflected_mu)


def snspd_detect(
    arrivals: SpadResult,
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
    window after each click where a stop can count.  One pass of
    differences over the starts, :data:`DARK_BLOCK` at a time, checks them
    and raises ValueError when they are out of order or closer.  The darks
    are drawn as the receiver's are (:func:`_dark_times`), on their own
    stream: each of the windows' picoseconds holds a dark with probability
    ``dark_count_rate_cps / PS_PER_S``, picosecond k lies in window
    k // window_ps at offset k % window_ps, and the skips over them come out
    sorted, one exponential draw per dark.  A dark's source is the start of
    its window.  The counts come in order of cause, not time:
    :meth:`DetectionLog.merge` sorts a trial's chunks.
    """
    eff = snspd.detection_efficiency
    got_bf = rngs.snspd.random(arrivals.backflash_ps.size) < eff

    refl_t = arrivals.reflection_ps
    if refl_t.size:
        m = arrivals.reflected_mean_photon
        refl_t = refl_t[rngs.snspd.random(refl_t.size) < math.expm1(-m * eff) / math.expm1(-m)]

    starts = np.asarray(window_starts_ps, dtype=np.int64)
    for lo in range(1, starts.size, DARK_BLOCK):
        hi = min(lo + DARK_BLOCK, starts.size)
        if int((starts[lo:hi] - starts[lo - 1: hi - 1]).min()) < window_ps:
            raise ValueError(f"window starts must be sorted and at least the window, {window_ps} ps, apart")
    k = _bernoulli_indices(snspd.dark_count_rate_cps / PS_PER_S, starts.size * window_ps, rngs.snspd_dark)
    dark_src = starts[k // window_ps]
    dark_t = k % window_ps
    dark_t += dark_src

    sizes = [int(np.count_nonzero(got_bf)), refl_t.size, dark_t.size]
    t = np.concatenate([arrivals.backflash_ps[got_bf], refl_t, dark_t])
    cause = np.repeat(np.array([Cause.BACKFLASH, Cause.REFLECTION, Cause.DARK], dtype=np.int8), sizes)
    src = np.concatenate([arrivals.avalanche_ps[got_bf], refl_t, dark_src])
    return DetectionLog(EVE, t, cause, src)


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
        norm = np.array([f"{v:.10g}" for v in self.normalized().tolist()], dtype="S")
        write_csv(path, header_lines, ["bin_start_ps", "count", "normalized"], [self.bin_starts_ps, self.counts, norm])

    @classmethod
    def from_samples(cls, samples: np.ndarray, bin_width_ps: int, start_ps: int, stop_ps: int) -> "Histogram":
        if bin_width_ps <= 0 or stop_ps <= start_ps:
            raise ConfigError("histogram needs positive bin width and a non-empty range")
        nbins = -(-(stop_ps - start_ps) // bin_width_ps)
        s = np.asarray(samples, dtype=np.int64)
        s = s[(s >= start_ps) & (s < stop_ps)]
        counts = np.bincount((s - start_ps) // bin_width_ps, minlength=nbins)
        return cls(int(start_ps), int(bin_width_ps), counts.astype(np.int64), int(stop_ps))

