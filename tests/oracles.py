"""Reference implementations that the fast paths in ``cowqkd`` must match.

They are the straightforward per-candidate and per-pulse versions: a
sequential hold-off loop, a pulse list built by sorting, and a
``spad_detect`` that draws a click, an arrival offset and a reflection for
every pulse.  The first two must agree with the library exactly.  The dense
``spad_detect`` is a distributional reference: the library draws only the
pulses that click or reflect, so the two agree in law, not draw for draw,
except where no pulse can click, when their dark counts, hold-off and
backflash still agree exactly under one RNG key.

The geometric skip through ``rng.geometric`` must match the library's
skip through exponential draws exactly, stream position included, for
p < 1/3, where numpy's ``geometric`` inverts an exponential too; above
that the two agree in law.  The dark counts drawn as a Poisson count of
uniform times, sorted, agree in law with the library's skips over the
open-gate picoseconds, which never put two darks on one picosecond.

The full-exposure correlation study draws the eavesdropper's darks as a
Poisson count of uniform times over the whole exposure and histograms them
by searching every start into the stops; the library draws darks only where
a stop can count, as skips over those picoseconds, so the two agree in law.

Drawing Alice's values slot by slot, a uniform bit and a uniform decoy
draw per slot, is a distributional reference for the library's values,
which are keyed hashes of the slot index.

The row-at-a-time ``csv.writer`` artifact writer and the per-shift
coincidence count must match the library's columnar writer and its
interval-union calibration scan exactly, and so must the bin-by-bin walk
around the fold and the per-count window test match the attacker's ring
runs and her classification.
"""

import csv
import math

import numpy as np

from cowqkd.detectors import (
    BOB,
    Cause,
    DetectionLog,
    Histogram,
    SpadResult,
    _backflash,
    _dark_times,
)
from cowqkd.experiment import CORRELATION_BIN_PS, CORRELATION_WINDOW_PS, _dark_clicks, _width_config
from cowqkd.rates import dark_probability_per_gate
from cowqkd.source import DECOY, channel_transmittance
from cowqkd.timebase import PS_PER_S, check_time_range, stream_generator

# A stream id no device draws from, for scratch draws in tests.
SCRATCH_STREAM = 7


def stream_rng(seed, stream_id=SCRATCH_STREAM, trial=0):
    """The generator keyed by (seed, trial, stream id), as ``DeviceRngs``
    keys each device's generator in a trial, from the same constructor,
    ``stream_generator``: SFC64, which costs less per draw than Philox,
    seeded through a ``SeedSequence`` spawn key, so that no stream needs a
    counter ``advance``."""
    return stream_generator(seed, (trial, int(stream_id)))


def sequential_dead_time(times, hold_off_ps, dead_until_ps):
    """Visit every candidate; a kept one restarts the hold-off."""
    keep = np.zeros(len(times), dtype=bool)
    dead = int(dead_until_ps)
    if hold_off_ps <= 0:
        return ~keep, dead
    for i, t in enumerate(np.asarray(times).tolist()):
        if t >= dead:
            keep[i] = True
            dead = t + hold_off_ps
    return keep, dead


def geometric_bernoulli_indices(p, n, rng):
    """Sorted indices in [0, n), each present with probability ``p``: gaps
    from ``rng.geometric``, a cumulative sum per pass, and the walk cut where
    a sum reaches n.  The sums are Python integers, so none wraps however
    long the gaps are."""
    if p <= 0 or n <= 0:
        return np.empty(0, dtype=np.int64)
    parts = []
    last = -1
    while True:
        mean = (n - 1 - last) * p
        gaps = rng.geometric(p, size=int(mean + 4.0 * math.sqrt(mean)) + 16)
        idx = last + np.cumsum(gaps.astype(object))
        if idx[-1] >= n:
            parts.append(idx[: np.searchsorted(idx, n)].astype(np.int64))
            return np.concatenate(parts)
        parts.append(idx)
        last = int(idx[-1])


def poisson_dark_times(spad, period_ps, rng, start_frame, gates):
    """Dark counts on ``gates`` open gates: a Poisson count for the whole
    exposure, a uniform gate and a uniform in-gate offset for each, then a
    sort."""
    lam = spad.dark_count_rate_cps * gates * (spad.gate_width_ps / PS_PER_S)
    n = int(rng.poisson(lam)) if lam > 0 else 0
    gate = rng.integers(0, gates, size=n, dtype=np.int64)
    offset = rng.integers(0, spad.gate_width_ps, size=n, dtype=np.int64)
    return np.sort((start_frame + gate) * period_ps + spad.gate_phase_ps + offset)


def per_slot_values(cfg, count, rng):
    """Alice's values for ``count`` frames, drawn slot by slot: the
    alternating row or one uniform bit per slot, then one uniform draw per
    slot that makes it a decoy below ``decoy_probability``."""
    k = cfg.bits_per_frame
    if cfg.pattern == "alternating":
        bits = np.tile(np.arange(k, dtype=np.int8) % 2, (count, 1))
    else:
        bits = rng.integers(0, 2, size=(count, k), dtype=np.int8)
    if cfg.decoy_probability > 0 and count > 0:
        bits[rng.random(size=(count, k)) < cfg.decoy_probability] = DECOY
    return bits


def pulse_lattice(batch):
    """Lattice position 2 s + b of every pulse, built per global slot s from
    its value (sub-bin b of the value's bit, both sub-bins for a decoy) and
    then sorted."""
    k = batch.source.bits_per_frame
    flat = batch.bits.reshape(-1)
    slot = batch.start_frame * k + np.arange(flat.size, dtype=np.int64)
    is_decoy = flat == DECOY
    lattice = np.concatenate([2 * slot + np.where(is_decoy, 0, flat), 2 * slot[is_decoy] + 1])
    return np.sort(lattice)


def sorted_pulse_times(batch):
    """Occupied-bin start of every pulse, built per slot and then sorted."""
    source = batch.source
    n, k = batch.bits.shape
    frame_idx = np.repeat(np.arange(n, dtype=np.int64), k)
    slot_idx = np.tile(np.arange(k, dtype=np.int64), n)
    flat = batch.bits.reshape(-1)
    is_decoy = flat == DECOY
    sub = np.where(is_decoy, 0, flat).astype(np.int64)

    frame_idx = np.concatenate([frame_idx, frame_idx[is_decoy]])
    slot_idx = np.concatenate([slot_idx, slot_idx[is_decoy]])
    sub = np.concatenate([sub, np.ones(int(is_decoy.sum()), dtype=np.int64)])
    time_ps = (batch.start_frame + frame_idx) * source.frame_period_ps + (2 * slot_idx + sub) * source.bin_width_ps
    return time_ps[np.argsort(time_ps, kind="stable")]


def dense_spad_detect(frames, spad, channel, rngs, dead_until_ps=0):
    """Click, gate and reflection draws on every pulse, one lexsort, then the
    sequential hold-off; ``reflection_ps`` keeps the pulses that send a photon
    back, as the library's does."""
    source = frames.source
    mu = source.mean_photon_number
    t_ch = channel_transmittance(channel)

    pulse_t = sorted_pulse_times(frames)
    n_pulses = pulse_t.size
    arrival = pulse_t + rngs.arrival.integers(0, source.occupied_width_ps, size=n_pulses, dtype=np.int64)

    p_click = 1.0 - np.exp(-mu * t_ch * spad.detection_efficiency)
    clicked = rngs.spad.random(n_pulses) < p_click
    in_gate = ((arrival - spad.gate_phase_ps) % source.frame_period_ps) < spad.gate_width_ps
    cand = clicked & in_gate
    photon_t = arrival[cand]
    photon_src = pulse_t[cand]

    n_gates = len(frames)
    dark_t = _dark_times(spad, source.frame_period_ps, rngs, frames.start_frame, n_gates)

    t = np.concatenate([photon_t, dark_t])
    cause = np.concatenate([
        np.full(photon_t.size, Cause.PHOTON, dtype=np.int8),
        np.full(dark_t.size, Cause.DARK, dtype=np.int8),
    ])
    src = np.concatenate([photon_src, np.full(dark_t.size, -1, dtype=np.int64)])
    order = np.lexsort((cause, t))
    t, cause, src = t[order], cause[order], src[order]

    keep, dead_after = sequential_dead_time(t, spad.hold_off_ps, dead_until_ps)
    clicks = DetectionLog(BOB, t[keep], cause[keep], src[keep])
    reflected_mu = mu * t_ch * spad.facet_reflectance
    returned = rngs.reflection.random(n_pulses) < 1.0 - np.exp(-reflected_mu)
    return SpadResult(clicks, dead_after, *_backflash(clicks.time_ps, spad, rngs), arrival[returned], reflected_mu)


def single_interval_poisson_times(rate_per_s, window_ps, rng):
    """Poisson event times on one interval [t0, t1): a count, that many
    uniform offsets, then a sort of the times."""
    if rate_per_s < 0:
        raise ValueError("rate must be >= 0")
    t0, t1 = int(window_ps[0]), int(window_ps[1])
    check_time_range(max(t1, t0))
    if rate_per_s == 0 or t1 <= t0:
        return np.empty(0, dtype=np.int64)
    duration_s = (t1 - t0) / PS_PER_S
    n = int(rng.poisson(rate_per_s * duration_s))
    times = t0 + rng.integers(0, t1 - t0, size=n, dtype=np.int64)
    times.sort()
    return times


def start_search_correlation_histogram(start_ps, stop_ps, bin_width_ps, range_ps):
    """Start-stop histogram that sorts both inputs and searches every start
    into the stops."""
    lo, hi = int(range_ps[0]), int(range_ps[1])
    starts = np.sort(np.asarray(start_ps, dtype=np.int64))
    stops = np.sort(np.asarray(stop_ps, dtype=np.int64))
    i_lo = np.searchsorted(stops, starts + lo, side="left")
    i_hi = np.searchsorted(stops, starts + hi, side="left")
    reps = i_hi - i_lo
    cum = np.cumsum(reps)
    within = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(cum - reps, reps)
    d = stops[np.repeat(i_lo, reps) + within] - np.repeat(starts, reps)
    return Histogram.from_samples(d, int(bin_width_ps), lo, hi)


def full_exposure_correlation(cfg, gate_width_ps, clicks_per_width, rngs):
    """One gate width of the dark-exposure study, its receiver run as the
    study runs it, with the eavesdropper's darks drawn over the whole
    exposure [0, span) and every block's clicks searched at once."""
    ran = _width_config(cfg, gate_width_ps)
    p_dark_gate = dark_probability_per_gate(ran.spad.dark_count_rate_cps, ran.spad.gate_width_ps)
    gates = int(clicks_per_width / max(p_dark_gate, 1e-30) * 1.05) + 1
    span_ps = gates * cfg.source.frame_period_ps
    blocks = list(_dark_clicks(ran, clicks_per_width, rngs))
    clicks = np.concatenate([c for c, _ in blocks])
    backflash = np.concatenate([a.backflash_ps for _, a in blocks])
    got = rngs.snspd.random(backflash.size) < cfg.snspd.detection_efficiency
    dark = single_interval_poisson_times(cfg.snspd.dark_count_rate_cps, (0, span_ps), rngs.snspd_dark)
    stops = np.concatenate([backflash[got], dark])
    return start_search_correlation_histogram(clicks, stops, CORRELATION_BIN_PS, (0, CORRELATION_WINDOW_PS))


def csv_writer_rows(path, header_lines, columns, rows):
    """Artifact CSV in UTF-8 through ``csv.writer``: the ``# line`` comments,
    the column names, then one row tuple at a time.  A bytes cell is written
    as its UTF-8 text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows([c.decode() if isinstance(c, bytes) else c for c in row] for row in rows)


def per_shift_scores(eve_sorted, disclosed, window, shifts):
    """For each shift, how many disclosed times, moved back by it, have a
    count within ``window``: two searches of every disclosed time per shift."""
    out = []
    for s in shifts:
        lo = np.searchsorted(eve_sorted, disclosed - s - window, side="left")
        hi = np.searchsorted(eve_sorted, disclosed - s + window, side="right")
        out.append(int(np.sum(hi > lo)))
    return out


def ring_same_run(active, max_gap, i, j):
    """Whether active bins ``i`` and ``j`` of the ring ``active`` share a
    run: one of the two ways around from i to j, walked bin by bin, meets
    no stretch of more than ``max_gap`` inactive bins."""
    n = len(active)
    for step in (1, -1):
        stretch = longest = 0
        k = i
        while k != j:
            k = (k + step) % n
            stretch = 0 if active[k] else stretch + 1
            longest = max(longest, stretch)
        if longest <= max_gap:
            return True
    return False


def ring_gaps(active):
    """The stretches of inactive bins on the ring ``active``, walked bin by
    bin from an active one: (the active bin after the stretch, its length)."""
    n = len(active)
    first = next(k for k in range(n) if active[k])
    out, stretch = [], 0
    for step in range(1, n + 1):
        k = (first + step) % n
        if not active[k]:
            stretch += 1
        elif stretch:
            out.append((k, stretch))
            stretch = 0
    return out


def classify_count(x, cmap):
    """The attacker's label for one folded position ``x``: -2 in the
    reflection window, else 0 or 1 in the backflash window, else -1.  In
    the backflash window, its first ``cut_ps`` is the zero region when
    ``zero_first``, the rest of it when not.  A window (start, length)
    holds x when x or x + period lies in [start, start + length)."""
    p = cmap.frame_period_ps

    def within(start, length):
        return start <= x < start + length or start <= x + p < start + length

    if cmap.reflection_start_ps is not None and within(cmap.reflection_start_ps, cmap.reflection_len_ps):
        return -2
    if not within(cmap.backflash_start_ps, cmap.backflash_len_ps):
        return -1
    before_cut = within(cmap.backflash_start_ps, cmap.cut_ps)
    return 0 if before_cut == cmap.zero_first else 1
