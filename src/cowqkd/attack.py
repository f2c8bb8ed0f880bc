"""Eavesdropper pipeline: offset calibration, folding, and bit inference.

The attacker timestamps whatever light leaves the receiver, aligns her clock
to the disclosed samples from the public channel, folds her stream modulo
the frame period, separates the click clusters, and assigns a logical bit to
every count inside the backflash cluster.

Only public information (her own timestamps plus the disclosed transcript)
feeds the inference.  Retained-key data appears solely in the scoring step,
which is evaluation machinery, not part of the attack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detectors import Histogram
from .distill import ClassicalTranscript, SiftedBits
from .timebase import ConfigError, write_csv


class CalibrationError(RuntimeError):
    """Offset recovery or cluster identification failed."""


# The attacker's fixed analysis settings.
FOLD_BIN_WIDTH_PS = 100
CALIBRATION_WINDOW_PS = 1000
CALIBRATION_FLOOR = 0.01  # least matched fraction of the disclosed samples
CORR_WINDOW_PS = 6000  # reach of a cluster's correlation with the disclosed clicks
MATCH_WINDOW_PS = 6000  # reach of scoring an inferred bit against the retained key
CLUSTER_THRESHOLD = 0.05  # of the smoothed folded peak
CLUSTER_MIN_GAP_PS = 1000
SMOOTH_BINS = 5
MODE_MIN_SEPARATION_PS = 1500


@dataclass(frozen=True)
class AttackConfig:
    corr_floor: float = 0.02
    boundary: str = "midpoint"
    clock_offset_ps: int = 0

    def __post_init__(self) -> None:
        if self.boundary not in ("midpoint", "valley"):
            raise ConfigError(f"unknown boundary mode {self.boundary!r}")


@dataclass
class CalibrationResult:
    """Recovered clock offset b, applied as calibrated = raw + b.

    ``offset_ps`` is the median raw-to-disclosed difference over the pairs
    matched at the best-scoring scanned shift; it therefore lies within one
    coincidence window of the score argmax while staying exact when the two
    streams are copies of each other.
    """

    offset_ps: int
    score: int
    matched_fraction: float
    candidate_scores: list[tuple[int, int]]
    ties: list[int] = field(default_factory=list)


def _coincidence_scores(
    eve_sorted: np.ndarray, disclosed: np.ndarray, window: int, start: int, step: int, n: int,
) -> np.ndarray:
    """For each shift s = start + i*step, i < n: how many disclosed times d
    have a count e with |d - s - e| <= ``window``.

    That holds exactly when d - s lies in U, the union of [e - window,
    e + window] over the counts, built here as sorted disjoint intervals.
    Each d meets the intervals of U within the scanned span, and each one
    gives a contiguous run of shift indices; for one d the runs are
    disjoint, so a difference array summed once scores every shift.  The
    cost grows with the counts, the disclosed times and the intervals they
    meet, not with the product of shifts and disclosed times.
    """
    if eve_sorted.size == 0:
        return np.zeros(n, dtype=np.int64)
    # U's intervals: a gap wider than 2*window between counts separates two.
    breaks = np.flatnonzero(np.diff(eve_sorted) > 2 * window) + 1
    lo = eve_sorted[np.r_[0, breaks]] - window
    hi = eve_sorted[np.r_[breaks - 1, eve_sorted.size - 1]] + window
    # Intervals that reach the span: d - s in [lo, hi] for some scanned s.
    last = start + (n - 1) * step
    k_lo = np.searchsorted(hi, disclosed - last, side="left")
    reps = np.searchsorted(lo, disclosed - start, side="right") - k_lo
    cum = np.cumsum(reps)
    within = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(cum - reps, reps)
    k = np.repeat(k_lo, reps) + within
    d = np.repeat(disclosed, reps)
    # Shift indices with start + i*step in [d - hi, d - lo], clipped to the grid.
    first = np.maximum(-((start - d + hi[k]) // step), 0)
    stop = np.minimum((d - lo[k] - start) // step, n - 1) + 1
    run = first < stop
    diff = np.bincount(first[run], minlength=n + 1) - np.bincount(stop[run], minlength=n + 1)
    return np.cumsum(diff[:n])


def _nearest(sorted_ref: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest ``sorted_ref`` entry to each ``x`` (ties go left)
    and its distance; ``sorted_ref`` must not be empty."""
    pos = np.searchsorted(sorted_ref, x)
    left = np.clip(pos - 1, 0, sorted_ref.size - 1)
    right = np.clip(pos, 0, sorted_ref.size - 1)
    d_left = np.abs(x - sorted_ref[left])
    d_right = np.abs(sorted_ref[right] - x)
    use_left = d_left <= d_right
    return np.where(use_left, left, right), np.where(use_left, d_left, d_right)


def calibrate(
    eve_time_ps: np.ndarray,
    transcript: ClassicalTranscript,
    frame_period_ps: int,
    bin_width_ps: int,
) -> CalibrationResult:
    """Scan clock shifts against the disclosed samples and refine the best.

    Candidates cover one frame period each way: bin-width steps first, then
    10 ps steps around the coarse peak.  The returned offset is the median
    difference over the matched pairs, which pins the plateau that a pure
    argmax leaves ambiguous under spurious clicks.
    """
    eve = np.sort(np.asarray(eve_time_ps, dtype=np.int64))
    disclosed = np.sort(np.asarray(transcript.disclosed_time_ps, dtype=np.int64))
    if eve.size == 0 or disclosed.size == 0:
        raise CalibrationError("empty eavesdropper stream or transcript")

    period = int(frame_period_ps)
    coarse_window = max(CALIBRATION_WINDOW_PS, bin_width_ps)
    scanned: list[tuple[int, int]] = []

    def best(candidates: np.ndarray, step: int, window: int) -> tuple[int, int, list[int]]:
        scores = _coincidence_scores(eve, disclosed, window, int(candidates[0]), step, candidates.size)
        scanned.extend(zip(candidates.tolist(), scores.tolist()))
        top = int(scores.max())
        tied = sorted((int(s) for s in candidates[scores == top]), key=lambda s: (abs(s), s))
        return tied[0], top, tied[1:]

    coarse = np.arange(-period, period + 1, bin_width_ps, dtype=np.int64)
    c_best, _, _ = best(coarse, bin_width_ps, coarse_window)
    fine = np.arange(c_best - bin_width_ps, c_best + bin_width_ps + 1, 10, dtype=np.int64)
    s0, score, ties = best(fine, 10, CALIBRATION_WINDOW_PS)

    frac = score / disclosed.size
    if frac < CALIBRATION_FLOOR:
        raise CalibrationError(
            f"best shift matches {frac:.4f} of disclosed samples (floor {CALIBRATION_FLOOR})"
        )

    # Median refinement over the pairs matched at the argmax shift.
    nearest, dist = _nearest(eve, disclosed - s0)
    matched = dist <= CALIBRATION_WINDOW_PS
    if not np.any(matched):
        raise CalibrationError("no matched pairs at the best shift")
    offset = int(np.median(disclosed[matched] - eve[nearest[matched]]))

    return CalibrationResult(
        offset_ps=offset,
        score=score,
        matched_fraction=frac,
        candidate_scores=scanned,
        ties=ties,
    )


# ---------------------------------------------------------------------------
# Folding and clustering.

@dataclass
class ClusterMap:
    """Folded histogram with the windows and boundaries the attacker uses.

    ``counts`` has one bin per ``FOLD_BIN_WIDTH_PS``.  Windows are half-open
    circular arcs (start, length) on [0, frame period).  ``zero_boundary_ps``
    and ``one_boundary_ps`` are the arc positions where the zero and one
    decision regions begin inside the backflash window.
    """

    frame_period_ps: int
    counts: np.ndarray
    backflash_start_ps: int
    backflash_len_ps: int
    reflection_start_ps: int | None
    reflection_len_ps: int | None
    zero_boundary_ps: int
    one_boundary_ps: int
    zero_mode_ps: int
    one_mode_ps: int
    run_summary: list[dict] = field(default_factory=list)

    def arc_position(self, folded_ps: np.ndarray) -> np.ndarray:
        return (folded_ps - self.backflash_start_ps) % self.frame_period_ps

    def in_backflash(self, folded_ps: np.ndarray) -> np.ndarray:
        return self.arc_position(folded_ps) < self.backflash_len_ps

    def in_reflection(self, folded_ps: np.ndarray) -> np.ndarray:
        if self.reflection_start_ps is None:
            return np.zeros(np.asarray(folded_ps).shape, dtype=bool)
        return (folded_ps - self.reflection_start_ps) % self.frame_period_ps < self.reflection_len_ps

    def classify(self, folded_ps: np.ndarray) -> np.ndarray:
        """Bit per folded timestamp: 0/1, -1 outside, -2 reflection."""
        folded_ps = np.asarray(folded_ps, dtype=np.int64)
        out = np.full(folded_ps.shape, -1, dtype=np.int8)
        refl = self.in_reflection(folded_ps)
        out[refl] = -2
        inside = self.in_backflash(folded_ps) & ~refl
        arc = self.arc_position(folded_ps)
        zero_from = (self.zero_boundary_ps - self.backflash_start_ps) % self.frame_period_ps
        one_from = (self.one_boundary_ps - self.backflash_start_ps) % self.frame_period_ps
        if zero_from <= one_from:
            is_zero = (arc >= zero_from) & (arc < one_from)
        else:
            is_zero = (arc >= zero_from) | (arc < one_from)
        out[inside & is_zero] = 0
        out[inside & ~is_zero] = 1
        return out


def _circular_smooth(counts: np.ndarray, half: int) -> np.ndarray:
    if half <= 0:
        return counts.astype(float)
    k = 2 * half + 1
    padded = np.concatenate([counts[-half:], counts, counts[:half]])
    return np.convolve(padded, np.ones(k) / k, mode="valid")


def _circular_runs(active: np.ndarray) -> list[tuple[int, int]]:
    """(start, length) runs of True, treating the array as a ring."""
    n = active.size
    if not np.any(active):
        return []
    if np.all(active):
        return [(0, n)]
    start = int(np.argmin(active))  # rotate so position 0 is inactive
    rolled = np.roll(active, -start)
    idx = np.flatnonzero(rolled)
    splits = np.flatnonzero(np.diff(idx) > 1) + 1
    return [(int((g[0] + start) % n), int(g.size)) for g in np.split(idx, splits)]


def _merge_runs(runs: list[tuple[int, int]], n: int, max_gap: int) -> list[tuple[int, int]]:
    if len(runs) <= 1:
        return runs
    runs = sorted(runs)
    merged = [list(runs[0])]
    for s, ln in runs[1:]:
        ps, pl = merged[-1]
        if s - (ps + pl) <= max_gap:
            merged[-1][1] = s + ln - ps
        else:
            merged.append([s, ln])
    # wrap-around merge between last and first
    if len(merged) > 1:
        fs, fl = merged[0]
        ls, ll = merged[-1]
        if (fs + n) - (ls + ll) <= max_gap:
            merged[0] = [ls, min((fs + n - ls) + fl, n)]
            merged.pop()
    return [(int(s) % n, int(ln)) for s, ln in merged]


def _span_covering(runs: list[tuple[int, int]], n: int) -> tuple[int, int]:
    """Shortest circular arc containing every run."""
    if len(runs) == 1:
        return runs[0]
    runs = sorted(runs)
    # largest gap between consecutive runs (circularly) is left outside
    gaps = []
    for i, (s, ln) in enumerate(runs):
        ns, _ = runs[(i + 1) % len(runs)]
        if i + 1 == len(runs):
            ns += n
        gaps.append((ns - (s + ln), i))
    gap, idx = max(gaps)
    start = runs[(idx + 1) % len(runs)][0]
    return start, n - gap


def fold_and_cluster(
    calibrated_ps: np.ndarray,
    transcript: ClassicalTranscript,
    frame_period_ps: int,
    cfg: AttackConfig,
) -> ClusterMap:
    """Fold the calibrated stream and locate the attack windows.

    Clusters whose members sit near disclosed timestamps are backflash (they
    follow the receiver's avalanches); remaining clusters are facet
    reflections, which track every transmitted pulse instead and so show no
    such correlation.  With the default geometry the reflections land inside
    the backflash arc and simply merge into it, leaving the reflection
    window empty.
    """
    period = int(frame_period_ps)
    t = np.asarray(calibrated_ps, dtype=np.int64)
    if t.size == 0:
        raise CalibrationError("nothing to fold")
    folded = t % period
    counts = Histogram.from_samples(folded, FOLD_BIN_WIDTH_PS, 0, period).counts
    nbins = counts.size

    sm = _circular_smooth(counts, SMOOTH_BINS // 2)
    peak = sm.max()
    if peak <= 0:
        raise CalibrationError("empty folded histogram")
    active = sm >= max(CLUSTER_THRESHOLD * peak, 1e-12)
    gap_bins = max(1, CLUSTER_MIN_GAP_PS // FOLD_BIN_WIDTH_PS)
    runs = _merge_runs(_circular_runs(active), nbins, gap_bins)
    if not runs:
        raise CalibrationError("no clusters found")

    disclosed = np.sort(transcript.disclosed_time_ps)
    bin_idx = folded // FOLD_BIN_WIDTH_PS

    def correlation(run: tuple[int, int]) -> float:
        # Fraction of disclosed receiver clicks with a cluster member nearby
        # in unfolded time.  Backflash trails the receiver's avalanches, so
        # its clusters score near the per-click leak probability; reflection
        # clusters track transmitted pulses and score near accidental level.
        if disclosed.size == 0:
            return 0.0
        s, ln = run
        mt = np.sort(t[(bin_idx - s) % nbins < ln])
        return int(_coincidence_scores(mt, disclosed, CORR_WINDOW_PS, 0, 1, 1)[0]) / disclosed.size

    summary = []
    corr_runs, other_runs = [], []
    for run in runs:
        c = correlation(run)
        mass = int(_run_mass(counts, run, nbins))
        summary.append({
            "start_ps": run[0] * FOLD_BIN_WIDTH_PS,
            "len_ps": run[1] * FOLD_BIN_WIDTH_PS,
            "mass": mass,
            "correlation": c,
        })
        (corr_runs if c >= cfg.corr_floor else other_runs).append((run, mass))

    if not corr_runs:
        raise CalibrationError("no cluster correlates with the disclosed samples")

    bf_start_bin, bf_len_bin = _span_covering([r for r, _ in corr_runs], nbins)
    bf_start = bf_start_bin * FOLD_BIN_WIDTH_PS
    bf_len = min(bf_len_bin * FOLD_BIN_WIDTH_PS, period)

    refl_start = refl_len = None
    outside = [
        (run, mass) for run, mass in other_runs
        if (run[0] - bf_start_bin) % nbins >= bf_len_bin
    ]
    if outside:
        run, _ = max(outside, key=lambda rm: rm[1])
        refl_start = run[0] * FOLD_BIN_WIDTH_PS
        refl_len = run[1] * FOLD_BIN_WIDTH_PS

    zero_mode, one_mode = _find_modes(sm, bf_start_bin, bf_len_bin, nbins)
    zero_mode_ps = zero_mode * FOLD_BIN_WIDTH_PS
    one_mode_ps = one_mode * FOLD_BIN_WIDTH_PS

    # Which mode carries which bit comes from the disclosed samples: the
    # attacker knows where the receiver's zero and one clicks fold to.
    zero_ref = _circular_center(disclosed[transcript.disclosed_bit == 0] % period, period)
    one_ref = _circular_center(disclosed[transcript.disclosed_bit == 1] % period, period)
    m_first_ps, m_second_ps = zero_mode_ps, one_mode_ps
    if _circular_dist(m_first_ps, zero_ref, period) + _circular_dist(m_second_ps, one_ref, period) > \
       _circular_dist(m_first_ps, one_ref, period) + _circular_dist(m_second_ps, zero_ref, period):
        zero_mode_ps, one_mode_ps = one_mode_ps, zero_mode_ps

    if zero_mode_ps == one_mode_ps:
        # Single mode: the whole window carries whichever bit the disclosed
        # references place nearer, instead of defaulting to zero.
        if _circular_dist(zero_mode_ps, one_ref, period) < _circular_dist(zero_mode_ps, zero_ref, period):
            zero_boundary = one_boundary = bf_start
        else:
            zero_boundary, one_boundary = bf_start, (bf_start + bf_len) % period
    else:
        cut_ps = _decision_cut(sm, zero_mode_ps, one_mode_ps, bf_start, period, cfg)

        # Region starts: the arc runs [window start .. cut .. window end); the
        # mode nearer the window start owns the first region.
        first_is_zero = _arc(zero_mode_ps, bf_start, period) <= _arc(one_mode_ps, bf_start, period)
        if first_is_zero:
            zero_boundary, one_boundary = bf_start, cut_ps
        else:
            zero_boundary, one_boundary = cut_ps, bf_start

    return ClusterMap(
        frame_period_ps=period,
        counts=counts,
        backflash_start_ps=int(bf_start),
        backflash_len_ps=int(bf_len),
        reflection_start_ps=refl_start,
        reflection_len_ps=refl_len,
        zero_boundary_ps=int(zero_boundary % period),
        one_boundary_ps=int(one_boundary % period),
        zero_mode_ps=int(zero_mode_ps),
        one_mode_ps=int(one_mode_ps),
        run_summary=summary,
    )


def _run_mass(counts: np.ndarray, run: tuple[int, int], nbins: int) -> int:
    s, ln = run
    idx = (np.arange(s, s + ln)) % nbins
    return int(counts[idx].sum())


def _arc(pos: int, start: int, period: int) -> int:
    return (pos - start) % period


def _circular_dist(a: int, b: int, period: int) -> int:
    d = abs((a - b) % period)
    return min(d, period - d)


def _circular_center(values: np.ndarray, period: int) -> int:
    """Median position of folded values, robust to wrap-around."""
    if values.size == 0:
        return 0
    # rotate so the largest empty arc straddles the cut point
    v = np.sort(values % period)
    if v.size == 1:
        return int(v[0])
    gaps = np.diff(np.append(v, v[0] + period))
    cut = int(np.argmax(gaps))
    rolled = np.where(np.arange(v.size) <= cut, v + period, v)
    return int(np.median(rolled)) % period


def _find_modes(sm: np.ndarray, start_bin: int, len_bin: int, nbins: int) -> tuple[int, int]:
    idx = (start_bin + np.arange(len_bin)) % nbins
    vals = sm[idx]
    first = int(np.argmax(vals))
    sep = max(1, MODE_MIN_SEPARATION_PS // FOLD_BIN_WIDTH_PS)
    masked = vals.copy()
    lo = max(0, first - sep)
    masked[lo: first + sep + 1] = -1.0
    if np.all(masked < 0) or masked.max() <= 0:
        m = int(idx[first])
        return m, m
    second = int(np.argmax(masked))
    a, b = sorted((first, second))
    return int(idx[a]), int(idx[b])


def _decision_cut(sm, zero_mode_ps, one_mode_ps, bf_start, period, cfg) -> int:
    """Folded position of the cut between two distinct modes."""
    a0, a1 = sorted((_arc(zero_mode_ps, bf_start, period), _arc(one_mode_ps, bf_start, period)))
    if cfg.boundary == "midpoint":
        return (bf_start + (a0 + a1) // 2) % period
    # valley: minimum of the smoothed histogram strictly between the modes
    b0 = a0 // FOLD_BIN_WIDTH_PS
    b1 = a1 // FOLD_BIN_WIDTH_PS
    if b1 - b0 < 2:
        return (bf_start + (a0 + a1) // 2) % period
    nbins = sm.size
    idx = (bf_start // FOLD_BIN_WIDTH_PS + np.arange(b0 + 1, b1)) % nbins
    vals = sm[idx]
    argmins = np.flatnonzero(vals == vals.min())
    pick = int(argmins[len(argmins) // 2])
    return (bf_start + (b0 + 1 + pick) * FOLD_BIN_WIDTH_PS) % period


# ---------------------------------------------------------------------------
# Inference and scoring.

@dataclass
class EveInference:
    """Per-detection inferences plus evaluation tallies.

    ``matched_bob_ps`` and ``correct`` come from comparing against the
    retained key and exist only to score the attack; -1 marks entries with
    no receiver detection inside the match window.
    """

    eve_time_ps: np.ndarray
    folded_ps: np.ndarray
    bit: np.ndarray
    matched_bob_ps: np.ndarray
    correct: np.ndarray
    discarded_reflection: int
    discarded_outside: int

    def __len__(self) -> int:
        return self.eve_time_ps.size

    @property
    def correct_count(self) -> int:
        return int(np.sum(self.correct == 1))

    @property
    def incorrect_count(self) -> int:
        return int(np.sum(self.correct == 0))

    def bit_tallies(self) -> tuple[int, int]:
        return int(np.sum(self.bit == 0)), int(np.sum(self.bit == 1))


def infer_bits(
    calibrated_ps: np.ndarray,
    clusters: ClusterMap,
    retained: SiftedBits,
) -> EveInference:
    """Assign a bit to every count in the backflash window and score it."""
    t = np.asarray(calibrated_ps, dtype=np.int64)
    folded = t % clusters.frame_period_ps
    cls = clusters.classify(folded)

    keep = cls >= 0
    discarded_reflection = int(np.sum(cls == -2))
    discarded_outside = int(np.sum(cls == -1))
    t, folded, bits = t[keep], folded[keep], cls[keep]

    bob_t = np.asarray(retained.time_ps, dtype=np.int64)
    order = np.argsort(bob_t)
    bob_sorted = bob_t[order]
    bob_bits_sorted = np.asarray(retained.bit)[order]

    matched = np.full(t.size, -1, dtype=np.int64)
    correct = np.full(t.size, -1, dtype=np.int8)
    if bob_sorted.size and t.size:
        nearest, dist = _nearest(bob_sorted, t)
        hit = dist <= MATCH_WINDOW_PS
        matched[hit] = bob_sorted[nearest[hit]]
        correct[hit] = (bits[hit] == bob_bits_sorted[nearest[hit]]).astype(np.int8)

    return EveInference(
        eve_time_ps=t,
        folded_ps=folded,
        bit=bits,
        matched_bob_ps=matched,
        correct=correct,
        discarded_reflection=discarded_reflection,
        discarded_outside=discarded_outside,
    )


def learning_metrics(inference: EveInference, retained: SiftedBits) -> dict[str, float]:
    """Attack quality figures: per-detection accuracy over the matched counts
    and over all of them, the fraction of the key the attacker got, and the
    fraction of her counts matched to a retained click."""
    n = len(inference)
    scored = inference.correct_count + inference.incorrect_count
    return {
        "accuracy_matched": inference.correct_count / scored if scored else 0.0,
        "accuracy_all": inference.correct_count / n if n else 0.0,
        "learning_rate": inference.correct_count / len(retained) if len(retained) else 0.0,
        "matched_fraction": scored / n if n else 0.0,
    }


# ---------------------------------------------------------------------------
# Artifact writers.

def write_inference_csv(inference: EveInference, path, header_lines: list[str] | None = None) -> None:
    correct = np.array(["unknown", "0", "1"], dtype="S")[inference.correct + 1]
    cols = [inference.eve_time_ps, inference.folded_ps, inference.bit, inference.matched_bob_ps, correct]
    write_csv(path, header_lines, ["eve_ts_ps", "folded_ps", "inferred_bit", "matched_bob_ts_ps", "correct"], cols)


def write_clusters_csv(clusters: ClusterMap, path, header_lines: list[str] | None = None) -> None:
    meta = [
        f"backflash_window_start_ps={clusters.backflash_start_ps} len_ps={clusters.backflash_len_ps}",
        f"reflection_window_start_ps={clusters.reflection_start_ps} len_ps={clusters.reflection_len_ps}",
        f"zero_boundary_ps={clusters.zero_boundary_ps} one_boundary_ps={clusters.one_boundary_ps}",
        f"zero_mode_ps={clusters.zero_mode_ps} one_mode_ps={clusters.one_mode_ps}",
    ]
    Histogram(0, FOLD_BIN_WIDTH_PS, clusters.counts, clusters.frame_period_ps).write_csv(path, (header_lines or []) + meta)
