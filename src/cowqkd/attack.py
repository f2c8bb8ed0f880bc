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
from .timebase import write_csv


class CalibrationError(RuntimeError):
    """Offset recovery or cluster identification failed."""


# The attacker's fixed analysis settings; none of them is a config key.
FOLD_BIN_WIDTH_PS = 100
CALIBRATION_WINDOW_PS = 1000
CALIBRATION_FLOOR = 0.01  # least matched fraction of the disclosed samples
CORR_WINDOW_PS = 6000  # reach of a cluster's coincidence with a disclosed click
CORR_SHIFTS = 20  # whole frames each way that the disclosed clicks move to score accidentals
CLUSTER_ALPHA = 0.02  # significance at which a cluster's coincidences mark it backflash
MATCH_WINDOW_PS = 6000  # reach of scoring an inferred bit against the retained key
CLUSTER_THRESHOLD = 0.05  # of the smoothed folded peak
CLUSTER_MIN_GAP_PS = 1000
SMOOTH_BINS = 5
MODE_MIN_SEPARATION_PS = 1500


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

    def best(candidates: np.ndarray, step: int, window: int) -> tuple[int, int]:
        # The top-scoring shift nearest 0, the negative one first on a tie.
        scores = _coincidence_scores(eve, disclosed, window, int(candidates[0]), step, candidates.size)
        scanned.extend(zip(candidates.tolist(), scores.tolist()))
        top = int(scores.max())
        return min((int(s) for s in candidates[scores == top]), key=lambda s: (abs(s), s)), top

    coarse = np.arange(-period, period + 1, bin_width_ps, dtype=np.int64)
    c_best, _ = best(coarse, bin_width_ps, coarse_window)
    fine = np.arange(c_best - bin_width_ps, c_best + bin_width_ps + 1, 10, dtype=np.int64)
    s0, score = best(fine, 10, CALIBRATION_WINDOW_PS)

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
    )


# ---------------------------------------------------------------------------
# Folding and clustering.

@dataclass
class ClusterMap:
    """Folded histogram with the window and cut the attacker uses.

    ``counts`` has one bin per ``FOLD_BIN_WIDTH_PS``.  The backflash window
    is a half-open circular arc (start, length) on [0, frame period); its
    first ``cut_ps``, in [0, ``backflash_len_ps``], is the zero region when
    ``zero_first``, else the one region.  ``run_summary`` gives each
    cluster's arc, mass, and shift-0 coincidences, their mean at the other
    shifts and p-value (see :func:`fold_and_cluster`), kept or not.
    """

    frame_period_ps: int
    counts: np.ndarray
    backflash_start_ps: int
    backflash_len_ps: int
    cut_ps: int
    zero_first: bool
    zero_mode_ps: int
    one_mode_ps: int
    run_summary: list[dict] = field(default_factory=list)

    def classify(self, folded_ps: np.ndarray) -> np.ndarray:
        """Bit per folded timestamp: 0/1 in the backflash window, -1
        outside it.  A position x lies at offset (x - start) % period along
        an arc (start, length), inside it when that is below length."""
        off = (np.asarray(folded_ps, dtype=np.int64) - self.backflash_start_ps) % self.frame_period_ps
        return np.where(off < self.backflash_len_ps, (off >= self.cut_ps) == self.zero_first, -1).astype(np.int8)


def _circular_smooth(counts: np.ndarray, half: int) -> np.ndarray:
    if half <= 0:
        return counts.astype(float)
    k = 2 * half + 1
    padded = np.concatenate([counts[-half:], counts, counts[:half]])
    return np.convolve(padded, np.ones(k) / k, mode="valid")


def _ring_runs(on: np.ndarray, n: int, max_gap: int) -> list[tuple[int, int]]:
    """(start, length) runs of the sorted positions ``on`` (a position may
    repeat) on a ring of ``n``, in order of start.

    A gap of at most ``max_gap`` missing positions joins its neighbours,
    across 0 too, so the runs do not depend on where the ring starts.  A
    ring with no wider gap is one run that leaves out its widest gap (the
    one before the lowest start on a tie): the whole ring only when ``on``
    holds every position.
    """
    if on.size == 0:
        return []
    # Missing positions after each one in ``on``, up to the next round the ring.
    gaps = np.diff(on, append=on[0] + n) - 1
    last = np.flatnonzero(gaps > max_gap)
    if last.size == 0:
        # One run, after the widest gap: the first one before a position.
        last = np.array([int(np.argmax(np.roll(gaps, 1))) - 1]) % on.size
    starts = on[(np.roll(last, 1) + 1) % on.size]
    lengths = (on[last] - starts) % n + 1
    return sorted(zip(starts.tolist(), lengths.tolist()))


def _binomial_sf(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Bin(n, p), summed over the upper tail."""
    if k <= 0:
        return 1.0
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])
    i = np.arange(k, n + 1)
    log_pmf = log_fact[n] - log_fact[i] - log_fact[n - i] + i * np.log(p) + (n - i) * np.log1p(-p)
    return float(np.exp(log_pmf).sum())


def fold_and_cluster(
    calibrated_ps: np.ndarray,
    transcript: ClassicalTranscript,
    frame_period_ps: int,
) -> ClusterMap:
    """Fold the calibrated stream and locate the attack windows.

    A cluster is backflash when it follows the disclosed clicks.  It counts
    its coincidences with them moved by k whole frames, |k| <=
    ``CORR_SHIFTS``: backflash scores only at k = 0, reflections and darks
    alike at every k.  Given the N coincidences over all 41 shifts, c0 at
    k = 0 is Bin(N, 1/41) for a cluster that does not follow the clicks,
    and the cluster is kept when P(X >= c0) <= ``CLUSTER_ALPHA``.  The
    shifts span 640 ns, inside the receiver's 10 us hold-off on every
    preset, so the receiver's other clicks do not reach them.  Under a
    shorter hold-off their backflash adds to the shifted counts; where the
    receiver clicks every few frames every shift scores like shift 0, no
    cluster is kept and this raises :class:`CalibrationError`, which leaves
    the block without an attack result.  A cluster the test does not
    keep, such as a reflection, stays in ``run_summary``, and its counts
    classify as -1 unless it lies within the window that spans the kept
    ones.
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
    runs = _ring_runs(np.flatnonzero(active), nbins, max(1, CLUSTER_MIN_GAP_PS // FOLD_BIN_WIDTH_PS))
    if not runs:
        raise CalibrationError("no clusters found")

    disclosed = np.sort(transcript.disclosed_time_ps)
    bin_idx = folded // FOLD_BIN_WIDTH_PS
    n_shifts = 2 * CORR_SHIFTS + 1

    summary, corr_bins = [], []
    for s, ln in runs:
        members = t[(bin_idx - s) % nbins < ln]
        scores = _coincidence_scores(
            np.sort(members), disclosed, CORR_WINDOW_PS, -CORR_SHIFTS * period, period, n_shifts)
        c0, n = int(scores[CORR_SHIFTS]), int(scores.sum())
        p = _binomial_sf(c0, n, 1 / n_shifts)
        summary.append({
            "start_ps": s * FOLD_BIN_WIDTH_PS,
            "len_ps": ln * FOLD_BIN_WIDTH_PS,
            "mass": members.size,
            "coincidences": c0,
            "shifted_mean": (n - c0) / (n_shifts - 1),
            "p": p,
        })
        if p <= CLUSTER_ALPHA:
            corr_bins.append((s + np.arange(ln)) % nbins)

    if not corr_bins:
        raise CalibrationError("no cluster correlates with the disclosed samples")

    # The backflash window is the shortest arc (start, length) of bins that
    # holds every correlated run; a bin x lies at arc index (x - start) %
    # nbins, inside when that is below length.  The whole ring starts in
    # the fold's valley, its lowest bin on a tie, so that the window, like
    # the runs, does not depend on where the frame starts.
    [(start, length)] = _ring_runs(np.sort(np.concatenate(corr_bins)), nbins, nbins)
    if length == nbins:
        start = int(np.argmin(sm))
    bf_start = start * FOLD_BIN_WIDTH_PS

    def arc_ps(j: int) -> int:
        # Offset in ps from the window start to the start of arc index j <=
        # length: a period that is not a whole number of bins ends in a
        # short bin, which the offset measures as it is.
        return period if j == nbins else ((start + j) % nbins * FOLD_BIN_WIDTH_PS - bf_start) % period

    bf_len = arc_ps(length)

    arc = np.roll(sm, -start)[:length]
    a, b = _find_modes(arc, length == nbins)
    mode_a, mode_b = (start + a) % nbins * FOLD_BIN_WIDTH_PS, (start + b) % nbins * FOLD_BIN_WIDTH_PS

    # Which mode carries which bit comes from the disclosed samples: the
    # attacker knows where the receiver's zero and one clicks fold to.
    zero_ref = _circular_center(disclosed[transcript.disclosed_bit == 0] % period, period)
    one_ref = _circular_center(disclosed[transcript.disclosed_bit == 1] % period, period)
    if a == b:
        # Single mode: the whole window is the zero region or the one
        # region, whichever bit the disclosed references place nearer.
        first_is_zero = True
        cut = 0 if _circular_dist(mode_a, one_ref, period) < _circular_dist(mode_a, zero_ref, period) else bf_len
    else:
        first_is_zero = _circular_dist(mode_a, zero_ref, period) + _circular_dist(mode_b, one_ref, period) <= \
            _circular_dist(mode_a, one_ref, period) + _circular_dist(mode_b, zero_ref, period)
        cut = arc_ps(_decision_cut(arc, a, b))
    zero_mode, one_mode = (mode_a, mode_b) if first_is_zero else (mode_b, mode_a)

    return ClusterMap(
        frame_period_ps=period,
        counts=counts,
        backflash_start_ps=int(bf_start),
        backflash_len_ps=int(bf_len),
        cut_ps=int(cut),
        zero_first=bool(first_is_zero),
        zero_mode_ps=int(zero_mode),
        one_mode_ps=int(one_mode),
        run_summary=summary,
    )


def _circular_dist(a: int, b: int, period: int) -> int:
    d = abs((a - b) % period)
    return min(d, period - d)


def _circular_center(values: np.ndarray, period: int) -> int:
    """Median position of folded values, robust to wrap-around: the median
    offset from the start of the shortest arc that holds them all."""
    if values.size == 0:
        return 0
    [(start, _)] = _ring_runs(np.sort(values % period), period, period)
    return (start + int(np.median((values - start) % period))) % period


def _find_modes(arc: np.ndarray, ring: bool) -> tuple[int, int]:
    """Arc indices a <= b of the window's two highest modes, at least
    MODE_MIN_SEPARATION_PS apart, measured round the ring when the window is
    the whole ring (``ring``); a == b when there is one."""
    first = int(np.argmax(arc))
    sep = max(1, MODE_MIN_SEPARATION_PS // FOLD_BIN_WIDTH_PS)
    d = np.abs(np.arange(arc.size) - first)
    if ring:
        d = np.minimum(d, arc.size - d)
    masked = np.where(d <= sep, -1.0, arc)
    if masked.max() <= 0:
        return first, first
    a, b = sorted((first, int(np.argmax(masked))))
    return a, b


def _decision_cut(arc: np.ndarray, lo: int, hi: int) -> int:
    """Arc index of the bin that starts the second region: the smoothed
    fold's minimum strictly between the modes at arc indices lo < hi, which
    :func:`_find_modes` keeps bins apart, the middle one on a tie."""
    between = arc[lo + 1: hi]
    argmins = np.flatnonzero(between == between.min())
    return lo + 1 + int(argmins[argmins.size // 2])


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
    start, cut, length = clusters.backflash_start_ps, clusters.cut_ps, clusters.backflash_len_ps
    first, second = (start, cut), ((start + cut) % clusters.frame_period_ps, length - cut)
    zero, one = (first, second) if clusters.zero_first else (second, first)
    meta = [
        f"backflash_window_start_ps={start} len_ps={length}",
        f"zero_region_start_ps={zero[0]} len_ps={zero[1]}",
        f"one_region_start_ps={one[0]} len_ps={one[1]}",
        f"zero_mode_ps={clusters.zero_mode_ps} one_mode_ps={clusters.one_mode_ps}",
    ]
    Histogram(0, FOLD_BIN_WIDTH_PS, clusters.counts, clusters.frame_period_ps).write_csv(path, (header_lines or []) + meta)
