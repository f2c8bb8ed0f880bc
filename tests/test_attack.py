"""Attacker pipeline tests on hand-built streams with known geometry."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy import stats

from cowqkd import attack
from cowqkd.attack import (
    CLUSTER_ALPHA,
    CORR_SHIFTS,
    FOLD_BIN_WIDTH_PS,
    CalibrationError,
    ClusterMap,
    EveInference,
    _circular_center,
    _circular_smooth,
    _circular_dist,
    _binomial_sf,
    _coincidence_scores,
    _decision_cut,
    _find_modes,
    _nearest,
    _ring_runs,
    calibrate,
    fold_and_cluster,
    infer_bits,
    learning_metrics,
    write_clusters_csv,
    write_inference_csv,
)
from cowqkd.distill import ClassicalTranscript, SiftedBits
from oracles import classify_count, per_shift_scores, ring_gaps, ring_same_run

PERIOD = 32000
# Frames from one receiver click to the next, past the attacker's shifts of
# the disclosed clicks, as the receiver's hold-off spaces them.
STRIDE = 25


def make_scene(n_clicks=400, reflect=True, seed=0, disclose_every=3, reflect_at=20000, period=PERIOD,
               click_at=(500, 3500), delay=(200, 800), noise=(), roll_ps=0):
    # an odd disclosure stride keeps both bit parities in the transcript
    """A receiver click every ``STRIDE`` frames of ``period`` ps,
    alternating bits, the zeros ``click_at[0]`` ps into their frame and the
    ones ``click_at[1]``, plus eavesdropper light: a backflash ``delay`` ps
    after each click (none when None), one count in each ps range of
    ``noise`` in each click's frame, and a facet reflection at
    ``reflect_at`` ps that any frame sends with probability 1/``STRIDE``,
    as many as the clicks on average.  Every time is moved by ``roll_ps``.

    Returns (transcript, retained_key, eve_times, truth) where truth maps each
    backflash sample to the bit that caused it.
    """
    rng = np.random.default_rng(seed)
    frames = np.arange(n_clicks, dtype=np.int64) * STRIDE
    bits = (np.arange(n_clicks) % 2).astype(np.int8)
    bob_t = frames * period + np.where(bits == 0, *click_at) + roll_ps

    backflash_t = bob_t + rng.integers(*delay, size=n_clicks) if delay else np.empty(0, dtype=np.int64)
    eve_parts = [backflash_t]
    if reflect:
        lit = np.flatnonzero(rng.random(n_clicks * STRIDE) < 1 / STRIDE)
        eve_parts.append(lit * period + reflect_at + rng.integers(0, 400, size=lit.size) + roll_ps)
    eve_parts += [frames * period + rng.integers(lo, hi, n_clicks) + roll_ps for lo, hi in noise]
    eve_t = np.sort(np.concatenate(eve_parts))

    disc = np.zeros(n_clicks, dtype=bool)
    disc[::disclose_every] = True
    transcript = ClassicalTranscript(
        block_id=0,
        block_length=n_clicks,
        disclosed_time_ps=bob_t[disc],
        disclosed_bit=bits[disc],
        announced_qber=0.0,
    )
    retained = SiftedBits(time_ps=bob_t[~disc], bit=bits[~disc], alice_bit=bits[~disc])
    truth = {"backflash_t": backflash_t, "bits": bits}
    return transcript, retained, eve_t, truth


def flat_fold_scene(roll_ps, seed, noise, period=4000):
    """A fold with every 100 ps bin active: zeros at 600 ps and ones at
    2600 ps, a backflash 200-600 ps after each, and ``noise`` counts spread
    over each click's frame, every time moved by ``roll_ps``.  Returns
    (transcript, eve_times)."""
    transcript, _, eve_t, _ = make_scene(
        reflect=False, seed=seed, period=period, click_at=(600, 2600), delay=(200, 600),
        noise=[(0, period)] * noise, roll_ps=roll_ps)
    return transcript, eve_t


# --- calibration -----------------------------------------------------------

def test_nearest_breaks_ties_to_the_left():
    ref = np.array([0, 10, 20], dtype=np.int64)
    idx, dist = _nearest(ref, np.array([5, 15, -3, 25, 10], dtype=np.int64))
    assert idx.tolist() == [0, 1, 0, 2, 1]
    assert dist.tolist() == [5, 5, 3, 5, 0]


class TestCalibrate:
    def test_exact_on_clean_copy(self):
        transcript, _, _, _ = make_scene(200)
        for delta in (0, 37, -4444, 15000, -31993):
            eve = transcript.disclosed_time_ps - delta
            res = calibrate(eve, transcript, PERIOD, 1000)
            assert res.offset_ps == delta
            assert res.matched_fraction == 1.0

    def test_survives_spurious_clicks(self):
        transcript, _, _, _ = make_scene(200)
        rng = np.random.default_rng(3)
        n = len(transcript)
        span = int(transcript.disclosed_time_ps.max())
        for delta in (123, -9871):
            spurious = rng.integers(0, span, size=n // 5)
            eve = np.concatenate([transcript.disclosed_time_ps - delta, spurious])
            res = calibrate(eve, transcript, PERIOD, 1000)
            assert abs(res.offset_ps - delta) <= 500

    def test_scan_record_kept(self):
        transcript, _, _, _ = make_scene(50)
        res = calibrate(transcript.disclosed_time_ps, transcript, PERIOD, 1000)
        shifts = [s for s, _ in res.candidate_scores]
        assert -PERIOD in shifts and PERIOD in shifts
        assert max(score for _, score in res.candidate_scores) == res.score

    def test_empty_inputs_raise(self):
        transcript, _, _, _ = make_scene(10)
        with pytest.raises(CalibrationError):
            calibrate(np.empty(0, dtype=np.int64), transcript, PERIOD, 1000)
        empty = ClassicalTranscript(0, 0, np.empty(0, dtype=np.int64),
                                    np.empty(0, dtype=np.int8), 0.0)
        with pytest.raises(CalibrationError):
            calibrate(np.array([5]), empty, PERIOD, 1000)

    def test_floor_failure(self, monkeypatch):
        transcript, _, _, _ = make_scene(100)
        eve = transcript.disclosed_time_ps[:2]
        monkeypatch.setattr(attack, "CALIBRATION_FLOOR", 0.9)
        with pytest.raises(CalibrationError):
            calibrate(eve, transcript, PERIOD, 1000)

    def test_scan_scores_match_the_per_shift_count(self):
        transcript, _, eve_t, _ = make_scene(300)
        res = calibrate(eve_t, transcript, PERIOD, 1000)
        shifts = [s for s, _ in res.candidate_scores]
        assert len(shifts) == 65 + 201
        eve, disclosed = np.sort(eve_t), np.sort(transcript.disclosed_time_ps)
        coarse = per_shift_scores(eve, disclosed, 1000, shifts[:65])
        fine = per_shift_scores(eve, disclosed, 1000, shifts[65:])
        assert [score for _, score in res.candidate_scores] == coarse + fine


# Times on a 25 ps lattice make |d - s - e| == window exact in many draws.
LATTICE = st.integers(min_value=-80, max_value=80).map(lambda x: 25 * x)


@settings(max_examples=200)
@given(
    eve=st.lists(LATTICE, max_size=30),
    disclosed=st.lists(LATTICE, max_size=30),
    window=st.one_of(st.integers(min_value=0, max_value=12).map(lambda x: 25 * x),
                     st.integers(min_value=0, max_value=400), st.just(10**12)),
    start=st.integers(min_value=-120, max_value=120).map(lambda x: 25 * x),
    step=st.one_of(st.integers(min_value=1, max_value=8).map(lambda x: 25 * x), st.integers(min_value=1, max_value=300)),
    n=st.integers(min_value=1, max_value=40),
)
@example(eve=[0, 0, 0], disclosed=[0, 0], window=0, start=-1, step=1, n=3)
@example(eve=[0, 50], disclosed=[100], window=50, start=0, step=50, n=3)
@example(eve=[-10**6, 10**6], disclosed=[0, 7], window=10**12, start=-10**6, step=1000, n=5)
def test_coincidence_scores_match_per_shift_count(eve, disclosed, window, start, step, n):
    # Ties, window 0, counts exactly one window away and a window wider than
    # every span; the per-shift count is the reference.
    e = np.sort(np.array(eve, dtype=np.int64))
    d = np.sort(np.array(disclosed, dtype=np.int64))
    shifts = [start + i * step for i in range(n)]
    got = _coincidence_scores(e, d, window, start, step, n)
    assert got.tolist() == per_shift_scores(e, d, window, shifts)


# --- circular helpers ------------------------------------------------------

# Fixed rings as (active, max_gap, runs): a run wrapping bin 0, no run,
# the whole ring, gaps that join or do not, a join across bin 0, and rings
# with no gap wider than max_gap, whose one run leaves out the widest gap
# (the old pair left out the gap at bin 0, so its answer moved when rolled).
FIXED_RINGS = [
    ([0, 1, 1, 0], 0, [(1, 2)]),
    ([1, 0, 0, 1], 0, [(3, 2)]),
    ([0, 0], 0, []),
    ([1, 1, 1], 0, [(0, 3)]),
    ([1, 0, 1, 1, 0, 0, 1], 0, [(2, 2), (6, 2)]),
    ([1, 1, 0, 0, 1, 1, 0, 0, 0, 0], 2, [(0, 6)]),
    ([1, 1, 0, 0, 0, 1, 1, 0, 0, 0], 2, [(0, 2), (5, 2)]),
    ([1, 1, 0, 0, 0, 0, 0, 0, 1, 0], 1, [(8, 4)]),
    ([1, 1, 0, 1, 0, 0, 1, 1, 1, 0], 3, [(6, 8)]),
    ([1, 0, 0, 1, 0, 0, 0], 3, [(0, 4)]),
]

RINGS = st.lists(st.booleans(), min_size=1, max_size=40)
GAPS = st.integers(min_value=0, max_value=6)


def _runs(a, max_gap):
    """The runs of the boolean ring ``a``."""
    return _ring_runs(np.flatnonzero(a), a.size, max_gap)


def _run_of(runs, n, x):
    return [k for k, (s, ln) in enumerate(runs) if (x - s) % n < ln]


def _rolled(runs, n, k):
    """Runs moved k bins round the ring; the whole ring stays (0, n)."""
    return runs if runs == [(0, n)] else sorted(((s + k) % n, ln) for s, ln in runs)


class TestRingRuns:
    @pytest.mark.parametrize("active,max_gap,want", FIXED_RINGS)
    def test_fixed_rings(self, active, max_gap, want):
        a = np.array(active, dtype=bool)
        for k in range(a.size):
            assert _runs(np.roll(a, k), max_gap) == _rolled(want, a.size, k)

    @settings(max_examples=300)
    @given(active=RINGS, max_gap=GAPS)
    def test_runs_match_the_bin_walk(self, active, max_gap):
        # Runs in order of start, each starting and ending on an active bin;
        # every active bin lies in exactly one, and two share one exactly
        # when a walk round the ring between them finds no wider gap.  One
        # run leaves out the widest gap, the one before the lowest start on
        # a tie, and is the whole ring only when every bin is active.
        a = np.array(active, dtype=bool)
        n = a.size
        runs = _runs(a, max_gap)
        assert runs == sorted(runs)
        for s, ln in runs:
            assert a[s] and a[(s + ln - 1) % n] and 1 <= ln <= n
        if len(runs) == 1:
            gaps = ring_gaps(active)
            widest = max((g for _, g in gaps), default=0)
            start = min((x for x, g in gaps if g == widest), default=0)
            assert runs == [(start, n - widest)]
        # A repeated position changes no run.
        assert _ring_runs(np.repeat(np.flatnonzero(a), 2), n, max_gap) == runs
        on = np.flatnonzero(a).tolist()
        label = {x: _run_of(runs, n, x) for x in on}
        assert all(len(v) == 1 for v in label.values())
        for i in on:
            for j in on:
                assert (label[i] == label[j]) == ring_same_run(active, max_gap, i, j)

    @settings(max_examples=300)
    @given(active=RINGS, max_gap=GAPS, k=st.integers(min_value=0, max_value=40))
    @example(active=[True, True, False, True, False, False, True, True, True, False], max_gap=3, k=4)
    @example(active=[True, True, False, True, False, True, True, True, False], max_gap=3, k=6)
    def test_rolling_the_ring_moves_every_start(self, active, max_gap, k):
        a = np.array(active, dtype=bool)
        runs, rolled = _runs(a, max_gap), _runs(np.roll(a, k), max_gap)
        gaps = [g for _, g in ring_gaps(active)] if a.any() else []
        if len(runs) == 1 and gaps.count(max(gaps, default=0)) > 1:
            # A tie for the widest gap goes by where bin 0 falls.
            assert len(rolled) == 1 and rolled[0][1] == runs[0][1]
        else:
            assert rolled == _rolled(runs, a.size, k)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(min_value=0, max_value=39), seed=st.integers(min_value=0, max_value=20),
           noise=st.integers(min_value=2, max_value=8))
    def test_rolling_an_all_active_fold_moves_the_window(self, k, seed, noise):
        # The rotation test above, carried to the attacker's window: on a
        # fold where every bin is active the window is the whole ring from
        # the smoothed minimum, so rolling the fold k bins moves the window
        # start by k bins and leaves the cut and every count's bit, unless
        # the minimum is tied.
        period = 4000
        transcript, eve_t = flat_fold_scene(0, seed, noise)
        rolled_transcript, rolled_eve = flat_fold_scene(k * FOLD_BIN_WIDTH_PS, seed, noise)
        base = fold_and_cluster(eve_t, transcript, period)
        rolled = fold_and_cluster(rolled_eve, rolled_transcript, period)
        assert base.backflash_len_ps == rolled.backflash_len_ps == period
        assert base.zero_mode_ps != base.one_mode_ps
        sm = _circular_smooth(base.counts, 2)
        if np.count_nonzero(sm == sm.min()) > 1:
            return
        assert rolled.backflash_start_ps == (base.backflash_start_ps + k * FOLD_BIN_WIDTH_PS) % period
        assert (rolled.cut_ps, rolled.zero_first) == (base.cut_ps, base.zero_first)
        assert np.array_equal(rolled.classify(rolled_eve % period), base.classify(eve_t % period))

    @pytest.mark.parametrize("k", range(41))
    def test_cut_on_a_ring_with_a_short_bin_is_the_valley(self, k):
        # At 4050 ps the fold's last bin is 50 ps wide, and as the scene
        # rolls, the whole-ring window started in the valley takes it inside,
        # between the modes too: the cut still falls on a bin start, at the
        # smoothed minimum strictly between the modes along the window.
        period = 4050
        transcript, eve_t = flat_fold_scene(k * FOLD_BIN_WIDTH_PS, 0, 4, period)
        cmap = fold_and_cluster(eve_t, transcript, period)
        nbins = cmap.counts.size
        assert (nbins, cmap.backflash_len_ps) == (41, period)
        start = cmap.backflash_start_ps // FOLD_BIN_WIDTH_PS
        arc = np.roll(_circular_smooth(cmap.counts, 2), -start)

        def index(ps):
            return (ps // FOLD_BIN_WIDTH_PS - start) % nbins

        cut_at = (cmap.backflash_start_ps + cmap.cut_ps) % period
        lo, hi = sorted((index(cmap.zero_mode_ps), index(cmap.one_mode_ps)))
        assert cut_at % FOLD_BIN_WIDTH_PS == 0
        assert lo < index(cut_at) < hi and arc[index(cut_at)] == arc[lo + 1: hi].min()
        assert cmap.classify(np.array([cmap.zero_mode_ps, cmap.one_mode_ps])).tolist() == [0, 1]

    def test_a_tie_leaves_out_the_gap_before_the_lowest_start(self):
        a = np.array([1, 0, 0, 1, 0, 0], dtype=bool)
        for k in range(a.size):
            assert _runs(np.roll(a, k), 2) == [(k % 3, 4)]

    @pytest.mark.parametrize("runs,want", [
        ([(2, 3)], (2, 3)),
        ([(10, 5), (30, 5)], (10, 25)),
        # runs near the wrap point: the short arc crosses zero
        ([(90, 5), (2, 4)], (90, 16)),
    ])
    def test_shortest_arc_holding_every_run(self, runs, want):
        # With a gap as wide as the ring, the runs' positions are one run:
        # the ring less the widest gap between them.
        on = np.sort(np.concatenate([(s + np.arange(ln)) % 100 for s, ln in runs]))
        assert _ring_runs(on, 100, 100) == [want]


class TestCircularHelpers:
    def test_circular_center(self):
        assert _circular_center(np.array([100, 200, 300]), PERIOD) == 200
        wrapped = _circular_center(np.array([31900, 50, 100]), PERIOD)
        assert wrapped in (50, PERIOD - 50) or _circular_dist(wrapped, 50, PERIOD) <= 100
        assert _circular_center(np.empty(0), PERIOD) == 0
        assert _circular_center(np.array([7]), PERIOD) == 7

    def test_circular_dist(self):
        assert _circular_dist(10, 20, 100) == 10
        assert _circular_dist(5, 95, 100) == 10
        assert _circular_dist(0, 50, 100) == 50


# --- folding and clustering ------------------------------------------------

class TestFoldAndCluster:
    def test_windows_cover_truth(self):
        transcript, retained, eve_t, truth = make_scene()
        cmap = fold_and_cluster(eve_t, transcript, PERIOD)
        folded_bf = truth["backflash_t"] % PERIOD
        assert bool(np.all(cmap.classify(folded_bf) >= 0))
        # The reflection's cluster, 20000-20400 ps, is not kept and lies
        # outside the backflash window: none of its counts is inferred.
        assert cmap.classify(np.array([20200]))[0] == -1
        inferred = infer_bits(eve_t, cmap, retained).folded_ps
        assert not np.any((inferred >= 20000) & (inferred < 20400))

    def test_no_reflection_cluster_when_absent(self):
        transcript, _, eve_t, _ = make_scene(reflect=False)
        cmap = fold_and_cluster(eve_t, transcript, PERIOD)
        assert len(cmap.run_summary) == 2
        assert all(r["p"] <= CLUSTER_ALPHA for r in cmap.run_summary)
        assert cmap.classify(np.array([20200]))[0] == -1

    def test_modes_follow_disclosed_bits(self):
        transcript, _, eve_t, _ = make_scene()
        cmap = fold_and_cluster(eve_t, transcript, PERIOD)
        # zeros click around 500 and trail into ~700-1300; ones around 3500
        assert _circular_dist(cmap.zero_mode_ps, 1000, PERIOD) < 800
        assert _circular_dist(cmap.one_mode_ps, 4000, PERIOD) < 800

    def test_modes_swap_with_swapped_positions(self):
        transcript, _, eve_t, _ = make_scene(click_at=(3500, 500))
        cmap = fold_and_cluster(eve_t, transcript, PERIOD)
        assert _circular_dist(cmap.zero_mode_ps, 4000, PERIOD) < 800
        assert _circular_dist(cmap.one_mode_ps, 1000, PERIOD) < 800

    def test_classify_ring_regions(self):
        transcript, retained, eve_t, truth = make_scene()
        cmap = fold_and_cluster(eve_t, transcript, PERIOD)
        folded = truth["backflash_t"] % PERIOD
        got = cmap.classify(folded)
        assert np.array_equal(got, truth["bits"])
        assert cmap.classify(np.array([20100, 15000])).tolist() == [-1, -1]
        # Every count but the backflash is a reflection, and none is inferred.
        reflected = np.setdiff1d(eve_t, truth["backflash_t"])
        assert reflected.size and not np.isin(reflected, infer_bits(eve_t, cmap, retained).eve_time_ps).any()

    def test_valley_cut_separates_the_clusters(self):
        transcript, retained, eve_t, _ = make_scene()
        cmap = fold_and_cluster(eve_t, transcript, PERIOD)
        inf = infer_bits(eve_t, cmap, retained)
        assert learning_metrics(inf, retained)["accuracy_matched"] == 1.0

    @pytest.mark.parametrize("zero_at,want", [(700, 0), (2000, 1)])
    def test_short_ring_with_one_mode(self, zero_at, want):
        # A 25-bin ring whose smoothed fold is active on bins 0-15: the
        # 9-bin gap is narrower than the cluster gap, so the window is the
        # ring less that gap, and its one mode near 900 ps takes the bit
        # whose disclosed clicks fold nearer.
        period = 2500
        transcript, _, eve_t, _ = make_scene(
            reflect=False, period=period, click_at=(zero_at, 2700 - zero_at), delay=None,
            noise=[(200, 1400), (700, 800)])
        cmap = fold_and_cluster(eve_t, transcript, period)
        assert (cmap.backflash_start_ps, cmap.backflash_len_ps) == (0, 1600)
        assert cmap.zero_mode_ps == cmap.one_mode_ps == 900
        assert cmap.classify(eve_t % period).tolist() == [want] * eve_t.size

    @pytest.mark.parametrize("zero_at,one_at,want", [(1100, 2300, 0), (2300, 1100, 1)])
    def test_whole_ring_with_one_mode(self, zero_at, one_at, want):
        # A 25-bin ring with counts in every bin and a bump at 1100-1200 ps:
        # every bin is active, so the window is the whole ring, started at
        # the smoothed fold's minimum, and its one mode takes the bit whose
        # disclosed clicks fold nearer, the zero bit too.
        period = 2500
        transcript, _, eve_t, _ = make_scene(
            reflect=False, period=period, click_at=(zero_at, one_at), delay=None,
            noise=[(0, period), (0, period), (1100, 1200)])
        cmap = fold_and_cluster(eve_t, transcript, period)
        valley = int(np.argmin(_circular_smooth(cmap.counts, 2))) * FOLD_BIN_WIDTH_PS
        assert (cmap.backflash_start_ps, cmap.backflash_len_ps) == (valley, period)
        assert cmap.zero_mode_ps == cmap.one_mode_ps
        assert cmap.classify(eve_t % period).tolist() == [want] * 1200

    def test_empty_stream_raises(self):
        transcript, _, _, _ = make_scene(10)
        with pytest.raises(CalibrationError):
            fold_and_cluster(np.empty(0, dtype=np.int64), transcript, PERIOD)

    def test_uncorrelated_only_raises(self):
        transcript, _, _, _ = make_scene(200)
        frames = np.arange(200 * STRIDE, dtype=np.int64)
        for reflect_at in (20000, 3700):
            # Out of reach of the disclosed clicks, and within it on every frame.
            with pytest.raises(CalibrationError):
                fold_and_cluster(frames * PERIOD + reflect_at, transcript, PERIOD)

    def test_run_summary_reports_all_clusters(self):
        transcript, _, eve_t, _ = make_scene()
        cmap = fold_and_cluster(eve_t, transcript, PERIOD)
        assert len(cmap.run_summary) == 3
        for r in cmap.run_summary:
            # Only the reflection, the run that holds 20200 ps, is dropped.
            holds_reflection = (20200 - r["start_ps"]) % PERIOD < r["len_ps"]
            assert (r["p"] <= CLUSTER_ALPHA) != holds_reflection
        # Each disclosed click's backflash lands in its bit's cluster, and
        # no count of another click lies within the shifts.
        assert sorted(r["coincidences"] for r in cmap.run_summary) == [0, 67, 67]
        assert all(r["shifted_mean"] == 0 for r in cmap.run_summary)

    @pytest.mark.parametrize("window", [300, 6000, 13000])
    def test_run_scores_count_disclosed_clicks_within_the_window(self, window, monkeypatch):
        # Shift k moves the disclosed clicks k frames; each run's count at
        # shift 0, its mean over the other 40 shifts and the binomial tail of
        # the first given their sum, against the per-shift count.
        transcript, _, eve_t, _ = make_scene(reflect_at=7000)
        monkeypatch.setattr(attack, "CORR_WINDOW_PS", window)
        cmap = fold_and_cluster(eve_t, transcript, PERIOD)
        bw, nbins = FOLD_BIN_WIDTH_PS, PERIOD // FOLD_BIN_WIDTH_PS
        disclosed = np.sort(transcript.disclosed_time_ps)
        shifts = [k * PERIOD for k in range(-CORR_SHIFTS, CORR_SHIFTS + 1)]
        for run in cmap.run_summary:
            s, ln = run["start_ps"] // bw, run["len_ps"] // bw
            members = eve_t[((eve_t % PERIOD) // bw - s) % nbins < ln]
            scores = per_shift_scores(members, disclosed, window, shifts)
            c0, n = scores[CORR_SHIFTS], sum(scores)
            assert run["coincidences"] == c0
            assert run["shifted_mean"] == (n - c0) / (len(shifts) - 1)
            assert run["p"] == pytest.approx(stats.binom.sf(c0 - 1, n, 1 / len(shifts)), rel=1e-9, abs=1e-300)

    def test_periodic_reflection_is_rarely_kept(self):
        # A reflection that any frame may send, within reach of the disclosed
        # one clicks, scores alike at every shift: over 1000 scenes the test
        # keeps it, widening the backflash window over it, at most
        # CLUSTER_ALPHA of the time.
        kept = 0
        for seed in range(1000):
            transcript, _, eve_t, _ = make_scene(200, seed=seed, reflect_at=7000)
            cmap = fold_and_cluster(eve_t, transcript, PERIOD)
            kept += int(cmap.classify(np.array([7200]))[0] >= 0)
        assert kept <= CLUSTER_ALPHA * 1000


@given(
    n=st.integers(min_value=0, max_value=400),
    k=st.integers(min_value=-2, max_value=402),
    p=st.floats(min_value=1e-3, max_value=1 - 1e-3),
)
@example(n=820, k=30, p=1 / 41)
def test_binomial_sf_matches_the_scipy_tail(n, k, p):
    # P(X >= k) is scipy's sf at k - 1: one below k <= 0, zero above k > n.
    assert _binomial_sf(k, n, p) == pytest.approx(stats.binom.sf(k - 1, n, p), rel=1e-9, abs=1e-300)


def test_find_modes_measures_the_separation_round_a_whole_ring():
    # Peaks at bins 2 and 315 of a 320-bin arc are 313 bins apart along
    # it but 7 round the ring, inside the 15-bin separation.
    arc = np.zeros(320)
    arc[2], arc[315] = 3.0, 2.0
    assert _find_modes(arc, ring=False) == (2, 315)
    assert _find_modes(arc, ring=True) == (2, 2)


@pytest.mark.parametrize("arc,want", [
    ([5, 1, 1, 1, 1, 5], 3),  # a flat valley: its middle bin of the four
    ([5, 3, 1, 2, 4, 5], 2),
    ([5, 0, 4, 4, 0, 5], 4),  # two minima: the later of the two
])
def test_decision_cut_is_the_smoothed_minimum_between_the_modes(arc, want):
    assert _decision_cut(np.array(arc, dtype=float), 0, 5) == want


@st.composite
def cluster_maps(draw):
    """Windows on a short ring: arcs that wrap past 0, the whole ring and a
    cut at either end of the window (one region empty)."""
    p = draw(st.integers(min_value=1, max_value=60))
    pos = st.integers(min_value=0, max_value=p - 1)
    arc_len = st.integers(min_value=1, max_value=p)
    length = draw(arc_len)
    cut = draw(st.one_of(st.sampled_from([0, length]), st.integers(min_value=0, max_value=length)))
    return ClusterMap(
        frame_period_ps=p, counts=np.zeros(0, dtype=np.int64),
        backflash_start_ps=draw(pos), backflash_len_ps=length,
        cut_ps=cut, zero_first=draw(st.booleans()), zero_mode_ps=0, one_mode_ps=0,
    )


@settings(max_examples=300)
@given(cmap=cluster_maps())
def test_classify_matches_the_per_count_window_test(cmap):
    # Every position of the ring, one count at a time.
    ring = np.arange(cmap.frame_period_ps)
    assert cmap.classify(ring).tolist() == [classify_count(int(x), cmap) for x in ring]


@given(st.integers(min_value=0, max_value=40))
def test_folding_invariance_under_whole_frame_shifts(k):
    transcript, retained, eve_t, _ = make_scene(150, seed=5)
    cmap = fold_and_cluster(eve_t, transcript, PERIOD)
    base = cmap.classify(eve_t % PERIOD)
    shifted = cmap.classify((eve_t + k * PERIOD) % PERIOD)
    assert np.array_equal(base, shifted)


# --- inference and scoring -------------------------------------------------

class TestInference:
    def test_scores_against_retained_key(self):
        transcript, retained, eve_t, truth = make_scene()
        cmap = fold_and_cluster(eve_t, transcript, PERIOD)
        inf = infer_bits(eve_t, cmap, retained)
        # every backflash is kept, every reflection discarded
        assert np.array_equal(inf.eve_time_ps, np.sort(truth["backflash_t"]))
        assert eve_t.size > len(inf)
        # backflashes on disclosed frames have no retained partner, and the
        # nearest other click sits a whole frame away
        assert np.sum(inf.correct == -1) == len(transcript)
        assert inf.correct_count + inf.incorrect_count == len(inf) - len(transcript)

    def test_unmatched_when_key_has_gaps(self, monkeypatch):
        monkeypatch.setattr(attack, "MATCH_WINDOW_PS", 100)
        transcript, retained, eve_t, truth = make_scene()
        cmap = fold_and_cluster(eve_t, transcript, PERIOD)
        inf = infer_bits(eve_t, cmap, retained)
        # delays are 200..800 ps, so a 100 ps window matches nothing
        assert np.sum(inf.correct == -1) == len(inf)
        assert inf.correct_count == 0

    def test_bit_tallies_balanced_for_alternating_truth(self):
        transcript, retained, eve_t, _ = make_scene()
        cmap = fold_and_cluster(eve_t, transcript, PERIOD)
        inf = infer_bits(eve_t, cmap, retained)
        zeros, ones = inf.bit_tallies()
        assert zeros + ones == len(inf)
        assert abs(zeros - ones) <= 2

    def test_metrics_arithmetic(self):
        inf = EveInference(
            eve_time_ps=np.arange(10, dtype=np.int64),
            folded_ps=np.arange(10, dtype=np.int64),
            bit=np.zeros(10, dtype=np.int8),
            matched_bob_ps=np.where(np.arange(10) < 8, np.arange(10), -1),
            correct=np.array([1, 1, 1, 1, 1, 1, 0, 0, -1, -1], dtype=np.int8),
        )
        key = SiftedBits(np.arange(20, dtype=np.int64), np.zeros(20, dtype=np.int8), np.zeros(20, dtype=np.int8))
        assert learning_metrics(inf, key) == {
            "accuracy_matched": 6 / 8,
            "accuracy_all": 6 / 10,
            "learning_rate": 6 / 20,
            "matched_fraction": 8 / 10,
        }

    def test_metrics_empty_inference(self):
        inf = EveInference(*(np.empty(0, dtype=np.int64) for _ in range(3)),
                           np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8))
        key = SiftedBits(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int8))
        assert learning_metrics(inf, key) == dict.fromkeys(
            ["accuracy_matched", "accuracy_all", "learning_rate", "matched_fraction"], 0.0
        )


# --- artifacts -------------------------------------------------------------

def test_inference_csv(tmp_path):
    transcript, retained, eve_t, _ = make_scene(50)
    cmap = fold_and_cluster(eve_t, transcript, PERIOD)
    inf = infer_bits(eve_t, cmap, retained)
    path = tmp_path / "inf.csv"
    write_inference_csv(inf, path, ["seed=50"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=50"
    assert lines[1] == "eve_ts_ps,folded_ps,inferred_bit,matched_bob_ts_ps,correct"
    assert len(lines) == 2 + len(inf)

def test_clusters_csv(tmp_path):
    transcript, _, eve_t, _ = make_scene(50)
    cmap = fold_and_cluster(eve_t, transcript, PERIOD)
    path = tmp_path / "cl.csv"
    write_clusters_csv(cmap, path)
    text = path.read_text()
    # The header names the backflash window, its two regions and the modes.
    assert [line.split("=")[0] for line in text.splitlines() if line.startswith("#")] == [
        "# backflash_window_start_ps", "# zero_region_start_ps", "# one_region_start_ps", "# zero_mode_ps"]
    assert "bin_start_ps,count,normalized" in text
    n_bins = -(-PERIOD // 100)
    assert len([l for l in text.splitlines() if not l.startswith("#")]) == 1 + n_bins


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cmap=cluster_maps())
def test_clusters_csv_regions_label_the_ring_as_classify_does(cmap, tmp_path):
    # The written zero and one regions are arcs that tile the backflash
    # window; a position is labelled by the region that holds it, -1 by
    # neither.
    path = tmp_path / "cl.csv"
    write_clusters_csv(cmap, path)
    regions = {}
    for line in path.read_text().splitlines():
        m = re.fullmatch(r"# (zero|one)_region_start_ps=(\d+) len_ps=(\d+)", line)
        if m:
            regions[m[1]] = (int(m[2]), int(m[3]))
    p = cmap.frame_period_ps
    assert regions["zero"][1] + regions["one"][1] == cmap.backflash_len_ps
    for x in range(p):
        held = [bit for bit, name in enumerate(("zero", "one"))
                if (x - regions[name][0]) % p < regions[name][1]]
        assert len(held) <= 1
        assert classify_count(x, cmap) == (held[0] if held else -1)
