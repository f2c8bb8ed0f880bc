import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from cowqkd import detectors
from cowqkd.detectors import (
    Cause,
    DetectionLog,
    Histogram,
    SnspdConfig,
    SpadConfig,
    _bernoulli_indices,
    _dark_times,
    _dead_time_filter,
    correlation_histogram,
    snspd_detect,
    spad_detect,
    spad_preset,
)
from cowqkd.experiment import ExperimentConfig, _dark_clicks, _width_config
from cowqkd.source import ChannelConfig, SourceConfig, generate_frames
from cowqkd.timebase import ConfigError, DeviceRngs
from oracles import (
    dense_spad_detect,
    geometric_bernoulli_indices,
    poisson_dark_times,
    sequential_dead_time,
    start_search_correlation_histogram,
    stream_rng,
)


def run_spad(n_frames=20_000, seed=0, source=None, spad=None, channel=None, trial=0):
    source = source or SourceConfig(mean_photon_number=0.2)
    spad = spad or SpadConfig()
    channel = channel or ChannelConfig()
    rngs = DeviceRngs(seed, trial=trial)
    batch = generate_frames(source, n_frames, rngs.bits)
    res = spad_detect(batch, spad, channel, rngs)
    return batch, res


# --- dead-time filter semantics -------------------------------------------

def test_dead_time_filter_non_paralyzable():
    t = np.array([0, 5, 11, 12, 30], dtype=np.int64)
    keep, dead_until = _dead_time_filter(t, 10, 0)
    # the suppressed candidate at 5 must not extend the dead window
    assert t[keep].tolist() == [0, 11, 30]
    assert dead_until == 40

def test_dead_time_filter_carries_state():
    t = np.array([3, 50], dtype=np.int64)
    keep, dead_until = _dead_time_filter(t, 100, 40)
    assert t[keep].tolist() == [50]
    assert dead_until == 150

def test_dead_time_zero_keeps_all():
    t = np.array([1, 1, 2], dtype=np.int64)
    keep, _ = _dead_time_filter(t, 0, 0)
    assert keep.sum() == 3

@st.composite
def candidate_times(draw):
    """Sorted candidates: spread out, duplicated, or packed into clusters."""
    n = draw(st.integers(min_value=0, max_value=60))
    kind = draw(st.sampled_from(["spread", "duplicates", "clusters"]))
    if kind == "spread":
        values = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n))
    elif kind == "duplicates":
        pool = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=8))
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    else:
        centres = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=5))
        values = [draw(st.sampled_from(centres)) + draw(st.integers(0, 40)) for _ in range(n)]
    return np.sort(np.array(values, dtype=np.int64))


@given(candidate_times(), st.integers(min_value=1, max_value=3000), st.integers(min_value=-500, max_value=12_000))
def test_dead_time_filter_matches_sequential_oracle(t, hold, dead_until):
    keep, dead_after = _dead_time_filter(t, hold, dead_until)
    expect_keep, expect_dead = sequential_dead_time(t, hold, dead_until)
    assert keep.tolist() == expect_keep.tolist()
    assert dead_after == expect_dead

def test_dead_time_filter_large_mixed_runs():
    # 1e5 candidates: isolated clicks far apart interleaved with dense
    # bursts, duplicates included, entered with a live hold-off.
    rng = np.random.default_rng(21)
    isolated = rng.integers(0, 10**10, size=50_000)
    centres = rng.integers(0, 10**10, size=2_000)
    burst = np.repeat(centres, 25) + rng.integers(0, 30_000, size=50_000)
    t = np.sort(np.concatenate([isolated, burst])).astype(np.int64)
    t[1::97] = t[0:-1:97]  # exact ties
    assert t.size == 100_000
    dead_until = int(t[10]) + 1
    keep, dead_after = _dead_time_filter(t, 10_000, dead_until)
    expect_keep, expect_dead = sequential_dead_time(t, 10_000, dead_until)
    assert 0 < keep.sum() < t.size
    assert np.array_equal(keep, expect_keep)
    assert dead_after == expect_dead


# --- gate membership and click statistics ---------------------------------

def test_all_clicks_inside_gates():
    spad = SpadConfig(gate_width_ps=3000, gate_phase_ps=500, dark_count_rate_cps=5000.0)
    _, res = run_spad(spad=spad, seed=1)
    local = (res.clicks.time_ps - 500) % 32000
    assert np.all(local < 3000)

def test_click_probability_matches_thinning():
    # hold-off disabled, so each of the 2e5 pulses clicks on its own
    spad = SpadConfig(hold_off_s=0.0, dark_count_rate_cps=0.0, facet_reflectance=0.0,
                      backflash_probability=0.0)
    src = SourceConfig(mean_photon_number=0.2)
    _, res = run_spad(n_frames=100_000, spad=spad, source=src, seed=2)
    p = 1 - math.exp(-0.2 * 0.20)
    n = len(res.clicks)
    sigma = math.sqrt(200_000 * p * (1 - p))
    assert abs(n - 200_000 * p) < 3 * sigma

def test_clicks_are_ordered_by_time_then_cause():
    # 1 ps bins and a 1 ps gate put every in-gate photon and every dark on
    # the gate's first picosecond, so photon and dark clicks tie often; a
    # photon sorts before a dark at the same time.
    src = SourceConfig(mean_photon_number=0.9, bin_width_ps=1)
    spad = SpadConfig(gate_width_ps=1, hold_off_s=0.0, dark_count_rate_cps=1e11, facet_reflectance=0.0)
    _, res = run_spad(n_frames=10_000, source=src, spad=spad, seed=16)
    c = res.clicks
    tied = np.flatnonzero(np.diff(c.time_ps) == 0)
    assert np.sum(c.cause[tied] != c.cause[tied + 1]) > 50
    assert np.array_equal(np.lexsort((c.cause, c.time_ps)), np.arange(len(c)))

def test_dark_rate_recovered():
    spad = SpadConfig(detection_efficiency=0.0, hold_off_s=0.0, dark_count_rate_cps=100_000.0,
                      backflash_probability=0.0, facet_reflectance=0.0)
    _, res = run_spad(n_frames=50_000, spad=spad, seed=3)
    lam = 100_000.0 * 50_000 * 4000 * 1e-12
    n = len(res.clicks)
    assert res.clicks.cause.tolist().count(int(Cause.PHOTON)) == 0
    assert abs(n - lam) < 3 * math.sqrt(lam)

@pytest.mark.parametrize("block", [1, 2, 5, 7, 2**16])
def test_dark_lattice_at_one_fills_every_open_gate_picosecond(monkeypatch, block):
    # At one dark per picosecond, open-gate picosecond k lands at gate
    # k // w's opening plus k % w, from frame start_frame on, whatever
    # blocks the darks are mapped in.
    monkeypatch.setattr(detectors, "DARK_BLOCK", block)
    spad = SpadConfig(gate_width_ps=3, gate_phase_ps=2, dark_count_rate_cps=1e12)
    rng = DeviceRngs(1)
    got = _dark_times(spad, 10, rng, 5, 4)
    assert got.tolist() == [f * 10 + 2 + o for f in range(5, 9) for o in range(3)]
    assert rng.spad_dark.random() == DeviceRngs(1).spad_dark.random()

@pytest.mark.parametrize("block", [1, 3, 2**16])
def test_dark_lattice_of_a_gate_past_the_frame_end_stays_in_the_frame(monkeypatch, block):
    # A 4 ps gate that opens 8 ps into a 10 ps frame runs 2 ps past its end;
    # it opens that frame's first 2 ps instead, so frame f's darks lie in
    # [10 f, 10 f + 10).
    monkeypatch.setattr(detectors, "DARK_BLOCK", block)
    spad = SpadConfig(gate_width_ps=4, gate_phase_ps=8, dark_count_rate_cps=1e12)
    got = _dark_times(spad, 10, DeviceRngs(1), 5, 4)
    assert got.tolist() == [f * 10 + o for f in range(5, 9) for o in (0, 1, 8, 9)]

def test_dark_lattice_has_the_poisson_oracles_law():
    # 2e5 gates of 1 ns at 0.05 darks per gate: about 1e4 darks each from
    # the lattice and from the oracle's Poisson count of uniform times.  Five
    # tests (the count against its binomial law and against the oracle's,
    # in-gate offsets against uniform and against the oracle's, gate indices
    # against the oracle's) share a 1e-3 false alarm rate.
    spad = SpadConfig(gate_width_ps=1000, gate_phase_ps=700, dark_count_rate_cps=5e7)
    period, start, gates = 32000, 12_345, 200_000
    got = _dark_times(spad, period, DeviceRngs(9), start, gates)
    want = poisson_dark_times(spad, period, stream_rng(9), start, gates)
    assert got.dtype == np.int64
    assert np.all(np.diff(got) > 0)
    gate = (got - spad.gate_phase_ps) // period - start
    offset = (got - spad.gate_phase_ps) % period
    assert np.all((gate >= 0) & (gate < gates)) and np.all(offset < spad.gate_width_ps)
    want_gate = (want - spad.gate_phase_ps) // period - start
    want_offset = (want - spad.gate_phase_ps) % period
    p = spad.dark_count_rate_cps / 1e12
    pvalues = [
        stats.binomtest(got.size, gates * spad.gate_width_ps, p).pvalue,
        stats.binomtest(got.size, got.size + want.size, 0.5).pvalue,
        stats.chisquare(np.bincount(offset // 50, minlength=20)).pvalue,
        stats.ks_2samp(offset, want_offset).pvalue,
        stats.ks_2samp(gate, want_gate).pvalue,
    ]
    assert min(pvalues) > 1e-3 / 5, pvalues

def test_dark_study_on_a_lattice_near_two_to_the_sixty_does_not_wrap():
    # correlate --widths 32000 --clicks 1 at 1e-6 darks/s: 3.3e13 open gates
    # of 32000 ps, 1.05e18 lattice points and about 1.05 darks per exposure.
    # Gaps of up to 2**62 wrap an int64 cumulative sum after the walk ends;
    # a wrapped sum taken for an index draws hundreds of unsorted clicks.
    ran = _width_config(ExperimentConfig(spad=SpadConfig(dark_count_rate_cps=1e-6)), 32000)
    spad = ran.spad
    period = ran.source.frame_period_ps
    gates = int(1 / (spad.dark_count_rate_cps * spad.gate_width_ps / 1e12) * 1.05) + 1
    span = gates * period
    assert 1.0e18 < gates * spad.gate_width_ps < 2**62
    total = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for trial in range(40):
            clicks, _ = _dark_clicks(ran, 1, DeviceRngs(5, trial=trial))
            assert np.all(np.diff(clicks) > 0)
            assert clicks.size == 0 or (clicks[0] >= 0 and clicks[-1] < span)
            total += clicks.size
    # The 40 counts sum to Poisson(40 * 1.05) (two-sided, alpha 1e-3).
    lam = 40 * gates * spad.gate_width_ps * spad.dark_count_rate_cps / 1e12
    tail = min(stats.poisson.cdf(total, lam), stats.poisson.sf(total - 1, lam))
    assert 2 * tail > 1e-3, (total, lam)

DENSE_CASES = {
    "alternating": dict(source=SourceConfig(mean_photon_number=0.3)),
    "paper-hold-off": dict(source=SourceConfig(mean_photon_number=0.3), spad=SpadConfig()),
    "random-decoy-0.3": dict(source=SourceConfig(mean_photon_number=0.3, pattern="random", decoy_probability=0.3)),
    "all-decoy": dict(source=SourceConfig(mean_photon_number=0.3, pattern="random", decoy_probability=1.0)),
    "one-slot": dict(source=SourceConfig(mean_photon_number=0.5, bits_per_frame=1, pattern="random",
                                         decoy_probability=0.3)),
    "three-slots-rz": dict(source=SourceConfig(mean_photon_number=0.3, bits_per_frame=3, encoding="rz",
                                               pattern="random", decoy_probability=0.3)),
    # the gate opens mid-pulse and closes before the last slot
    "gate-cuts-pulses": dict(source=SourceConfig(mean_photon_number=0.4, pattern="random", decoy_probability=0.3),
                             spad=SpadConfig(gate_phase_ps=700, gate_width_ps=2500, hold_off_s=1e-6,
                                             dark_count_rate_cps=5e5)),
    # 10 ps bins put many arrivals exactly on the gate edges
    "gate-edge-ties": dict(source=SourceConfig(mean_photon_number=0.3, bin_width_ps=10, pattern="random",
                                               decoy_probability=0.3),
                           spad=SpadConfig(gate_phase_ps=3, gate_width_ps=25, hold_off_s=1e-7)),
    "no-hold-off": dict(source=SourceConfig(mean_photon_number=0.3, pattern="random", decoy_probability=0.3),
                        spad=SpadConfig(hold_off_s=0.0, dark_count_rate_cps=5e5)),
    "short-hold-off-lossy": dict(source=SourceConfig(mean_photon_number=0.3, pattern="random"),
                                 spad=SpadConfig(hold_off_s=2e-7, dark_count_rate_cps=2e6),
                                 channel=ChannelConfig(length_km=10.0)),
}

# Distributional comparison with the dense oracle.  Thresholds are fixed in
# advance: a family-wise false alarm rate of 1e-3, Bonferroni-split over every
# comparison of every case.
DENSE_SEEDS = 20
DENSE_CHECKS = 7
DENSE_ALPHA = 1e-3 / (len(DENSE_CASES) * DENSE_CHECKS)


def _pooled_run(case, sampler, seeds):
    """Per-cause counts, in-gate photon offsets, click gaps and Eve's
    reflection counts over two chained 3000-frame batches per seed."""
    kw = DENSE_CASES[case]
    source = kw["source"]
    spad = kw.get("spad", SpadConfig(hold_off_s=1e-6, dark_count_rate_cps=5e5))
    channel = kw.get("channel", ChannelConfig())
    snspd = SnspdConfig(dark_count_rate_cps=0.0)
    out = dict(photon=0, dark=0, backflash=0, eve_reflection=0, pulses=0, offsets=[], gaps=[])
    for seed in seeds:
        rngs = DeviceRngs(seed, trial=2)
        dead = 0
        times = []
        for start in (0, 3_000):
            batch = generate_frames(source, 3_000, rngs.bits, start_frame=start)
            res = sampler(batch, spad, channel, rngs, dead_until_ps=dead)
            dead = res.dead_until_ps
            c = res.clicks
            out["photon"] += int(np.sum(c.cause == Cause.PHOTON))
            out["dark"] += int(np.sum(c.cause == Cause.DARK))
            out["backflash"] += res.eve.backflash_ps.size
            photon_t = c.time_ps[c.cause == Cause.PHOTON]
            out["offsets"].append((photon_t - spad.gate_phase_ps) % source.frame_period_ps)
            times.append(c.time_ps)
            period = source.frame_period_ps
            eve = snspd_detect(res.eve, snspd, [start * period], len(batch) * period, rngs)
            out["eve_reflection"] += int(np.sum(eve.cause == Cause.REFLECTION))
            out["pulses"] += batch.n_pulses()
        out["gaps"].append(np.diff(np.concatenate(times)))
    out["offsets"] = np.concatenate(out["offsets"])
    out["gaps"] = np.concatenate(out["gaps"])
    out["m_eve"] = res.eve.reflected_mean_photon * snspd.detection_efficiency
    return out


def _equal_rate_pvalue(a, b):
    """Exact conditional test that two counts share one Poisson mean; it is
    conservative for the under-dispersed counts that hold-off produces."""
    return stats.binomtest(a, a + b, 0.5).pvalue if a + b else 1.0


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_spad_detect_matches_dense_oracle(case):
    # Independent seeds for the two samplers, so the pools are independent.
    fast = _pooled_run(case, spad_detect, range(DENSE_SEEDS))
    dense = _pooled_run(case, dense_spad_detect, range(1000, 1000 + DENSE_SEEDS))
    assert fast["photon"] >= 100 and dense["photon"] >= 100
    pvalues = {
        cause: _equal_rate_pvalue(fast[cause], dense[cause])
        for cause in ("photon", "dark", "backflash", "eve_reflection")
    }
    # Each pulse gives Eve a reflection count with probability 1 - exp(-m eta).
    pvalues["eve_reflection_exact"] = stats.binomtest(
        fast["eve_reflection"], fast["pulses"], -math.expm1(-fast["m_eve"])).pvalue
    pvalues["offset_ks"] = stats.ks_2samp(fast["offsets"], dense["offsets"]).pvalue
    pvalues["gap_ks"] = stats.ks_2samp(fast["gaps"], dense["gaps"]).pvalue
    assert len(pvalues) == DENSE_CHECKS
    assert min(pvalues.values()) > DENSE_ALPHA, pvalues


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_spad_detect_without_photons_matches_dense_oracle_exactly(case):
    # With zero efficiency no pulse can click, so darks, hold-off and
    # backflash are the same draws as the oracle's; about 0.02 darks per gate.
    kw = DENSE_CASES[case]
    source = kw["source"]
    spad = kw.get("spad", SpadConfig(hold_off_s=1e-6))
    spad = replace(spad, detection_efficiency=0.0, dark_count_rate_cps=2e10 / spad.gate_width_ps)
    channel = kw.get("channel", ChannelConfig())
    fast, dense = DeviceRngs(31, trial=2), DeviceRngs(31, trial=2)
    dead_fast = dead_dense = 0
    for start in (0, 3_000):
        batch = generate_frames(source, 3_000, fast.bits, start_frame=start)
        assert np.array_equal(batch.bits, generate_frames(source, 3_000, dense.bits, start_frame=start).bits)
        got = spad_detect(batch, spad, channel, fast, dead_until_ps=dead_fast)
        want = dense_spad_detect(batch, spad, channel, dense, dead_until_ps=dead_dense)
        assert len(got.clicks) >= 5
        for name in ("time_ps", "cause", "source_ps"):
            assert np.array_equal(getattr(got.clicks, name), getattr(want.clicks, name)), name
        assert np.array_equal(got.eve.avalanche_ps, want.eve.avalanche_ps)
        assert np.array_equal(got.eve.backflash_ps, want.eve.backflash_ps)
        assert got.eve.reflected_mean_photon == want.eve.reflected_mean_photon
        assert got.dead_until_ps == want.dead_until_ps
        dead_fast, dead_dense = got.dead_until_ps, want.dead_until_ps


# --- the geometric skip ----------------------------------------------------

def test_bernoulli_indices_empty_cases_draw_nothing():
    rng = stream_rng(3)
    assert _bernoulli_indices(0.0, 1000, rng).size == 0
    assert _bernoulli_indices(0.5, 0, rng).size == 0
    assert rng.random() == stream_rng(3).random()

@given(st.floats(min_value=1e-6, max_value=1.0), st.integers(min_value=0, max_value=5000),
       st.integers(min_value=0, max_value=2**32))
def test_bernoulli_indices_increase_within_range(p, n, seed):
    idx = _bernoulli_indices(p, n, stream_rng(seed))
    assert idx.dtype == np.int64
    assert np.all(np.diff(idx) > 0)
    assert idx.size == 0 or (idx[0] >= 0 and idx[-1] < n)
    if p == 1.0:
        assert idx.tolist() == list(range(n))

@st.composite
def skip_walks(draw):
    """A p below 1/3 and an n from 0 to just under 2**62, with p * n small
    enough to draw; p is often tiny, so some gaps run past n."""
    n = draw(st.integers(min_value=0, max_value=5000) | st.integers(min_value=0, max_value=2**62 - 1))
    p_max = min(1 / 3, 20_000 / max(n, 1))
    p = draw(st.floats(min_value=0.0, max_value=p_max, exclude_max=True) | st.sampled_from([1e-300, 5e-324]))
    return p, n

@given(skip_walks(), st.integers(min_value=0, max_value=2**32))
@example((float(np.nextafter(1 / 3, 0)), 4000), 0)
@example((1e-18, 1_050_000_000_000_000_000), 5)
def test_bernoulli_indices_match_numpy_geometric_below_one_third(walk, seed):
    # numpy's geometric inverts one exponential per draw for p < 1/3, so the
    # exponential skip gives the same indices and leaves the stream where
    # rng.geometric leaves it.
    p, n = walk
    got_rng, want_rng = stream_rng(seed), stream_rng(seed)
    got = _bernoulli_indices(p, n, got_rng)
    want = geometric_bernoulli_indices(p, n, want_rng)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()
    assert got_rng.random(8).tolist() == want_rng.random(8).tolist()

def test_bernoulli_indices_at_one_take_every_index_without_a_draw():
    rng = stream_rng(4)
    assert _bernoulli_indices(1.0, 1000, rng).tolist() == list(range(1000))
    assert rng.random(8).tolist() == stream_rng(4).random(8).tolist()

@pytest.mark.parametrize("p", [1 / 3, 0.5, 0.8, 0.99])
def test_bernoulli_gaps_above_one_third_are_geometric(p):
    # numpy's geometric searches a uniform above 1/3, so there the skip and
    # the oracle agree in law only.  Over 3e5 positions each one's gaps are
    # tested against the Geometric(p) law, and the two gap histograms
    # against each other; four tests share a 1e-4 false alarm rate.
    n = 300_000
    gaps = {}
    for name, draw in (("skip", _bernoulli_indices), ("oracle", geometric_bernoulli_indices)):
        idx = draw(p, n, stream_rng(21))
        gaps[name] = np.diff(idx, prepend=-1)
    # Gap values 1..k-1 each, and k or more in one tail bin; each bin
    # expects at least 20 gaps.
    k = 1 + int(math.log(20 / (n * p)) / math.log1p(-p))
    pmf = p * (1 - p) ** np.arange(k - 1)
    pmf = np.r_[pmf, 1 - pmf.sum()]
    pvalues = []
    table = []
    for g in gaps.values():
        counts = np.bincount(np.minimum(g, k) - 1, minlength=k)
        table.append(counts)
        pvalues.append(stats.chisquare(counts, pmf * counts.sum()).pvalue)
    pvalues.append(stats.chi2_contingency(np.array(table)).pvalue)
    pvalues.append(stats.binomtest(int(gaps["skip"].size), n, p).pvalue)
    assert min(pvalues) > 1e-4 / 4, pvalues

@pytest.mark.parametrize("p", [0.05, 0.3, 1 / 3, 0.5, 0.9, 1 - 1e-9])
def test_bernoulli_indices_are_unbiased_per_position(p):
    # Every position of a 12-long row is present with probability p, and
    # the total over a long row is Binomial(n, p); 13 exact tests share a
    # 1e-4 false alarm rate.
    rng = stream_rng(17)
    reps, n = 4000, 12
    hits = np.zeros(n, dtype=np.int64)
    for _ in range(reps):
        hits[_bernoulli_indices(p, n, rng)] += 1
    pvalues = [stats.binomtest(int(h), reps, p).pvalue for h in hits]
    big = 2_000_000
    pvalues.append(stats.binomtest(_bernoulli_indices(p, big, rng).size, big, p).pvalue)
    assert min(pvalues) > 1e-4 / 13, pvalues


def test_hold_off_enforced_across_chunks():
    spad = SpadConfig(hold_off_s=10e-6)
    src = SourceConfig(mean_photon_number=0.5)
    rngs = DeviceRngs(4)
    dead = 0
    all_clicks = []
    for chunk in range(3):
        batch = generate_frames(src, 5000, rngs.bits, start_frame=chunk * 5000)
        res = spad_detect(batch, spad, ChannelConfig(), rngs, dead_until_ps=dead)
        dead = res.dead_until_ps
        all_clicks.append(res.clicks.time_ps)
    t = np.concatenate(all_clicks)
    assert np.all(np.diff(t) >= spad.hold_off_ps)

def test_gate_width_and_phase_bounds():
    # The upper bounds need the frame period; ExperimentConfig checks those.
    with pytest.raises(ConfigError):
        SpadConfig(gate_width_ps=0)
    with pytest.raises(ConfigError):
        SpadConfig(gate_phase_ps=-1)
    SpadConfig(gate_width_ps=1, gate_phase_ps=0)

@pytest.mark.parametrize("config", [SpadConfig, SnspdConfig])
def test_dark_rate_bounds(config):
    # Darks are skips over picoseconds: at most one per picosecond.
    assert config(dark_count_rate_cps=1e12).dark_count_rate_cps == 1e12
    for rate in (-1.0, 1.000001e12, 5e12):
        with pytest.raises(ConfigError, match="dark count rate"):
            config(dark_count_rate_cps=rate)


# --- backflash and reflection leak paths ----------------------------------

def test_backflash_probability_and_causality():
    spad = SpadConfig(hold_off_s=0.0, backflash_probability=0.12)
    _, res = run_spad(n_frames=100_000, spad=spad, seed=5)
    n_clicks = len(res.clicks)
    n_bf = res.eve.avalanche_ps.size
    sigma = math.sqrt(n_clicks * 0.12 * 0.88)
    assert abs(n_bf - 0.12 * n_clicks) < 3 * sigma
    delay = res.eve.backflash_ps - res.eve.avalanche_ps
    assert np.all(delay >= 0)
    assert np.all(delay <= min(5000, spad.gate_width_ps))

def test_backflash_delay_capped_by_narrow_gate():
    spad = SpadConfig(hold_off_s=0.0, gate_width_ps=2000)
    _, res = run_spad(n_frames=50_000, spad=spad, seed=6)
    delay = res.eve.backflash_ps - res.eve.avalanche_ps
    assert delay.size > 100
    assert np.all(delay <= 2000)

def test_backflash_delay_keys_are_honoured():
    # A support shorter than the gate caps the delay; a shorter scale pulls
    # the mean in.
    spad = SpadConfig(hold_off_s=0.0, backflash_delay_max_ps=1000)
    _, res = run_spad(n_frames=50_000, spad=spad, seed=6)
    delay = res.eve.backflash_ps - res.eve.avalanche_ps
    assert delay.size > 100
    assert np.all(delay <= 1000)
    assert delay.max() > 900
    spad = SpadConfig(hold_off_s=0.0, backflash_delay_scale_ps=100.0)
    _, res = run_spad(n_frames=50_000, spad=spad, seed=6)
    delay = res.eve.backflash_ps - res.eve.avalanche_ps
    assert delay.size > 100
    assert 80 < float(delay.mean()) < 120

def test_backflash_cap_is_one_gate_width_after_the_avalanche():
    # The delay cap runs from the avalanche, not from the gate's closing:
    # a click late in the gate can leak after the gate has shut.
    spad = SpadConfig(gate_width_ps=3500, hold_off_s=0.0, backflash_probability=1.0,
                      dark_count_rate_cps=0.0)
    rngs = DeviceRngs(14)
    batch = generate_frames(SourceConfig(mean_photon_number=0.5), 40_000, rngs.bits)
    res = spad_detect(batch, spad, ChannelConfig(), rngs)
    av, em = res.eve.avalanche_ps, res.eve.backflash_ps
    period = batch.source.frame_period_ps
    late = (av % period) >= 3000
    gate_close = av - av % period + spad.gate_width_ps
    assert late.sum() > 100
    assert np.any(em[late] > gate_close[late])
    assert np.all(em - av <= spad.gate_width_ps)
    assert np.all(em >= av)

def test_reflections_return_from_a_binomial_share_of_pulses():
    # Each of the 4e5 pulses sends a photon back with probability 1 - exp(-m).
    batch, res = run_spad(n_frames=200_000, seed=7)
    m = 0.2 * 1.0 * 1e-2
    assert res.eve.reflected_mean_photon == pytest.approx(m)
    p = -math.expm1(-m)
    lo, hi = stats.binom.ppf([0.00135, 0.99865], batch.n_pulses(), p)
    assert lo <= res.eve.reflection_ps.size <= hi
    assert np.all(np.diff(res.eve.reflection_ps) > 0)
    local = res.eve.reflection_ps % 32000
    assert np.all(local < batch.source.signal_window_ps)

def test_reflectance_leaves_receiver_draws_alone():
    # Reflections draw on their own stream: Bob's clicks and backflash are
    # bit-identical with and without a reflecting facet.
    _, with_r = run_spad(n_frames=50_000, seed=8)
    _, without = run_spad(n_frames=50_000, spad=SpadConfig(facet_reflectance=0.0), seed=8)
    assert with_r.eve.reflection_ps.size > 50 and without.eve.reflection_ps.size == 0
    for name in ("time_ps", "cause", "source_ps"):
        assert np.array_equal(getattr(with_r.clicks, name), getattr(without.clicks, name)), name
    assert np.array_equal(with_r.eve.avalanche_ps, without.eve.avalanche_ps)
    assert np.array_equal(with_r.eve.backflash_ps, without.eve.backflash_ps)
    assert with_r.dead_until_ps == without.dead_until_ps

def test_clicked_reflections_reuse_the_click_arrival():
    # A pulse that both clicks and reflects arrives once: with a reflectance
    # of 1 and a near-unit click probability, almost every click source is a
    # reflected pulse, and its reflection time equals the click time.
    spad = SpadConfig(detection_efficiency=1.0, facet_reflectance=1.0, hold_off_s=0.0,
                      dark_count_rate_cps=0.0)
    _, res = run_spad(n_frames=2_000, spad=spad, source=SourceConfig(mean_photon_number=0.99), seed=15)
    both = np.intersect1d(res.clicks.time_ps, res.eve.reflection_ps)
    shared_src = np.intersect1d(res.clicks.source_ps, res.eve.reflection_ps - res.eve.reflection_ps % 1000)
    assert both.size > 1000
    assert both.size == shared_src.size

def test_reflectance_zero_disables_reflections():
    spad = SpadConfig(facet_reflectance=0.0)
    _, res = run_spad(n_frames=1000, spad=spad, seed=8)
    assert res.eve.reflection_ps.size == 0

def test_reflected_power_scales_with_channel():
    ch = ChannelConfig(length_km=50.0)  # 10 dB
    _, res = run_spad(n_frames=100, channel=ch, seed=9)
    assert res.eve.reflected_mean_photon == pytest.approx(0.2 * 0.1 * 1e-2)


# --- presets ---------------------------------------------------------------

def test_bias_presets():
    assert spad_preset("2v").detection_efficiency == 0.07
    assert spad_preset("2v").dark_count_rate_cps == 100.0
    assert spad_preset("5v").detection_efficiency == 0.20
    assert spad_preset("7v").dark_count_rate_cps == 350.0
    with pytest.raises(ConfigError):
        spad_preset("9v")



# --- eavesdropper detector -------------------------------------------------

def test_snspd_thins_backflash():
    spad = SpadConfig(hold_off_s=0.0)
    batch, res = run_spad(n_frames=200_000, spad=spad, seed=10)
    rngs = DeviceRngs(10)
    log = snspd_detect(res.eve, SnspdConfig(dark_count_rate_cps=0.0),
                       [0], len(batch) * batch.source.frame_period_ps, rngs)
    n_emitted = res.eve.backflash_ps.size
    n_detected = int(np.sum(log.cause == Cause.BACKFLASH))
    sigma = math.sqrt(n_emitted * 0.74 * 0.26)
    assert abs(n_detected - 0.74 * n_emitted) < 3 * sigma

def test_snspd_dark_rate():
    from cowqkd.detectors import EveArrivals
    none = np.empty(0, dtype=np.int64)
    arrivals = EveArrivals(none, none, none, 0.0)
    log = snspd_detect(arrivals, SnspdConfig(), [0], 10**12, DeviceRngs(11))  # one second
    lam = 16.4
    assert abs(len(log) - lam) < 3 * math.sqrt(lam) + 1

def test_snspd_log_sorted():
    _, res = run_spad(n_frames=50_000, seed=12)
    log = snspd_detect(res.eve, SnspdConfig(), [0], 50_000 * 32000, DeviceRngs(12))
    assert np.all(np.diff(log.time_ps) >= 0)


# --- detection log ---------------------------------------------------------

def test_log_merge_sorts_and_counts():
    a = DetectionLog("bob", np.array([30, 10], dtype=np.int64)[::-1],
                     np.array([0, 1], dtype=np.int8)[::-1], np.array([30, -1], dtype=np.int64)[::-1])
    b = DetectionLog("bob", np.array([20], dtype=np.int64),
                     np.array([1], dtype=np.int8), np.array([-1], dtype=np.int64))
    m = DetectionLog.merge([a, b])
    assert m.time_ps.tolist() == [10, 20, 30]
    counts = m.counts_by_cause()
    assert counts["photon"] == 1
    assert counts["dark"] == 2

def test_write_detections_csv(tmp_path):
    _, res = run_spad(n_frames=500, seed=13)
    path = tmp_path / "det.csv"
    from cowqkd.detectors import write_detections_csv
    write_detections_csv([res.clicks], path, ["x=1"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# x=1"
    assert lines[1] == "detector,timestamp_ps,cause"
    assert len(lines) == 2 + len(res.clicks)


# --- histograms ------------------------------------------------------------

def test_histogram_moments_match_numpy():
    rng = np.random.default_rng(0)
    samples = rng.integers(0, 6000, size=5000)
    h = Histogram.from_samples(samples, 10, 0, 6000)
    assert h.total() == 5000
    # binning quantizes to centers; allow half a bin of slack
    assert h.mean_ps() == pytest.approx(float(np.mean(samples)), abs=5.0)
    assert h.std_ps() == pytest.approx(float(np.std(samples)), rel=0.01)

def test_histogram_normalized_peak_is_one():
    h = Histogram.from_samples(np.array([5, 5, 15]), 10, 0, 30)
    norm = h.normalized()
    assert norm.max() == 1.0
    assert norm.tolist() == [1.0, 0.5, 0.0]

def test_correlation_histogram_against_brute_force():
    rng = np.random.default_rng(1)
    # Starts at least the 5000 ps range apart, as the study's clicks are.
    starts = np.cumsum(5000 + rng.integers(0, 3000, size=300))
    stops = np.sort(rng.integers(0, int(starts[-1]) + 5000, size=400))
    h = correlation_histogram(starts, stops, bin_width_ps=50, range_ps=(0, 5000))
    brute = np.zeros(100, dtype=int)
    for s in starts:
        for p in stops:
            d = p - s
            if 0 <= d < 5000:
                brute[d // 50] += 1
    assert h.total() > 100
    assert h.counts.tolist() == brute.tolist()
    # 300 starts over 1e6 ps lie closer than the range.
    close = np.sort(rng.integers(0, 10**6, size=300))
    with pytest.raises(ValueError, match="apart"):
        correlation_histogram(close, stops, bin_width_ps=50, range_ps=(0, 5000))

def test_correlation_histogram_negative_range():
    starts = np.array([100])
    stops = np.array([40, 120])
    h = correlation_histogram(starts, stops, bin_width_ps=20, range_ps=(-100, 100))
    assert h.total() == 2
    assert h.counts[(40 - 100 - -100) // 20] == 1
    assert h.counts[(120 - 100 - -100) // 20] == 1

@pytest.mark.parametrize("bin_width,range_ps", [(10, (60, 0)), (10, (60, 60)), (0, (0, 100))])
def test_correlation_histogram_rejects_empty_bins(bin_width, range_ps):
    # The same ConfigError the histogram gives, before any array work.
    with pytest.raises(ConfigError, match="non-empty range"):
        correlation_histogram([0, 100], [50], bin_width, range_ps)

def brute_force_correlation(starts, stops, bin_width_ps, lo, hi):
    counts = np.zeros(-(-(hi - lo) // bin_width_ps), dtype=np.int64)
    for s in starts:
        for p in stops:
            if lo <= p - s < hi:
                counts[(p - s - lo) // bin_width_ps] += 1
    return counts.tolist()

DENSE = list(range(0, 3000, 7))
SPARSE = [40, 1500, 2990]


def spaced(starts, width):
    """Whether ``starts`` are in order and at least ``width`` apart."""
    return all(b - a >= width for a, b in zip(starts, starts[1:]))


@given(
    starts=st.lists(st.integers(min_value=0, max_value=3000), max_size=40),
    stops=st.lists(st.integers(min_value=0, max_value=3000), max_size=40),
    lo=st.integers(min_value=-600, max_value=600),
    width=st.integers(min_value=1, max_value=900),
    bin_width=st.integers(min_value=1, max_value=70),
)
@example(starts=DENSE, stops=SPARSE[::-1], lo=-3, width=7, bin_width=2)
@example(starts=SPARSE, stops=DENSE, lo=-40, width=300, bin_width=10)
@example(starts=[5, 5, 3], stops=[5, 3, 5, 8], lo=0, width=6, bin_width=2)
@example(starts=[], stops=[1, 2], lo=0, width=10, bin_width=1)
@example(starts=[1, 2], stops=[], lo=-5, width=10, bin_width=1)
def test_correlation_histogram_matches_brute_force_property(starts, stops, lo, width, bin_width):
    # Stops in any order, tied times, negative lo, empty sides and lopsided
    # sizes; starts out of order or closer than the range raise.
    a = np.array(starts, dtype=np.int64)
    b = np.array(stops, dtype=np.int64)
    if not spaced(starts, width):
        with pytest.raises(ValueError, match="apart"):
            correlation_histogram(a, b, bin_width_ps=bin_width, range_ps=(lo, lo + width))
        return
    h = correlation_histogram(a, b, bin_width_ps=bin_width, range_ps=(lo, lo + width))
    assert h.start_ps == lo
    assert h.counts.tolist() == brute_force_correlation(starts, stops, bin_width, lo, lo + width)
    assert a.tolist() == starts and b.tolist() == stops

@st.composite
def spaced_starts(draw):
    """(starts, stops, lo, width, bin_width): starts whose least spacing is
    the range width plus a small offset (below, at or above the width) or
    any spacing at all, with ties, in any order, either side possibly
    empty, and stops near and between the starts."""
    lo = draw(st.integers(min_value=-600, max_value=600))
    width = draw(st.integers(min_value=1, max_value=900))
    least = max(0, width + draw(st.integers(min_value=-3, max_value=3) | st.integers(min_value=-900, max_value=900)))
    extra = draw(st.lists(st.integers(min_value=0, max_value=2 * width), max_size=30))
    gaps = [least] + [least + e for e in extra]
    first = draw(st.integers(min_value=-3000, max_value=3000))
    starts = draw(st.permutations((first + np.cumsum([0] + gaps)).tolist())) if draw(st.booleans()) else []
    near = st.sampled_from(starts) if starts else st.just(first)
    offset = st.integers(min_value=-2 * width - abs(lo), max_value=2 * width + abs(lo))
    stops = draw(st.lists(st.builds(int.__add__, near, offset), max_size=40))
    bin_width = draw(st.integers(min_value=1, max_value=70))
    return starts, stops, lo, width, bin_width


@given(case=spaced_starts())
@example(case=([0, 100, 200], [0, 50, 100, 150, 250, 300], 0, 100, 10))
@example(case=([0, 99, 198], [99, 100, 150, 198, 250], 0, 100, 10))
@example(case=([300, 0, 100, 200], [350, 120, 5, 150], -50, 100, 7))
@example(case=([5, 5, 105], [5, 6, 104, 105], 0, 100, 1))
@example(case=([7], [7, 8, 106, 107, -5], 0, 100, 10))
def test_correlation_histogram_matches_start_search_oracle(case):
    # Starts in order and at least the range width apart must count every
    # pair; starts out of order or closer raise.
    starts, stops, lo, width, bin_width = case
    a = np.array(starts, dtype=np.int64)
    b = np.array(stops, dtype=np.int64)
    if not spaced(starts, width):
        with pytest.raises(ValueError, match="apart"):
            correlation_histogram(a, b, bin_width_ps=bin_width, range_ps=(lo, lo + width))
        return
    h = correlation_histogram(a, b, bin_width_ps=bin_width, range_ps=(lo, lo + width))
    want = start_search_correlation_histogram(starts, stops, bin_width, (lo, lo + width))
    assert (h.start_ps, h.bin_width_ps) == (want.start_ps, want.bin_width_ps)
    assert h.counts.tolist() == want.counts.tolist()
    assert a.tolist() == starts and b.tolist() == stops

def test_histogram_edges_end_at_its_stop():
    # 25 ps in 10 ps bins: the last bin is [20, 25), cut at the stop.
    h = Histogram.from_samples(np.array([0, 19, 20, 24, 25]), 10, 0, 25)
    assert h.edges_ps.tolist() == [0, 10, 20, 25]
    assert h.counts.tolist() == [1, 1, 2]


def test_histogram_write_csv(tmp_path):
    h = Histogram.from_samples(np.array([5, 25]), 10, 0, 30)
    p = tmp_path / "h.csv"
    h.write_csv(p)
    rows = p.read_text().splitlines()
    assert rows[0] == "bin_start_ps,count,normalized"
    assert rows[1].split(",")[:2] == ["0", "1"]
