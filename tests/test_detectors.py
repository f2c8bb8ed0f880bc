import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from cowqkd import detectors, source
from cowqkd.detectors import (
    DARK_BLOCK,
    Cause,
    DetectionLog,
    Histogram,
    SnspdConfig,
    SpadConfig,
    SpadResult,
    _bernoulli_indices,
    _compress,
    _dark_times,
    _dead_time_filter,
    _gate_holds_window,
    _pulse_hits,
    snspd_detect,
    spad_detect,
    spad_preset,
)
from cowqkd.experiment import CHUNK_FRAMES, ExperimentConfig, _dark_clicks, _width_config, preset_config
from cowqkd.source import DECOY, ChannelConfig, SourceConfig, channel_transmittance, generate_frames
from cowqkd.timebase import ConfigError, DeviceRngs
from oracles import (
    dense_spad_detect,
    geometric_bernoulli_indices,
    poisson_dark_times,
    sequential_dead_time,
    sorted_pulse_times,
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

N_SEAM = 2 * DARK_BLOCK + 10


@pytest.mark.parametrize("at", [DARK_BLOCK - 1, DARK_BLOCK, DARK_BLOCK + 1, N_SEAM - 1])
def test_dead_time_filter_at_a_block_seam(at):
    # Candidates a hold-off apart but for one close pair, (at - 1, at), next
    # to where the spacings' blocks meet or at the end.
    t = np.arange(N_SEAM, dtype=np.int64) * 100
    t[at:] -= 1
    keep, dead_after = _dead_time_filter(t, 100, 50)
    expect_keep, expect_dead = sequential_dead_time(t, 100, 50)
    assert np.count_nonzero(~keep) == 2  # the first candidate, then t[at]
    assert np.array_equal(keep, expect_keep)
    assert dead_after == expect_dead


REACH = detectors._WALK_REACH


def _groups(sizes, hold=1000, step=10):
    """One run of close candidates: group i holds ``sizes[i]`` candidates
    ``step`` apart from ``i * hold`` on, so the walk keeps a group's first
    candidate and finds the next one exactly ``sizes[i]`` candidates on."""
    return np.concatenate([i * hold + step * np.arange(g) for i, g in enumerate(sizes)]).astype(np.int64)


@pytest.mark.parametrize("sizes", [
    [REACH - 1] * 3 + [1],
    [REACH] * 3 + [REACH - 1],
    [REACH + 1] * 3 + [5],
    [REACH + 1, REACH, REACH - 1, REACH, REACH + 1, 2],
], ids=["reach-less-one", "at-reach", "reach-plus-one", "mixed"])
@pytest.mark.parametrize("dead", ["before", "inside"])
def test_dead_time_filter_walks_to_its_reach(sizes, dead):
    # The next kept click lies REACH - 1, REACH or REACH + 1 candidates on,
    # so the walk's first search finds it, or ends at its bound and the
    # second finds it there or one further.  The run ends fewer than
    # REACH candidates after a kept click, where one search reaches its end.
    # The run is entered from its first candidate, or from a dead_until_ps
    # that falls inside it.
    t = _groups(sizes)
    assert np.all(np.diff(t) < 1000)  # one run
    dead_until = -5 if dead == "before" else int(t[2]) + 1
    keep, dead_after = _dead_time_filter(t, 1000, dead_until)
    expect_keep, expect_dead = sequential_dead_time(t, 1000, dead_until)
    assert np.count_nonzero(expect_keep) >= len(sizes) - 1
    assert np.array_equal(keep, expect_keep)
    assert dead_after == expect_dead


def _kept(drop=(), add=(), base=None):
    """A keep mask over N_SEAM values: ``base`` (all kept) less ``drop``
    plus ``add``."""
    keep = np.ones(N_SEAM, dtype=bool) if base is None else base.copy()
    keep[list(drop)] = False
    keep[list(add)] = True
    return keep


EVEN = np.arange(N_SEAM) % 2 == 0


@pytest.mark.parametrize("keep", [
    _kept(),
    ~_kept(),
    EVEN,  # exactly half
    _kept(add=[1], base=EVEN),
    _kept(drop=[0], base=EVEN),
    _kept(drop=[DARK_BLOCK - 1, DARK_BLOCK]),
    _kept(drop=[0, DARK_BLOCK - 2, DARK_BLOCK + 1, 2 * DARK_BLOCK, N_SEAM - 1]),
], ids=["all", "none", "half", "half-and-one", "half-less-one", "seam-pair", "seam-sides"])
def test_compress_is_the_kept_values(keep):
    # The kept values move to the front of t in place, a block at a time,
    # when at least half is kept, and a view of them returns; a smaller share
    # is gathered anew, so it pins none of t.
    t = np.arange(N_SEAM, dtype=np.int64) * 7 + 3
    want = t[keep]
    got = _compress(t, keep)
    assert got.tolist() == want.tolist()
    assert np.shares_memory(got, t) == (2 * int(keep.sum()) >= t.size)
    # A broadcast column, one read-only value repeated, gives its first n
    # values as a broadcast too, whatever share is kept.
    col = np.broadcast_to(np.int8(Cause.DARK), keep.shape)
    got = _compress(col, keep)
    assert got.tolist() == col[keep].tolist()
    assert got.strides == (0,) and not got.flags.writeable


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
            (clicks, _), = _dark_clicks(ran, 1, DeviceRngs(5, trial=trial))  # one block
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
            batch = generate_frames(source, start + 3_000, rngs.bits).span(start, 3_000)
            res = sampler(batch, spad, channel, rngs, dead_until_ps=dead)
            dead = res.dead_until_ps
            c = res.clicks
            out["photon"] += int(np.sum(c.cause == Cause.PHOTON))
            out["dark"] += int(np.sum(c.cause == Cause.DARK))
            out["backflash"] += res.backflash_ps.size
            photon_t = c.time_ps[c.cause == Cause.PHOTON]
            out["offsets"].append((photon_t - spad.gate_phase_ps) % source.frame_period_ps)
            times.append(c.time_ps)
            period = source.frame_period_ps
            eve = snspd_detect(res, snspd, [start * period], len(batch) * period, rngs)
            out["eve_reflection"] += int(np.sum(eve.cause == Cause.REFLECTION))
            out["pulses"] += sorted_pulse_times(batch).size
        out["gaps"].append(np.diff(np.concatenate(times)))
    out["offsets"] = np.concatenate(out["offsets"])
    out["gaps"] = np.concatenate(out["gaps"])
    out["m_eve"] = res.reflected_mean_photon * snspd.detection_efficiency
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
        batch = generate_frames(source, start + 3_000, fast.bits).span(start, 3_000)
        assert np.array_equal(batch.bits, generate_frames(source, start + 3_000, dense.bits).span(start, 3_000).bits)
        got = spad_detect(batch, spad, channel, fast, dead_until_ps=dead_fast)
        want = dense_spad_detect(batch, spad, channel, dense, dead_until_ps=dead_dense)
        assert len(got.clicks) >= 5
        for name in ("time_ps", "cause", "source_ps"):
            assert np.array_equal(getattr(got.clicks, name), getattr(want.clicks, name)), name
        assert np.array_equal(got.avalanche_ps, want.avalanche_ps)
        assert np.array_equal(got.backflash_ps, want.backflash_ps)
        assert got.reflected_mean_photon == want.reflected_mean_photon
        assert got.dead_until_ps == want.dead_until_ps
        dead_fast, dead_dense = got.dead_until_ps, want.dead_until_ps

@pytest.mark.parametrize("hold_off_s", [0.0, 1e-7])
def test_click_provenance_with_darks_among_photons(hold_off_s):
    # A cut gate at 1e8 darks/s puts darks between the photons of every
    # few frames.  A photon click lies in the occupied part of a bin that
    # one of the batch's pulses starts; the receiver's provenance is -1.
    spad = SpadConfig(gate_width_ps=2000, gate_phase_ps=1500, dark_count_rate_cps=1e8, hold_off_s=hold_off_s)
    source = SourceConfig(bits_per_frame=3, encoding="rz")
    batch, res = run_spad(n_frames=20_000, seed=4, source=source, spad=spad)
    log = res.clicks
    dark = log.cause == Cause.DARK
    assert 100 < np.count_nonzero(dark) < log.time_ps.size - 100
    assert np.all(log.source_ps == -1)
    t = log.time_ps[~dark]
    start = _bin_start(t, source)
    assert np.all(np.isin(start, sorted_pulse_times(batch)))
    assert np.all(t - start < source.occupied_width_ps)


def _bin_start(t, source):
    """Start of the frame's bin that each time lies in."""
    return t - t % source.frame_period_ps % source.bin_width_ps


CAUSE_LAYOUTS = {
    "paper": dict(),
    "cut-gate": dict(spad=dict(gate_width_ps=2000, gate_phase_ps=1500),
                     source=dict(bits_per_frame=3, encoding="rz")),
    "wrapped-gate": dict(spad=dict(gate_phase_ps=30000, gate_width_ps=6000)),
}


@pytest.mark.parametrize("layout", sorted(CAUSE_LAYOUTS))
def test_merge_names_each_click_cause(layout):
    # With no hold-off every candidate is a click.  Darks draw on their own
    # stream, so the photon clicks are the clicks of the same batch without
    # darks, and the dark clicks are the darks that stream draws.
    cfg = preset_config("paper")
    kw = CAUSE_LAYOUTS[layout]
    source = replace(cfg.source, **kw.get("source", {}))
    spad = replace(cfg.spad, hold_off_s=0.0, dark_count_rate_cps=1e8, **kw.get("spad", {}))
    batch = generate_frames(source, 20_000, DeviceRngs(6).bits).span(5_000, 15_000)
    log = spad_detect(batch, spad, cfg.channel, DeviceRngs(6)).clicks
    lit = spad_detect(batch, replace(spad, dark_count_rate_cps=0.0), cfg.channel, DeviceRngs(6)).clicks
    darks = _dark_times(spad, source.frame_period_ps, DeviceRngs(6), batch.start_frame, len(batch))
    assert np.all(lit.cause == Cause.PHOTON) and lit.time_ps.size > 400 and darks.size > 1000
    assert np.array_equal(np.lexsort((log.cause, log.time_ps)), np.arange(len(log)))
    assert np.array_equal(log.time_ps[log.cause == Cause.PHOTON], lit.time_ps)
    assert np.array_equal(log.time_ps[log.cause == Cause.DARK], darks)


def test_paper_chunk_clicks_pin_no_candidate_buffer():
    # A `paper` chunk keeps a few thousand of its tens of thousands of
    # candidates, so they are gathered anew: a view of the candidates would
    # hold every chunk's candidate buffer until the chunks are merged.
    cfg = preset_config("paper")
    rngs = DeviceRngs(cfg.seed)
    batch = generate_frames(cfg.source, CHUNK_FRAMES, rngs.bits)
    t = spad_detect(batch, cfg.spad, cfg.channel, rngs).clicks.time_ps
    assert t.size > 1000
    assert t.base is None or t.base.nbytes <= 2 * t.nbytes


# The bound, fixed before the first run: six candidate-sized int64 arrays.
# The candidates' lattice positions, their pulse times and their offsets, held
# until the reflections are drawn, are three; the scratch of pulse_times and
# of the gate test, the merged times and one DARK_BLOCK of spacings or skip
# gaps stay below three more.  A candidate stage that built each temporary
# anew peaked at 9.7.
PEAK_CANDIDATE_ARRAYS = 6.0


def test_paper_chunk_peaks_below_six_candidate_arrays():
    cfg = preset_config("paper")
    batch = generate_frames(cfg.source, CHUNK_FRAMES, DeviceRngs(cfg.seed).bits)
    mu = cfg.source.mean_photon_number * channel_transmittance(cfg.channel) * cfg.spad.detection_efficiency
    candidates = _pulse_hits(batch, -math.expm1(-mu), DeviceRngs(cfg.seed).spad).size
    # The first run imports what numpy loads lazily; it is no part of the peak.
    spad_detect(batch, cfg.spad, cfg.channel, DeviceRngs(cfg.seed))
    rngs = DeviceRngs(cfg.seed)
    tracemalloc.start()
    try:
        clicks = spad_detect(batch, cfg.spad, cfg.channel, rngs).clicks
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert candidates > 70_000 and len(clicks) > 1000
    assert peak / (8 * candidates) < PEAK_CANDIDATE_ARRAYS


# --- pulses by lattice position --------------------------------------------

def test_pulse_hits_put_first_pulses_by_value_and_second_pulses_on_decoys():
    # One walk over the slots puts each hit slot's first pulse in sub-bin
    # values(s) & 1; a second walk on the same stream keeps its decoy slots
    # and puts their second pulse in sub-bin 1.
    cfg = SourceConfig(pattern="random", decoy_probability=0.2, bits_per_frame=3)
    start, n_frames, p = 777, 20_000, 0.3
    batch = generate_frames(cfg, start + n_frames, stream_rng(5)).span(start, n_frames)
    rng = stream_rng(6)
    lattice = _pulse_hits(batch, p, rng)
    by_hand = stream_rng(6)
    first = start * 3 + _bernoulli_indices(p, n_frames * 3, by_hand)
    second = start * 3 + _bernoulli_indices(p, n_frames * 3, by_hand)
    on_decoy = batch.values(second) == DECOY
    assert 0 < on_decoy.sum() < second.size
    want = np.sort(np.concatenate([2 * first + (batch.values(first) & 1), 2 * second[on_decoy] + 1]))
    assert lattice.tolist() == want.tolist()
    assert rng.random() == by_hand.random()
    # So every position is a pulse that the slot's value emits: sub-bin 0
    # holds bit 0 or a decoy, sub-bin 1 bit 1 or a decoy's second pulse.
    value, sub = batch.values(lattice // 2), lattice & 1
    assert np.all(np.diff(lattice) > 0)
    assert np.all(np.where(sub == 1, value != 0, value != 1))
    assert np.any((sub == 1) & (value == DECOY)) and np.any((sub == 0) & (value == DECOY))


def test_decoys_hash_only_the_walks_hits(monkeypatch):
    # The receiver hashes a slot only where a skip walk lands: at most a bit
    # and a decoy hash per hit, where listing the decoys hashed every slot.
    # With darks and backflash off, every skip walk of the detection is a
    # pulse walk.
    cfg = SourceConfig(pattern="random", decoy_probability=0.2)
    spad = SpadConfig(dark_count_rate_cps=0.0, backflash_probability=0.0)
    rngs = DeviceRngs(12)
    batch = generate_frames(cfg, 200_000, rngs.bits)
    hashed, hits = [], []
    splitmix64, walk = source._splitmix64, detectors._bernoulli_indices

    def spy_hash(slot, key):
        hashed.append(np.size(slot))
        return splitmix64(slot, key)

    def spy_walk(*args):
        out = walk(*args)
        hits.append(out.size)
        return out

    monkeypatch.setattr(source, "_splitmix64", spy_hash)
    monkeypatch.setattr(detectors, "_bernoulli_indices", spy_walk)
    res = spad_detect(batch, spad, ChannelConfig(), rngs)
    assert len(res.clicks) > 100 and res.reflection_ps.size > 100 and sum(hits) > 10_000
    assert sum(hashed) <= 2 * sum(hits), (sum(hashed), sum(hits), 2 * len(batch))


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
# A pass of 1/4 over these n draws 65,535, 65,536 and 65,537 gaps (2**16 is
# DARK_BLOCK), filled in one, one and two blocks.
@example((0.25, 258_013), 1)
@example((0.25, 258_017), 2)
@example((0.25, 258_021), 3)
# About 200,000 indices: one pass of 201,804 gaps, four blocks.
@example((0.2, 1_000_000), 4)
# At this seed the first pass's 71,074 gaps, two blocks, end short of n,
# so a second pass draws the rest.
@example((1e-9, 70_000_000_000_000), 33_817)
def test_bernoulli_indices_match_numpy_geometric_below_one_third(walk, seed):
    # numpy's geometric inverts one exponential per draw for p < 1/3, so the
    # exponential skip gives the same indices and leaves the stream where
    # rng.geometric leaves it, however a pass is split into blocks.
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
        batch = generate_frames(src, (chunk + 1) * 5000, rngs.bits).span(chunk * 5000, 5000)
        res = spad_detect(batch, spad, ChannelConfig(), rngs, dead_until_ps=dead)
        dead = res.dead_until_ps
        all_clicks.append(res.clicks.time_ps)
    t = np.concatenate(all_clicks)
    assert np.all(np.diff(t) >= spad.hold_off_ps)

def test_gate_holds_window_exactly_when_every_window_offset_is_in_the_gate():
    # Over every small layout with the phase below the period and the width
    # at most it, the predicate holds exactly when every offset of the signal
    # window lies in the gate: where it holds, skipping the gate test drops
    # nothing, and where it fails, some offset lies outside the gate.
    for k, bin_ps in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)):
        for period in range(2 * k * bin_ps, 2 * k * bin_ps + 6):
            src = SourceConfig(bin_width_ps=bin_ps, frame_period_ps=period, bits_per_frame=k)
            for phase in range(period):
                for width in range(1, period + 1):
                    spad = SpadConfig(gate_phase_ps=phase, gate_width_ps=width)
                    inside = all((o - phase) % period < width for o in range(src.signal_window_ps))
                    assert _gate_holds_window(spad, src) == inside, (src, spad)


@st.composite
def window_holding_layouts(draw):
    """A source and a receiver whose gate holds the signal window: it opens
    at the frame start, lasts the whole period, or runs past the frame end
    by at least the window."""
    k = draw(st.integers(min_value=1, max_value=4))
    bin_ps = draw(st.sampled_from([1, 7, 250]))
    window = 2 * k * bin_ps
    kind = draw(st.sampled_from(["frame-start", "whole-period", "past-frame-end"]))
    period = window + draw(st.integers(min_value=int(kind == "past-frame-end"), max_value=3 * window))
    if kind == "frame-start":
        phase, width = 0, draw(st.integers(min_value=window, max_value=period))
    elif kind == "whole-period":
        phase, width = draw(st.integers(min_value=0, max_value=period - 1)), period
    else:
        tail = draw(st.integers(min_value=window, max_value=period - 1))
        width = draw(st.integers(min_value=tail + 1, max_value=period))
        phase = period + tail - width
    src = SourceConfig(
        mean_photon_number=0.5, bin_width_ps=bin_ps, frame_period_ps=period, bits_per_frame=k,
        encoding=draw(st.sampled_from(["nrz", "rz"])), pattern=draw(st.sampled_from(["alternating", "random"])),
        decoy_probability=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )
    spad = SpadConfig(
        gate_phase_ps=phase, gate_width_ps=width,
        dark_count_rate_cps=draw(st.sampled_from([0.0, 0.05, 0.5])) * 1e12 / width,
        hold_off_s=draw(st.sampled_from([0, 1, 3])) * period / 1e12,
    )
    return src, spad


def _result_fields(res):
    """Every field of a SpadResult, its click log's fields in place of the log."""
    out = {f.name: getattr(res, f.name) for f in fields(SpadResult) if f.name != "clicks"}
    out.update({f"clicks.{f.name}": getattr(res.clicks, f.name) for f in fields(DetectionLog)})
    return out


@settings(max_examples=60, deadline=None)
@given(window_holding_layouts(), st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=50))
def test_gate_skip_is_exact(layout, seed, dead_frames):
    # Skipping the gate test on a layout whose gate holds the window leaves
    # every field of the result as the test would have left it.
    src, spad = layout
    assert _gate_holds_window(spad, src)
    start = 40
    batch = generate_frames(src, start + 600, DeviceRngs(seed).bits).span(start, 600)
    dead_until = (start + dead_frames) * src.frame_period_ps

    def detect():
        return spad_detect(batch, spad, ChannelConfig(), DeviceRngs(seed), dead_until_ps=dead_until)

    skipped = detect()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detectors, "_gate_holds_window", lambda *a: False)
        tested = detect()
    assert len(tested.clicks) > 0
    got, want = _result_fields(skipped), _result_fields(tested)
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[name].dtype == value.dtype and np.array_equal(got[name], value), name
        else:
            assert got[name] == value, name


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
    n_bf = res.avalanche_ps.size
    sigma = math.sqrt(n_clicks * 0.12 * 0.88)
    assert abs(n_bf - 0.12 * n_clicks) < 3 * sigma
    delay = res.backflash_ps - res.avalanche_ps
    assert np.all(delay >= 0)
    assert np.all(delay <= min(5000, spad.gate_width_ps))

def test_backflash_delay_capped_by_narrow_gate():
    spad = SpadConfig(hold_off_s=0.0, gate_width_ps=2000)
    _, res = run_spad(n_frames=50_000, spad=spad, seed=6)
    delay = res.backflash_ps - res.avalanche_ps
    assert delay.size > 100
    assert np.all(delay <= 2000)

def test_backflash_delay_keys_are_honoured():
    # A support shorter than the gate caps the delay; a shorter scale pulls
    # the mean in.
    spad = SpadConfig(hold_off_s=0.0, backflash_delay_max_ps=1000)
    _, res = run_spad(n_frames=50_000, spad=spad, seed=6)
    delay = res.backflash_ps - res.avalanche_ps
    assert delay.size > 100
    assert np.all(delay <= 1000)
    assert delay.max() > 900
    spad = SpadConfig(hold_off_s=0.0, backflash_delay_scale_ps=100.0)
    _, res = run_spad(n_frames=50_000, spad=spad, seed=6)
    delay = res.backflash_ps - res.avalanche_ps
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
    av, em = res.avalanche_ps, res.backflash_ps
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
    assert res.reflected_mean_photon == pytest.approx(m)
    p = -math.expm1(-m)
    lo, hi = stats.binom.ppf([0.00135, 0.99865], sorted_pulse_times(batch).size, p)
    assert lo <= res.reflection_ps.size <= hi
    assert np.all(np.diff(res.reflection_ps) > 0)
    local = res.reflection_ps % 32000
    assert np.all(local < batch.source.signal_window_ps)

def test_reflectance_leaves_receiver_draws_alone():
    # Reflections draw on their own stream: Bob's clicks and backflash are
    # bit-identical with and without a reflecting facet.
    _, with_r = run_spad(n_frames=50_000, seed=8)
    _, without = run_spad(n_frames=50_000, spad=SpadConfig(facet_reflectance=0.0), seed=8)
    assert with_r.reflection_ps.size > 50 and without.reflection_ps.size == 0
    for name in ("time_ps", "cause", "source_ps"):
        assert np.array_equal(getattr(with_r.clicks, name), getattr(without.clicks, name)), name
    assert np.array_equal(with_r.avalanche_ps, without.avalanche_ps)
    assert np.array_equal(with_r.backflash_ps, without.backflash_ps)
    assert with_r.dead_until_ps == without.dead_until_ps

def test_clicked_reflections_reuse_the_click_arrival():
    # A pulse that both clicks and reflects arrives once: with a reflectance
    # of 1 and a near-unit click probability, almost every photon click's
    # bin holds a reflection, and its reflection time equals the click time.
    spad = SpadConfig(detection_efficiency=1.0, facet_reflectance=1.0, hold_off_s=0.0,
                      dark_count_rate_cps=0.0)
    source = SourceConfig(mean_photon_number=0.99)
    _, res = run_spad(n_frames=2_000, spad=spad, source=source, seed=15)
    photon_t = res.clicks.time_ps[res.clicks.cause == Cause.PHOTON]
    both = np.intersect1d(photon_t, res.reflection_ps)
    shared_bin = np.intersect1d(_bin_start(photon_t, source), _bin_start(res.reflection_ps, source))
    assert both.size > 1000
    assert both.size == shared_bin.size

def test_reflectance_zero_disables_reflections():
    spad = SpadConfig(facet_reflectance=0.0)
    _, res = run_spad(n_frames=1000, spad=spad, seed=8)
    assert res.reflection_ps.size == 0

def test_reflected_power_scales_with_channel():
    ch = ChannelConfig(length_km=50.0)  # 10 dB
    _, res = run_spad(n_frames=100, channel=ch, seed=9)
    assert res.reflected_mean_photon == pytest.approx(0.2 * 0.1 * 1e-2)


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
    log = snspd_detect(res, SnspdConfig(dark_count_rate_cps=0.0),
                       [0], len(batch) * batch.source.frame_period_ps, rngs)
    n_emitted = res.backflash_ps.size
    n_detected = int(np.sum(log.cause == Cause.BACKFLASH))
    sigma = math.sqrt(n_emitted * 0.74 * 0.26)
    assert abs(n_detected - 0.74 * n_emitted) < 3 * sigma

def test_snspd_dark_rate():
    none = np.empty(0, dtype=np.int64)
    arrivals = SpadResult(DetectionLog.empty("bob"), 0, none, none, none, 0.0)
    log = snspd_detect(arrivals, SnspdConfig(), [0], 10**12, DeviceRngs(11))  # one second
    lam = 16.4
    assert abs(len(log) - lam) < 3 * math.sqrt(lam) + 1

@pytest.mark.parametrize("fault", ["swapped", "close"])
@pytest.mark.parametrize("at", [DARK_BLOCK, DARK_BLOCK + 1, N_SEAM - 1])
def test_snspd_detect_checks_the_window_starts_across_block_seams(fault, at):
    # Windows of 100 ps that touch, but for one pair of starts (at - 1, at),
    # out of order or 1 ps too close, on either side of where the checked
    # blocks meet or at the end.
    none = np.empty(0, dtype=np.int64)
    arrivals = SpadResult(DetectionLog.empty("bob"), 0, none, none, none, 0.0)
    starts = np.arange(N_SEAM, dtype=np.int64) * 100
    snspd_detect(arrivals, SnspdConfig(), starts, 100, DeviceRngs(0))
    if fault == "swapped":
        starts[[at - 1, at]] = starts[[at, at - 1]]
    else:
        starts[at:] -= 1
    with pytest.raises(ValueError, match="apart"):
        snspd_detect(arrivals, SnspdConfig(), starts, 100, DeviceRngs(0))

def spaced(starts, width):
    """Whether ``starts`` are in order and at least ``width`` apart."""
    return all(b - a >= width for a, b in zip(starts, starts[1:]))


@st.composite
def window_starts(draw):
    """(starts, window_ps): starts whose least spacing is the window plus a
    small offset (below, at or above it) or any spacing at all, with ties,
    in order or permuted, possibly empty."""
    width = draw(st.integers(min_value=1, max_value=900))
    least = max(0, width + draw(st.integers(min_value=-3, max_value=3) | st.integers(min_value=-900, max_value=900)))
    extra = draw(st.lists(st.integers(min_value=0, max_value=2 * width), max_size=30))
    first = draw(st.integers(min_value=0, max_value=3000))
    starts = (first + np.cumsum([0, least] + [least + e for e in extra])).tolist()
    if draw(st.booleans()):
        starts = draw(st.permutations(starts))
    return (starts if draw(st.booleans()) else []), width


def window_dark_log(starts, width, seed=0):
    """The eavesdropper's log over windows of ``width`` ps at ``starts``, no
    light arriving, about one dark per 200 ps."""
    none = np.empty(0, dtype=np.int64)
    dark_only = SpadResult(DetectionLog.empty("bob"), 0, none, none, none, 0.0)
    return snspd_detect(dark_only, SnspdConfig(dark_count_rate_cps=5e9), np.array(starts, dtype=np.int64),
                        width, DeviceRngs(seed))


@given(case=window_starts())
@example(case=([0, 100, 200], 100))
@example(case=([0, 99, 198], 100))
@example(case=([5, 5, 105], 100))
@example(case=([100, 0], 100))
@example(case=([], 10))
def test_snspd_detect_names_each_dark_its_window_start(case):
    # Starts in order and at least the window apart give each dark the
    # latest start at or before it as its source, less than a window back;
    # starts out of order or closer raise.
    starts, width = case
    if not spaced(starts, width):
        with pytest.raises(ValueError, match="apart"):
            window_dark_log(starts, width)
        return
    log = window_dark_log(starts, width)
    assert np.all(log.cause == Cause.DARK)
    owner = np.searchsorted(np.array(starts, dtype=np.int64), log.time_ps, side="right") - 1
    assert np.all(owner >= 0)
    assert log.source_ps.tolist() == np.array(starts, dtype=np.int64)[owner].tolist()
    assert np.all(log.time_ps - log.source_ps < width)


@given(case=window_starts(), bin_width=st.integers(min_value=1, max_value=70), seed=st.integers(0, 3))
@example(case=([0, 100, 200], 100), bin_width=10, seed=0)
@example(case=([7, 1000], 900), bin_width=7, seed=1)
def test_snspd_darks_binned_by_source_match_the_start_search(case, bin_width, seed):
    # The study bins each dark at its delay from its source; over windows
    # at least the range apart that is the histogram the search of every
    # start into the stops gives.
    starts, width = case
    if not spaced(starts, width):
        return
    log = window_dark_log(starts, width, seed)
    h = Histogram.from_samples(log.time_ps - log.source_ps, bin_width, 0, width)
    want = start_search_correlation_histogram(starts, log.time_ps, bin_width, (0, width))
    assert h.total() == len(log)
    assert h.counts.tolist() == want.counts.tolist()


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

def test_log_merge_keeps_a_broadcast_provenance():
    def part(times, value):
        t = np.array(times, dtype=np.int64)
        return DetectionLog("bob", t, np.full(t.size, Cause.DARK, dtype=np.int8), np.broadcast_to(np.int64(value), t.shape))

    m = DetectionLog.merge([part([30, 40], -1), part([], -1), part([10], -1)])
    assert m.time_ps.tolist() == [10, 30, 40]
    assert m.source_ps.strides == (0,) and not m.source_ps.flags.writeable and m.source_ps.tolist() == [-1] * 3
    # Broadcasts of two values are no one broadcast: they are gathered.
    m = DetectionLog.merge([part([30, 40], -1), part([10], 5)])
    assert m.source_ps.tolist() == [5, -1, -1] and m.source_ps.flags.writeable


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

@pytest.mark.parametrize("bin_width,range_ps", [(10, (60, 0)), (10, (60, 60)), (0, (0, 100))])
def test_histogram_rejects_empty_bins(bin_width, range_ps):
    with pytest.raises(ConfigError, match="non-empty range"):
        Histogram.from_samples([50], bin_width, *range_ps)

def test_histogram_negative_range():
    # Delays of -60 and 20 ps, from a start at 100 ps to stops at 40 and 120.
    h = Histogram.from_samples(np.array([40, 120]) - 100, 20, -100, 100)
    assert h.total() == 2
    assert h.counts[(-60 - -100) // 20] == 1
    assert h.counts[(20 - -100) // 20] == 1

@given(
    samples=st.lists(st.integers(min_value=-1500, max_value=1500), max_size=60),
    lo=st.integers(min_value=-600, max_value=600),
    width=st.integers(min_value=1, max_value=900),
    bin_width=st.integers(min_value=1, max_value=70),
)
@example(samples=[-3, -2, 3, 4, 5], lo=-3, width=7, bin_width=2)
@example(samples=[0, 99, 100, -1], lo=0, width=100, bin_width=100)
@example(samples=[], lo=0, width=10, bin_width=1)
def test_histogram_matches_brute_force_property(samples, lo, width, bin_width):
    # Samples in any order, tied, on either edge and outside the range; a
    # negative start; a last bin cut at the stop.
    a = np.array(samples, dtype=np.int64)
    h = Histogram.from_samples(a, bin_width, lo, lo + width)
    brute = [0] * -(-width // bin_width)
    for d in samples:
        if lo <= d < lo + width:
            brute[(d - lo) // bin_width] += 1
    assert (h.start_ps, h.bin_width_ps, h.stop_ps) == (lo, bin_width, lo + width)
    assert h.counts.tolist() == brute
    assert a.tolist() == samples

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
