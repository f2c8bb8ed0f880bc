"""Closed-form rate checks against oracles recomputed inline with math.*."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from cowqkd.detectors import Histogram
from cowqkd.rates import (
    McCounts,
    RateInputs,
    binary_entropy,
    compare,
    composite_efficiency,
    count_interval,
    dark_probability_per_gate,
    gate_mean_photon,
    p_err,
    p_learn,
    p_sec,
    p_sift_holdoff,
    p_sift_simple,
    stop_delay_bins,
    stops_per_start,
)
from cowqkd.timebase import ConfigError, sample_delay
from oracles import stream_rng

MU, ETA, PD = 0.4, 0.2, 3.2e-8
N0, THOLD = 31.25e6, 10e-6


class TestSiftAndError:
    def test_sift_simple_oracle(self):
        want = 1.0 - math.exp(-MU * ETA) * (1.0 - PD)
        assert p_sift_simple(MU, ETA, PD) == pytest.approx(want)
        assert p_sift_simple(MU, ETA, PD) == pytest.approx(0.0768837, abs=1e-6)

    def test_sift_zero_signal_is_dark_only(self):
        assert p_sift_simple(0.0, 0.5, 1e-3) == pytest.approx(1e-3)

    def test_holdoff_oracle(self):
        q = 1.0 - math.exp(-MU * ETA) * (1.0 - PD)
        want = q / (1.0 + N0 * q * THOLD)
        got = p_sift_holdoff(MU, ETA, PD, N0, THOLD)
        assert got == pytest.approx(want)
        assert got == pytest.approx(0.0030721, abs=1e-6)

    def test_holdoff_zero_matches_simple(self):
        assert p_sift_holdoff(MU, ETA, PD, N0, 0.0) == p_sift_simple(MU, ETA, PD)

    @given(st.floats(min_value=0.0, max_value=1e-4),
           st.floats(min_value=0.0, max_value=1e-4))
    def test_holdoff_monotone_decreasing(self, t1, t2):
        lo, hi = sorted([t1, t2])
        assert p_sift_holdoff(MU, ETA, PD, N0, hi) <= p_sift_holdoff(MU, ETA, PD, N0, lo)

    def test_err_oracle(self):
        q = 1.0 - math.exp(-MU * ETA) * (1.0 - PD)
        want = math.exp(-MU * ETA) * (1.0 - PD) * PD / q
        assert p_err(MU, ETA, PD, q) == pytest.approx(want)

    def test_err_no_darks_no_errors(self):
        assert p_err(MU, ETA, 0.0, p_sift_simple(MU, ETA, 0.0)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            p_sift_simple(-0.1, ETA, PD)
        with pytest.raises(ValueError):
            p_sift_simple(MU, ETA, 1.5)
        with pytest.raises(ValueError):
            p_sift_holdoff(MU, ETA, PD, -1.0, THOLD)
        with pytest.raises(ValueError):
            p_err(MU, ETA, PD, 0.0)


class TestLeakage:
    def test_learn_is_product(self):
        assert p_learn(0.08878, 0.0030721) == pytest.approx(0.08878 * 0.0030721)

    def test_learn_validation(self):
        with pytest.raises(ValueError):
            p_learn(1.2, 0.5)


class TestEntropy:
    def test_endpoints_and_max(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_frozen_value(self):
        e = 0.11
        want = -e * math.log2(e) - (1 - e) * math.log2(1 - e)
        assert binary_entropy(0.11) == pytest.approx(want)
        assert binary_entropy(0.11) == pytest.approx(0.499916, abs=1e-6)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, e):
        assert binary_entropy(e) == pytest.approx(binary_entropy(1.0 - e), abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_bounded_by_one(self, e):
        assert 0.0 <= binary_entropy(e) <= 1.0

    @given(st.floats(min_value=1e-6, max_value=0.5), st.floats(min_value=1e-6, max_value=0.5))
    def test_monotone_below_half(self, a, b):
        lo, hi = sorted([a, b])
        assert binary_entropy(lo) <= binary_entropy(hi) + 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)


class TestSecureRate:
    def test_zero_qber_ratio(self):
        rate, insecure = p_sec(0.003, 0.0888, 0.0)
        assert not insecure
        assert rate / 0.003 == pytest.approx(1.0 - 0.0888)

    def test_oracle_with_qber(self):
        e, pb, f, ps = 0.005, 0.089, 1.15, 0.0030721
        h = -e * math.log2(e) - (1 - e) * math.log2(1 - e)
        want = ps * (1.0 - pb - f * h)
        rate, insecure = p_sec(ps, pb, e)
        assert rate == pytest.approx(want)
        assert not insecure

    def test_clamps_to_zero_and_flags(self):
        rate, insecure = p_sec(0.01, 0.1, 0.25)
        assert rate == 0.0
        assert insecure



class TestConversions:
    def test_dark_probability_per_gate(self):
        assert dark_probability_per_gate(100.0, 4000) == pytest.approx(100.0 * 4000e-12)

    def test_composite_efficiency(self):
        assert composite_efficiency(0.5, 0.2) == 0.1

    def test_gate_mean_photon(self):
        assert gate_mean_photon(0.2, 2) == pytest.approx(0.4)


class TestCountInterval:
    def test_against_brute_force_cdf(self):
        n, p = 40, 0.3
        pmf = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]
        lo = next(i for i in range(n + 1) if sum(pmf[: i + 1]) >= 0.00135)
        hi = next(i for i in range(n + 1) if sum(pmf[: i + 1]) >= 0.99865)
        assert count_interval(n, p) == (lo, hi)

    def test_degenerate(self):
        assert count_interval(0, 0.3) == (0, 0)
        assert count_interval(100, 0.0) == (0, 0)

    def test_p_capped_at_one(self):
        lo, hi = count_interval(10, 1.5)
        assert lo == hi == 10

    def test_contains_mean_at_large_n(self):
        lo, hi = count_interval(10_000, 0.1)
        assert lo < 1000 < hi


class TestCountIntervalMatchesScipy:
    # Every (n, p) that compare() built for the 2v, 5v and 7v presets at
    # seed 0 and for paper at seeds 0 and 11.
    PRESET_ROWS = [
        (1_000_000, 0.0026012693852468945), (2597, 2.8371078946533135e-05),
        (1_000_000, 0.0029585550812545203), (2971, 1.9602266656727193e-05),
        (1_000_000, 0.003002970478713454), (3004, 2.7305049275007882e-05),
        (7_800_000, 0.003072134885079856), (23993, 9.605232818807394e-06),
        (24005, 9.605232818807394e-06), (18000, 0.08879999999999999),
        (6_501_896, 0.00027280557779509117), (6_498_646, 0.00027280557779509117),
    ]
    EDGES = [(1, 1e-7), (1, 0.5), (1, 1.0), (7, 1.0), (2, 0.999999), (40_000_000, 1.0)]
    GRID = [
        (n, p)
        for n in (1, 2, 5, 17, 100, 2597, 18000, 1_000_000, 7_800_000, 40_000_000)
        for p in (1e-7, 1e-5, 3e-4, 0.003072, 0.0888, 0.5, 0.9, 0.999999)
    ]

    @pytest.mark.parametrize("n,p", PRESET_ROWS + EDGES + GRID)
    def test_equals_scipy_ppf(self, n, p):
        from scipy import stats

        expect = (int(stats.binom.ppf(0.00135, n, p)), int(stats.binom.ppf(0.99865, n, p)))
        assert count_interval(n, p) == expect


class TestCompare:
    def make_inputs(self, **kw):
        return RateInputs(mu=MU, eta=ETA, p_dark=PD, opportunity_rate_hz=N0, hold_off_s=THOLD, p_b=0.0888, **kw)

    def expected_sift(self):
        q = 1.0 - math.exp(-MU * ETA) * (1.0 - PD)
        return q / (1.0 + N0 * q * THOLD)

    def test_consistent_counts_pass(self):
        n = 1_000_000
        sift = self.expected_sift()
        mc = McCounts(n_frames=n, n_sift=round(n * sift), n_err=0,
                      n_retained=18000, n_eve_backflash=1598,
                      n_eve_backflash_blocks=round(n * 0.0888 * sift), n_frames_covered=n)
        report = compare(mc, self.make_inputs())
        assert all(r.ok for r in report.rows)
        assert not report.insecure

    def test_outlier_flagged(self):
        n = 1_000_000
        mc = McCounts(n_frames=n, n_sift=round(n * self.expected_sift() * 1.5), n_err=0)
        report = compare(mc, self.make_inputs())
        assert not next(r for r in report.rows if r.name == "p_sift").ok

    def test_zero_denominator_rows_pass_vacuously(self):
        report = compare(McCounts(n_frames=0, n_sift=0, n_err=0), self.make_inputs())
        assert all(r.ok for r in report.rows)
        assert next(r for r in report.rows if r.name == "p_sift").empirical is None

    def test_qber_override_reaches_secure_rate(self):
        base = compare(McCounts(0, 0, 0), self.make_inputs(qber=0.0))
        hot = compare(McCounts(0, 0, 0), self.make_inputs(qber=0.05))
        p_sec = [next(r.analytic for r in rep.rows if r.name == "p_sec") for rep in (hot, base)]
        assert p_sec[0] < p_sec[1]

    def test_no_sifted_counts_use_the_analytic_qber(self):
        # With nothing sifted the secure rates take the closed-form error
        # rate, exactly as if it had been passed in.
        empty = McCounts(n_frames=1000, n_sift=0, n_err=0)
        err = next(r.analytic for r in compare(empty, self.make_inputs()).rows if r.name == "p_err")
        assert err > 0
        implicit = compare(empty, self.make_inputs())
        explicit = compare(empty, self.make_inputs(qber=err))
        error_free = compare(empty, self.make_inputs(qber=0.0))
        p_sec = [next(r.analytic for r in rep.rows if r.name == "p_sec") for rep in (implicit, explicit, error_free)]
        assert p_sec[0] == p_sec[1] < p_sec[2]

    def test_insecure_flag_propagates(self):
        report = compare(McCounts(0, 0, 0), self.make_inputs(qber=0.3))
        assert report.insecure

    def test_covered_denominator_used_for_learning(self):
        n = 100_000
        sift = self.expected_sift()
        leaks = round(n // 2 * 0.0888 * sift)
        mc = McCounts(n_frames=n, n_sift=round(n * sift), n_err=0,
                      n_retained=1000, n_eve_backflash=89,
                      n_eve_backflash_blocks=leaks, n_frames_covered=n // 2)
        row = next(r for r in compare(mc, self.make_inputs()).rows if r.name == "p_learn")
        assert row.empirical == pytest.approx(leaks / (n // 2))
        assert row.ok

    def test_one_row_per_quantity(self):
        report = compare(McCounts(0, 0, 0), self.make_inputs())
        assert [r.name for r in report.rows] == ["p_sift", "p_err", "p_b", "p_learn", "p_sec"]


# --- dark-exposure stop law ------------------------------------------------

def delay_pmf(d, scale, cap):
    """P(rint(x) = d) for x exponential of ``scale`` truncated to [0, cap]."""
    if cap == 0:
        return float(d == 0)
    if not 0 <= d <= cap:
        return 0.0
    cdf = lambda x: (1.0 - math.exp(-x / scale)) / (1.0 - math.exp(-cap / scale))
    return cdf(min(d + 0.5, cap)) - cdf(max(d - 0.5, 0.0))


@given(
    scale=st.floats(min_value=1.0, max_value=5000.0),
    cap=st.integers(min_value=0, max_value=400),
    bin_width=st.integers(min_value=1, max_value=60),
    lo=st.integers(min_value=-50, max_value=300),
    width=st.integers(min_value=1, max_value=500),
)
def test_stop_delay_bins_sum_the_rounded_delay_pmf(scale, cap, bin_width, lo, width):
    law = stop_delay_bins(scale, cap, Histogram.from_samples([], bin_width, lo, lo + width).edges_ps)
    want = [sum(delay_pmf(d, scale, cap) for d in range(a, min(a + bin_width, lo + width)))
            for a in range(lo, lo + width, bin_width)]
    assert law.tolist() == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("cap", [0, 1, 7, 600, 2000, 5000])
def test_stop_delay_bins_are_the_law_of_sample_delay(cap):
    # Counts of 200,000 draws in the bins that expect at least 5, plus one
    # bin for the rest: a chi-square at 1e-3 over the six caps, fixed before
    # the first run.
    d = sample_delay(600.0, cap, stream_rng(cap), 200_000)
    law = stop_delay_bins(600.0, cap, np.arange(-20, 6001, 10))
    assert law.sum() == pytest.approx(1.0)
    counts = np.bincount((d + 20) // 10, minlength=law.size)
    big = law * d.size >= 5
    obs = np.r_[counts[big], counts[~big].sum()]
    exp = np.r_[law[big], law[~big].sum()] * d.size
    if big.sum() == 1:
        assert obs.tolist() == [d.size, 0]
    else:
        assert stats.chisquare(obs[exp > 0], exp[exp > 0]).pvalue > 1e-3 / 6


def test_stops_per_start_adds_uniform_darks_to_thinned_backflash():
    edges = Histogram.from_samples([], 7, 0, 6000).edges_ps
    law = stops_per_start(0.12, 0.74, 16.4, 600.0, 5000, edges)
    delay = stop_delay_bins(600.0, 5000, edges)
    widths = np.r_[np.full(law.size - 1, 7), 6000 - 7 * (law.size - 1)]
    assert law == pytest.approx(0.12 * 0.74 * delay + 16.4e-12 * widths, rel=1e-12)
    assert law.sum() == pytest.approx(0.12 * 0.74 + 16.4 * 6000e-12)


@pytest.mark.parametrize("scale, cap", [(600.0, -1), (0.0, 10)])
def test_stop_delay_bins_reject_bad_inputs(scale, cap):
    with pytest.raises(ConfigError):
        stop_delay_bins(scale, cap, np.array([0, 10, 20]))
