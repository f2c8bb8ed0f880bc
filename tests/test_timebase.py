import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cowqkd.detectors import SpadConfig, _backflash
from cowqkd.source import ConfigError
from cowqkd.timebase import (
    MAX_TIME_PS,
    DeviceRngs,
    RngStream,
    Stream,
    TimeRangeError,
    check_time_range,
    poisson_event_times,
    sample_delay,
)


def trunc_exp_mean(scale, cap):
    # independent closed form: E[X | X < cap] for X ~ Exp(scale)
    z = 1.0 - math.exp(-cap / scale)
    return (scale - (cap + scale) * math.exp(-cap / scale)) / z


class TestRngStreams:
    def test_same_key_same_sequence(self):
        a = RngStream(42, Stream.SPAD, trial=3).gen.random(100)
        b = RngStream(42, Stream.SPAD, trial=3).gen.random(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, Stream.SPAD).gen.random(100)
        b = RngStream(42, Stream.SNSPD).gen.random(100)
        assert not np.array_equal(a, b)

    def test_trials_differ(self):
        a = RngStream(42, Stream.SPAD, trial=0).gen.random(100)
        b = RngStream(42, Stream.SPAD, trial=1).gen.random(100)
        assert not np.array_equal(a, b)

    def test_device_rngs_exposes_all_streams(self):
        rngs = DeviceRngs(7, trial=2)
        names = ["bits", "arrival", "spad", "spad_dark", "backflash", "snspd", "disclose", "aux", "reflection"]
        draws = [getattr(rngs, n).gen.random() for n in names]
        assert len(set(draws)) == len(draws)


class TestTimeRange:
    def test_accepts_and_returns(self):
        assert check_time_range(0) == 0
        assert check_time_range(MAX_TIME_PS - 1) == MAX_TIME_PS - 1

    def test_rejects_out_of_range(self):
        with pytest.raises(TimeRangeError):
            check_time_range(MAX_TIME_PS)
        with pytest.raises(TimeRangeError):
            check_time_range(-1)


class TestDelayDistribution:
    """The backflash delay law: an exponential truncated at a cap."""

    def test_truncated_exponential_sample_mean(self):
        x = sample_delay(800.0, 5000, RngStream(1, Stream.AUX), 200_000)
        expected = trunc_exp_mean(800.0, 5000)
        assert expected == pytest.approx(790.33, abs=0.01)
        # 3 sigma of the sample mean
        sd = float(np.std(x))
        assert abs(float(np.mean(x)) - expected) < 3 * sd / math.sqrt(x.size)

    def test_support_bound_holds(self):
        x = sample_delay(600.0, 5000, RngStream(2, Stream.AUX), 50_000)
        assert x.dtype == np.int64
        assert x.min() >= 0
        assert x.max() <= 5000

    def test_truncated_tightens_support(self):
        x = sample_delay(600.0, 2000, RngStream(3, Stream.AUX), 20_000)
        assert x.max() <= 2000
        # conditional truncation renormalizes rather than clumping at the edge
        edge = np.sum(x >= 1990) / x.size
        interior = np.sum((x >= 990) & (x < 1000)) / x.size
        assert edge < 5 * interior + 0.01
        assert float(np.mean(x)) == pytest.approx(trunc_exp_mean(600.0, 2000), rel=0.02)

    def test_truncated_wider_is_noop(self):
        # A gate wider than the delay support leaves the law untouched: the
        # receiver draws exactly what the untruncated support gives.
        spad = SpadConfig(gate_width_ps=6000, backflash_probability=1.0)
        clicks = np.arange(0, 2000 * spad.gate_period_ps, spad.gate_period_ps, dtype=np.int64)
        bf = _backflash(clicks, spad, DeviceRngs(12))
        rng = DeviceRngs(12).backflash
        rng.gen.random(clicks.size)  # the emission draws
        want = sample_delay(600.0, 5000, rng, clicks.size)
        assert np.array_equal(bf.emission_ps - bf.avalanche_ps, want)

    def test_degenerate_zero_support(self):
        rng = RngStream(6, Stream.AUX)
        x = sample_delay(600.0, 0, rng, 7)
        assert np.array_equal(x, np.zeros(7, dtype=np.int64))
        # no draw is spent on a zero support
        assert rng.gen.random() == RngStream(6, Stream.AUX).gen.random()

    def test_validation(self):
        with pytest.raises(ConfigError):
            SpadConfig(backflash_delay_scale_ps=-1.0)
        with pytest.raises(ConfigError):
            SpadConfig(backflash_delay_scale_ps=0.0)
        with pytest.raises(ConfigError):
            SpadConfig(backflash_delay_max_ps=-1)
        # a zero support needs no scale
        assert SpadConfig(backflash_delay_scale_ps=0.0, backflash_delay_max_ps=0).backflash_delay_max_ps == 0

    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=99))
    def test_sampled_delays_respect_cap(self, cap, seed):
        x = sample_delay(600.0, cap, RngStream(seed, Stream.AUX), 500)
        assert np.all(x >= 0)
        assert np.all(x <= cap)


class TestPoissonTimes:
    def test_rate_recovered(self):
        window = (0, 10**12)  # one second
        t = poisson_event_times(5000.0, window, RngStream(8, Stream.AUX))
        assert abs(t.size - 5000) < 3 * math.sqrt(5000)
        assert np.all(np.diff(t) >= 0)
        assert t.min() >= window[0] and t.max() < window[1]

    def test_zero_rate(self):
        assert poisson_event_times(0.0, (0, 10**9), RngStream(9, Stream.AUX)).size == 0

    def test_empty_window(self):
        assert poisson_event_times(100.0, (5, 5), RngStream(10, Stream.AUX)).size == 0

    @given(st.floats(min_value=0.0, max_value=1e6), st.integers(min_value=0, max_value=50))
    def test_sorted_and_in_window(self, rate, seed):
        t = poisson_event_times(rate, (1000, 10**9), RngStream(seed, Stream.AUX))
        if t.size:
            assert np.all(np.diff(t) >= 0)
            assert t.min() >= 1000
            assert t.max() < 10**9
