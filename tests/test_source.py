import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cowqkd.source import (
    DECOY,
    ChannelConfig,
    FrameBatch,
    SourceConfig,
    channel_transmittance,
    generate_frames,
    write_frames_csv,
)
from cowqkd.timebase import ConfigError, DeviceRngs
from oracles import sorted_pulse_times


def make_rng(seed=0):
    return DeviceRngs(seed).bits


def test_geometry_defaults():
    g = SourceConfig()
    assert g.bin_width_ps == 1000
    assert g.frame_period_ps == 32000
    assert g.signal_window_ps == 4000
    assert g.frame_rate_hz == pytest.approx(31.25e6)


def test_mean_photon_validated():
    with pytest.raises(ConfigError):
        SourceConfig(mean_photon_number=0.0)
    with pytest.raises(ConfigError):
        SourceConfig(mean_photon_number=1.0)
    SourceConfig(mean_photon_number=0.999)


def test_geometry_validated():
    with pytest.raises(ConfigError):
        SourceConfig(bin_width_ps=0)
    with pytest.raises(ConfigError):
        # signal window would not fit in the frame
        SourceConfig(bin_width_ps=10_000, bits_per_frame=2, frame_period_ps=32000)
    with pytest.raises(ConfigError):
        SourceConfig(pattern="fibonacci")
    with pytest.raises(ConfigError):
        SourceConfig(decoy_probability=1.5)


def test_alternating_pattern_bits():
    cfg = SourceConfig(pattern="alternating")
    batch = generate_frames(cfg, 5, make_rng())
    assert batch.bits.shape == (5, 2)
    assert np.all(batch.bits == np.array([[0, 1]] * 5))


def test_random_pattern_balance():
    cfg = SourceConfig(pattern="random")
    batch = generate_frames(cfg, 20_000, make_rng(3))
    zeros = np.sum(batch.bits == 0)
    ones = np.sum(batch.bits == 1)
    n = batch.bits.size
    assert abs(zeros - ones) < 3 * math.sqrt(n)


def test_decoy_probability_zero_by_default():
    batch = generate_frames(SourceConfig(), 1000, make_rng())
    assert not np.any(batch.bits == DECOY)


def test_decoy_rate():
    cfg = SourceConfig(decoy_probability=0.25)
    batch = generate_frames(cfg, 10_000, make_rng(5))
    frac = np.mean(batch.bits == DECOY)
    assert frac == pytest.approx(0.25, abs=3 * 0.433 / 100)


def test_pulse_positions_encode_bits():
    # bit 0 -> first bin of the slot, bit 1 -> second, decoy -> both
    batch = FrameBatch(SourceConfig(), np.array([[0, 1], [2, 1], [1, 0]]))
    assert batch.n_pulses() == 7
    assert batch.pulse_times(np.arange(7)).tolist() == [0, 3000, 32000, 33000, 35000, 65000, 66000]
    assert batch.pulse_times(np.array([2, 3, 6])).tolist() == [32000, 33000, 66000]


def test_decoy_contributes_two_pulses():
    cfg = SourceConfig(decoy_probability=1.0)
    batch = generate_frames(cfg, 4, make_rng())
    t = batch.pulse_times(np.arange(batch.n_pulses()))
    assert t.size == 4 * 2 * 2
    assert np.all(np.diff(t) >= 0)


def test_bit_at_and_is_decoy():
    cfg = SourceConfig(pattern="alternating")
    batch = generate_frames(cfg, 2, make_rng())
    assert batch.bit_at(0, 0) == 0
    assert batch.bit_at(1, 1) == 1


def test_pulses_within_signal_window():
    batch = generate_frames(SourceConfig(pattern="random"), 500, make_rng(9))
    t = batch.pulse_times(np.arange(batch.n_pulses()))
    offset = t - (t // 32000) * 32000
    assert np.all(offset >= 0)
    assert np.all(offset < 4000)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=30))
def test_pulse_count_matches_bits(n, seed):
    batch = generate_frames(SourceConfig(pattern="random", decoy_probability=0.2), n, make_rng(seed))
    expected = int(np.sum(batch.bits == DECOY)) * 2 + int(np.sum(batch.bits != DECOY))
    assert batch.n_pulses() == expected
    assert batch.pulse_times(np.arange(batch.n_pulses())).size == expected


@given(
    st.integers(min_value=0, max_value=300),
    st.sampled_from([0.0, 0.2, 1.0]),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["nrz", "rz"]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=30),
)
def test_pulse_times_match_sorted_oracle(n, decoy, bits_per_frame, encoding, start_frame, seed):
    cfg = SourceConfig(pattern="random", decoy_probability=decoy, bits_per_frame=bits_per_frame,
                       encoding=encoding)
    batch = generate_frames(cfg, n, make_rng(seed), start_frame=start_frame)
    want = sorted_pulse_times(batch)
    assert batch.n_pulses() == want.size
    assert batch.pulse_times(np.arange(batch.n_pulses())).tolist() == want.tolist()


def test_channel_transmittance_oracles():
    # 0.2 dB/km over 50 km = 10 dB = factor 10
    assert channel_transmittance(ChannelConfig(length_km=50)) == pytest.approx(0.1)
    assert channel_transmittance(ChannelConfig(length_km=0)) == 1.0
    half = ChannelConfig(length_km=0, excess_loss_db=10 * math.log10(2))
    assert channel_transmittance(half) == pytest.approx(0.5)


def test_write_frames_csv(tmp_path):
    batch = FrameBatch(SourceConfig(), np.array([[2, 0], [0, 1], [1, 2]]), start_frame=4)
    out = tmp_path / "frames.csv"
    write_frames_csv(batch, out, ["hdr=1"])
    assert out.read_bytes() == (
        b"# hdr=1\n"
        b"frame_start_ps,bits,pulse_bins_ps\r\n"
        b"128000,20,0;1000;2000\r\n"
        b"160000,01,0;3000\r\n"
        b"192000,12,1000;2000;3000\r\n"
    )


@pytest.mark.parametrize("pattern,decoy", [("alternating", 0.0), ("random", 0.2)])
def test_write_frames_csv_in_bounded_memory(tmp_path, pattern, decoy):
    # The bound, fixed before the first run: writing 1e6 frames peaks below
    # 4 MB above the live frames.  Columns built for every frame at once
    # peaked at 32 MB.
    source = SourceConfig(pattern=pattern, decoy_probability=decoy)
    # The first write builds the writer's digit table, which stays cached.
    write_frames_csv(generate_frames(source, 10, make_rng()), tmp_path / "warm.csv")
    batch = generate_frames(source, 1_000_000, make_rng())
    tracemalloc.start()
    try:
        write_frames_csv(batch, tmp_path / "frames.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    with open(tmp_path / "frames.csv", "rb") as fh:
        assert sum(1 for _ in fh) == 1 + len(batch)
