import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from cowqkd import source
from cowqkd.source import (
    DECOY,
    ChannelConfig,
    SourceConfig,
    channel_transmittance,
    generate_frames,
    write_frames_csv,
)
from cowqkd.timebase import MAX_TIME_PS, ConfigError, DeviceRngs
from cowqkd.detectors import _pulse_hits
from oracles import per_slot_values, pulse_lattice, sorted_pulse_times, stream_rng


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
    # bit 0 -> first bin of the slot, bit 1 -> second, decoy -> both; the
    # pulse in sub-bin b of global slot s sits at lattice position 2 s + b.
    alternating = generate_frames(SourceConfig(), 4, make_rng()).span(1, 3)
    assert pulse_lattice(alternating).tolist() == [4, 7, 8, 11, 12, 15]
    t = alternating.pulse_times(pulse_lattice(alternating))
    assert t.tolist() == [32000, 35000, 64000, 67000, 96000, 99000]
    decoys = generate_frames(SourceConfig(decoy_probability=1.0), 2, make_rng())
    assert pulse_lattice(decoys).tolist() == list(range(8))
    assert decoys.pulse_times(np.arange(8)).tolist() == [0, 1000, 2000, 3000, 32000, 33000, 34000, 35000]
    assert decoys.pulse_times(np.array([2, 3, 6])).tolist() == [2000, 3000, 34000]
    # A mixed batch, pulse by pulse from its values.
    batch = generate_frames(SourceConfig(pattern="random", decoy_probability=0.4), 47, make_rng(4)).span(7, 40)
    lattice, want = [], []
    for f, row in enumerate(batch.bits.tolist(), start=7):
        for j, v in enumerate(row):
            slot_ps = f * 32000 + 2 * j * 1000
            lattice += [2 * (2 * f + j), 2 * (2 * f + j) + 1] if v == DECOY else [2 * (2 * f + j) + v]
            want += [slot_ps, slot_ps + 1000] if v == DECOY else [slot_ps + 1000 * v]
    n_decoys = len(want) - 80
    assert 0 < n_decoys < 80
    assert pulse_lattice(batch).tolist() == lattice
    assert batch.pulse_times(np.array(lattice)).tolist() == want


def test_decoy_contributes_two_pulses():
    cfg = SourceConfig(decoy_probability=1.0)
    batch = generate_frames(cfg, 4, make_rng())
    t = batch.pulse_times(pulse_lattice(batch))
    assert t.size == 4 * 2 * 2
    assert np.all(np.diff(t) > 0)
    assert t.tolist() == sorted_pulse_times(batch).tolist()


@pytest.mark.parametrize("pattern", ["alternating", "random"])
def test_values_are_a_function_of_the_slot(pattern):
    # Every span of one emission, and every emission keyed by the same two
    # draws, reads the same value in a slot, whatever its length or start.
    cfg = SourceConfig(pattern=pattern, decoy_probability=0.3, bits_per_frame=3)
    emission = generate_frames(cfg, 1000, make_rng(8))
    whole = emission.bits
    assert whole.shape == (1000, 3)
    for start, n in ((0, 1), (1, 7), (333, 667), (999, 1)):
        assert np.array_equal(emission.span(start, n).bits, whole[start:start + n])
        assert np.array_equal(generate_frames(cfg, start + n, make_rng(8)).span(start, n).bits, whole[start:start + n])
    slots = np.array([5, 2999, 0, 5])
    assert emission.values(slots).tolist() == whole.reshape(-1)[slots].tolist()
    if pattern == "alternating":
        plain = generate_frames(replace(cfg, decoy_probability=0.0), 2, make_rng(8))
        assert plain.bits.tolist() == [[0, 1, 0], [0, 1, 0]]
    assert not np.array_equal(generate_frames(cfg, 1000, make_rng(9)).bits, whole)


def test_decoy_probability_ends_are_exact(monkeypatch):
    # p = 0 makes no decoy, p = 1 makes every slot one; a hit on every pulse
    # finds one pulse a slot or two.
    for pattern in ("alternating", "random"):
        none = generate_frames(SourceConfig(pattern=pattern), 20_000, make_rng(2))
        assert not np.any(none.bits == DECOY) and _pulse_hits(none, 1.0, stream_rng(2)).size == 40_000
        every = generate_frames(SourceConfig(pattern=pattern, decoy_probability=1.0), 20_000, make_rng(2))
        assert np.all(every.bits == DECOY) and _pulse_hits(every, 1.0, stream_rng(2)).tolist() == list(range(80_000))
        assert every.is_decoy(np.array([0, 1, 7, 39_999])).tolist() == [True] * 4
    # Alternating frames without decoys hash nothing, and no slot is a decoy.
    monkeypatch.setattr(source, "_splitmix64", lambda *a: pytest.fail("a slot was hashed"))
    batch = generate_frames(SourceConfig(), 20_000, make_rng(2))
    assert batch.is_decoy(np.array([0, 1, 7, 39_999])).tolist() == [False] * 4
    lattice = _pulse_hits(batch, 1.0, stream_rng(2))
    assert lattice.size == 40_000 and lattice[[1, -1]].tolist() == [3, 79_999]
    assert batch.pulse_times(lattice[[1, -1]]).tolist() == [3000, 19_999 * 32000 + 3000]


# Exact tests of the keyed values, fixed before the first run: 2**20 slots
# each, a family-wise false alarm rate of 1e-3 split evenly over the five
# p-values below.
KEYED_SLOTS = 2**20
KEYED_ALPHA = 1e-3 / 5


def _keyed_values(seed, **kw):
    cfg = SourceConfig(pattern="random", **kw)
    return generate_frames(cfg, KEYED_SLOTS // cfg.bits_per_frame, make_rng(seed)).bits.reshape(-1)


def test_keyed_bits_are_balanced_and_adjacent_slots_independent():
    v = _keyed_values(21)
    # For independent fair bits, the XORs of adjacent slots are independent
    # fair bits too, frame borders included.
    pvalues = [
        stats.binomtest(int(np.sum(v == 1)), v.size, 0.5).pvalue,
        stats.binomtest(int(np.sum(v[1:] != v[:-1])), v.size - 1, 0.5).pvalue,
    ]
    assert min(pvalues) > KEYED_ALPHA, pvalues


def test_keyed_decoys_have_their_share_and_leave_the_bits_alone():
    v = _keyed_values(22, decoy_probability=0.2)
    # The same keys without decoys show the bit under every decoy.
    under = _keyed_values(22)
    decoy = v == DECOY
    assert np.array_equal(v[~decoy], under[~decoy])
    table = [[int(np.sum(decoy & (under == b))), int(np.sum(~decoy & (under == b)))] for b in (0, 1)]
    pvalues = [
        stats.binomtest(int(decoy.sum()), v.size, 0.2).pvalue,
        stats.fisher_exact(table).pvalue,
    ]
    assert min(pvalues) > KEYED_ALPHA, pvalues


def test_keyed_values_have_the_per_slot_draws_law():
    cfg = SourceConfig(pattern="random", decoy_probability=0.3)
    keyed = _keyed_values(23, decoy_probability=0.3)
    drawn = per_slot_values(cfg, KEYED_SLOTS // 2, make_rng(23)).reshape(-1)
    table = [np.bincount(keyed, minlength=3), np.bincount(drawn, minlength=3)]
    assert stats.chi2_contingency(table).pvalue > KEYED_ALPHA


def test_pulses_within_signal_window():
    # Both sub-bins of every slot, whether a pulse fills them or not.
    batch = generate_frames(SourceConfig(pattern="random"), 503, make_rng(9)).span(3, 500)
    t = batch.pulse_times(np.arange(3 * 4, 503 * 4))
    offset = t - (t // 32000) * 32000
    assert np.all(offset >= 0)
    assert np.all(offset < 4000)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=30))
def test_pulse_count_matches_bits(n, seed):
    # A hit on every pulse finds each slot's pulses as its value places them.
    batch = generate_frames(SourceConfig(pattern="random", decoy_probability=0.2), n, make_rng(seed))
    expected = int(np.sum(batch.bits == DECOY)) * 2 + int(np.sum(batch.bits != DECOY))
    lattice = _pulse_hits(batch, 1.0, stream_rng(seed))
    assert lattice.size == expected
    assert lattice.tolist() == pulse_lattice(batch).tolist()


# The last start frame that FrameBatch admits for one frame at the default
# 32 ns period: (start + n + 1) * period must stay below MAX_TIME_PS.
LAST_START = (MAX_TIME_PS - 1) // SourceConfig().frame_period_ps - 2


@given(
    st.integers(min_value=0, max_value=300),
    st.sampled_from([0.0, 0.2, 1.0]),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["nrz", "rz"]),
    st.sampled_from(["alternating", "random"]),
    st.one_of(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=LAST_START),
              st.just(LAST_START)),
    st.integers(min_value=0, max_value=30),
)
def test_pulse_times_match_sorted_oracle(n, decoy, bits_per_frame, encoding, pattern, start_frame, seed):
    # Near the end of the time base the products in pulse_times are largest.
    start_frame = min(start_frame, LAST_START + 1 - max(n, 1))
    cfg = SourceConfig(pattern=pattern, decoy_probability=decoy, bits_per_frame=bits_per_frame,
                       encoding=encoding)
    batch = generate_frames(cfg, start_frame + n, make_rng(seed)).span(start_frame, n)
    if pattern == "alternating":
        first = start_frame * bits_per_frame
        assert all(v in (DECOY, (first + i) % bits_per_frame % 2) for i, v in enumerate(batch.bits.reshape(-1)))
    assert batch.pulse_times(pulse_lattice(batch)).tolist() == sorted_pulse_times(batch).tolist()


@pytest.mark.parametrize("decoy", [0.0, 0.3])
@pytest.mark.parametrize("bits_per_frame", [1, 2, 3, 4])
def test_alternating_values_are_the_slot_in_its_frame_mod_two(bits_per_frame, decoy):
    # An even k reads the slot's low bit and an odd one divides by k; both
    # give slot % k % 2 outside the decoys, from the first slots to those of
    # the last start frame, in any order.
    k = bits_per_frame
    emission = generate_frames(SourceConfig(bits_per_frame=k, decoy_probability=decoy), LAST_START + 1, make_rng(6))
    slot = np.concatenate([np.arange(3000), np.arange((LAST_START - 1000) * k, (LAST_START + 1) * k)])
    slot = np.random.default_rng(k).permutation(slot)
    got = emission.values(slot)
    decoys = emission.is_decoy(slot) if decoy else np.zeros(slot.size, dtype=bool)
    assert got.dtype == np.int8
    assert np.array_equal(got[~decoys], slot[~decoys] % k % 2)
    assert np.all(got[decoys] == DECOY)
    assert decoys.any() == (decoy > 0)


def test_the_last_start_frame_is_the_last_admitted():
    generate_frames(SourceConfig(), LAST_START + 1, make_rng()).span(LAST_START, 1)
    with pytest.raises(ConfigError):
        generate_frames(SourceConfig(), LAST_START + 2, make_rng())


def test_channel_transmittance_oracles():
    # 0.2 dB/km over 50 km = 10 dB = factor 10
    assert channel_transmittance(ChannelConfig(length_km=50)) == pytest.approx(0.1)
    assert channel_transmittance(ChannelConfig(length_km=0)) == 1.0
    half = ChannelConfig(length_km=0, excess_loss_db=10 * math.log10(2))
    assert channel_transmittance(half) == pytest.approx(0.5)


def test_write_frames_csv(tmp_path):
    out = tmp_path / "frames.csv"
    write_frames_csv(generate_frames(SourceConfig(), 6, make_rng()).span(4, 2), out, ["hdr=1"])
    assert out.read_bytes() == (
        b"# hdr=1\n"
        b"frame_start_ps,bits,pulse_bins_ps\r\n"
        b"128000,01,0;3000\r\n"
        b"160000,01,0;3000\r\n"
    )
    write_frames_csv(generate_frames(SourceConfig(decoy_probability=1.0), 5, make_rng()).span(4, 1), out)
    assert out.read_bytes() == b"frame_start_ps,bits,pulse_bins_ps\r\n128000,22,0;1000;2000;3000\r\n"
    # A mixed batch, row by row from its values.
    batch = generate_frames(SourceConfig(pattern="random", decoy_probability=0.4), 34, make_rng(5)).span(4, 30)
    write_frames_csv(batch, out)
    bins = {0: ["{a}"], 1: ["{b}"], 2: ["{a}", "{b}"]}
    rows = [
        f"{f * 32000},{''.join(map(str, row))},"
        + ";".join(c.format(a=2000 * j, b=2000 * j + 1000) for j, v in enumerate(row) for c in bins[v])
        for f, row in enumerate(batch.bits.tolist(), start=4)
    ]
    assert {"0", "1", "2"} <= set("".join(r.split(",")[1] for r in rows))
    assert out.read_text().splitlines() == ["frame_start_ps,bits,pulse_bins_ps"] + rows


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
