import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from cowqkd.detectors import Cause, DetectionLog, SnspdConfig, SpadConfig, SpadResult, _backflash, snspd_detect
from cowqkd.timebase import (
    CSV_SLICE_ROWS,
    MAX_TIME_PS,
    TIMING_CORRELATION_STUDY,
    ConfigError,
    DeviceRngs,
    Stream,
    check_time_range,
    sample_delay,
    stream_generator,
    write_csv,
)
from oracles import csv_writer_rows, stream_rng


def trunc_exp_mean(scale, cap):
    # independent closed form: E[X | X < cap] for X ~ Exp(scale)
    z = 1.0 - math.exp(-cap / scale)
    return (scale - (cap + scale) * math.exp(-cap / scale)) / z


class TestRngStreams:
    @pytest.mark.parametrize("study", [(), TIMING_CORRELATION_STUDY])
    def test_same_key_same_sequence(self, study):
        a = DeviceRngs(42, trial=3, study=study).spad.random(100)
        b = DeviceRngs(42, trial=3, study=study).spad.random(100)
        assert np.array_equal(a, b)
        if not study:
            # The key is SeedSequence(seed, spawn_key=(trial, stream id)).
            assert np.array_equal(a, stream_rng(42, Stream.SPAD, trial=3).random(100))
        # Every stream is the shared constructor on (trial, stream id, *study),
        # and that constructor is SFC64: a silent swap of the draw scheme fails.
        rngs = DeviceRngs(42, trial=3, study=study)
        for stream in Stream:
            rng = getattr(rngs, stream.name.lower())
            assert type(rng.bit_generator) is np.random.SFC64, stream.name
            want = stream_generator(42, (3, int(stream), *study)).random(100)
            assert np.array_equal(rng.random(100), want), stream.name

    def test_streams_differ(self):
        a = DeviceRngs(42).spad.random(100)
        b = DeviceRngs(42).snspd.random(100)
        assert not np.array_equal(a, b)

    def test_trials_differ(self):
        a = DeviceRngs(42, trial=0).spad.random(100)
        b = DeviceRngs(42, trial=1).spad.random(100)
        assert not np.array_equal(a, b)

    def test_device_rngs_exposes_all_streams(self):
        rngs = DeviceRngs(7, trial=2)
        names = ["bits", "arrival", "spad", "spad_dark", "backflash", "snspd", "disclose", "reflection", "snspd_dark"]
        draws = [getattr(rngs, n).random() for n in names]
        assert len(set(draws)) == len(draws)


    @pytest.mark.parametrize("seed,w", [(5, 2000), (5, 4000), (0, 6000)])
    def test_study_streams_differ_from_the_trial_of_the_same_index(self, seed, w):
        names = ["bits", "arrival", "spad", "spad_dark", "backflash", "snspd", "disclose", "reflection", "snspd_dark"]
        study = DeviceRngs(seed, trial=w, study=TIMING_CORRELATION_STUDY)
        trial = DeviceRngs(seed, trial=w)
        for n in names:
            assert not np.array_equal(getattr(study, n).random(8), getattr(trial, n).random(8)), n
        # An empty study key is the trial's key.
        assert np.array_equal(DeviceRngs(seed, trial=w, study=()).snspd.random(8),
                              DeviceRngs(seed, trial=w).snspd.random(8))


class TestTimeRange:
    def test_accepts_and_returns(self):
        assert check_time_range(0) == 0
        assert check_time_range(MAX_TIME_PS - 1) == MAX_TIME_PS - 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError, match="time extent"):
            check_time_range(MAX_TIME_PS)
        with pytest.raises(ConfigError, match="time extent"):
            check_time_range(-1)


class TestDelayDistribution:
    """The backflash delay law: an exponential truncated at a cap."""

    def test_truncated_exponential_sample_mean(self):
        x = sample_delay(800.0, 5000, stream_rng(1), 200_000)
        expected = trunc_exp_mean(800.0, 5000)
        assert expected == pytest.approx(790.33, abs=0.01)
        # 3 sigma of the sample mean
        sd = float(np.std(x))
        assert abs(float(np.mean(x)) - expected) < 3 * sd / math.sqrt(x.size)

    def test_support_bound_holds(self):
        x = sample_delay(600.0, 5000, stream_rng(2), 50_000)
        assert x.dtype == np.int64
        assert x.min() >= 0
        assert x.max() <= 5000

    def test_truncated_tightens_support(self):
        x = sample_delay(600.0, 2000, stream_rng(3), 20_000)
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
        clicks = np.arange(0, 2000 * 32000, 32000, dtype=np.int64)
        avalanche_ps, backflash_ps = _backflash(clicks, spad, DeviceRngs(12))
        # Every click emits, so no emission draw precedes the delays.
        want = sample_delay(600.0, 5000, DeviceRngs(12).backflash, clicks.size)
        assert np.array_equal(backflash_ps - avalanche_ps, want)

    def test_degenerate_zero_support(self):
        rng = stream_rng(6)
        x = sample_delay(600.0, 0, rng, 7)
        assert np.array_equal(x, np.zeros(7, dtype=np.int64))
        # no draw is spent on a zero support
        assert rng.random() == stream_rng(6).random()

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
        x = sample_delay(600.0, cap, stream_rng(seed), 500)
        assert np.all(x >= 0)
        assert np.all(x <= cap)


def window_darks(rate, starts, window_ps, seed):
    """The eavesdropper's dark counts on the windows [s, s + window_ps),
    with no light arriving, and the generator they were drawn from.  Each
    dark names the start of the window holding it as its source."""
    none = np.empty(0, dtype=np.int64)
    rngs = DeviceRngs(seed)
    dark_only = SpadResult(DetectionLog.empty("bob"), 0, none, none, none, 0.0)
    starts = np.array(starts, dtype=np.int64)
    log = snspd_detect(dark_only, SnspdConfig(dark_count_rate_cps=rate), starts, window_ps, rngs)
    assert np.all(log.cause == Cause.DARK)
    delay = log.time_ps - log.source_ps
    assert np.all((0 <= delay) & (delay < window_ps)) and np.all(np.isin(log.source_ps, starts))
    return log.time_ps, rngs.snspd_dark


class TestPoissonTimes:
    """The eavesdropper's darks in one window: each picosecond holds one with
    probability rate / 1e12, drawn as skips on the ``snspd_dark`` stream."""

    def test_rate_recovered(self):
        t, _ = window_darks(5000.0, [0], 10**12, 8)  # one second
        assert abs(t.size - 5000) < 3 * math.sqrt(5000)
        assert np.all(np.diff(t) > 0)
        assert t.min() >= 0 and t.max() < 10**12

    def test_zero_rate(self):
        t, rng = window_darks(0.0, [0], 10**9, 9)
        assert t.size == 0
        assert rng.random() == DeviceRngs(9).snspd_dark.random()

    def test_empty_window(self):
        t, rng = window_darks(100.0, [5], 0, 10)
        assert t.size == 0
        assert rng.random() == DeviceRngs(10).snspd_dark.random()

    @given(st.floats(min_value=0.0, max_value=1e6), st.integers(min_value=0, max_value=50))
    def test_sorted_and_in_window(self, rate, seed):
        t, _ = window_darks(rate, [1000], 10**9 - 1000, seed)
        assert t.dtype == np.int64
        if t.size:
            assert np.all(np.diff(t) > 0)
            assert t.min() >= 1000
            assert t.max() < 10**9


class TestPoissonTimesOnWindows:
    """Several disjoint windows of one length: window k // L holds lattice
    picosecond k at offset k % L."""

    # Two of the windows touch: 11e6 is where the one at 9e6 ends.
    STARTS = np.array([0, 5_000_000, 9_000_000, 11_000_000, 20_000_000], dtype=np.int64)
    WINDOW_PS = 2_000_000

    def test_count_and_window_shares(self):
        # Thresholds fixed before the first run: the count lies in the exact
        # central 1 - 1e-4 binomial interval, and the chi-square test of the
        # per-window counts against equal shares gives p > 1e-4.
        rate = 2e9  # 1e7 ps in all, so 20,000 events expected
        t, _ = window_darks(rate, self.STARTS, self.WINDOW_PS, 21)
        lo, hi = stats.binom.interval(1 - 1e-4, self.STARTS.size * self.WINDOW_PS, rate / 1e12)
        assert lo <= t.size <= hi
        k = np.searchsorted(self.STARTS, t, side="right") - 1
        assert np.all(t - self.STARTS[k] < self.WINDOW_PS)
        assert stats.chisquare(np.bincount(k, minlength=self.STARTS.size)).pvalue > 1e-4

    @given(
        gaps=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=12),
        window_ps=st.integers(min_value=0, max_value=10**6),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_times_sorted_and_inside_their_windows(self, gaps, window_ps, seed):
        starts = np.cumsum(np.array(gaps, dtype=np.int64) + window_ps) - window_ps
        t, _ = window_darks(5e9, starts, window_ps, seed)
        assert np.all(np.diff(t) > 0)
        k = np.searchsorted(starts, t, side="right") - 1
        assert np.all(k >= 0)
        assert np.all((starts[k] <= t) & (t < starts[k] + window_ps))

    def test_events_fill_every_picosecond_of_short_windows(self):
        # At one dark per ps every ps of every window, both ends included,
        # holds one, touching windows too, nothing falls outside, and no
        # draw is spent.
        t, rng = window_darks(1e12, [0, 3, 5, 10, 12], 2, 23)
        assert t.tolist() == [0, 1, 3, 4, 5, 6, 10, 11, 12, 13]
        assert rng.random() == DeviceRngs(23).snspd_dark.random()

    @pytest.mark.parametrize("starts,ends", [
        ([3, 10, 10], [3, 10, 10]),
        ([], []),
    ])
    def test_zero_total_length_draws_nothing(self, starts, ends):
        window_ps = ends[0] - starts[0] if starts else 6000
        t, rng = window_darks(1e9, starts, window_ps, 22)
        assert t.size == 0 and t.dtype == np.int64
        assert rng.random() == DeviceRngs(22).snspd_dark.random()


# --- artifact CSV writer ---------------------------------------------------

# Cells csv.writer leaves bare: empty, non-ASCII, spaces; none of the
# characters it quotes.
CELL_TEXT = st.text(alphabet=["a", "Z", "0", " ", "-", "=", "\u00e9"], max_size=4)
ROW_COUNTS = [0, 1, 2, CSV_SLICE_ROWS - 1, CSV_SLICE_ROWS, CSV_SLICE_ROWS + 1]


@st.composite
def csv_table(draw):
    """Column names and two to four columns of one row count: int and uint8
    arrays, and ``S`` arrays of UTF-8 bytes."""
    n = draw(st.sampled_from(ROW_COUNTS))
    kinds = draw(st.lists(st.sampled_from(["int64", "int8", "uint8", "bytes"]), min_size=2, max_size=4))
    cols = []
    for kind in kinds:
        if "int" in kind:
            info = np.iinfo(kind)
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            cols.append(rng.integers(info.min, info.max, size=n, dtype=kind, endpoint=True))
            continue
        pool = draw(st.lists(CELL_TEXT, min_size=1, max_size=6))
        offset = draw(st.integers(0, 5))
        cols.append(np.array([pool[(i + offset) % len(pool)].encode() for i in range(n)], dtype="S"))
    names = draw(st.lists(CELL_TEXT, min_size=len(cols), max_size=len(cols)))
    headers = draw(st.lists(st.text(alphabet=["a", " ", ",", "="], max_size=8), max_size=2))
    return headers, names, cols


@settings(max_examples=80)
@given(csv_table())
def test_write_csv_matches_csv_writer_rows(table):
    headers, names, cols = table
    rows = zip(*[c.tolist() for c in cols])
    with tempfile.TemporaryDirectory() as d:
        got, want = Path(d) / "got.csv", Path(d) / "want.csv"
        write_csv(got, headers, names, cols)
        csv_writer_rows(want, headers, names, rows)
        assert got.read_bytes() == want.read_bytes()


def assert_writes_as_csv_writer(tmp_path, names, cols):
    rows = zip(*[c.tolist() for c in cols])
    write_csv(tmp_path / "got.csv", ["h"], names, cols)
    csv_writer_rows(tmp_path / "want.csv", ["h"], names, rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_csv_integers_at_every_digit_count(tmp_path):
    # Each side of every power of ten an int64 holds, both signs, the int64
    # extremes, and uint64 values past them.
    edges = [v for k in range(19) for m in (10**k - 1, 10**k) for v in (m, -m)]
    info = np.iinfo(np.int64)
    signed = np.array(edges + [info.min, info.max, info.min + 1], dtype=np.int64)
    assert_writes_as_csv_writer(tmp_path, ["v", "w"], [signed, signed[::-1].copy()])
    unsigned = np.array([0, 9, 10**19 - 1, 10**19, 2**64 - 1], dtype=np.uint64)
    assert_writes_as_csv_writer(tmp_path, ["u", "v"], [unsigned, unsigned[::-1].copy()])
    # A slice whose cells are all shorter than its widest has no sign.
    small = np.array([1, 0, 100, 7], dtype=np.uint8)
    assert_writes_as_csv_writer(tmp_path, ["b", "c"], [small, small.astype(np.int64)])


def test_write_csv_text_cells(tmp_path):
    # Empty and non-ASCII cells and names are written bare, as csv.writer
    # writes them beside a second column.
    text = np.array([b"a", b"", "\u00e9".encode(), b"x y"], dtype="S")
    assert_writes_as_csv_writer(tmp_path, ["", "\u00e9"], [text, np.array([-1, 0, 12, 3])])
    assert_writes_as_csv_writer(tmp_path, ["c", "d"], [np.array([b"", b""], dtype="S"), text[:2]])


# The characters for which csv.writer would quote a cell, and NUL, which the
# writer's cell matrices use as padding.
REFUSED_CHARS = [",", '"', "\r", "\n", "\0"]


@pytest.mark.parametrize("ch", REFUSED_CHARS)
def test_write_csv_refuses_a_cell_csv_writer_would_quote(tmp_path, ch):
    text = np.array([b"a", f"x{ch}y".encode(), b"b"], dtype="S")
    with pytest.raises(ValueError, match="text cell"):
        write_csv(tmp_path / "x.csv", None, ["c", "d"], [np.arange(3), text])


@pytest.mark.parametrize("ch", REFUSED_CHARS)
@pytest.mark.parametrize("at", ["{}d", "d{}", "d{}e"])
def test_write_csv_refuses_a_name_csv_writer_would_quote(tmp_path, ch, at):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError):
        write_csv(path, None, ["c", at.format(ch)], [np.arange(3), np.arange(3)])
    assert not path.exists()


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("col", [
    lambda n: ["a"] * n,
    lambda n: [1] * n,
    lambda n: np.zeros(n),
    lambda n: np.array(["a"] * n, dtype=object),
    lambda n: np.array(["a"] * n),  # str, not bytes
    lambda n: np.zeros(n, dtype=bool),
], ids=["str-list", "int-list", "float", "object", "unicode", "bool"])
def test_write_csv_refuses_a_column_that_is_not_int_or_bytes(tmp_path, col, n):
    with pytest.raises(ValueError, match="column slice"):
        write_csv(tmp_path / "x.csv", None, ["c", "d"], [np.arange(n), col(n)])


@pytest.mark.parametrize("names, cols", [
    (["c"], [np.arange(3)]),
    (["c"], [np.array([b"a", b"b"])]),
    ([], []),
])
def test_write_csv_refuses_fewer_than_two_columns(tmp_path, names, cols):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError):
        write_csv(path, None, names, cols)
    assert not path.exists()


class CountingColumn:
    """A column of ``n`` rows that builds each slice when asked and logs the
    slices asked for."""

    def __init__(self, n, cells):
        self.n, self.cells, self.asked = n, cells, []

    def __len__(self):
        return self.n

    def __getitem__(self, rows):
        lo, hi, _ = rows.indices(self.n)
        self.asked.append((lo, hi))
        return self.cells(lo, hi)


def test_write_csv_builds_each_slice_of_a_lazy_column_once(tmp_path):
    n = 2 * CSV_SLICE_ROWS + 5
    lazy = CountingColumn(n, lambda lo, hi: np.arange(lo, hi).astype("S"))
    write_csv(tmp_path / "got.csv", ["h"], ["i", "s"], [np.arange(n), lazy])
    assert lazy.asked == [(0, CSV_SLICE_ROWS), (CSV_SLICE_ROWS, 2 * CSV_SLICE_ROWS), (2 * CSV_SLICE_ROWS, n)]
    csv_writer_rows(tmp_path / "want.csv", ["h"], ["i", "s"], zip(range(n), map(str, range(n))))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_csv_refuses_a_lazy_column_at_its_bad_slice(tmp_path):
    # The check runs on each slice as it is built: the second one holds a
    # comma, and nothing past it is asked for.
    n = 3 * CSV_SLICE_ROWS
    lazy = CountingColumn(n, lambda lo, hi: np.array([b"a,b" if lo else b"a"] * (hi - lo)))
    with pytest.raises(ValueError, match="text cell"):
        write_csv(tmp_path / "x.csv", None, ["i", "s"], [np.arange(n), lazy])
    assert lazy.asked == [(0, CSV_SLICE_ROWS), (CSV_SLICE_ROWS, 2 * CSV_SLICE_ROWS)]


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", None, ["a", "b"], [np.arange(3), ["x", "y"]])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", None, ["a", "b"], [np.arange(3)])
