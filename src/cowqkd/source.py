"""Time-bin source and fiber channel.

A frame is one detection opportunity: ``bits_per_frame`` logical bits packed
into the leading signal window, one pulse pair (occupied bin + vacuum bin)
per bit, followed by dead bins until the next frame.  Logical zero puts the
pulse in the first bin of its slot, logical one in the second, and a decoy
occupies both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .timebase import ConfigError, check_time_range, write_csv

PATTERN_ALTERNATING = "alternating"
PATTERN_RANDOM = "random"

ENCODING_NRZ = "nrz"
ENCODING_RZ = "rz"


# Alice's value for a decoy slot; the logical bits are 0 and 1.
DECOY = 2


@dataclass(frozen=True)
class SourceConfig:
    """Transmitter settings and the frame layout, in integer picoseconds."""

    mean_photon_number: float = 0.2
    bin_width_ps: int = 1000
    frame_period_ps: int = 32000
    bits_per_frame: int = 2
    encoding: str = ENCODING_NRZ
    pattern: str = PATTERN_ALTERNATING
    decoy_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.mean_photon_number < 1:
            raise ConfigError("mean photon number must lie in (0, 1)")
        if self.encoding not in (ENCODING_NRZ, ENCODING_RZ):
            raise ConfigError(f"unknown encoding {self.encoding!r}")
        if self.pattern not in (PATTERN_ALTERNATING, PATTERN_RANDOM):
            raise ConfigError(f"unknown pattern {self.pattern!r}")
        if not 0.0 <= self.decoy_probability <= 1.0:
            raise ConfigError("decoy probability must lie in [0, 1]")
        if self.bin_width_ps <= 0 or self.frame_period_ps <= 0:
            raise ConfigError("bin width and frame period must be positive")
        if self.bits_per_frame < 1:
            raise ConfigError("need at least one bit slot per frame")
        if self.signal_window_ps > self.frame_period_ps:
            raise ConfigError("signal window does not fit in the frame period")

    @property
    def signal_window_ps(self) -> int:
        return 2 * self.bits_per_frame * self.bin_width_ps

    @property
    def frame_rate_hz(self) -> float:
        return 1e12 / self.frame_period_ps

    @property
    def occupied_width_ps(self) -> int:
        """Width of the occupied part of a pulse bin (full bin for NRZ)."""
        return self.bin_width_ps if self.encoding == ENCODING_NRZ else max(1, self.bin_width_ps // 2)


# Standard single-mode fibre at 1550 nm.
FIBER_LOSS_DB_PER_KM = 0.2


@dataclass(frozen=True)
class ChannelConfig:
    """Fiber between transmitter and receiver."""

    length_km: float = 0.0

    def __post_init__(self) -> None:
        if self.length_km < 0:
            raise ConfigError("channel length must be non-negative")


def channel_transmittance(channel: ChannelConfig) -> float:
    """Power transmittance of the fiber link.

    >>> channel_transmittance(ChannelConfig(length_km=0.0))
    1.0
    """
    return 10.0 ** (-channel.length_km * FIBER_LOSS_DB_PER_KM / 10.0)


def _splitmix64(slot: np.ndarray, key: np.uint64) -> np.ndarray:
    """Output ``slot`` of SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) seeded with
    ``key``, for an array ``slot`` of non-negative integers.  It works in place
    on one uint64 copy of ``slot``, which wraps on overflow without a warning."""
    z = np.array(slot, dtype=np.uint64)
    z += np.uint64(1)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += key
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    return z


class FrameBatch:
    """Frames ``[start_frame, start_frame + n_frames)`` of one emission, whose
    uint64 decoy and bit keys fix Alice's value in every slot (:meth:`values`).
    A pulse is named by its lattice position 2 s + b, for global slot s and
    sub-bin b (:meth:`pulse_times`)."""

    def __init__(self, source: SourceConfig, keys: np.ndarray, start_frame: int, n_frames: int):
        self.source = source
        self.keys = keys
        self.start_frame = int(start_frame)
        self.n_frames = int(n_frames)
        check_time_range((self.start_frame + self.n_frames + 1) * source.frame_period_ps)

    def __len__(self) -> int:
        return self.n_frames

    def span(self, start_frame: int, n_frames: int) -> "FrameBatch":
        """Frames ``[start_frame, start_frame + n_frames)`` of the same emission."""
        return FrameBatch(self.source, self.keys, start_frame, n_frames)

    def values(self, slot: np.ndarray) -> np.ndarray:
        """Alice's value (0, 1 or :data:`DECOY`) in each global slot (frame f's
        slot j is f * bits_per_frame + j) of the array ``slot``: a decoy when
        :meth:`is_decoy`, else slot % bits_per_frame % 2 (alternating) or its
        bit-key hash's low bit.  For an even bits_per_frame the alternating
        value is the low bit of the slot, which differs from slot %
        bits_per_frame by a multiple of it, computed in one pass.  For an odd
        one it is the low bit of slot - frame * bits_per_frame for frame =
        slot // bits_per_frame, because numpy's integer remainder is several
        times slower than its floor division; that bit is the low bit of
        slot ^ (frame & bits_per_frame), since frame * bits_per_frame is odd
        exactly when both factors are.  Either is written straight into the
        int8 output."""
        cfg = self.source
        slot = np.asarray(slot)
        if cfg.pattern == PATTERN_ALTERNATING:
            out = np.empty(slot.shape, dtype=np.int8)
            if cfg.bits_per_frame % 2 == 0:
                np.bitwise_and(slot, 1, out=out, casting="unsafe")
            else:
                np.bitwise_and(slot // cfg.bits_per_frame, cfg.bits_per_frame, out=out, casting="unsafe")
                np.bitwise_xor(out, slot, out=out, casting="unsafe")
                out &= 1
        else:
            out = _splitmix64(slot, self.keys[1])
            out &= 1
            out = out.astype(np.int8)
        if cfg.decoy_probability > 0:
            out[self.is_decoy(slot)] = DECOY
        return out

    def is_decoy(self, slot: np.ndarray) -> np.ndarray:
        """Whether each global slot of ``slot`` is a decoy: its decoy-key hash
        lies below decoy_probability * 2**64."""
        p = self.source.decoy_probability
        if p <= 0:
            return np.zeros(np.shape(slot), dtype=bool)
        # A whole number lies below x exactly when it is at most ceil(x) - 1.
        return _splitmix64(slot, self.keys[0]) <= np.uint64(math.ceil(p * 2**64) - 1)

    @property
    def bits(self) -> np.ndarray:
        """The values, one row of ``bits_per_frame`` per frame, built when read."""
        k = self.source.bits_per_frame
        return self.values(np.arange(self.start_frame * k, (self.start_frame + len(self)) * k)).reshape(-1, k)

    def pulse_times(self, lattice: np.ndarray) -> np.ndarray:
        """Global occupied-bin start ``time_ps`` of the pulses at lattice
        positions ``lattice``.

        The pulse in sub-bin b of global slot s = f k + j (frame f) sits at
        lattice position 2 s + b and starts at f period + (2 j + b) bin.  Bit
        0 fills sub-bin 0, bit 1 sub-bin 1 and a decoy both.  With
        f = lattice // 2k that time is lattice bin + f (period - 2 k bin):
        one floor division and no remainder.  Sorted positions give sorted
        times.
        """
        cfg = self.source
        k, width = cfg.bits_per_frame, cfg.bin_width_ps
        lattice = np.asarray(lattice, dtype=np.int64)
        t = lattice * width
        frame = lattice // (2 * k)
        frame *= cfg.frame_period_ps - 2 * k * width
        t += frame
        return t


def generate_frames(cfg: SourceConfig, count: int, rng: np.random.Generator) -> FrameBatch:
    """Frames ``[0, count)`` of an emission keyed by two draws from ``rng``."""
    if count < 0:
        raise ConfigError("frame count must be >= 0")
    return FrameBatch(cfg, rng.integers(2**64, size=2, dtype=np.uint64), 0, count)


class _SliceColumn:
    """A column of ``n`` cells whose slices ``cells(lo, hi)`` builds only when
    asked, so ``write_csv`` holds one slice of it at a time."""

    def __init__(self, n: int, cells) -> None:
        self.n = n
        self.cells = cells

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, _ = rows.indices(self.n)
        return self.cells(lo, hi)


def write_frames_csv(batch: FrameBatch, path, header_lines: list[str] | None = None) -> None:
    """Frame log: one row per frame with its occupied frame-local bins.

    Each column is built one slice of rows at a time, as the writer asks for
    it, so memory does not grow with the number of frames.
    """
    cfg = batch.source
    n, k = len(batch), cfg.bits_per_frame
    # bins[j][b]: the occupied bins of slot j holding logical bit b, after
    # the ";" that follows slot j - 1.
    bins = [
        np.array([f"{sep}{a}", f"{sep}{a + cfg.bin_width_ps}", f"{sep}{a};{a + cfg.bin_width_ps}"], dtype="S")
        for sep, a in ((";" if j else "", 2 * j * cfg.bin_width_ps) for j in range(k))
    ]

    def starts(lo: int, hi: int) -> np.ndarray:
        return (batch.start_frame + np.arange(lo, hi, dtype=np.int64)) * cfg.frame_period_ps

    def digits(lo: int, hi: int) -> np.ndarray:
        return (batch.span(batch.start_frame + lo, hi - lo).bits.astype(np.uint8) + 48).view(f"S{k}")[:, 0]

    def pulse_bins(lo: int, hi: int) -> np.ndarray:
        bits = batch.span(batch.start_frame + lo, hi - lo).bits
        out = bins[0][bits[:, 0]]
        for j in range(1, k):
            out = np.char.add(out, bins[j][bits[:, j]])
        return out

    cols = [_SliceColumn(n, cells) for cells in (starts, digits, pulse_bins)]
    write_csv(path, header_lines, ["frame_start_ps", "bits", "pulse_bins_ps"], cols)
