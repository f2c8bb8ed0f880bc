"""Time-bin source and fiber channel.

A frame is one detection opportunity: ``bits_per_frame`` logical bits packed
into the leading signal window, one pulse pair (occupied bin + vacuum bin)
per bit, followed by dead bins until the next frame.  Logical zero puts the
pulse in the first bin of its slot, logical one in the second, and a decoy
occupies both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class ChannelConfig:
    """Fiber between transmitter and receiver."""

    length_km: float = 0.0
    attenuation_db_per_km: float = 0.2
    excess_loss_db: float = 0.0

    def __post_init__(self) -> None:
        if self.length_km < 0 or self.attenuation_db_per_km < 0 or self.excess_loss_db < 0:
            raise ConfigError("channel losses must be non-negative")


def channel_transmittance(channel: ChannelConfig) -> float:
    """Power transmittance of the fiber link.

    >>> channel_transmittance(ChannelConfig(length_km=0.0))
    1.0
    """
    total_db = channel.length_km * channel.attenuation_db_per_km + channel.excess_loss_db
    return 10.0 ** (-total_db / 10.0)


class FrameBatch:
    """Columnar batch of frames laid out by ``source``: one row of slot bits per frame."""

    def __init__(self, source: SourceConfig, bits: np.ndarray, start_frame: int = 0):
        bits = np.asarray(bits, dtype=np.int8)
        if bits.ndim != 2 or bits.shape[1] != source.bits_per_frame:
            raise ConfigError("bits array must be (n_frames, bits_per_frame)")
        self.source = source
        self.bits = bits
        self.start_frame = int(start_frame)
        check_time_range((self.start_frame + len(bits) + 1) * source.frame_period_ps)

    def __len__(self) -> int:
        return self.bits.shape[0]

    @property
    def start_ps(self) -> int:
        return self.start_frame * self.source.frame_period_ps

    @property
    def end_ps(self) -> int:
        return (self.start_frame + len(self)) * self.source.frame_period_ps

    @cached_property
    def _decoy_second_pulses(self) -> np.ndarray:
        """Pulse index of the sub-bin-1 pulse of every decoy slot, ascending."""
        slots = np.flatnonzero(self.bits.reshape(-1) == DECOY)
        return slots + np.arange(1, slots.size + 1, dtype=np.int64)

    def n_pulses(self) -> int:
        """Number of emitted pulses: one per slot, two per decoy slot."""
        return self.bits.size + self._decoy_second_pulses.size

    def pulse_times(self, idx: np.ndarray) -> np.ndarray:
        """Global occupied-bin start ``time_ps`` of the pulses at ``idx``.

        Pulses are numbered frame by frame, slot by slot, in sub-bin order; a
        decoy slot emits in sub-bin 0 and then in sub-bin 1.  Sorted indices
        give sorted times.
        """
        cfg = self.source
        idx = np.asarray(idx, dtype=np.int64)
        slot = idx
        second = self._decoy_second_pulses
        if second.size:
            before = np.searchsorted(second, idx, side="right")
            slot = idx - before
            is_second = (before > 0) & (second[np.maximum(before - 1, 0)] == idx)
        # Bit 0 and a decoy open in sub-bin 0, bit 1 in sub-bin 1.
        sub = np.bitwise_and(self.bits.reshape(-1)[slot], 1, dtype=np.int64)
        if second.size:
            sub[is_second] = 1
        frame, k = np.divmod(slot, cfg.bits_per_frame)
        return (self.start_frame + frame) * cfg.frame_period_ps + (2 * k + sub) * cfg.bin_width_ps

    def bit_at(self, frame: np.ndarray, slot: np.ndarray) -> np.ndarray:
        local = np.asarray(frame, dtype=np.int64) - self.start_frame
        return self.bits[local, np.asarray(slot, dtype=np.int64)]


def generate_frames(cfg: SourceConfig, count: int, rng: np.random.Generator, start_frame: int = 0) -> FrameBatch:
    """Draw ``count`` frames starting at global frame index ``start_frame``."""
    if count < 0:
        raise ConfigError("frame count must be >= 0")
    k = cfg.bits_per_frame
    if cfg.pattern == PATTERN_ALTERNATING:
        row = np.arange(k, dtype=np.int8) % 2
        bits = np.tile(row, (count, 1))
    else:
        bits = rng.integers(0, 2, size=(count, k), dtype=np.int8)
    if cfg.decoy_probability > 0 and count > 0:
        decoy = rng.random(size=(count, k)) < cfg.decoy_probability
        bits[decoy] = DECOY
    return FrameBatch(cfg, bits, start_frame=start_frame)


def write_frames_csv(batch: FrameBatch, path, header_lines: list[str] | None = None) -> None:
    """Frame log: one row per frame with its occupied frame-local bins."""
    cfg = batch.source
    n, k = batch.bits.shape
    # bins[j][b]: the occupied bins of slot j holding logical bit b, after
    # the ";" that follows slot j - 1.
    bins = [
        np.array([f"{sep}{a}", f"{sep}{a + cfg.bin_width_ps}", f"{sep}{a};{a + cfg.bin_width_ps}"], dtype="S")
        for sep, a in ((";" if j else "", 2 * j * cfg.bin_width_ps) for j in range(k))
    ]
    pulse_bins = bins[0][batch.bits[:, 0]]
    for j in range(1, k):
        pulse_bins = np.char.add(pulse_bins, bins[j][batch.bits[:, j]])
    digits = np.ascontiguousarray(batch.bits.astype(np.uint8) + 48).view(f"S{k}")[:, 0]
    starts = (batch.start_frame + np.arange(n, dtype=np.int64)) * cfg.frame_period_ps
    write_csv(path, header_lines, ["frame_start_ps", "bits", "pulse_bins_ps"], [starts, digits, pulse_bins])
