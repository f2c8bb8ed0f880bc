"""Receiver-side key distillation: sifting, block formation, and disclosure.

A click is decoded by its position inside the frame: the first bin of a bit
slot means zero, the second means one.  A fixed-size block of sifted bits is
split into a disclosed subset, published with timestamps on the classical
channel, and a retained remainder that becomes key material.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .source import DECOY, FrameBatch
from .timebase import ConfigError, write_csv


@dataclass(frozen=True)
class DistillConfig:
    block_length: int = 20000
    disclosure_size: int = 2000

    def __post_init__(self) -> None:
        if self.block_length <= 0:
            raise ConfigError("block length must be positive")
        if not 0 <= self.disclosure_size < self.block_length:
            raise ConfigError("disclosure size must lie in [0, block length)")


@dataclass
class SiftedBits:
    """Columnar sifted detections with transmitter ground truth alongside.

    ``alice_bit`` never leaves the simulator; it exists so tests and error
    accounting can score decisions without re-deriving the pattern.
    """

    time_ps: np.ndarray
    bit: np.ndarray
    alice_bit: np.ndarray
    excluded_outside: int = 0
    excluded_decoy: int = 0

    def __len__(self) -> int:
        return self.time_ps.size


def sift(time_ps: np.ndarray, frames: FrameBatch) -> SiftedBits:
    """Decode click times into sifted bits against the emission of ``frames``.

    Clicks outside any bit slot are dropped and counted, as are clicks on
    decoy slots (announced by the transmitter after the fact).
    """
    t = np.asarray(time_ps, dtype=np.int64)
    source = frames.source
    frame = t // source.frame_period_ps
    local = t - frame * source.frame_period_ps
    bin_idx = local // source.bin_width_ps

    ok = bin_idx < 2 * source.bits_per_frame
    excluded_outside = int(np.sum(~ok))

    frame, bin_idx, t_ok = frame[ok], bin_idx[ok], t[ok]
    slot = bin_idx // 2
    bit = (bin_idx % 2).astype(np.int8)
    alice = frames.values(frame * source.bits_per_frame + slot)

    decoy = alice == DECOY
    excluded_decoy = int(np.sum(decoy))
    keep = ~decoy
    return SiftedBits(
        time_ps=t_ok[keep],
        bit=bit[keep],
        alice_bit=alice[keep],
        excluded_outside=excluded_outside,
        excluded_decoy=excluded_decoy,
    )


def compute_qber(bob_bits: np.ndarray, alice_bits: np.ndarray) -> float:
    """Fraction of sifted bits that disagree with what was sent."""
    bob_bits = np.asarray(bob_bits)
    alice_bits = np.asarray(alice_bits)
    if bob_bits.shape != alice_bits.shape:
        raise ConfigError("bit arrays must have matching shapes")
    if bob_bits.size == 0:
        return 0.0
    return float(np.mean(bob_bits != alice_bits))


@dataclass
class ClassicalTranscript:
    """What crosses the public channel for one block."""

    block_id: int
    block_length: int
    disclosed_time_ps: np.ndarray
    disclosed_bit: np.ndarray
    announced_qber: float

    def __len__(self) -> int:
        return self.disclosed_time_ps.size


def disclose(block: SiftedBits, cfg: DistillConfig, rng: np.random.Generator, block_id: int = 0) -> tuple[ClassicalTranscript, SiftedBits]:
    """Split one full block into a public transcript and the retained key bits."""
    n = len(block)
    if n != cfg.block_length:
        raise ConfigError(f"block has {n} bits, expected {cfg.block_length}")
    pick = rng.choice(n, size=cfg.disclosure_size, replace=False)
    mask = np.zeros(n, dtype=bool)
    mask[pick] = True

    announced = compute_qber(block.bit[mask], block.alice_bit[mask]) if cfg.disclosure_size else 0.0
    transcript = ClassicalTranscript(
        block_id=block_id,
        block_length=n,
        disclosed_time_ps=block.time_ps[mask],
        disclosed_bit=block.bit[mask],
        announced_qber=announced,
    )
    return transcript, SiftedBits(block.time_ps[~mask], block.bit[~mask], block.alice_bit[~mask])


def form_blocks(sifted: SiftedBits, cfg: DistillConfig, rng: np.random.Generator) -> tuple[list[tuple[ClassicalTranscript, SiftedBits]], int]:
    """Cut the sifted stream into full blocks; returns (blocks, leftover bits)."""
    out = []
    n_full = len(sifted) // cfg.block_length
    for b in range(n_full):
        sl = slice(b * cfg.block_length, (b + 1) * cfg.block_length)
        piece = SiftedBits(sifted.time_ps[sl], sifted.bit[sl], sifted.alice_bit[sl])
        out.append(disclose(piece, cfg, rng, block_id=b))
    leftover = len(sifted) - n_full * cfg.block_length
    return out, leftover


# ---------------------------------------------------------------------------
# Artifact writers.

def write_transcript(transcript: ClassicalTranscript, path, header_lines: list[str] | None = None) -> None:
    """Line records: record_type,timestamp_ps,bit."""
    n = transcript.disclosed_time_ps.size
    qber = f"{transcript.announced_qber:.10g}"
    cols = [
        np.repeat(np.array([b"block-start", b"disclosed", b"qber"]), [1, n, 1]),
        np.array([transcript.block_id, *transcript.disclosed_time_ps.tolist(), ""], dtype="S"),
        np.array([transcript.block_length, *transcript.disclosed_bit.tolist(), qber], dtype="S"),
    ]
    write_csv(path, header_lines, ["record_type", "timestamp_ps", "bit"], cols)


def write_key_file(key: SiftedBits, block_id: int, path, header_lines: list[str] | None = None) -> None:
    """The retained bits of block ``block_id``, headed by their error rate."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        fh.write(f"# block_id={block_id} qber={compute_qber(key.bit, key.alice_bit):.10g} n={len(key)}\n")
        fh.write((key.bit.astype(np.uint8) + 48).tobytes().decode() + "\n")
