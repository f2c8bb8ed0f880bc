import numpy as np
import pytest

from cowqkd.distill import (
    ClassicalTranscript,
    DistillConfig,
    SiftedBits,
    compute_qber,
    disclose,
    form_blocks,
    sift,
    write_key_file,
    write_transcript,
)
from cowqkd.source import SourceConfig, generate_frames
from cowqkd.timebase import ConfigError, DeviceRngs


def alternating_frames(n=10):
    return generate_frames(SourceConfig(), n, DeviceRngs(0).bits)


# --- sifting ---------------------------------------------------------------

def test_sift_decodes_hand_built_clicks():
    frames = alternating_frames(5)
    # frame 0: bit 0 in bin 0, bit 1 in bin 3; 4500 falls outside the data window
    clicks = np.array([500, 1500, 3500, 4500, 32000 + 500], dtype=np.int64)
    out = sift(clicks, frames)
    assert out.time_ps.tolist() == [500, 1500, 3500, 32500]
    assert out.bit.tolist() == [0, 1, 1, 0]
    assert out.alice_bit.tolist() == [0, 0, 1, 0]
    assert out.excluded_outside == 1
    assert out.excluded_decoy == 0

def test_sift_reads_the_emission_past_the_batch():
    # A batch is a span of its emission: a click in a later frame sifts
    # against that frame's values; a click before frame 0 falls in no slot.
    frames = alternating_frames(5)
    clicks = np.array([-100, 5 * 32000 + 500, 9 * 32000 + 3500], dtype=np.int64)
    out = sift(clicks, frames)
    assert out.time_ps.tolist() == [5 * 32000 + 500, 9 * 32000 + 3500]
    assert out.alice_bit.tolist() == [0, 1]
    assert out.excluded_outside == 1

def test_sift_excludes_decoy_slots():
    cfg = SourceConfig(decoy_probability=1.0, pattern="random")
    frames = generate_frames(cfg, 4, DeviceRngs(1).bits)
    clicks = (np.arange(4, dtype=np.int64) * 32000) + 500
    out = sift(clicks, frames)
    assert len(out) == 0
    assert out.excluded_decoy == 4

def test_one_sift_of_the_trial_is_the_sifts_of_its_spans():
    cfg = SourceConfig(pattern="random", decoy_probability=0.3)
    emission = generate_frames(cfg, 4000, DeviceRngs(2).bits)
    clicks = np.sort(DeviceRngs(3).bits.integers(0, 4000 * 32000, size=3000))
    whole = sift(clicks, emission)
    cut = 1500 * 32000
    parts = [sift(clicks[clicks < cut], emission.span(0, 1500)), sift(clicks[clicks >= cut], emission.span(1500, 2500))]
    for name in ("time_ps", "bit", "alice_bit"):
        assert np.array_equal(getattr(whole, name), np.concatenate([getattr(p, name) for p in parts]))
    assert whole.excluded_outside == sum(p.excluded_outside for p in parts) > 0
    assert whole.excluded_decoy == sum(p.excluded_decoy for p in parts) > 0


# --- QBER ------------------------------------------------------------------

def test_compute_qber():
    assert compute_qber([0, 1, 1, 0], [0, 1, 0, 0]) == 0.25
    assert compute_qber([], []) == 0.0
    with pytest.raises(ConfigError):
        compute_qber([0, 1], [0])


# --- disclosure ------------------------------------------------------------

def block_of(n, wrong_every=0):
    t = np.arange(n, dtype=np.int64) * 32000 + 500
    alice = np.zeros(n, dtype=np.int8)
    bob = alice.copy()
    if wrong_every:
        bob[::wrong_every] = 1
    return SiftedBits(t, bob, alice)

def test_disclose_partitions_block():
    cfg = DistillConfig(block_length=10, disclosure_size=3)
    transcript, key = disclose(block_of(10), cfg, DeviceRngs(2).disclose)
    assert len(transcript) == 3
    assert len(key) == 7
    merged = np.sort(np.concatenate([transcript.disclosed_time_ps, key.time_ps]))
    assert merged.tolist() == block_of(10).time_ps.tolist()

def test_disclose_qber_bookkeeping():
    cfg = DistillConfig(block_length=8, disclosure_size=4)
    block = block_of(8, wrong_every=2)  # errors at even indices
    transcript, key = disclose(block, cfg, DeviceRngs(3).disclose)
    n_err_disc = int(np.sum(transcript.disclosed_bit))
    n_err_kept = int(np.sum(key.bit))
    assert transcript.announced_qber == n_err_disc / 4
    assert compute_qber(key.bit, key.alice_bit) == n_err_kept / 4
    assert n_err_disc + n_err_kept == 4

def test_disclose_wrong_size_rejected():
    cfg = DistillConfig(block_length=10, disclosure_size=3)
    with pytest.raises(ConfigError):
        disclose(block_of(9), cfg, DeviceRngs(4).disclose)

def test_config_validation():
    with pytest.raises(ConfigError):
        DistillConfig(block_length=0)
    with pytest.raises(ConfigError):
        DistillConfig(block_length=10, disclosure_size=10)

def test_form_blocks_and_leftover():
    cfg = DistillConfig(block_length=10, disclosure_size=2)
    blocks, leftover = form_blocks(block_of(25), cfg, DeviceRngs(5).disclose)
    assert len(blocks) == 2
    assert leftover == 5
    assert [t.block_id for t, _ in blocks] == [0, 1]
    assert all(len(t) == 2 and len(k) == 8 for t, k in blocks)
    # blocks are consecutive slices of the stream
    assert blocks[1][1].time_ps.min() >= blocks[0][1].time_ps.max()


# --- artifacts -------------------------------------------------------------

def test_write_transcript_bytes(tmp_path):
    transcript = ClassicalTranscript(
        block_id=3,
        block_length=20,
        disclosed_time_ps=np.array([1002, 34500], dtype=np.int64),
        disclosed_bit=np.array([0, 1], dtype=np.int8),
        announced_qber=1 / 3,
    )
    path = tmp_path / "t.csv"
    write_transcript(transcript, path, ["config_hash=abc seed=1"])
    assert path.read_bytes() == (
        b"# config_hash=abc seed=1\n"
        b"record_type,timestamp_ps,bit\r\n"
        b"block-start,3,20\r\n"
        b"disclosed,1002,0\r\n"
        b"disclosed,34500,1\r\n"
        b"qber,,0.3333333333\r\n"
    )

def test_key_file_contents(tmp_path):
    cfg = DistillConfig(block_length=10, disclosure_size=2)
    _, key = disclose(block_of(10, wrong_every=5), cfg, DeviceRngs(6).disclose)
    path = tmp_path / "k.txt"
    write_key_file(key, 3, path)
    lines = path.read_text().splitlines()
    # The header's qber is the retained bits' own error rate.
    n_err = int(np.sum(key.bit != key.alice_bit))
    assert n_err > 0
    assert lines[0] == f"# block_id=3 qber={n_err / 8:.10g} n=8"
    assert lines[1] == "".join(str(int(b)) for b in key.bit)
    assert set(lines[1]) <= {"0", "1"}
