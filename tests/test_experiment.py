import dataclasses
import filecmp
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats

from cowqkd import attack, cli, detectors, distill, experiment, source
from cowqkd.attack import AttackConfig
from cowqkd.detectors import (
    SPAD_BIAS_TABLE,
    Cause,
    DetectionLog,
    Histogram,
    SnspdConfig,
    SpadConfig,
    snspd_detect,
    spad_preset,
)
from cowqkd.distill import DistillConfig
from cowqkd.experiment import (
    PRESETS,
    ExperimentConfig,
    _apply_axis,
    _flat_fields,
    _parse_value,
    _width_config,
    _width_correlation,
    apply_overrides,
    artifact_headers,
    config_hash,
    config_to_flat,
    correlation_law,
    emit_timing_correlation,
    preset_config,
    read_config_file,
    run_simulation,
    run_sweep,
    run_trial,
    write_table_csv,
)
from cowqkd.rates import McCounts, count_interval
from cowqkd.source import ChannelConfig, SourceConfig, generate_frames, write_frames_csv
from cowqkd.timebase import TIMING_CORRELATION_STUDY, ConfigError, DeviceRngs, Stream
from oracles import csv_writer_rows, full_exposure_correlation, start_search_correlation_histogram, stream_rng


def small_attack_cfg(**kw):
    # Shrunk blocks need a denser disclosure: with ~150 disclosed samples a
    # cluster's coincidences are a small Poisson draw.
    base = dict(
        spad=spad_preset("5v"),
        source=SourceConfig(mean_photon_number=0.2),
        distill=DistillConfig(block_length=500, disclosure_size=150),
        frames_per_trial=600_000,
        seed=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# --- flat config mapping ---------------------------------------------------

class TestConfigMapping:
    def test_flat_contains_every_section(self):
        flat = config_to_flat(ExperimentConfig(attack_enabled=False, frames_per_trial=1000))
        assert flat["seed"] == "0"
        assert flat["attack_enabled"] == "false"
        assert flat["source.mean_photon_number"] == "0.2"
        assert flat["spad.backflash_delay_scale_ps"] == "600"
        assert flat["spad.backflash_delay_max_ps"] == "5000"
        assert not any(k.startswith("spad.backflash_delay.") for k in flat)
        assert flat["attack.clock_offset_ps"] == "0"

    def test_flat_holds_exactly_every_field(self):
        # A field added to a config dataclass cannot be left out of the hash.
        cfg = preset_config("paper")
        want = set()
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            if dataclasses.is_dataclass(value):
                want |= {f"{f.name}.{g.name}" for g in dataclasses.fields(value)}
            else:
                want.add(f.name)
        assert set(config_to_flat(cfg)) == want

    def test_readme_common_keys_exist(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("Commonly adjusted keys:\n\n", 1)[1].split("\n\n", 1)[0]
        keys = []
        for line in block.splitlines():
            if line.startswith("    ") and not line.startswith("     "):
                keys += [k.strip() for k in line.strip().split("  ")[0].split(",")]
        assert {"source.mean_photon_number", "attack.clock_offset_ps", "seed"} <= set(keys)
        assert set(keys) <= set(config_to_flat(preset_config("paper")))

    @pytest.mark.parametrize("preset", PRESETS)
    def test_roundtrip_through_overrides(self, preset, tmp_path):
        # Every key of the preset, written to a config file and read back.
        cfg = preset_config(preset)
        p = tmp_path / "run.cfg"
        p.write_text("".join(f"{k} = {v}\n" for k, v in config_to_flat(cfg).items()))
        rebuilt = apply_overrides(ExperimentConfig(attack_enabled=False), read_config_file(p))
        assert rebuilt == cfg
        assert config_hash(rebuilt) == config_hash(cfg)

    def test_every_field_has_a_parser(self):
        # A field of a type the parser does not know would be a key no file
        # or --set could give.
        cfg = preset_config("paper")
        for key, _, f in _flat_fields(cfg):
            assert f.type in ("bool", "int", "float", "str"), key
        with pytest.raises(TypeError):
            _parse_value("int | None", "1", "x")

    def test_override_basic_fields(self):
        cfg = preset_config("2v")
        out = apply_overrides(cfg, {
            "spad.detection_efficiency": "0.5",
            "source.pattern": "random",
            "trials": "2",
            "attack_enabled": "false",
        })
        assert out.spad.detection_efficiency == 0.5
        assert out.source.pattern == "random"
        assert out.trials == 2
        assert cfg.spad.detection_efficiency == 0.07  # original untouched

    def test_bias_label_sets_efficiency_and_dark_rate(self):
        # A bias point on the sweep axis, by label or in whole volts, sets
        # both numbers of its table row and nothing else.
        paper = preset_config("paper")
        out = _apply_axis(paper, "bias", "7v")
        assert (out.spad.detection_efficiency, out.spad.dark_count_rate_cps) == SPAD_BIAS_TABLE["7v"] == (0.25, 350.0)
        assert out == replace(paper, spad=replace(paper.spad, detection_efficiency=0.25, dark_count_rate_cps=350.0))
        assert _apply_axis(paper, "bias", 7) == _apply_axis(paper, "bias", 7.0) == out
        assert "spad.excess_bias_label" not in config_to_flat(out)

    def test_bias_label_yields_to_explicit_keys(self):
        # A sweep row's bias_v is derived from the numbers that ran: the
        # table label whose pair they are, or empty for an off-table pair.
        base = apply_overrides(preset_config("paper"), {"frames_per_trial": "50000", "attack_enabled": "false"})
        off = apply_overrides(base, {"spad.detection_efficiency": "0.3"})
        rows = run_sweep(base, "mu", [0.2]) + run_sweep(off, "mu", [0.2])
        assert [r["bias_v"] for r in rows] == ["5v", ""]
        rows = run_sweep(off, "bias", ["2v", 7])
        assert [r["bias_v"] for r in rows] == ["2v", "7v"]

    def test_unknown_bias_label_rejected(self, capsys):
        with pytest.raises(ConfigError, match="unknown bias preset"):
            _apply_axis(preset_config("paper"), "bias", "9v")
        assert cli.main(["sweep", "--preset", "5v", "--axis", "bias", "--values", "2v,9v"]) == cli.EXIT_CONFIG
        assert "unknown bias preset '9v'" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_overrides(preset_config("paper"), {"spad.excess_bias_label": "7v"})

    def test_a_bias_preset_and_its_pair_set_by_hand_run_alike(self, tmp_path):
        # The 7 V preset and the 5 V preset given the 7 V pair are one config:
        # one hash, and byte-identical artifacts.
        frames = {"frames_per_trial": "100000", "seed": "1"}
        seven = apply_overrides(preset_config("7v"), frames)
        by_hand = apply_overrides(preset_config("5v"), {
            **frames, "spad.detection_efficiency": "0.25", "spad.dark_count_rate_cps": "350",
        })
        assert config_hash(seven) == config_hash(by_hand)
        run_simulation(seven, tmp_path / "a")
        run_simulation(by_hand, tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir()) and "rates.csv" in names
        assert filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)[0] == names

    def test_override_delay_subkeys(self):
        cfg = preset_config("2v")
        out = apply_overrides(cfg, {
            "spad.backflash_delay_scale_ps": "800",
            "spad.backflash_delay_max_ps": "3000",
        })
        assert out.spad.backflash_delay_scale_ps == 800.0
        assert out.spad.backflash_delay_max_ps == 3000
        # the old three-part delay keys are malformed now
        for sub in ("kind", "scale_ps", "support_max_ps", "bin_edges_ps", "weights"):
            with pytest.raises(ConfigError):
                apply_overrides(cfg, {f"spad.backflash_delay.{sub}": "1"})

    @pytest.mark.parametrize("key", ["nope", "spad.nope", "nope.x", "a.b.c.d"])
    def test_unknown_keys_rejected(self, key):
        with pytest.raises(ConfigError):
            apply_overrides(preset_config("2v"), {key: "1"})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(preset_config("2v"), {"attack_enabled": "maybe"})
        with pytest.raises(ConfigError):
            apply_overrides(preset_config("2v"), {"trials": "two"})

    def test_read_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\n\nseed = 7\nspad.detection_efficiency = 0.25\n")
        assert read_config_file(p) == {"seed": "7", "spad.detection_efficiency": "0.25"}
        p.write_text("seed 7\n")
        with pytest.raises(ConfigError):
            read_config_file(p)

    def test_hash_is_stable_and_sensitive(self):
        a = preset_config("5v")
        assert config_hash(a) == config_hash(preset_config("5v"))
        b = apply_overrides(a, {"seed": "1"})
        assert config_hash(a) != config_hash(b)
        assert len(config_hash(a)) == 16
        assert set(config_hash(a)) <= set("0123456789abcdef")


# --- presets and validation ------------------------------------------------

class TestConfigValidation:
    def test_presets(self):
        for label, eff in (("2v", 0.07), ("5v", 0.20), ("7v", 0.25)):
            cfg = preset_config(label)
            assert cfg.spad.detection_efficiency == eff
            assert cfg.source.mean_photon_number == 0.1
            assert cfg.frames_per_trial == 1_000_000
            assert not cfg.attack_enabled
        paper = preset_config("paper")
        assert paper.attack_enabled
        assert paper.distill.block_length == 20000
        with pytest.raises(ConfigError):
            preset_config("3v")

    def test_gate_fits_in_the_frame_period(self):
        # The gate opens once per source frame: its width and phase are
        # bounded by the frame period, which is set in one place.
        kw = dict(attack_enabled=False)
        with pytest.raises(ConfigError):
            ExperimentConfig(spad=SpadConfig(gate_width_ps=32001), **kw)
        with pytest.raises(ConfigError):
            ExperimentConfig(spad=SpadConfig(gate_phase_ps=32000), **kw)
        with pytest.raises(ConfigError):
            ExperimentConfig(source=SourceConfig(frame_period_ps=16000), spad=SpadConfig(gate_phase_ps=16000), **kw)
        ExperimentConfig(spad=SpadConfig(gate_width_ps=32000, gate_phase_ps=31999), **kw)
        cfg = ExperimentConfig(source=SourceConfig(frame_period_ps=16000), **kw)
        assert cfg.rate_inputs().opportunity_rate_hz == pytest.approx(62.5e6)

    def test_scalar_bounds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(trials=0, attack_enabled=False)
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=-1, attack_enabled=False)
        with pytest.raises(ConfigError):
            ExperimentConfig(export_frames=-1, attack_enabled=False)
        ExperimentConfig(frames_per_trial=1000, export_frames=1000, attack_enabled=False)
        with pytest.raises(ConfigError, match="export_frames"):
            ExperimentConfig(frames_per_trial=1000, export_frames=1001, attack_enabled=False)

    def test_trial_seeds(self):
        # Every trial keys its streams with the one seed; trials differ by index.
        cfg = ExperimentConfig(seed=9, trials=2, attack_enabled=False, frames_per_trial=1000)
        run = run_simulation(cfg)
        assert [t.trial for t in run.trials] == [0, 1]
        assert run.manifest["seeds"] == [9, 9]

    def test_rate_inputs_oracle(self):
        cfg = preset_config("5v")
        r = cfg.rate_inputs()
        assert r.mu == pytest.approx(0.2)       # two pulses of 0.1 per gate
        assert r.eta == pytest.approx(0.20)     # zero-length channel
        assert r.p_dark == pytest.approx(200.0 * 4000e-12)
        assert not cfg.attack_enabled and r.p_b == 0.0  # no leak without the attack
        assert replace(cfg, attack_enabled=True).rate_inputs().p_b == pytest.approx(0.12 * 0.74)
        q = 1 - math.exp(-r.mu * r.eta) * (1 - r.p_dark)
        want = q / (1 + 31.25e6 * q * 10e-6)
        assert cfg.analytic_p_sift() == pytest.approx(want)


# --- runs ------------------------------------------------------------------

class TestRuns:
    def test_infeasible_block_rejected_only_with_attack(self, monkeypatch):
        kw = dict(distill=DistillConfig(block_length=20000, disclosure_size=2000),
                  frames_per_trial=10_000)
        with monkeypatch.context() as m:
            # Rejected before any draw: no trial may start.
            m.setattr(experiment, "run_trial", lambda *a: pytest.fail("a trial ran"))
            with pytest.raises(ConfigError):
                run_simulation(ExperimentConfig(attack_enabled=True, **kw))
        run_simulation(ExperimentConfig(attack_enabled=False, **kw))

    def test_rate_inputs_are_checked_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("frames drawn for inputs the closed forms reject")

        monkeypatch.setattr(experiment, "generate_frames", no_draw)
        # More than one dark count per gate, with the attack (and so the
        # block-fill check) off.
        cfg = apply_overrides(preset_config("5v"), {"spad.dark_count_rate_cps": "1e9"})
        assert not cfg.attack_enabled
        with pytest.raises(ConfigError, match="p_dark must lie in"):
            run_simulation(cfg)
        with pytest.raises(ConfigError, match="p_dark must lie in"):
            run_sweep(cfg, "distance", [0, 10])
        # Only the last point fails: at 1e5 km no photon arrives, and with no
        # darks the receiver never clicks.  The 0 km point must not run.
        dark_free = apply_overrides(preset_config("5v"), {"spad.dark_count_rate_cps": "0"})
        with pytest.raises(ConfigError, match="p_sift must be positive"):
            run_sweep(dark_free, "distance", [0, 1e5])

    def test_trial_counts_match_analytic(self):
        cfg = apply_overrides(preset_config("5v"), {"frames_per_trial": "200000"})
        t = run_trial(cfg, 0)
        lo, hi = count_interval(cfg.frames_per_trial, cfg.analytic_p_sift())
        assert lo <= len(t.sifted) <= hi
        assert np.all(np.diff(t.bob_log.time_ps) >= cfg.spad.hold_off_ps)
        assert len(t.eve_log) == 0  # attack disabled

    def test_eve_dark_rate_leaves_her_light_counts(self, monkeypatch):
        # Her darks draw on their own stream, so over three chunks the
        # backflash and reflection counts she logs are the same at every
        # dark rate.
        monkeypatch.setattr(experiment, "CHUNK_FRAMES", 200_000)
        light, darks = [], []
        for rate in (0.0, 16.4, 1000.0):
            log = run_trial(small_attack_cfg(snspd=SnspdConfig(dark_count_rate_cps=rate)), 0).eve_log
            lit = log.cause != Cause.DARK
            light.append([log.time_ps[lit].tolist(), log.cause[lit].tolist(), log.source_ps[lit].tolist()])
            darks.append(len(log) - int(lit.sum()))
        assert light[0] == light[1] == light[2]
        assert Cause.BACKFLASH in light[0][1] and Cause.REFLECTION in light[0][1]
        assert darks[0] == 0 and darks[2] > 5

    def test_eve_log_in_time_then_cause_order(self, monkeypatch):
        # snspd_detect leaves each chunk's counts grouped by cause; the one
        # sort is DetectionLog.merge's, over all three chunks together.
        monkeypatch.setattr(experiment, "CHUNK_FRAMES", 200_000)
        log = run_trial(small_attack_cfg(snspd=SnspdConfig(dark_count_rate_cps=1000.0)), 0).eve_log
        assert {Cause.BACKFLASH, Cause.REFLECTION, Cause.DARK} <= set(log.cause.tolist())
        assert np.array_equal(np.lexsort((log.cause, log.time_ps)), np.arange(len(log)))

    def test_attack_run_end_to_end(self):
        run = run_simulation(small_attack_cfg())
        assert next(r for r in run.report.rows if r.name == "p_sift").ok
        assert next(r for r in run.report.rows if r.name == "p_b").ok
        assert run.counts.n_retained > 0
        assert run.counts.n_frames_covered < run.counts.n_frames
        assert run.manifest["blocks"] >= 1
        assert run.manifest["calibration_offsets_ps"]
        metrics = run.manifest["learning"]
        assert metrics and all(m["accuracy_matched"] > 0.7 for m in metrics)

    def test_manifest_learning_lists_each_inferred_blocks_metrics(self, tmp_path):
        # perfbench's run check reads accuracy_matched from these entries.
        run = run_simulation(small_attack_cfg(trials=2), tmp_path)
        blocks = [b for t in run.trials for b in t.blocks if b.inference is not None]
        assert len(blocks) >= 2
        want = [attack.learning_metrics(b.inference, b.retained) for b in blocks]
        written = json.loads((tmp_path / "manifest.json").read_text())["learning"]
        assert run.manifest["learning"] == written == want
        keys = {"accuracy_matched", "accuracy_all", "learning_rate", "matched_fraction"}
        assert all(m.keys() == keys for m in written)

    def test_leak_tallies_recount_with_sets(self):
        # Each backflash count Eve logs names its avalanche.  The tallies count
        # those whose avalanche is a retained click, and a click in any block.
        def recount(t):
            retained = {x for b in t.blocks for x in b.retained.time_ps.tolist()}
            in_blocks = retained | {x for b in t.blocks for x in b.transcript.disclosed_time_ps.tolist()}
            avalanches = t.eve_log.source_ps[t.eve_log.cause == Cause.BACKFLASH].tolist()
            return sum(a in retained for a in avalanches), sum(a in in_blocks for a in avalanches)

        run = run_simulation(small_attack_cfg(trials=2))
        want_retained, want_blocks = map(sum, zip(*map(recount, run.trials)))
        assert run.counts.n_eve_backflash == want_retained > 0
        assert run.counts.n_eve_backflash_blocks == want_blocks > want_retained

        # With no hold-off, a photon and a dark on one picosecond are both
        # kept, and both emit: click times and avalanches repeat.
        spad = replace(spad_preset("5v"), dark_count_rate_cps=1e11, gate_width_ps=1000, hold_off_s=0.0,
                       backflash_probability=1.0)
        t = run_trial(small_attack_cfg(spad=spad, frames_per_trial=5000, distill=DistillConfig(20_000, 2000)), 0)
        clicks = np.concatenate([b.retained.time_ps for b in t.blocks] + [b.transcript.disclosed_time_ps for b in t.blocks])
        avalanches = t.eve_log.source_ps[t.eve_log.cause == Cause.BACKFLASH]
        assert clicks.size - np.unique(clicks).size > 0 and avalanches.size - np.unique(avalanches).size > 0
        assert (t.counts.n_eve_backflash, t.counts.n_eve_backflash_blocks) == recount(t)

    def test_a_block_with_no_backflash_cluster_gets_no_attack_result(self, tmp_path):
        # At seed 103 the second trial's first block keeps neither of its
        # fold clusters.  That block gets no attack result; the run finishes
        # with the other blocks' results, the tallies and the artifacts.
        run = run_simulation(small_attack_cfg(seed=103, trials=2), tmp_path)
        attacked = [[b.inference is not None for b in t.blocks] for t in run.trials]
        assert attacked == [[True] * 3, [False, True, True]]
        assert all((b.clusters is None) == (b.inference is None) for t in run.trials for b in t.blocks)
        assert run.counts.n_eve_backflash > 0 and run.counts.n_eve_correct > 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (manifest["blocks"], len(manifest["learning"])) == (6, 5)

    def test_dense_clicks_leave_blocks_without_an_attack_result(self):
        # With no hold-off and 1e11 darks a second the receiver clicks in
        # every frame, so a fold cluster scores alike at every whole-frame
        # shift of the disclosed clicks: most blocks keep no cluster and get
        # no attack result, and the trial still returns its tallies.
        spad = replace(spad_preset("5v"), dark_count_rate_cps=1e11, gate_width_ps=1000, hold_off_s=0.0,
                       backflash_probability=1.0)
        t = run_trial(small_attack_cfg(spad=spad, frames_per_trial=5000, distill=DistillConfig(20_000, 2000)), 0)
        attacked = [b.inference is not None for b in t.blocks]
        assert attacked == [b.clusters is not None for b in t.blocks]
        assert 0 < sum(attacked) < len(t.blocks) / 2
        assert t.counts.n_eve_backflash > 0

    def test_a_sparse_disclosure_keeps_every_cluster(self):
        # Blocks of 2000 bits with 200 disclosures: at seed 11 block 0's one
        # cluster meets 3 disclosed clicks at shift 0 against 0.23 at each
        # other shift, which a fixed floor of 4 would drop.  Every block
        # keeps both clusters, so block 0's learning rate lies with the
        # others'.
        cfg = apply_overrides(preset_config("paper"), {
            "seed": "11", "frames_per_trial": "2000000",
            "distill.block_length": "2000", "distill.disclosure_size": "200",
        })
        t = run_trial(cfg, 0)
        assert len(t.blocks) == 3
        for b in t.blocks:
            assert len(b.clusters.run_summary) == 2
            assert all(r["p"] <= attack.CLUSTER_ALPHA for r in b.clusters.run_summary)
            assert b.clusters.zero_mode_ps != b.clusters.one_mode_ps
        rates = [attack.learning_metrics(b.inference, b.retained)["learning_rate"] for b in t.blocks]
        assert min(rates[1:]) <= rates[0] <= max(rates[1:])

    def test_run_counts_sum_the_trials(self):
        run = run_simulation(small_attack_cfg(trials=3))
        total = {
            f.name: sum(getattr(t.counts, f.name) for t in run.trials)
            for f in dataclasses.fields(McCounts) if f.name != "n_frames_covered"
        }
        in_blocks = run.manifest["blocks"] * run.config.distill.block_length
        covered = round(total["n_frames"] * in_blocks / total["n_sift"])
        assert run.counts == McCounts(**total, n_frames_covered=covered)
        assert run.manifest["counts"] == dataclasses.asdict(run.counts)
        for t in run.trials:
            assert t.counts.n_frames == run.config.frames_per_trial
            assert t.counts.n_sift == len(t.sifted) and t.counts.n_frames_covered is None
            assert t.counts.n_eve_backflash > 0 and t.counts.n_eve_correct > 0

    def test_merged_logs_hold_backflash_that_leaves_after_its_chunk(self, monkeypatch):
        # The gate opens 1 ns before each frame ends and runs 3 ns past it,
        # which opens the frame's first 3 ns instead, so a chunk's clicks lie
        # in its frames.  A gate holds about four darks, no hold-off parts
        # the clicks and every avalanche emits: an avalanche near the end of
        # a chunk's last frame sends backflash past the chunk's end, and the
        # parts of Eve's log interleave in time.
        chunk = 100
        monkeypatch.setattr(experiment, "CHUNK_FRAMES", chunk)
        parts = {"bob": []}
        merge = DetectionLog.merge.__func__
        spans = experiment._receiver_spans

        def recording(cls, logs):
            parts[logs[0].detector] = logs
            return merge(cls, logs)

        def receiver_parts(*args):
            for span, res in spans(*args):
                parts["bob"].append(res.clicks)
                yield span, res

        monkeypatch.setattr(DetectionLog, "merge", classmethod(recording))
        monkeypatch.setattr(experiment, "_receiver_spans", receiver_parts)
        spad = replace(spad_preset("5v"), dark_count_rate_cps=1e9, gate_phase_ps=31_000,
                       backflash_probability=1.0, hold_off_s=0.0)
        cfg = small_attack_cfg(spad=spad, frames_per_trial=10_000)
        t = run_trial(cfg, 0)

        chunk_ps = chunk * cfg.source.frame_period_ps
        eve = t.eve_log
        backflash = eve.cause == Cause.BACKFLASH
        assert np.sum(backflash & (eve.time_ps // chunk_ps > eve.source_ps // chunk_ps)) > 0
        for i, p in enumerate(parts[t.bob_log.detector]):
            assert len(p) and np.all(p.time_ps // chunk_ps == i)  # each Bob part lies in its chunk
        for log in (t.bob_log, eve):
            joined = np.concatenate([p.time_ps for p in parts[log.detector]])
            assert np.any(np.diff(joined) < 0) == (log is eve)  # only Eve's parts interleave
            assert np.array_equal(np.sort(joined), log.time_ps)
            assert np.array_equal(np.lexsort((log.cause, log.time_ps)), np.arange(len(log)))

    def test_receiver_provenance_stays_a_broadcast_when_merged(self, monkeypatch):
        # Each chunk's receiver log carries a broadcast -1 as its provenance;
        # the merge keeps one, rather than a writable int64 column per click.
        monkeypatch.setattr(experiment, "CHUNK_FRAMES", 200_000)
        cfg = small_attack_cfg()
        t = run_trial(cfg, 0)
        bob, eve = t.bob_log, t.eve_log
        assert bob.time_ps[-1] >= 2 * 200_000 * cfg.source.frame_period_ps  # the last of three chunks clicks
        assert bob.source_ps.strides == (0,) and not bob.source_ps.flags.writeable
        assert bob.source_ps.shape == bob.time_ps.shape and np.all(bob.source_ps == -1)
        # The eavesdropper's provenance is a column of its own values.
        assert eve.source_ps.strides == (8,) and len(np.unique(eve.source_ps)) > 1

    def test_sifted_bits_do_not_depend_on_the_chunk_size(self, monkeypatch):
        # A dark on every open-gate picosecond, no light, no hold-off, and a
        # gate that runs 3 ns past each frame's end: every frame opens its
        # first 3 ns (sifted) and its last 1 ns (past the bit slots), whatever
        # chunk it falls in.
        spad = replace(spad_preset("5v"), dark_count_rate_cps=1e12, detection_efficiency=0.0,
                       hold_off_s=0.0, gate_phase_ps=31_000)
        cfg = ExperimentConfig(spad=spad, frames_per_trial=50, attack_enabled=False)
        for chunk in (7, 50):
            monkeypatch.setattr(experiment, "CHUNK_FRAMES", chunk)
            t = run_trial(cfg, 0)
            assert (len(t.sifted), t.sifted.excluded_outside) == (50 * 3000, 50 * 1000)

    def test_attack_disabled_zeroes_leak_rates(self):
        cfg = apply_overrides(preset_config("5v"), {"frames_per_trial": "50000"})
        run = run_simulation(cfg)
        assert next(r for r in run.report.rows if r.name == "p_b").analytic == 0.0
        assert next(r for r in run.report.rows if r.name == "p_learn").analytic == 0.0
        assert run.manifest["calibration_offsets_ps"] == []

    @pytest.mark.parametrize("offset", [12345, -20000])
    def test_clock_offset_is_calibrated_away(self, offset):
        base = run_simulation(small_attack_cfg())
        shifted = run_simulation(small_attack_cfg(attack=AttackConfig(clock_offset_ps=offset)))
        assert shifted.manifest["calibration_offsets_ps"] == [base.manifest["calibration_offsets_ps"][0] - offset]
        assert shifted.counts.n_eve_correct == base.counts.n_eve_correct > 0

    def test_runs_are_reproducible(self):
        a = run_simulation(small_attack_cfg())
        b = run_simulation(small_attack_cfg())
        assert a.counts == b.counts
        assert json.dumps(a.manifest, sort_keys=True) == json.dumps(b.manifest, sort_keys=True)


# --- artifacts -------------------------------------------------------------

class TestArtifacts:
    def test_full_artifact_set(self, tmp_path):
        cfg = small_attack_cfg(export_frames=20)
        run = run_simulation(cfg, out_dir=tmp_path)
        names = {
            "rates.csv", "detections.csv", "transcript_block0.csv", "key_block0.txt",
            "attack_histogram_block0.csv", "inference_block0.csv", "frames.csv",
            "manifest.json",
        }
        assert names <= {p.name for p in tmp_path.iterdir()}
        for name in names - {"manifest.json"}:
            first = (tmp_path / name).read_text().splitlines()[0]
            assert first.startswith("# config_hash=")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["artifacts"]["rates"] == "rates.csv"
        assert manifest["report"].keys() == {"rows", "insecure"}
        assert manifest["report"]["rows"][0]["name"] == "p_sift"

    def test_artifacts_byte_identical_across_runs(self, tmp_path):
        cfg = small_attack_cfg(export_frames=10)
        run_simulation(cfg, out_dir=tmp_path / "a")
        run_simulation(cfg, out_dir=tmp_path / "b")
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b",
                                                   files, shallow=False)
        assert sorted(match) == files
        assert not mismatch and not errors

    @pytest.mark.parametrize("overrides", [
        {"source.pattern": "random", "source.decoy_probability": "0.2"},
        {"source.pattern": "random"},
        {},
    ])
    def test_frames_csv_shows_the_frames_the_run_drew(self, tmp_path, monkeypatch, overrides):
        # frames.csv holds the first export_frames frames of trial 0's
        # emission, whatever the chunk size and the trial's length.
        cfg = apply_overrides(preset_config("5v"), {"frames_per_trial": "20000", "export_frames": "7500", **overrides})
        want = generate_frames(cfg.source, cfg.export_frames, DeviceRngs(cfg.seed).bits)
        write_frames_csv(want, tmp_path / "want.csv", artifact_headers(cfg))
        monkeypatch.setattr(experiment, "CHUNK_FRAMES", 3000)
        run_simulation(cfg, out_dir=tmp_path / "run")
        got = (tmp_path / "run" / "frames.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + cfg.export_frames
        assert got == (tmp_path / "want.csv").read_bytes()
        monkeypatch.setattr(experiment, "CHUNK_FRAMES", 10**6)
        run_simulation(replace(cfg, frames_per_trial=cfg.export_frames), out_dir=tmp_path / "short")
        rows = [(tmp_path / d / "frames.csv").read_text().split("\n", 1)[1] for d in ("run", "short")]
        assert rows[0] == rows[1]

    # The bound, fixed before the first run: the export is a span of the
    # emission, so it adds less than half of its own (export_frames,
    # bits_per_frame) int8 array to a trial's peak, and a held copy of its
    # bits fails.
    EXPORT_PEAK_ARRAYS = 0.5

    def test_export_is_held_once(self, monkeypatch):
        # Chunks of 20,000 frames keep every other array small next to the
        # 4 MB of bits of a 2e6-frame export.
        monkeypatch.setattr(experiment, "CHUNK_FRAMES", 20_000)
        cfg = apply_overrides(preset_config("5v"), {"frames_per_trial": "2000000"})
        run_trial(replace(cfg, frames_per_trial=20_000, export_frames=10), 0)  # imports, outside the peaks
        peaks = []
        for export in (0, cfg.frames_per_trial):
            tracemalloc.start()
            try:
                run_trial(replace(cfg, export_frames=export), 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        export_bytes = cfg.frames_per_trial * cfg.source.bits_per_frame
        assert (peaks[1] - peaks[0]) / export_bytes < self.EXPORT_PEAK_ARRAYS

    def test_every_artifact_matches_the_row_writer(self, tmp_path, monkeypatch):
        # The runs write each artifact twice: through the columnar writer,
        # then through csv.writer fed the same cells one row at a time.
        def runs(out):
            out.mkdir()
            attack_run = run_simulation(small_attack_cfg(), out_dir=out / "attack")
            random = apply_overrides(preset_config("5v"), {
                "frames_per_trial": "20000", "source.pattern": "random",
                "source.decoy_probability": "0.2", "export_frames": "500",
            })
            run_simulation(random, out_dir=out / "random")
            quick = apply_overrides(preset_config("5v"), {"frames_per_trial": "20000"})
            run_sweep(quick, "bias", ["2v", "7v"], out / "sweep_bias.csv")
            emit_timing_correlation(small_attack_cfg(), [2000], clicks_per_width=10_000, out_dir=out / "corr")
            return attack_run

        attack_run = runs(tmp_path / "columns")

        def row_writer(path, header_lines, columns, cols):
            cols = [c[:len(c)] for c in cols]  # whole, also a column that builds its slices when asked
            rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in cols])
            csv_writer_rows(path, header_lines, columns, rows)

        for module in (attack, detectors, distill, experiment, source):
            monkeypatch.setattr(module, "write_csv", row_writer)
        runs(tmp_path / "rows")

        cols, rows = tmp_path / "columns", tmp_path / "rows"
        files = sorted(p.relative_to(cols).as_posix() for p in cols.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(rows).as_posix() for p in rows.rglob("*") if p.is_file())
        assert {
            "attack/detections.csv", "attack/transcript_block0.csv", "attack/attack_histogram_block0.csv",
            "attack/inference_block0.csv", "attack/rates.csv", "random/frames.csv", "sweep_bias.csv",
            "corr/correlation_w2000.csv",
        } <= set(files)
        for f in files:
            assert (cols / f).read_bytes() == (rows / f).read_bytes(), f
        key = attack_run.trials[0].blocks[0].retained
        digits = (cols / "attack/key_block0.txt").read_text().splitlines()[-1]
        assert digits == "".join(str(int(b)) for b in key.bit)


@st.composite
def chunked_receivers(draw):
    """A config whose receiver clicks in most frames or once a hold-off, its
    gate anywhere in the frame or running past the frame's end, with or
    without decoys and RZ, and a chunk size that cuts its frames into 3 or 4
    spans."""
    period = SourceConfig().frame_period_ps
    width = draw(st.integers(min_value=1000, max_value=period))
    if draw(st.booleans()):  # the gate runs past the frame's end
        phase = draw(st.integers(min_value=period - width + 1, max_value=period - 1))
    else:
        phase = draw(st.integers(min_value=0, max_value=period - width))
    src = SourceConfig(mean_photon_number=0.5, encoding=draw(st.sampled_from(["nrz", "rz"])),
                       decoy_probability=draw(st.sampled_from([0.0, 0.3])))
    spad = SpadConfig(gate_phase_ps=phase, gate_width_ps=width, dark_count_rate_cps=draw(st.sampled_from([1e8, 1e9])),
                      hold_off_s=draw(st.sampled_from([0.0, 10e-6])))
    chunk = draw(st.integers(min_value=200, max_value=1000))
    frames = chunk * draw(st.sampled_from([2, 3])) + draw(st.integers(min_value=1, max_value=chunk))
    cfg = ExperimentConfig(source=src, spad=spad, frames_per_trial=frames, attack_enabled=False,
                           seed=draw(st.integers(min_value=0, max_value=2**32)))
    return cfg, chunk


@given(chunked_receivers())
@example((ExperimentConfig(spad=SpadConfig(gate_phase_ps=31_000, dark_count_rate_cps=1e9, hold_off_s=0.0),
                           frames_per_trial=1000, attack_enabled=False), 300))
def test_receiver_spans_join_in_time_then_cause_order(case):
    # Each click lies in its own frame, so the spans' logs, joined as they
    # are, are in (time, cause) order.
    cfg, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "CHUNK_FRAMES", chunk)
        bob = run_trial(cfg, 0).bob_log
    assert len(bob) > 0
    assert np.array_equal(np.lexsort((bob.cause, bob.time_ps)), np.arange(len(bob)))
    assert bob.source_ps.strides == (0,) and not bob.source_ps.flags.writeable and np.all(bob.source_ps == -1)


# --- sweeps ----------------------------------------------------------------

class TestSweeps:
    def quick(self):
        return apply_overrides(preset_config("5v"), {"frames_per_trial": "50000"})

    def test_distance_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rows = run_sweep(self.quick(), "distance", [0.0, 25.0], out_path=out)
        assert [r["distance_km"] for r in rows] == [0.0, 25.0]
        assert rows[0]["p_sift"] > rows[1]["p_sift"]  # loss reduces sifting
        assert all("p_sift_mc" in r and "p_err" in r for r in rows)
        head = out.read_text().splitlines()
        assert head[0].startswith("# config_hash=")
        cols = head[1].split(",")
        assert cols[0] == "distance_km"
        assert "p_sec" in cols
        assert not [c for c in cols if c.startswith("p_sec_finite") or c == "qber_analytic"]
        assert len(head) == 2 + len(rows)

    def test_bias_sweep_applies_presets(self):
        rows = run_sweep(self.quick(), "bias", ["2v", "7v"])
        assert [r["bias_v"] for r in rows] == ["2v", "7v"]
        assert rows[1]["p_sift"] > rows[0]["p_sift"]

    def test_mu_and_backflash_axes(self):
        rows = run_sweep(self.quick(), "mu", [0.05, 0.2])
        assert rows[1]["p_sift"] > rows[0]["p_sift"]
        rows = run_sweep(self.quick(), "backflash-probability", [0.0])
        assert rows[0]["p_b"] == 0.0  # attack disabled zeroes the leak anyway

    def test_axis_validation(self):
        with pytest.raises(ConfigError):
            run_sweep(self.quick(), "voltage", [1])
        with pytest.raises(ConfigError):
            run_sweep(self.quick(), "distance", [])
        with pytest.raises(ConfigError):
            run_sweep(self.quick(), "bias", [2.5])
        two_volt = _apply_axis(self.quick(), "bias", "2v")
        assert _apply_axis(self.quick(), "bias", 2) == _apply_axis(self.quick(), "bias", 2.0) == two_volt

    def test_write_table_csv_handles_missing_cells(self, tmp_path):
        rows = [{"a": 1, "b": None, "c": True}, {"a": 2.5, "b": 3.0, "c": False}, {"a": 4}]
        p = tmp_path / "s.csv"
        write_table_csv(rows, p)
        assert p.read_text().splitlines() == ["a,b,c", "1,,1", "2.5,3,0", "4,,"]


# --- dark-exposure timing correlation --------------------------------------

class TestTimingCorrelation:
    def test_width_controls_spread(self, tmp_path):
        cfg = small_attack_cfg()
        hists = emit_timing_correlation(cfg, [2000, 4000], clicks_per_width=100_000,
                                        out_dir=tmp_path)
        assert set(hists) == {2000, 4000}
        assert hists[2000].std_ps() < hists[4000].std_ps()
        # a 2 ns gate quenches the avalanche at 2 ns, capping the delay
        centers = hists[2000].centers_ps
        late = hists[2000].counts[centers > 2100]
        assert int(late.sum()) == 0
        # The mean delay is that of an exponential of scale s truncated at
        # the width a, within four standard errors of its standard deviation.
        s = 600.0
        for w in (2000, 4000):
            a = float(w)
            tail = math.exp(-a / s)
            mean = (s - (a + s) * tail) / (1 - tail)
            sd = math.sqrt(s * s - a * a * tail / (1 - tail) ** 2)
            stops = hists[w].total()
            assert abs(hists[w].mean_ps() - mean) < 4 * sd / math.sqrt(stops), (w, hists[w].mean_ps(), mean, stops)
        assert (tmp_path / "correlation_w2000.csv").exists()
        assert (tmp_path / "correlation_w4000.csv").exists()

    def test_decoys_and_random_bits_cost_the_study_no_hash_and_no_light_draw(self, monkeypatch):
        # The light is blocked, so the span's source sends no decoy and no
        # pulse draws a click or a reflection: the pattern and the decoy
        # probability leave the histogram as it is.  At 1e7 darks/s the
        # span is about 1e6 frames, so a study that let light or decoys in
        # would fail here, not run for hours.
        cfg = small_attack_cfg(spad=replace(spad_preset("5v"), dark_count_rate_cps=1e7))
        w = 2000
        plain = emit_timing_correlation(cfg, [w], clicks_per_width=20_000)[w]
        keyed = []
        splitmix64 = source._splitmix64

        def counted(slot, key):
            assert slot.size == 0, f"{slot.size} slots hashed"
            return splitmix64(slot, key)

        class Recorded(DeviceRngs):
            def __post_init__(self):
                super().__post_init__()
                keyed.append(self)

        monkeypatch.setattr(source, "_splitmix64", counted)
        monkeypatch.setattr(experiment, "DeviceRngs", Recorded)
        mixed = apply_overrides(cfg, {"source.pattern": "random", "source.decoy_probability": "0.2"})
        got = emit_timing_correlation(mixed, [w], clicks_per_width=20_000)[w]
        (rngs,) = keyed
        fresh = DeviceRngs(rngs.seed, trial=rngs.trial, study=rngs.study)
        for name in ("spad", "arrival", "reflection"):
            ahead = [getattr(g, name).bit_generator.random_raw(4).tolist() for g in (rngs, fresh)]
            assert ahead[0] == ahead[1], name
        assert plain.total() > 0
        assert got.counts.tolist() == plain.counts.tolist()

    def test_study_keys_its_own_streams(self):
        # With no SNSPD darks the histogram is a fixed function of the RNG
        # key: the study's own key reproduces it and trial w's key does not.
        cfg = small_attack_cfg(snspd=SnspdConfig(dark_count_rate_cps=0.0))
        w = 2000
        got = emit_timing_correlation(cfg, [w], clicks_per_width=5000)[w].counts.tolist()
        study = DeviceRngs(cfg.seed, trial=w, study=TIMING_CORRELATION_STUDY)
        assert got == full_exposure_correlation(cfg, w, 5000, study).counts.tolist()
        trial = DeviceRngs(cfg.seed, trial=w)
        assert got != full_exposure_correlation(cfg, w, 5000, trial).counts.tolist()

    @pytest.mark.parametrize("lo, hi, set_", [
        (-10, 6000, {}),
        (0, 1_000_010, {}),
        (0, 6000, {"source.frame_period_ps": "2000000", "spad.backflash_delay_max_ps": "1000000"}),
    ])
    def test_correlation_law_refuses_bins_where_a_stop_meets_another_click(self, lo, hi, set_):
        # Clicks 1 us apart: a range past [0, 1 us] or a delay cap of 1 us
        # lets a stop pair with a click other than its own.
        cfg = apply_overrides(small_attack_cfg(), set_)
        with pytest.raises(ConfigError, match="stop law"):
            correlation_law(cfg, 1_000_000 if set_ else 2000, Histogram.from_samples([], 10, lo, hi))

    def test_clicks_validation(self):
        with pytest.raises(ConfigError):
            emit_timing_correlation(small_attack_cfg(), [2000], clicks_per_width=0)

    # Alpha 2.5e-4 for each of the two checks below, fixed before the first
    # run: an exact conditional binomial test of the dark-stop counts and a
    # two-sample KS test of their delays.
    LAW_ALPHA = 1e-3 / 4

    def test_window_darks_match_full_exposure_darks(self):
        # At 1e7 dark counts/s the windows catch darks.  Without backflash
        # every stop is a dark.  Both arms share each seed's clicks, and
        # their SNSPD dark streams are independent.  Clicks lie a hold-off
        # (1 us) apart, so a dark pairs with one click at most, and the
        # dark-stop count is Poisson with the same mean in both arms.
        w = 4000
        cfg = ExperimentConfig(
            spad=replace(spad_preset("5v"), dark_count_rate_cps=1e7, backflash_probability=0.0),
            snspd=SnspdConfig(dark_count_rate_cps=1e7),
            attack_enabled=False,
        )
        new, old = [], []
        for seed in range(10):
            cfg_s = replace(cfg, seed=seed)
            h = emit_timing_correlation(cfg_s, [w], clicks_per_width=2000)[w]
            rngs = DeviceRngs(seed, trial=w, study=TIMING_CORRELATION_STUDY)
            rngs.snspd_dark = stream_rng(10_000 + seed, Stream.SNSPD_DARK)
            h_old = full_exposure_correlation(cfg_s, w, 2000, rngs)
            for out, hist in ((new, h), (old, h_old)):
                out.append(np.repeat(hist.bin_starts_ps, hist.counts))
        new, old = np.concatenate(new), np.concatenate(old)
        assert new.size > 500 and old.size > 500
        assert stats.binomtest(new.size, new.size + old.size, 0.5).pvalue > self.LAW_ALPHA
        assert stats.ks_2samp(new, old).pvalue > self.LAW_ALPHA

    # The bound, fixed before the first run, in block-sized int64 arrays of
    # STUDY_BLOCK_DARKS values: the block before (its clicks, about one
    # array, and the light it sent and its stops, a tenth of one each),
    # held while the next block draws its dark candidates (one array)
    # through a float64 buffer of DARK_BLOCK values (half of one), and the
    # masks and temporaries of one DARK_BLOCK step.
    PEAK_BLOCK_ARRAYS = 4.0

    @pytest.mark.parametrize("n_clicks", [200_000, 2_000_000])
    @pytest.mark.parametrize("snspd_dark_cps", [0.0, 2e6])
    def test_one_width_peaks_below_four_block_arrays(self, snspd_dark_cps, n_clicks):
        # At 2e6 counts/s the windows of 6 ns after the clicks catch about
        # 2,500 darks per 200,000 clicks.
        cfg = ExperimentConfig(
            spad=spad_preset("5v"),
            snspd=SnspdConfig(dark_count_rate_cps=snspd_dark_cps),
            attack_enabled=False,
            seed=5,
        )
        # The first draw imports modules (numpy's SeedSequence imports
        # secrets); they are no part of the study's peak.
        emit_timing_correlation(cfg, [4000], clicks_per_width=100)
        tracemalloc.start()
        try:
            hist, clicks = _width_correlation(_width_config(cfg, 4000), n_clicks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert clicks > 0.95 * n_clicks
        assert peak / (8 * experiment.STUDY_BLOCK_DARKS) < self.PEAK_BLOCK_ARRAYS
        if snspd_dark_cps:
            no_dark = replace(cfg, snspd=SnspdConfig(dark_count_rate_cps=0.0))
            no_dark_stops = emit_timing_correlation(no_dark, [4000], clicks_per_width=n_clicks)[4000].total()
            assert hist.total() - no_dark_stops > n_clicks / 200

    # Blocks of 300 expected darks at 2e9 SPAD darks/s: 2 darks a 2000 ps
    # gate, so a block is 150 gates (4.8 us) and holds about five clicks
    # under the 1 us hold-off, and nearly every seam falls inside the
    # hold-off after a click.  The SNSPD's 1e9 darks/s put about six stops
    # in every window.
    SEAM_CFG = ExperimentConfig(
        spad=replace(spad_preset("5v"), dark_count_rate_cps=1e9),
        snspd=SnspdConfig(dark_count_rate_cps=1e9),
        attack_enabled=False,
        seed=4,
    )

    def seam_blocks(self, monkeypatch, clicks_per_width, width=2000, **spad):
        monkeypatch.setattr(experiment, "STUDY_BLOCK_DARKS", 300)
        ran = _width_config(replace(self.SEAM_CFG, spad=replace(self.SEAM_CFG.spad, **spad)), width)
        rngs = DeviceRngs(ran.seed, trial=width, study=TIMING_CORRELATION_STUDY)
        return ran, rngs, list(experiment._dark_clicks(ran, clicks_per_width, rngs))

    def test_hold_off_carries_across_block_seams(self, monkeypatch):
        ran, _, blocks = self.seam_blocks(monkeypatch, 20_000)
        assert len(blocks) == 71
        seams = [(a[-1], b[0]) for (a, _), (b, _) in zip(blocks, blocks[1:]) if a.size and b.size]
        assert len(seams) > 60
        gaps = np.array([b - a for a, b in seams])
        assert gaps.min() >= ran.spad.hold_off_ps
        # The clicks are dense enough that a seam inside the hold-off is the
        # rule, so a block that forgot the one before would fail above.
        assert np.count_nonzero(gaps < ran.spad.hold_off_ps + ran.source.frame_period_ps) > len(seams) / 2

    def test_width_histogram_is_the_sum_of_its_blocks(self, monkeypatch):
        ran, rngs, blocks = self.seam_blocks(monkeypatch, 20_000)
        hist, n_clicks = _width_correlation(ran, 20_000)
        window = (0, experiment.CORRELATION_WINDOW_PS)
        stops = [snspd_detect(a, ran.snspd, c, window[1], rngs).time_ps for c, a in blocks]
        parts = [start_search_correlation_histogram(c, s, experiment.CORRELATION_BIN_PS, window)
                 for (c, _), s in zip(blocks, stops)]
        whole = start_search_correlation_histogram(np.concatenate([c for c, _ in blocks]), np.concatenate(stops),
                                                   experiment.CORRELATION_BIN_PS, window)
        assert n_clicks == sum(c.size for c, _ in blocks)
        assert hist.total() > 3 * n_clicks
        assert hist.counts.tolist() == sum(p.counts for p in parts).tolist() == whole.counts.tolist()

    def test_backflash_and_darks_pair_as_the_start_search_does(self, monkeypatch):
        # A 6000 ps cap on a 6000 ps gate: a delay of 6000 ps falls just
        # outside the range whichever way the stop is paired.  Every click
        # emits, and the windows hold more than three darks per backflash
        # stop, so a dark placed from any source but its window's start
        # moves the histogram.
        ran, rngs, blocks = self.seam_blocks(monkeypatch, 100_000, width=6000, backflash_delay_max_ps=6000,
                                             backflash_probability=1.0)
        assert ran.spad.backflash_delay_cap_ps == experiment.CORRELATION_WINDOW_PS
        hist, _ = _width_correlation(ran, 100_000)
        window = (0, experiment.CORRELATION_WINDOW_PS)
        want = np.zeros_like(hist.counts)
        causes = np.zeros(len(Cause), dtype=np.int64)
        for clicks, res in blocks:
            stops = snspd_detect(res, ran.snspd, clicks, window[1], rngs)
            causes += np.bincount(stops.cause, minlength=len(Cause))
            want += start_search_correlation_histogram(clicks, stops.time_ps, experiment.CORRELATION_BIN_PS, window).counts
        assert hist.counts.tolist() == want.tolist()
        assert causes[Cause.BACKFLASH] > 200 and causes[Cause.DARK] > 3 * causes[Cause.BACKFLASH]

    def test_full_blocks_are_a_prefix_of_a_longer_run(self, monkeypatch):
        _, _, short = self.seam_blocks(monkeypatch, 20_001)
        _, _, long = self.seam_blocks(monkeypatch, 40_002)
        # 10,502 gates: 70 full blocks of 150 and one of 2.
        full = short[:70]
        assert len(short) == 71 and len(long) > 2 * len(full)
        for (c, a), (c_long, a_long) in zip(full, long):
            assert c.tolist() == c_long.tolist()
            assert a.backflash_ps.tolist() == a_long.backflash_ps.tolist()
