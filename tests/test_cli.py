import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cowqkd

from cowqkd import experiment
from cowqkd.cli import EXIT_CALIBRATION, EXIT_CONFIG, EXIT_INSECURE, EXIT_OK, build_parser, load_config, main
from cowqkd.detectors import spad_preset
from cowqkd.experiment import ExperimentConfig, apply_overrides, config_hash

SMALL = [
    "--frames", "600000",
    "--set", "distill.block_length=500",
    "--set", "distill.disclosure_size=150",
    "--set", "attack.corr_floor=0.005",
    "--set", "source.mean_photon_number=0.2",
    "--seed", "3",
]


def test_simulate_preset_smoke(capsys, tmp_path):
    code = main(["simulate", "--preset", "5v", "--frames", "50000",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "sifted" in out
    assert "p_sift" in out
    assert (tmp_path / "rates.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["counts"]["n_sift"] > 0

def test_simulate_attack_pipeline(capsys):
    code = main(["simulate", *SMALL])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "eve-backflash" in out

def test_replicate_command_uses_reference_preset(capsys):
    code = main(["replicate-paper", *SMALL])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "trial(s)" in out

def test_rates_closed_forms_only(capsys):
    code = main(["rates", "--preset", "5v"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "p_sec" in out
    assert "-" in out  # no empirical columns without a run
    names = [line.split()[0] for line in out.splitlines()[1:]]
    assert names == ["p_sift", "p_err", "p_b", "p_learn", "p_sec"]

def test_rates_out_writes_rates_csv(capsys, tmp_path):
    code = main(["rates", "--preset", "5v", "--qber", "0.005", "--out", str(tmp_path / "r")])
    assert code == EXIT_OK
    lines = (tmp_path / "r" / "rates.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "name,analytic,empirical,lo,hi,ok"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["p_sift", "p_err", "p_b", "p_learn", "p_sec"]
    assert all(r[2:5] == ["", "", ""] for r in rows)

def test_rates_insecure_exit(capsys):
    code = main(["rates", "--preset", "5v", "--qber", "0.3"])
    err = capsys.readouterr().err
    assert code == EXIT_INSECURE
    assert "clamped" in err

def test_exit_config_on_bad_key(capsys):
    code = main(["simulate", "--preset", "5v", "--set", "spad.nope=1"])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err

def test_exit_config_on_invalid_geometry(capsys):
    code = main(["simulate", "--preset", "5v", "--set", "spad.gate_width_ps=40000"])
    assert code == EXIT_CONFIG

def test_exit_config_on_gate_phase_past_the_frame(capsys):
    code = main(["simulate", "--preset", "5v", "--set", "spad.gate_phase_ps=32000"])
    assert code == EXIT_CONFIG

def test_frame_period_sets_the_gate_period(capsys):
    code = main(["simulate", "--preset", "5v", "--frames", "200000", "--set", "source.frame_period_ps=16000"])
    assert code == EXIT_OK
    assert "200000 frames" in capsys.readouterr().out

def test_exit_config_on_malformed_set(capsys):
    code = main(["simulate", "--preset", "5v", "--set", "spad.gate_width_ps"])
    assert code == EXIT_CONFIG

@pytest.mark.parametrize("args", [
    ["--set", "spad.backflash_delay_scale_ps=-5"],
    ["--set", "spad.backflash_delay_max_ps=-1"],
    ["--set", "spad.backflash_delay.scale_ps=800"],
    ["--set", "spad.backflash_delay.support_max_ps=-1"],
    ["--set", "spad.backflash_delay.weights=1"],
    ["--frames", "200000000000000000"],
    ["--frames", "1000", "--set", "export_frames=1001"],
    ["--set", "spad.gate_width_ps=none"],
    ["--set", "seed=none"],
    ["--set", "spad.hold_off_s=inf"],
    ["--set", "spad.hold_off_s=nan"],
    ["--set", "channel.length_km=nan"],
    ["--set", "channel.length_km=inf"],
    ["--set", "spad.dark_count_rate_cps=inf"],
    ["--set", "spad.backflash_delay_scale_ps=nan"],
    ["--seed", "-1"],
    ["--set", "attack.boundary=cut"],
    ["--set", "workers=2"],
])
def test_exit_config_on_bad_delay_or_run_length(capsys, args):
    code = main(["simulate", "--preset", "5v", *args])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err

@pytest.mark.parametrize("argv", [
    ["rates", "--preset", "5v", "--qber", "2"],
    ["rates", "--preset", "5v", "--qber", "nan"],
    ["rates", "--preset", "5v", "--set", "spad.dark_count_rate_cps=1e9"],
    ["simulate", "--preset", "5v", "--frames", "1000",
     "--set", "spad.detection_efficiency=0", "--set", "spad.dark_count_rate_cps=0"],
])
def test_inputs_the_closed_forms_reject_are_configuration_errors(capsys, argv):
    # A qber outside [0, 1], more than one dark count per gate, a receiver
    # that never clicks: each is bad input, not a traceback.
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")

def test_exit_calibration_without_eavesdropper_light(capsys):
    code = main(["simulate", *SMALL,
                 "--set", "spad.backflash_probability=0",
                 "--set", "spad.facet_reflectance=0"])
    assert code == EXIT_CALIBRATION
    assert "calibration failed" in capsys.readouterr().err

def test_sweep_writes_csv(capsys, tmp_path):
    code = main(["sweep", "--preset", "5v", "--frames", "30000",
                 "--axis", "distance", "--values", "0,25",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert (tmp_path / "sweep_distance.csv").exists()
    assert "p_sift" in out

def test_sweep_rejects_unknown_axis():
    with pytest.raises(SystemExit):
        main(["sweep", "--preset", "5v", "--axis", "voltage", "--values", "1"])

def test_correlate_smoke(capsys, tmp_path):
    code = main(["correlate", "--preset", "5v", "--widths", "2000",
                 "--clicks", "3000", "--out", str(tmp_path), "--seed", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "gate_width_ps" in out
    assert (tmp_path / "correlation_w2000.csv").exists()

@pytest.mark.parametrize("widths", ["2000,abc", ",", "2500.7", "2000,2000", "40000", "2000,40000"])
def test_correlate_rejects_bad_widths_before_any_draw(capsys, tmp_path, widths):
    out = tmp_path / "corr"
    code = main(["correlate", "--widths", widths, "--clicks", "3000", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()

@pytest.mark.parametrize("key", ["snspd.dark_count_rate_cps", "spad.dark_count_rate_cps"])
def test_correlate_rejects_more_than_one_dark_per_picosecond(capsys, tmp_path, key):
    # Darks are skips over picoseconds, and a picosecond holds one.
    out = tmp_path / "corr"
    code = main(["correlate", "--widths", "2000", "--clicks", "1000", "--set", f"{key}=5e12", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "dark count rate must lie in [0, 1e12]" in capsys.readouterr().err
    assert not out.exists()

def test_config_file_loading(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frames_per_trial = 40000\nattack_enabled = false\n")
    code = main(["simulate", "--preset", "5v", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "40000 frames" in out


def test_unreadable_config_file_is_a_configuration_error(capsys, tmp_path):
    assert main(["rates", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    assert "configuration error: cannot read config file" in capsys.readouterr().err


def test_config_file_not_in_utf8_is_a_configuration_error(capsys, tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# r\u00e9glage\nseed = 3\n".encode("latin-1"))
    assert main(["rates", "--config", str(cfg)]) == EXIT_CONFIG
    assert "configuration error: cannot read config file" in capsys.readouterr().err


def test_run_names_the_encoding_of_every_file(tmp_path):
    # Config file and artifacts are UTF-8 whatever the locale: with
    # EncodingWarning an error, any of them opened in the locale's default
    # encoding fails the run.
    (tmp_path / "run.cfg").write_text("# r\u00e9glage\nsource.mean_photon_number = 0.2\n", encoding="utf-8")
    src = str(Path(cowqkd.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "cowqkd.cli",
         "simulate", *SMALL, "--config", "run.cfg", "--out", "out"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert done.returncode == EXIT_OK, done.stderr
    written = {p.name for p in (tmp_path / "out").iterdir()}
    assert {"manifest.json", "detections.csv", "key_block0.txt", "inference_block0.csv"} <= written


def test_cli_import_does_not_load_scipy():
    src = str(Path(cowqkd.__file__).resolve().parents[1])
    probe = "import sys, cowqkd.cli; sys.exit('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src}, capture_output=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [
    ["correlate", "--trials", "3"],
    ["correlate", "--frames", "1000"],
    ["rates", "--frames", "5"],
    ["rates", "--trials", "2"],
])
def test_run_length_flags_only_on_commands_that_run_frames(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


def test_rates_ignores_the_block_fill_of_an_attack_it_never_runs(capsys):
    assert main(["rates", "--preset", "paper", "--set", "frames_per_trial=1000"]) == EXIT_OK


def test_infeasible_block_still_rejected_where_the_attack_runs(capsys):
    for argv in (["simulate", "--preset", "paper", "--frames", "1000"],
                 ["sweep", "--preset", "paper", "--frames", "1000", "--axis", "bias", "--values", "5v"]):
        assert main(argv) == EXIT_CONFIG
        assert "cannot fill" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # Two trials fill one block between them, but each trial needs its own.
    ["simulate", "--preset", "paper", "--trials", "2", "--frames", "4000000", "--seed", "11"],
    # The 0 km point fills a 500-bit block; the 100 km point cannot.
    ["sweep", "--preset", "paper", "--axis", "distance", "--values", "0,100", "--frames", "300000",
     "--set", "distill.block_length=500", "--set", "distill.disclosure_size=100"],
])
def test_block_fill_is_checked_per_trial_before_any_trial_runs(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setattr(experiment, "run_trial", lambda *a: pytest.fail("a trial ran"))
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "per trial cannot fill" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("file_text, argv", [
    # Each source alone gives an invalid config; merged, they are valid.
    ("spad.gate_width_ps = 40000\n",
     ["--preset", "5v", "--frames", "50000", "--set", "source.frame_period_ps=64000"]),
    ("frames_per_trial = 300000\n",
     ["--preset", "paper", "--set", "distill.block_length=500", "--set", "distill.disclosure_size=100"]),
])
def test_sources_are_validated_once_merged(capsys, tmp_path, file_text, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(file_text)
    assert main(["simulate", "--config", str(cfg), *argv]) == EXIT_OK


def test_precedence_and_bias_label_rule(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 4\nspad.detection_efficiency = 0.3\nspad.hold_off_s = 2e-6\n")
    args = build_parser().parse_args([
        "simulate", "--preset", "2v", "--config", str(cfg), "--seed", "9",
        "--set", "spad.excess_bias_label=7v", "--set", "spad.hold_off_s=3e-6"])
    got = load_config(args)
    seven = spad_preset("7v")
    assert got.seed == 9 and got.spad.hold_off_s == 3e-6
    # The label sets what is not given explicitly, in any source.
    assert got.spad.excess_bias_label == "7v"
    assert got.spad.detection_efficiency == 0.3
    assert got.spad.dark_count_rate_cps == seven.dark_count_rate_cps


def test_correlation_files_carry_the_hash_of_the_config_that_ran(capsys, tmp_path):
    code = main(["correlate", "--widths", "2000,4000", "--clicks", "2000", "--seed", "1",
                 "--set", "spad.hold_off_s=5e-6", "--out", str(tmp_path)])
    assert code == EXIT_OK
    base = apply_overrides(ExperimentConfig(), {"seed": "1"})
    hashes = []
    for w in (2000, 4000):
        ran = replace(base, spad=replace(base.spad, gate_width_ps=w, hold_off_s=1e-6))
        head = (tmp_path / f"correlation_w{w}.csv").read_text().splitlines()[:2]
        assert head == [f"# config_hash={config_hash(ran)} seed=1", f"# gate_width_ps={w}"]
        hashes.append(config_hash(ran))
    assert hashes[0] != hashes[1]


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_past_the_time_base_is_one_configuration_error(tmp_path):
    # 1e17 frames of 32 ns reach past 2**62 ps: exit 2, one line, no traceback.
    src = str(Path(cowqkd.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "cowqkd.cli", "simulate", "--preset", "paper", "--frames", "100000000000000000"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert done.returncode == EXIT_CONFIG
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: time extent ")


@pytest.mark.parametrize("script, args", [
    ("timing_correlation.py", ["--widths", "2000,abc"]),
    ("timing_correlation.py", ["--widths", "40000"]),
    ("sweep_distance.py", ["--values", "-5"]),
])
def test_scripts_exit_with_the_cli_message(tmp_path, script, args):
    src = str(Path(cowqkd.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == EXIT_CONFIG
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("sets, gate_line", [
    # No backflash and no SNSPD darks: no stop and no law to print.
    pytest.param(["spad.backflash_probability=0", "snspd.dark_count_rate_cps=0"],
                 "0 stops, spread nan ps  (+nan% vs previous)", id="no-stops"),
    # Every delay 0 and no darks: a spread of 0, with no growth from it.
    pytest.param(["spad.backflash_delay_max_ps=0", "snspd.dark_count_rate_cps=0"],
                 "stops, spread 0 ps (law 0 ps)", id="zero-spread"),
])
def test_timing_correlation_script_with_degenerate_stops(tmp_path, sets, gate_line):
    # The summary runs with a RuntimeWarning an error, as CI runs the scripts.
    src = str(Path(cowqkd.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "timing_correlation.py"), "--clicks", "2000", "--out", "corr",
         *(arg for kv in sets for arg in ("--set", kv))],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "error::RuntimeWarning"},
        capture_output=True, text=True,
    )
    assert done.returncode == EXIT_OK, done.stderr
    gates = [line for line in done.stdout.splitlines() if line.startswith("gate ")]
    assert len(gates) == 3
    assert all(line.endswith(gate_line) for line in gates[1:]), gates
