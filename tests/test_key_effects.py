"""Every config key changes what a command prints or writes, unless that
command declares it inert.

Each key is perturbed alone on a small run of ``simulate``, ``rates`` and
``correlate``.  The ``# config_hash=... seed=...`` lines and the config that
``manifest.json`` copies are normalised away, so a key counts only through
what the run did.  A key that a command declares inert must leave its
output unchanged, so the declarations cannot go stale.
"""
import contextlib
import functools
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from cowqkd.cli import EXIT_OK, main
from cowqkd.experiment import ExperimentConfig, apply_overrides, config_to_flat, preset_config

# A small attack run: one 300-bit block with a dense disclosure.
BASE = {
    "seed": "3", "frames_per_trial": "200000", "channel.length_km": "2", "spad.dark_count_rate_cps": "1000",
    "distill.block_length": "300", "distill.disclosure_size": "100",
}

# One new value per key.  The SNSPD dark rate is high enough to reach the
# few stop windows of a small correlation run.
PERTURB = {
    "seed": "4", "trials": "2", "frames_per_trial": "210000", "attack_enabled": "false", "export_frames": "20",
    "source.mean_photon_number": "0.25", "source.bin_width_ps": "800", "source.frame_period_ps": "16000",
    "source.bits_per_frame": "3", "source.encoding": "rz", "source.pattern": "random",
    "source.decoy_probability": "0.1",
    "channel.length_km": "5",
    "spad.detection_efficiency": "0.25", "spad.dark_count_rate_cps": "3000", "spad.gate_width_ps": "3000",
    "spad.gate_phase_ps": "500", "spad.hold_off_s": "5e-6",
    "spad.backflash_probability": "0.2", "spad.backflash_delay_scale_ps": "400",
    "spad.backflash_delay_max_ps": "1500", "spad.facet_reflectance": "0.02",
    "snspd.detection_efficiency": "0.6", "snspd.dark_count_rate_cps": "1e6",
    "distill.block_length": "250", "distill.disclosure_size": "80",
}

COMMANDS = {
    "simulate": ["simulate", "--preset", "paper"],
    "rates": ["rates", "--preset", "paper"],
    "correlate": ["correlate", "--widths", "2000", "--clicks", "1000"],
}

INERT = {
    "simulate": set(),
    "rates": {
        # Closed forms only: nothing is drawn, run or distilled.
        "seed", "trials", "frames_per_trial", "export_frames", "distill.block_length", "distill.disclosure_size",
        # The forms count clicks per gate, not where they fall in it.
        "source.bin_width_ps", "source.encoding", "source.pattern", "spad.gate_phase_ps",
        # The leak counts backflash emissions, not their timing; reflections
        # and the eavesdropper's darks are not leaks.
        "spad.backflash_delay_scale_ps", "spad.backflash_delay_max_ps", "spad.facet_reflectance",
        "snspd.dark_count_rate_cps",
        # A gap in the closed forms: no decoy term.
        "source.decoy_probability",
    },
    "correlate": {
        # No trial, sifting or attack runs.
        "trials", "frames_per_trial", "export_frames", "attack_enabled", "distill.block_length",
        "distill.disclosure_size",
        # The source is blocked.
        "source.mean_photon_number", "source.bin_width_ps", "source.bits_per_frame", "source.encoding",
        "source.pattern", "source.decoy_probability", "channel.length_km", "spad.detection_efficiency",
        "spad.facet_reflectance",
        # Each run sets the width from --widths and a 1 us hold-off.
        "spad.gate_width_ps", "spad.hold_off_s",
        # The exposure is sized to --clicks dark clicks, so the dark rate
        # only sets its length.
        "spad.dark_count_rate_cps",
        # Delays count from each click, and clicks lie far more than the
        # hold-off apart, so these only shift or rescale time.
        "spad.gate_phase_ps", "source.frame_period_ps",
    },
}

HEADER = re.compile(r"^# config_hash=.*$", re.M)


@functools.cache
def signature(command: str, key: str | None = None):
    """Exit code, stdout, stderr and every artifact of one run, normalised."""
    overrides = {**BASE, key: PERTURB[key]} if key else BASE
    argv = COMMANDS[command] + [t for k, v in overrides.items() for t in ("--set", f"{k}={v}")]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--out", d])
        files = {}
        for path in sorted(Path(d).iterdir()):
            text = path.read_text()
            if path.name == "manifest.json":
                manifest = json.loads(text)
                del manifest["config"], manifest["config_hash"]
                text = json.dumps(manifest, sort_keys=True)
            files[path.name] = HEADER.sub("#", text)
    stdout = re.sub(r"^config [0-9a-f]{16}:", "config:", out.getvalue().replace(d, "OUT"), flags=re.M)
    return code, stdout, err.getvalue(), files


def test_every_key_is_perturbed_to_a_new_value():
    base = config_to_flat(apply_overrides(preset_config("paper"), BASE))
    assert PERTURB.keys() == base.keys() == config_to_flat(ExperimentConfig()).keys()
    assert len(PERTURB) == 26
    for key, value in PERTURB.items():
        assert config_to_flat(apply_overrides(preset_config("paper"), {**BASE, key: value}))[key] != base[key]
    # The simulate base runs the attack to the end.
    code, stdout, _, files = signature("simulate")
    assert code == EXIT_OK and "inference_block0.csv" in files


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key", PERTURB)
def test_key_changes_output_unless_declared_inert(command, key):
    changed = signature(command, key) != signature(command)
    assert changed == (key not in INERT[command]), (
        f"{command}: {key} is declared inert but changes the output" if changed
        else f"{command}: {key} changes nothing; declare it inert or make it act"
    )
