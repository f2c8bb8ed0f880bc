#!/usr/bin/env python3
"""Record the sha256 of every artifact that the reference commands write.

Each command of ``REFERENCE_RUNS`` runs through ``cowqkd.cli`` with
``--out`` set to a fresh temporary directory, and every file it writes is
hashed.  The digests go to ``tests/reference_digests.json`` with the numpy
and Python versions they were made under and the draw scheme, the bit
generator under every stream; ``tests/test_reference_digests.py`` recomputes
them and compares only under those versions, because numpy may change its
Generator streams between releases (NEP 19), and fails when the draw scheme
is no longer the code's.

A change that moves draws on purpose regenerates the file in the same
commit and names the artifacts that moved:

    PYTHONPATH=src python3 scripts/reference_digests.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from cowqkd import cli
from cowqkd.timebase import DRAW_SCHEME

DIGEST_FILE = Path(__file__).resolve().parents[1] / "tests" / "reference_digests.json"

REFERENCE_RUNS = [
    "replicate-paper --seed 11",
    "replicate-paper --seed 23",
    "simulate --trials 2 --frames 600000 --seed 3 --set distill.block_length=500 "
    "--set distill.disclosure_size=150 --set attack.corr_floor=0.005",
    "rates --preset 5v",
    "rates --preset paper",
    "sweep --preset paper --axis bias --values 2v,7v",
    "correlate --widths 2000,4000,6000 --clicks 1000000 --seed 5",
    "correlate --widths 2000,4000,6000 --clicks 1000000 --seed 17",
    # The two above hold about 0.1 eavesdropper's dark per width; at 1e9
    # counts/s nearly every stop is a dark, so this one pins their pairing.
    "correlate --widths 2000,6000 --clicks 20000 --seed 4 --set snspd.dark_count_rate_cps=1e9",
    "simulate --preset 5v --seed 3 --frames 300000 --set export_frames=1000",
    "simulate --preset 5v --seed 3 --frames 300000 --set export_frames=1000 "
    "--set source.pattern=random --set source.decoy_probability=0.2",
    # The receiver's other branches, which the paper run never reaches: a
    # gate that cuts a pulse, with darks among the photons, three slots a
    # frame and RZ; a gate that wraps past the frame's end with no hold-off;
    # and a 1 us hold-off, where bulk-kept clicks and short close runs mix.
    "simulate --preset 5v --seed 3 --frames 300000 --set spad.gate_width_ps=2000 --set spad.gate_phase_ps=1500 "
    "--set spad.dark_count_rate_cps=1e6 --set source.bits_per_frame=3 --set source.encoding=rz",
    "replicate-paper --seed 11 --frames 2000000 --set spad.gate_phase_ps=30000 --set spad.hold_off_s=0 "
    "--set distill.block_length=2000 --set distill.disclosure_size=200",
    "replicate-paper --seed 11 --frames 2000000 --set spad.hold_off_s=1e-6 "
    "--set distill.block_length=5000 --set distill.disclosure_size=500",
]


def versions() -> dict[str, str]:
    """The numpy version and the Python major.minor of this interpreter."""
    return {"numpy": np.__version__, "python": "{}.{}".format(*sys.version_info[:2])}


def artifact_digests(command: str) -> dict[str, str]:
    """sha256 of each file that ``cowqkd <command> --out <dir>`` writes, by
    its path under the directory; the command's printout is discarded."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(command.split() + ["--out", out])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"cowqkd {command} exited {code}")
        files = sorted(p for p in Path(out).rglob("*") if p.is_file())
        return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def main() -> int:
    record = {
        **versions(),
        "draw_scheme": DRAW_SCHEME,
        "runs": {command: artifact_digests(command) for command in REFERENCE_RUNS},
    }
    DIGEST_FILE.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, record['runs'].values()))} digests of {len(REFERENCE_RUNS)} commands to {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
