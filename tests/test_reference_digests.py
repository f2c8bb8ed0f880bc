"""The reference commands still write the artifacts recorded in
``reference_digests.json``, byte for byte.

The file is written by ``scripts/reference_digests.py``.  numpy may change
its Generator streams between releases (NEP 19), so the digests are compared
only under the numpy and Python versions the file records; under any other
the test is skipped and says that it did not compare.  The draw scheme it
records, the bit generator under every stream, is compared always: a change
of it moves every draw, so the digests must be made again.
"""

import json
import runpy
from pathlib import Path

import pytest

from cowqkd.timebase import DRAW_SCHEME

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = runpy.run_path(str(ROOT / "scripts" / "reference_digests.py"))
RECORD = json.loads(SCRIPT["DIGEST_FILE"].read_text(encoding="utf-8"))


def test_the_file_covers_every_reference_command():
    assert list(RECORD["runs"]) == SCRIPT["REFERENCE_RUNS"]


def test_the_file_records_the_draw_scheme_of_the_code():
    assert RECORD.get("draw_scheme") == DRAW_SCHEME, (
        f"digests made under draw scheme {RECORD.get('draw_scheme')}, the code draws on "
        f"{DRAW_SCHEME}: regenerate them with scripts/reference_digests.py"
    )


@pytest.mark.parametrize("command", list(RECORD["runs"]))
def test_artifacts_match_their_recorded_digests(command):
    here = SCRIPT["versions"]()
    recorded = {k: RECORD[k] for k in here}
    if here != recorded:
        pytest.skip(f"digests not compared: recorded under {recorded}, this is {here}")
    assert SCRIPT["artifact_digests"](command) == RECORD["runs"][command]
