"""Reference reports: the committed outputs of tests/reference/ are what the
program prints today.

tests/reference/regenerate.py is the only writer of those files; a change
that moves a report reruns it, commits the new files and states the moves
it printed.  Here the same cases rerun in a child interpreter (BLAS on one
thread) and each output must match its file: text and exit codes exactly,
numbers within regenerate.RELATIVE_TOLERANCE.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REFERENCE = Path(__file__).resolve().parent / "reference"
sys.path.insert(0, str(REFERENCE))

import regenerate  # noqa: E402


@pytest.fixture(scope="module")
def outputs():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, regenerate; print(json.dumps(regenerate.rerun()))"],
        cwd=REFERENCE, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_reference_set_is_complete():
    files = {p.name for p in REFERENCE.iterdir() if p.suffix in (".csv", ".json", ".txt")}
    assert files == set(regenerate.CASES) | {"exit_codes.json"}


def test_reports_match_the_references(outputs):
    codes = json.loads(regenerate.EXIT_CODES.read_text())
    assert {name: code for name, (code, _) in outputs.items()} == codes
    problems = []
    for name, (_, text) in outputs.items():
        expected = (REFERENCE / name).read_text(encoding="utf-8")
        problems += regenerate.differences(name, expected, text)
    assert problems == []


@pytest.mark.parametrize(
    "name", ["masses-kerr-L24.csv", "masses-lumpy-m3-L32.json", "verify-kerr-L16.txt"]
)
def test_reference_comparison_catches_a_nudge_and_an_edited_flag(name):
    # the versions block names the install and is compared by its keys
    text = regenerate._unversioned((REFERENCE / name).read_text(encoding="utf-8"))
    assert regenerate.differences(name, text, text) == []
    nudged = 0
    for match in regenerate._NUMBER.finditer(text):
        value = float(match.group())
        if value == 0.0 or value != value:
            continue
        moved = text[: match.start()] + repr(value * (1.0 + 1e-13)) + text[match.end():]
        assert regenerate.differences(name, text, moved), match.group()
        nudged += 1
    assert nudged >= 10
    edits = [("pass", "FAIL"), (",\n", ",nonconvex-curvature\n"), ('"flags": []', '"flags": ["x"]')]
    edited = [text.replace(old, new, 1) for old, new in edits if old in text]
    assert edited and all(regenerate.differences(name, text, e) for e in edited)


def test_reference_comparison_reads_only_the_keys_of_the_versions():
    # an installed package reports its version where a source tree reads
    # "unknown"; a renamed or missing key still fails
    text = (REFERENCE / "masses-kerr-L24.json").read_text(encoding="utf-8")
    installed = text.replace('"nearlyround": "unknown"', '"nearlyround": "0.1.0"')
    assert installed != text
    assert regenerate.differences("masses-kerr-L24.json", text, installed) == []
    renamed = text.replace('"numpy":', '"scipy":')
    assert regenerate.differences("masses-kerr-L24.json", text, renamed)
