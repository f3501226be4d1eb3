"""Rewrite the reference reports of this directory.

    python3 tests/reference/regenerate.py

Run from any directory of a source checkout: it imports `nearlyround` from
that checkout's src/, pins BLAS to one thread, reruns every case of CASES
through the command-line front end, prints the largest relative move of
each number column against the files it replaces, and rewrites the files
and exit_codes.json.  It is the only writer of this directory.
tests/test_reference.py reruns the same cases and compares them with the
files: text exactly, numbers within RELATIVE_TOLERANCE, and of the
"versions" metadata, which names the install, the keys alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXIT_CODES = HERE / "exit_codes.json"
RELATIVE_TOLERANCE = 1e-14

_KERR = ["--metric", "kerr_slice m=1 a=0.5"]
_STANDARD = ["--metric", "schwarzschild_standard m=1"]
_SCHEDULE = ["--schedule", "20,40,80"]
_SPHERES = ["--family", "coordinate-spheres", *_SCHEDULE]
_LUMPY = ["--family", "radial-perturbed", "--l", "3", "--amplitude", "0.1", "--decay", "1",
          *_SCHEDULE]
# the nearly round regime's violator: an l=2 bump that does not decay with r
_OFF_REGIME = ["--family", "radial-perturbed", "--l", "2", "--m-order", "1",
               "--amplitude", "0.05", "--decay", "0", *_SCHEDULE]

_STUDIES = {
    "masses-kerr-L24": ["masses", *_KERR, *_SPHERES, "--band-limit", "24"],
    "masses-lumpy-m2-L32": ["masses", *_STANDARD, *_LUMPY, "--m-order", "2", "--band-limit", "32"],
    "masses-lumpy-m3-L32": ["masses", *_STANDARD, *_LUMPY, "--m-order", "3", "--band-limit", "32"],
    "masses-standard-L32": ["masses", *_STANDARD, *_SPHERES, "--band-limit", "32"],
    "masses-isotropic-L32": [
        "masses", "--metric", "schwarzschild_isotropic m=1", *_SPHERES, "--band-limit", "32",
    ],
    "masses-off-regime-l2-L16": ["masses", *_STANDARD, *_OFF_REGIME, "--band-limit", "16"],
}

# file name -> command-line arguments; the file holds the command's output
CASES = {
    **{f"{name}.{fmt}": [*argv, "--format", fmt] for name, argv in _STUDIES.items()
       for fmt in ("csv", "json")},
    "verify-kerr-L16.txt": ["verify", *_KERR, *_SPHERES, "--band-limit", "16"],
    "verify-lumpy-m2-L16.txt": [
        "verify", *_STANDARD, *_LUMPY, "--m-order", "2", "--band-limit", "16",
    ],
    "verify-off-regime-l2-L16.txt": ["verify", *_STANDARD, *_OFF_REGIME, "--band-limit", "16"],
    "adm-kerr.json": ["adm", *_KERR, *_SCHEDULE],
    **{f"embed-kerr-r{r}.json": ["embed", *_KERR, "--radius", str(r)] for r in (20, 40, 80)},
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|NaN|inf|Infinity)\b")
_JSON_KEY = re.compile(r'"(\w+)":')
_VERSIONS = re.compile(r'"versions": \{[^}]*\}')


def rerun() -> dict:
    """{file name: (exit code, output)} of every case, BLAS on one thread."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy is first imported, below
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    from nearlyround import cli

    outputs = {}
    for name, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        outputs[name] = (code, out.getvalue())
    return outputs


def tokens(name: str, text: str) -> tuple[list, list]:
    """The text between the numbers, and each number as (column, value).

    The column is the CSV header field, the JSON key last opened, or the
    verify check name with the number's place on its line.
    """
    pieces, numbers = [], []
    header = text.split("\n", 1)[0].split(",")
    key = ""
    for lineno, line in enumerate(text.splitlines(keepends=True)):
        last = 0
        for place, match in enumerate(_NUMBER.finditer(line)):
            keys = _JSON_KEY.findall(line, 0, match.start())
            key = keys[-1] if keys else key
            if name.endswith(".csv"):
                column = header[line.count(",", 0, match.start())] if lineno else "header"
            elif name.endswith(".json"):
                column = key
            else:
                column = f"{line.split(' ', 1)[0]}#{place}"
            pieces.append(line[last:match.start()])
            numbers.append((column, float(match.group())))
            last = match.end()
        pieces.append(line[last:])
    return pieces, numbers


def moves(name: str, old: str, new: str) -> dict:
    """{column: (largest relative move, old value, new value)} between two
    outputs whose text agrees; a text difference raises ValueError."""
    old_text, old_numbers = tokens(name, _unversioned(old))
    new_text, new_numbers = tokens(name, _unversioned(new))
    if old_text != new_text or len(old_numbers) != len(new_numbers):
        raise ValueError(f"{name}: the text outside the numbers differs")
    largest = {}
    for (column, a), (_, b) in zip(old_numbers, new_numbers):
        if a == b or (math.isnan(a) and math.isnan(b)):
            move = 0.0
        else:
            move = abs(a - b) / max(abs(a), abs(b))
        if move >= largest.get(column, (-1.0,))[0]:
            largest[column] = (move, a, b)
    return largest


def _unversioned(text: str) -> str:
    """The text with the values of a report's "versions" block masked: they
    name the install (a source tree reads "unknown"), not a result, so only
    their keys are compared."""
    return _VERSIONS.sub(lambda m: re.sub(r': "[^"]*"', ': "*"', m.group()), text)


def differences(name: str, expected: str, actual: str) -> list:
    """What keeps `actual` from matching the reference `expected`: any text
    outside the numbers, or a number moved by more than RELATIVE_TOLERANCE."""
    try:
        found = moves(name, expected, actual)
    except ValueError as exc:
        return [str(exc)]
    return [
        f"{name}: {column} moved {move:.2e} ({a!r} -> {b!r})"
        for column, (move, a, b) in found.items()
        if move > RELATIVE_TOLERANCE
    ]


def main() -> int:
    outputs = rerun()
    old_codes = json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}
    for name, (code, text) in outputs.items():
        path = HERE / name
        if name in old_codes and old_codes[name] != code:
            print(f"{name}: exit code {old_codes[name]} -> {code}")
        if not path.exists():
            print(f"{name}: new")
        else:
            try:
                found = moves(name, path.read_text(encoding="utf-8"), text)
            except ValueError as exc:
                print(exc)
            else:
                moved = {c: m for c, m in found.items() if m[0] > 0.0}
                for column, (move, a, b) in sorted(moved.items()):
                    print(f"{name}: {column} moved {move:.2e} ({a!r} -> {b!r})")
                if not moved:
                    print(f"{name}: no move")
        path.write_text(text, encoding="utf-8")
    EXIT_CODES.write_text(
        json.dumps({name: code for name, (code, _) in outputs.items()}, indent=2) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
