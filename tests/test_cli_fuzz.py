"""Seeded fuzz of the command-line front end against the exit-code contract.

A few hundred argument vectors over the five subcommands run through
cli.main in-process: catalog metric specs with missing, extra, non-finite
and out-of-range parameters, malformed schedules, radii, tolerances and
band limits (1 to 7 among them), and malformed `rate` input files.  Each
must exit 0, 1, 2 or 3, or be refused by argparse with SystemExit(2);
anything else, a traceback above all, breaks the contract, and so does a
raw RuntimeWarning in the log (the package's named warnings, such as
NonMonotoneFluxTail, may appear).  Radii, schedules and amplitudes reach
both ends of the radius rule.  Every band limit that can pass the input
rules is at most 16, so no case starts a large allocation.
"""

import json
import random

from nearlyround.cli import main

SEED = 2008
CASES = 300

# (valid, invalid) values per flag; None among the invalid ones leaves a
# required flag out
METRIC = (
    (
        "euclidean",
        "schwarzschild_isotropic m=1",
        "schwarzschild_standard m=1",
        "kerr_slice m=1 a=0.5",
        "conformal_perturbed m=1 eps=0.1 l=2 m_order=1 tau_extra=0.6",
    ),
    (
        None,
        # missing parameters
        "kerr_slice m=1", "kerr_slice a=0.5", "schwarzschild_standard",
        "conformal_perturbed m=1 l=2",
        # extra parameters
        "kerr_slice m=1 a=0.5 q=2", "euclidean m=1",
        # non-finite parameters
        "kerr_slice m=nan a=0.5", "schwarzschild_isotropic m=inf",
        "conformal_perturbed m=1 eps=-inf",
        # out-of-range parameters
        "kerr_slice m=1 a=1", "schwarzschild_standard m=-1", "schwarzschild_isotropic m=0",
        "kerr_slice m=1e300 a=0", "conformal_perturbed m=1 eps=0.1 l=0",
        "conformal_perturbed m=1 eps=0.1 l=2 m_order=3",
        "conformal_perturbed m=1 eps=0.1 tau_extra=0.5",
        # degrees above the largest band limit, which no grid resolves
        "conformal_perturbed m=1 eps=0.1 l=129",
        "conformal_perturbed m=1 eps=0.1 l=100000000 m_order=-3",
        # malformed text
        "", "wormhole m=1", "kerr_slice m", "kerr_slice m==1 a=0.5",
        "conformal_perturbed m=1 eps=0.1 l=2.5",
    ),
)
SCHEDULE = (
    # the last valid schedule ends just under metrics.MAX_RADIUS
    ("20,40,80", "10,20,40", "40,80,160", "1e76,1.1e77,1.15e77"),
    (None, "1,2,3", "20,40", "80,40,160", "20,20,40", "-10,20,40", "0,20,40",
     "20,40,nan", "20,40,inf", "20,40,1e100", "10,20,1e70", "a,b,c", ""),
)
# every band limit that passes the input rules is at most 16
BAND_LIMIT = (
    ("8", "12", "16"),
    ("1", "2", "3", "4", "5", "6", "7", "0", "-4", "129", "100000000", "twelve", "8.5"),
)
TOL = (("1e-8", "1e-6"), ("0", "-1e-8", "nan", "inf", "tiny"))
STUDY = {
    "--metric": METRIC,
    "--schedule": SCHEDULE,
    "--band-limit": BAND_LIMIT,
    "--tol": TOL,
    "--family": (("coordinate-spheres", "radial-perturbed"), ("cubes",)),
    "--amplitude": (("0.1", "0.05"), ("0.9", "-0.3", "nan", "1e300")),
    "--l": (("2", "3"), ("0", "20", "-1", "x")),
    "--m-order": (("0", "1", "-2"), ("4", "-9", "0.5")),
    "--decay": (("1", "0.5", "0"), ("-300", "inf")),
    "--format": (("csv", "json"), ("xml",)),
    "--seed": (("0", "3"), ("-1",)),
    "--config": (("study.cfg",), ("bad.cfg", "missing.cfg")),
}
FLAGS = {
    "masses": STUDY,
    "verify": STUDY,
    "embed": {
        "--metric": METRIC,
        "--radius": (
            ("20", "40"),
            (None, "1.5", "0", "-5", "nan", "inf", "1e100", "1e70", "1e-100", "x"),
        ),
        "--band-limit": BAND_LIMIT,
        "--tol": TOL,
    },
    "adm": {"--metric": METRIC, "--schedule": SCHEDULE, "--band-limit": BAND_LIMIT},
    "rate": {
        "--input": (
            ("good.csv", "good.json"),
            (None, "two-rows.csv", "no-column.csv", "text-cell.csv", "nan-cell.csv",
             "radius-zero.csv", "empty.csv", "rows-not-list.json", "no-metadata.json",
             "null-reference.json", "bad-cells.json", "truncated.json", "not-utf8.csv",
             "missing.csv"),
        ),
        "--column": (("brown_york", "hawking"), ("area", "r")),
        "--m-inf": (("1", "0.5"), ("nan", "inf", "x")),
    },
}
REQUIRED = {"--metric", "--radius", "--input"}
FILE_FLAGS = {"--input", "--config"}

_HEADER = "r,area,hawking,brown_york,adm_reference,embed_residual,flags\n"
RATE_FILES = {
    "good.csv": _HEADER + "".join(
        f"{r},{4 * 3.14159 * r * r},{1 - 0.5 / r},{1 + 0.5 / r},1.0,1e-10,\n"
        for r in (20.0, 40.0, 80.0)
    ),
    "two-rows.csv": _HEADER + "20,1,0.9,1.1,1.0,,\n40,1,0.95,1.05,1.0,,\n",
    "no-column.csv": "r,area\n20,1\n40,1\n80,1\n",
    "text-cell.csv": _HEADER + "20,1,abc,1.1,1.0,,\n40,1,0.9,1.05,1.0,,\n80,1,0.9,1.02,x,,\n",
    "nan-cell.csv": _HEADER + "20,1,nan,nan,1.0,,\n40,1,0.9,inf,1.0,,\n80,1,0.9,1.02,1.0,,\n",
    "radius-zero.csv": _HEADER + "0,1,0.9,1.1,1.0,,\n-40,1,0.9,1.05,1.0,,\n80,1,0.9,1.02,1.0,,\n",
    "empty.csv": "",
    "rows-not-list.json": json.dumps({"rows": 5, "metadata": {}}),
    "no-metadata.json": json.dumps({"rows": []}),
    "good.json": json.dumps({
        "rows": [{"r": r, "hawking": 1 - 1 / r, "brown_york": 1 + 1 / r} for r in (20, 40, 80)],
        "metadata": {"adm_reference": 1.0},
    }),
    "null-reference.json": json.dumps({
        "rows": [{"r": r, "brown_york": 1 + 1 / r} for r in (20, 40, 80)],
        "metadata": {"adm_reference": None},
    }),
    "bad-cells.json": json.dumps({
        "rows": [{"r": None, "brown_york": 1.0}, {"r": [1], "brown_york": "x"}],
        "metadata": {"adm_reference": "abc"},
    }),
    "truncated.json": '{"rows": [',
    "not-utf8.csv": "\udcff",
}


def _argv(rng, tmp_path) -> list:
    """One case: valid values throughout, or one invalid flag, or invalid
    values anywhere; an optional flag is as often left at its default."""
    command = rng.choice(tuple(FLAGS))
    flags = FLAGS[command]
    mode = rng.random()
    faulty = rng.choice(tuple(flags)) if mode < 0.6 else None
    argv = [command]
    for flag, (valid, invalid) in flags.items():
        if flag == faulty or (mode >= 0.85 and rng.random() < 0.3):
            value = rng.choice(invalid)
        elif flag in REQUIRED or rng.random() < 0.5:
            value = rng.choice(valid)
        else:
            continue
        if value is not None:
            argv += [flag, str(tmp_path / value) if flag in FILE_FLAGS else value]
    if command in ("masses", "embed") and rng.random() < 0.1:
        argv += ["--out", str(tmp_path / "out")]
    if command == "verify" and rng.random() < 0.2:
        argv.append("--inject-failure")
    return argv


def _outcome(argv):
    """The exit code of one case, "argparse" for a usage error, or the
    exception that escaped the front end."""
    try:
        return main(argv)
    except SystemExit as exc:
        return "argparse" if exc.code == 2 else f"SystemExit({exc.code!r})"
    except Exception as exc:  # noqa: BLE001  (any escape breaks the contract)
        return f"{type(exc).__name__}: {exc}"


def test_cli_keeps_the_exit_code_contract_on_fuzzed_input(tmp_path, capsys, caplog):
    for name, text in RATE_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8", errors="surrogateescape")
    (tmp_path / "study.cfg").write_text("metric = euclidean\nschedule = 10, 20, 40\n")
    (tmp_path / "bad.cfg").write_text("band_limit = 16\nno equals sign\n")
    rng = random.Random(SEED)
    broken = []
    for _ in range(CASES):
        argv = _argv(rng, tmp_path)
        caplog.clear()
        outcome = _outcome(argv)
        capsys.readouterr()
        raw = [r.getMessage() for r in caplog.records if "RuntimeWarning" in r.getMessage()]
        if outcome not in (0, 1, 2, 3, "argparse") or raw:
            broken.append(f"{argv!r} -> {outcome} {raw}")
    assert broken == [], "\n".join(broken)
