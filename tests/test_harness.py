"""Harness and CLI tests.

Oracles: the Schwarzschild standard-coordinate Brown-York column has the
closed form r (1 - sqrt(1 - 2m/r)); the synthetic series m(r) = 1 + 5/r
is an exact power law with slope -1 on log-log axes.  Everything else is
a contract test: validation, determinism, exit codes, report schema.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import nearlyround as nr
from nearlyround.cli import main
from nearlyround.harness import family_surfaces
from nearlyround.metrics import parse_metric


def schwarzschild_brown_york(r, m):
    return r * (1.0 - math.sqrt(1.0 - 2.0 * m / r))


CHECK_NAMES = (
    "gauss-bonnet",
    "divergence-identity",
    "curvature-transform",
    "distance-hessian",
    "mean-curvature-expansion",
    "mean-curvature-integral",
    "roundness-flags",
    "spectral-resolution",
    "embedding-residual",
    "minkowski-first",
    "minkowski-second",
    "adm-agreement",
)


# ---------------------------------------------------------------- config


def test_config_defaults_valid():
    cfg = nr.StudyConfig()
    assert cfg.schedule == (10.0, 20.0, 40.0)
    assert cfg.band_limit == 16


def test_config_schedule_validation():
    with pytest.raises(nr.ConfigError, match="three"):
        nr.StudyConfig(schedule=(10.0, 20.0))
    with pytest.raises(nr.ConfigError, match="increasing"):
        nr.StudyConfig(schedule=(10.0, 20.0, 20.0))


def test_config_band_limit_validation():
    with pytest.raises(nr.ConfigError, match="band limit"):
        nr.StudyConfig(band_limit=6)


def test_config_family_validation():
    with pytest.raises(nr.ConfigError, match="family"):
        nr.StudyConfig(family="cubes")


def test_config_format_validation():
    with pytest.raises(nr.ConfigError, match="format"):
        nr.StudyConfig(format="xml")


def test_config_harmonic_validation():
    with pytest.raises(nr.ConfigError, match="order"):
        nr.StudyConfig(l=2, m_order=3)


def test_from_mapping_conversions():
    cfg = nr.StudyConfig.from_mapping(
        {"metric": "kerr_slice m=1 a=0.5", "schedule": "20, 40, 80", "band_limit": "12"}
    )
    assert cfg.schedule == (20.0, 40.0, 80.0)
    assert cfg.band_limit == 12


def test_from_mapping_unknown_key():
    with pytest.raises(nr.ConfigError, match="unknown configuration key"):
        nr.StudyConfig.from_mapping({"bogus_key": "1"})


def test_from_mapping_bad_value():
    with pytest.raises(nr.ConfigError, match="band_limit"):
        nr.StudyConfig.from_mapping({"band_limit": "twelve"})


def test_from_mapping_bad_metric():
    with pytest.raises(nr.ConfigError, match="metric"):
        nr.StudyConfig.from_mapping({"metric": "wormhole m=1"})


def test_from_mapping_unknown_family():
    with pytest.raises(nr.ConfigError, match="unknown family 'axisym-kerr'"):
        nr.StudyConfig.from_mapping(
            {"metric": "kerr_slice m=1 a=0.5", "family": "axisym-kerr"}
        )


def test_load_config_parses_file(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(
        "# a study\n"
        "metric = schwarzschild_standard m=1\n"
        "\n"
        "schedule = 10, 20, 40   # inline comment\n"
        "band_limit = 16\n"
    )
    mapping = nr.load_config(str(path))
    assert mapping == {
        "metric": "schwarzschild_standard m=1",
        "schedule": "10, 20, 40",
        "band_limit": "16",
    }


def test_load_config_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("metric schwarzschild\n")
    with pytest.raises(nr.ConfigError, match="key = value"):
        nr.load_config(str(path))


# ------------------------------------------------------------- families


def test_family_exclusion_radius_guard():
    cfg = nr.StudyConfig(metric="schwarzschild_standard m=1", schedule=(3.0, 5.0, 7.0))
    grid = nr.build_grid(8)
    with pytest.raises(nr.ConfigError, match="exclusion"):
        family_surfaces(cfg, grid, parse_metric(cfg.metric))


def test_family_perturbation_degree_guard():
    cfg = nr.StudyConfig(metric="euclidean", family="radial-perturbed", l=20, m_order=0)
    grid = nr.build_grid(16)
    with pytest.raises(nr.ConfigError, match="band limit"):
        family_surfaces(cfg, grid, parse_metric(cfg.metric))


def test_family_radial_perturbed_decay():
    cfg = nr.StudyConfig(
        metric="euclidean", family="radial-perturbed",
        schedule=(10.0, 20.0, 40.0), amplitude=0.2, l=2, m_order=0, decay=1.0,
    )
    grid = nr.build_grid(16)
    members = family_surfaces(cfg, grid, parse_metric(cfg.metric))
    assert [r for r, _ in members] == [10.0, 20.0, 40.0]
    # relative radial deviation falls off like r^-decay
    for r, s in members:
        radial = np.linalg.norm(s.Y, axis=-1)
        rel = np.max(np.abs(radial - r)) / r
        expected = 0.2 / r * np.max(np.abs(nr.synthesize(grid, _unit_coeff(grid, 2, 0))))
        assert abs(rel - expected) <= 1e-12


def _unit_coeff(grid, l, m):
    c = np.zeros(grid.n_coeffs)
    c[nr.coeff_index(l, m)] = 1.0
    return c


# ------------------------------------------------------------ run_masses


def test_run_masses_euclidean_zero_columns():
    cfg = nr.StudyConfig(metric="euclidean", schedule=(10.0, 20.0, 40.0))
    report = nr.run_masses(cfg)
    assert report.adm_reference == 0.0
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.flags == ()
        assert abs(row.hawking) <= 1e-13
        assert abs(row.brown_york) <= 1e-13


def test_run_masses_standard_closed_form_column():
    cfg = nr.StudyConfig(metric="schwarzschild_standard m=1", schedule=(10.0, 20.0, 40.0, 80.0))
    report = nr.run_masses(cfg)
    assert [row.r_label for row in report.rows] == [10.0, 20.0, 40.0, 80.0]
    for row in report.rows:
        assert abs(row.brown_york - schwarzschild_brown_york(row.r_label, 1.0)) <= 1e-12
        assert abs(row.hawking - 1.0) <= 1e-12
    assert abs(report.rows[0].brown_york - 1.0557281) <= 1e-7
    assert abs(report.rows[1].brown_york - 1.0263340) <= 1e-7


def test_run_masses_kerr_columns_monotone():
    cfg = nr.StudyConfig(metric="kerr_slice m=1 a=0.5", schedule=(20.0, 40.0, 80.0))
    report = nr.run_masses(cfg)
    hawk = [abs(row.hawking - 1.0) for row in report.rows]
    brown = [abs(row.brown_york - 1.0) for row in report.rows]
    assert hawk[0] > hawk[1] > hawk[2]
    assert brown[0] > brown[1] > brown[2]
    assert all(row.flags == () for row in report.rows)


def test_run_masses_partial_row():
    # the first surface is badly non-round; its embedding leg fails while
    # the Hawking leg still evaluates
    cfg = nr.StudyConfig(
        metric="euclidean", family="radial-perturbed",
        schedule=(2.0, 20.0, 40.0), amplitude=7.0, l=2, m_order=0, decay=2.0,
        pde_tol=1e-6,
    )
    report = nr.run_masses(cfg)
    first, second, third = report.rows
    assert first.brown_york is None
    assert first.embed_residual is None
    assert first.flags == ("embedding-failed:NonConvexSurface",)
    assert np.isfinite(first.hawking)
    assert second.flags == () and third.flags == ()
    assert report.hard_failures == ()


def test_report_csv_schema():
    cfg = nr.StudyConfig(metric="schwarzschild_isotropic m=1", schedule=(10.0, 20.0, 40.0))
    report = nr.run_masses(cfg)
    lines = report.to_csv().splitlines()
    assert lines[0] == "r,area,hawking,brown_york,adm_reference,embed_residual,flags"
    assert len(lines) == 4
    cells = lines[1].split(",")
    # repr round trip: reading the cell back gives the exact float
    assert float(cells[2]) == report.rows[0].hawking
    assert float(cells[3]) == report.rows[0].brown_york


def test_report_json_schema():
    cfg = nr.StudyConfig(
        metric="schwarzschild_isotropic m=1", schedule=(10.0, 20.0, 40.0), format="json"
    )
    report = nr.run_masses(cfg)
    payload = json.loads(report.render())
    assert payload["metadata"]["columns"][0] == "r"
    assert "out" not in payload["metadata"]["config"]
    assert payload["metadata"]["adm_reference"] == 1.0
    assert "nearlyround" in payload["metadata"]["versions"]
    assert [row["r"] for row in payload["rows"]] == [10.0, 20.0, 40.0]


def test_report_row_failure_rendering():
    cfg = nr.StudyConfig(metric="euclidean")
    failure = nr.RowFailure(r_label=10.0, error="RuntimeError: boom")
    report = nr.MassReport(config=cfg, rows=(failure,), adm_reference=0.0)
    csv_lines = report.to_csv().splitlines()
    assert csv_lines[1].endswith("row-failed:RuntimeError: boom")
    payload = json.loads(report.to_json())
    assert payload["rows"][0]["area"] is None
    assert payload["rows"][0]["flags"] == ["row-failed:RuntimeError: boom"]


# -------------------------------------------------------------- fit_rate


def test_fit_rate_exact_power_law():
    series = [(r, 1.0 + 5.0 / r) for r in (10.0, 20.0, 40.0, 80.0, 160.0)]
    fit = nr.fit_rate(series, 1.0)
    assert fit.fittable
    assert abs(fit.slope + 1.0) <= 1e-10
    assert abs(fit.intercept - math.log(5.0)) <= 1e-10
    assert fit.residual <= 1e-12
    assert fit.note == ""


def test_fit_rate_needs_three_points():
    with pytest.raises(ValueError, match="three"):
        nr.fit_rate([(10.0, 1.1), (20.0, 1.05)], 1.0)


def test_fit_rate_not_fittable_at_noise_floor():
    series = [(r, 1.0) for r in (10.0, 20.0, 40.0)]
    fit = nr.fit_rate(series, 1.0)
    assert not fit.fittable
    assert math.isnan(fit.slope)
    assert "not fittable" in fit.note


def test_fit_rate_noise_floor_grows_with_radius():
    # Hawking masses of Schwarzschild coordinate spheres at r = 80, 160,
    # 320: exact up to roundoff that grows like eps r, 175, 284 and 80 eps here
    series = [(80.0, 1.0000000000000389), (160.0, 0.999999999999937), (320.0, 0.9999999999999823)]
    fit = nr.fit_rate(series, 1.0)
    assert not fit.fittable
    assert "not fittable" in fit.note
    # a real 1/r approach far out stays fittable
    assert nr.fit_rate([(r, 1.0 + 1e-9 * 80.0 / r) for r, _ in series], 1.0).fittable


def test_fit_rate_noisy_series_flagged():
    rng = np.random.default_rng(0)
    radii = (10.0, 20.0, 40.0, 80.0, 160.0)
    noise = rng.normal(0.0, 0.5, len(radii))
    series = [(r, 1.0 + 5.0 / r * math.exp(n)) for r, n in zip(radii, noise)]
    fit = nr.fit_rate(series, 1.0)
    assert fit.fittable
    assert fit.residual > 0.1
    assert "questionable" in fit.note


def test_fit_rate_schwarzschild_series():
    cfg = nr.StudyConfig(metric="schwarzschild_standard m=1", schedule=(10.0, 20.0, 40.0, 80.0))
    report = nr.run_masses(cfg)
    fit = nr.fit_rate([(row.r_label, row.brown_york) for row in report.rows], 1.0)
    assert abs(fit.slope + 1.0) <= 0.05
    assert abs(fit.slope + 1.0453) <= 1e-3  # measured value of the exact series


def test_fit_rate_json_cleans_nonfinite():
    fit = nr.fit_rate([(r, 1.0) for r in (10.0, 20.0, 40.0)], 1.0)
    payload = fit.as_dict()
    assert payload["slope"] is None
    assert payload["fittable"] is False


@pytest.mark.parametrize("m_order", [1, -1])
def test_run_masses_small_center_gauge_step(m_order):
    # the centring step at r=40 and r=80 is about 1e-9; the gauge must
    # still move the moments instead of stalling
    cfg = nr.StudyConfig(
        metric="schwarzschild_standard m=1", family="radial-perturbed",
        schedule=(20.0, 40.0, 80.0), band_limit=12, amplitude=0.1, l=3,
        m_order=m_order,
    )
    assert nr.run_masses(cfg).hard_failures == ()


# ------------------------------------------------------------ run_verify


def test_run_verify_kerr_all_pass():
    cfg = nr.StudyConfig(metric="kerr_slice m=1 a=0.5", schedule=(20.0, 40.0, 80.0))
    report = nr.run_verify(cfg)
    assert tuple(c.name for c in report.checks) == CHECK_NAMES
    assert report.passed
    assert report.exit_code == 0
    adm = report.checks[-1]
    assert "extrapolated" in adm.note


@pytest.mark.parametrize("L", [16, 24, 32])
@pytest.mark.parametrize("metric", ["kerr_slice m=1 a=0.5", "schwarzschild_standard m=1"])
def test_run_verify_passes_across_band_limits(metric, L):
    cfg = nr.StudyConfig(metric=metric, schedule=(20.0, 40.0, 80.0), band_limit=L)
    report = nr.run_verify(cfg)
    assert tuple(c.name for c in report.checks) == CHECK_NAMES
    assert [c.name for c in report.checks if not c.passed] == []


def test_run_verify_underresolved_flagged():
    # near-field spheres at a deliberately coarse band limit: the
    # curvature tail check must fire rather than silently pass
    cfg = nr.StudyConfig(
        metric="kerr_slice m=1 a=0.5", schedule=(4.5, 6.0, 10.0), band_limit=8
    )
    report = nr.run_verify(cfg)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["spectral-resolution"].passed
    assert report.exit_code == 1


def test_run_verify_violating_family_flagged():
    cfg = nr.StudyConfig(
        metric="schwarzschild_isotropic m=1", family="radial-perturbed",
        schedule=(10.0, 20.0, 40.0), amplitude=0.3, l=4, m_order=0, decay=0.0,
        pde_tol=1e-6,
    )
    report = nr.run_verify(cfg)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["roundness-flags"].passed
    assert "tracefree" in by_name["roundness-flags"].note
    # the table stays complete even though several legs cannot run
    assert len(report.checks) == len(CHECK_NAMES)
    assert report.exit_code == 1


def test_run_verify_injection_is_seeded():
    cfg = nr.StudyConfig(metric="schwarzschild_isotropic m=1", schedule=(10.0, 20.0, 40.0))
    clean = nr.run_verify(cfg)
    assert clean.passed
    injected = nr.run_verify(cfg, inject_failure=True)
    assert not injected.passed
    failed = [c for c in injected.checks if not c.passed]
    assert len(failed) == 1
    assert "injected" in failed[0].note
    again = nr.run_verify(cfg, inject_failure=True)
    assert [c.name for c in again.checks if not c.passed] == [failed[0].name]


def test_verify_table_format():
    cfg = nr.StudyConfig(metric="schwarzschild_isotropic m=1", schedule=(10.0, 20.0, 40.0))
    report = nr.run_verify(cfg, inject_failure=True)
    table = report.to_table()
    assert table.startswith("check")
    assert "FAIL" in table
    assert table.rstrip().endswith("CHECK FAILURES PRESENT")


# ------------------------------------------------------------------- CLI


def test_cli_masses_stdout(capsys):
    code = main(["masses", "--metric", "euclidean", "--schedule", "10,20,40"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "r,area,hawking,brown_york,adm_reference,embed_residual,flags"
    assert len(out.splitlines()) == 4


def test_cli_masses_byte_identical(tmp_path):
    args = [
        "masses", "--metric", "kerr_slice m=1 a=0.5", "--schedule", "20,40,80",
        "--format", "json",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "metric = euclidean\nschedule = 10, 20, 40\nband_limit = 16\n"
    )
    code = main(["masses", "--config", str(cfg), "--schedule", "10,20,40,80"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 5  # header + four overridden radii


def test_cli_exit_code_config_errors(tmp_path, capsys):
    assert main(["masses", "--metric", "wormhole m=1"]) == 2
    assert main(["masses", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus_key = 1\n")
    assert main(["masses", "--config", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["masses", "--schedule", "10,20,nan"],
        ["masses", "--metric", "schwarzschild_isotropic m=nan"],
        ["masses", "--tol", "inf"],
        ["embed", "--metric", "schwarzschild_isotropic m=1", "--radius", "nan"],
        ["embed", "--metric", "schwarzschild_isotropic m=1", "--radius", "40", "--tol", "inf"],
        ["embed", "--metric", "schwarzschild_isotropic m=1", "--radius", "40", "--band-limit", "0"],
        ["adm", "--metric", "schwarzschild_isotropic m=1", "--schedule", "80,40,160"],
        ["adm", "--metric", "schwarzschild_isotropic m=abc", "--schedule", "40,80,160"],
        # the l=2 bump at amplitude 0.9 dips to r = 3.58 < 4 at r = 5
        ["masses", "--metric", "schwarzschild_standard m=1", "--family", "radial-perturbed",
         "--l", "2", "--m-order", "0", "--amplitude", "0.9", "--decay", "0",
         "--schedule", "5,10,20", "--band-limit", "8"],
    ],
    ids=[
        "masses-schedule-nan", "masses-metric-nan", "masses-tol-inf",
        "embed-radius-nan", "embed-tol-inf", "embed-band-limit-0",
        "adm-schedule-unsorted", "adm-metric-abc", "masses-perturbed-inside-exclusion",
    ],
)
def test_cli_rejects_bad_input_with_exit_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


def test_cli_exit_code_solver_failure(capsys):
    code = main(["embed", "--metric", "kerr_slice m=1 a=0.5", "--radius", "40", "--tol", "1e-16"])
    assert code == 3
    capsys.readouterr()


def test_cli_verify_exit_codes(capsys):
    ok = main(["verify", "--metric", "schwarzschild_isotropic m=1", "--schedule", "10,20,40"])
    assert ok == 0
    bad = main(
        [
            "verify", "--metric", "schwarzschild_isotropic m=1",
            "--schedule", "10,20,40", "--inject-failure",
        ]
    )
    assert bad == 1
    out = capsys.readouterr().out
    assert "injected" in out


def test_cli_verify_kerr_l24(capsys):
    code = main(
        [
            "verify", "--metric", "kerr_slice m=1 a=0.5",
            "--schedule", "20,40,80", "--band-limit", "24",
        ]
    )
    assert code == 0
    capsys.readouterr()


def test_cli_embed_writes_mesh_and_summary(tmp_path, capsys):
    mesh = tmp_path / "sphere.obj"
    code = main(["embed", "--metric", "euclidean", "--radius", "2", "--out", str(mesh)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["method"] == "axisymmetric"
    assert abs(payload["radius"] - 2.0) <= 1e-10
    assert payload["metric_residual"] <= 1e-10
    assert mesh.read_text().startswith("#")


def test_cli_adm(capsys):
    code = main(
        ["adm", "--metric", "schwarzschild_isotropic m=1", "--schedule", "80,160,320"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(payload["value"] - 1.0) <= 1e-4
    assert payload["known_mass"] == 1.0


def test_cli_rate_roundtrip(tmp_path, capsys):
    report = tmp_path / "std.csv"
    assert (
        main(
            [
                "masses", "--metric", "schwarzschild_standard m=1",
                "--schedule", "10,20,40,80", "--out", str(report),
            ]
        )
        == 0
    )
    assert main(["rate", "--input", str(report), "--column", "brown_york"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["slope"] + 1.0) <= 0.05
    # the hawking column is exact at every radius: explicitly not fittable
    assert main(["rate", "--input", str(report), "--column", "hawking"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fittable"] is False
    assert payload["slope"] is None


def test_cli_rate_json_input(tmp_path, capsys):
    report = tmp_path / "std.json"
    main(
        [
            "masses", "--metric", "schwarzschild_standard m=1",
            "--schedule", "10,20,40,80", "--format", "json", "--out", str(report),
        ]
    )
    capsys.readouterr()
    assert main(["rate", "--input", str(report)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["slope"] + 1.0453) <= 1e-3


def test_reports_identical_across_blas_threads():
    # every transform sum is an FFT or a small per-m matrix product, whose
    # summation order does not change with the OpenBLAS thread count
    kerr = ["--metric", "kerr_slice m=1 a=0.5", "--family", "coordinate-spheres",
            "--schedule", "20,40,80"]
    runs = {"masses": kerr + ["--band-limit", "24"], "verify": kerr + ["--band-limit", "16"]}
    for command, args in runs.items():
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "nearlyround.cli", command, *args],
                capture_output=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], command


@pytest.mark.parametrize(
    "row, reference",
    [('{"r": null, "hawking": 1.0}', "1.0"), ('{"r": [1], "hawking": 1.0}', "1.0"),
     ('{"r": 10.0, "hawking": 1.0}', '"abc"')],
    ids=["null-radius", "list-radius", "text-reference"],
)
def test_cli_rate_wrong_cell_types(tmp_path, capsys, row, reference):
    # a JSON report whose cells have the wrong type exits 2, not a traceback
    path = tmp_path / "report.json"
    path.write_text(
        f'{{"rows": [{row}, {row}, {row}], "metadata": {{"adm_reference": {reference}}}}}'
    )
    assert main(["rate", "--input", str(path), "--column", "hawking"]) == 2
    capsys.readouterr()


def test_cli_rate_bad_inputs(tmp_path, capsys):
    assert main(["rate", "--input", str(tmp_path / "none.csv")]) == 2
    # well-formed JSON whose rows or metadata have the wrong type
    for name, text in (
        ("int-rows.json", '{"rows": [1, 2, 3], "metadata": {"adm_reference": 1.0}}'),
        ("scalar-rows.json", '{"rows": 5, "metadata": {"adm_reference": 1.0}}'),
        ("scalar-metadata.json", '{"rows": [], "metadata": 3}'),
    ):
        path = tmp_path / name
        path.write_text(text)
        assert main(["rate", "--input", str(path)]) == 2, name
    with pytest.raises(SystemExit) as excinfo:
        main(["rate", "--input", "x", "--column", "bogus"])
    assert excinfo.value.code == 2
    capsys.readouterr()
