"""Harness and CLI tests.

Oracles: the Schwarzschild standard-coordinate Brown-York column has the
closed form r (1 - sqrt(1 - 2m/r)); the synthetic series m(r) = 1 + 5/r
is an exact power law with slope -1 on log-log axes.  Everything else is
a contract test: validation, determinism, exit codes, report schema.
"""

import ast
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import nearlyround as nr
from nearlyround import harness
from nearlyround.cli import main
from nearlyround.harness import family_surfaces
from nearlyround.metrics import NonFiniteJets, parse_metric


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
    # the grid's rule, at the boundary: a float fails here, not in a study
    with pytest.raises(nr.ConfigError, match="integer"):
        nr.StudyConfig(band_limit=16.0)
    with pytest.raises(nr.ConfigError, match="between 1 and 128"):
        nr.StudyConfig(band_limit=129)


def test_config_family_validation():
    with pytest.raises(nr.ConfigError, match="family"):
        nr.StudyConfig(family="cubes")


def test_config_format_validation():
    with pytest.raises(nr.ConfigError, match="format"):
        nr.StudyConfig(format="xml")


def test_config_harmonic_validation():
    with pytest.raises(nr.ConfigError, match="order"):
        nr.StudyConfig(l=2, m_order=3)
    # a non-integral degree, order or seed fails at construction, under the
    # grid's rule for band limits, not later inside numpy
    for bad in (dict(l=2.5, family="radial-perturbed"), dict(m_order=0.5), dict(seed=1.5)):
        with pytest.raises(nr.ConfigError, match=f"{next(iter(bad))} must be an integer"):
            nr.StudyConfig(**bad)


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
        radial = np.linalg.norm(s.Y, axis=0)
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
    # the first surface is badly non-round; its embedding leg fails (its
    # curvature leaves the nearly round window) while the Hawking leg
    # still evaluates
    cfg = nr.StudyConfig(
        metric="euclidean", family="radial-perturbed",
        schedule=(2.0, 20.0, 40.0), amplitude=7.0, l=2, m_order=0, decay=2.0,
    )
    report = nr.run_masses(cfg)
    first, second, third = report.rows
    assert first.brown_york is None
    assert first.embed_residual is None
    assert first.flags == ("embedding-failed:RegimeViolation",)
    assert np.isfinite(first.hawking)
    assert second.flags == () and third.flags == ()


def test_run_masses_off_regime_rows_converge():
    # decay 0 keeps the bump at amplitude 0.1 at every radius; no conformal
    # factor of it is resolved at L=16, but the metric solve needs none,
    # and its Brown-York values agree with L=24
    base = dict(
        metric="schwarzschild_standard m=1", family="radial-perturbed",
        schedule=(20.0, 40.0, 80.0), amplitude=0.1, l=2, m_order=1, decay=0.0,
    )
    coarse = nr.run_masses(nr.StudyConfig(band_limit=16, **base)).rows
    fine = nr.run_masses(nr.StudyConfig(band_limit=24, **base)).rows
    for row, ref in zip(coarse, fine):
        assert row.flags == ()
        assert row.brown_york == pytest.approx(ref.brown_york, rel=1e-10, abs=0.0)


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
    assert set(payload["metadata"]["versions"]) == {"nearlyround", "numpy"}
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


@pytest.mark.parametrize("radius", [1e100, 1e-100, 0.0])
def test_fit_rate_holds_radii_to_the_radius_rule(radius):
    # the one radius rule of the studies: a fourth power that overflows or
    # underflows, or no positive radius, is bad input
    with pytest.raises(nr.ConfigError, match="fourth power overflows"):
        nr.fit_rate([(10.0, 1.1), (20.0, 1.05), (radius, 1.0)], 1.0)


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
    # json_text is the one JSON rule: a non-finite float is null, at any depth
    fit = nr.fit_rate([(r, 1.0) for r in (10.0, 20.0, 40.0)], 1.0)
    text = harness.json_text({**asdict(fit), "nested": [math.inf, {"x": -math.inf}]})
    payload = json.loads(text)
    assert "NaN" not in text and "Infinity" not in text
    assert payload["slope"] is None and payload["nested"] == [None, {"x": None}]
    assert payload["fittable"] is False


@pytest.mark.parametrize("m_order", [1, -1])
def test_run_masses_small_center_gauge_step(m_order):
    # odd azimuthal orders of an l=3 bump at L=12: every row comes out
    cfg = nr.StudyConfig(
        metric="schwarzschild_standard m=1", family="radial-perturbed",
        schedule=(20.0, 40.0, 80.0), band_limit=12, amplitude=0.1, l=3,
        m_order=m_order,
    )
    assert all(isinstance(row, nr.MassValues) for row in nr.run_masses(cfg).rows)


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


def test_run_verify_kerr_passes_at_l64():
    cfg = nr.StudyConfig(
        metric="kerr_slice m=1 a=0.5", schedule=(20.0, 40.0, 80.0), band_limit=64
    )
    report = nr.run_verify(cfg)
    assert [c.name for c in report.checks if not c.passed] == []
    assert len(report.checks) == len(CHECK_NAMES)


@pytest.mark.parametrize(
    "metric,L",
    [
        ("kerr_slice m=1 a=0.5", 48),
        ("schwarzschild_standard m=1", 48),
        ("schwarzschild_standard m=1", 56),
        ("schwarzschild_standard m=1", 64),
        ("schwarzschild_isotropic m=1", 48),
        ("schwarzschild_isotropic m=1", 56),
        ("schwarzschild_isotropic m=1", 64),
    ],
)
def test_run_verify_passes_at_high_band_limits(metric, L):
    # Kerr at L=64 is test_run_verify_kerr_passes_at_l64.  At L=56 the
    # roundness flag reads the tracefree roundoff, which the Gauss-Legendre
    # weights' accuracy sets
    cfg = nr.StudyConfig(metric=metric, schedule=(20.0, 40.0, 80.0), band_limit=L)
    report = nr.run_verify(cfg)
    assert [c.name for c in report.checks if not c.passed] == []


KERR_L16 = dict(metric="kerr_slice m=1 a=0.5", schedule=(20.0, 40.0, 80.0), band_limit=16)


def test_run_verify_evaluates_the_jets_once_per_member(monkeypatch):
    # the ADM flux reads the jets that the curved records hold: three
    # members, three jet calls (the flat records evaluate none)
    calls = []
    jets = nr.AFMetric.jets

    def counted(self, points):
        calls.append(len(points))
        return jets(self, points)

    monkeypatch.setattr(nr.AFMetric, "jets", counted)
    assert nr.run_verify(nr.StudyConfig(**KERR_L16)).passed
    assert calls == [17 * 34] * 3


# counted name -> (defining module, functions); the four identity residuals
# share one count
VERIFY_WORK_NAMES = {
    "fundamental_forms": ("surfaces", ("fundamental_forms",)),
    "christoffel_lowered": ("metrics", ("christoffel_lowered",)),
    "analyze": ("sphere", ("analyze",)),
    "synth_gradient": ("sphere", ("synth_gradient",)),
    "synthesize": ("sphere", ("synthesize",)),
    "embed": ("embedding", ("embed",)),
    "solve_embedding": ("embedding", ("solve_embedding",)),
    "minkowski_residuals": ("embedding", ("minkowski_residuals",)),
    "nearly_round_diagnostics": ("surfaces", ("nearly_round_diagnostics",)),
    "_graph_diameter": ("surfaces", ("_graph_diameter",)),
    "_line_scan_sweep": ("surfaces", ("_line_scan_sweep",)),
    "distance_hessian_residual": ("surfaces", ("distance_hessian_residual",)),
    "adm_mass": ("metrics", ("adm_mass",)),
    "identity residuals": ("surfaces", (
        "divergence_identity_gap", "second_form_transform_residual",
        "mean_curvature_expansion_residual", "mean_curvature_integral_residual",
    )),
}


def test_verify_study_work_is_pinned(monkeypatch):
    # the calls of one warm Kerr L=16 verify study, each counted in every
    # module that looks the name up; the first study builds the band-limit
    # tables, which a process builds once.  Each curved record forms its
    # lowered symbols three times, building it and in the tracefree
    # gradient and the transform residual; the flat records form none
    config = nr.StudyConfig(**KERR_L16)
    nr.run_verify(config)
    counts = dict.fromkeys([*VERIFY_WORK_NAMES, "AFMetric.jets"], 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for key, (home, names) in VERIFY_WORK_NAMES.items():
        for name in names:
            original = getattr(sys.modules[f"nearlyround.{home}"], name)
            for modname, module in list(sys.modules.items()):
                if modname.startswith("nearlyround") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted(key, original))
    monkeypatch.setattr(nr.AFMetric, "jets", counted("AFMetric.jets", nr.AFMetric.jets))
    assert nr.run_verify(config).passed
    assert counts == {
        "fundamental_forms": 9, "christoffel_lowered": 9, "analyze": 18, "synth_gradient": 20,
        "synthesize": 3, "embed": 3, "solve_embedding": 3, "minkowski_residuals": 3,
        "nearly_round_diagnostics": 1, "_graph_diameter": 3, "_line_scan_sweep": 0,
        "distance_hessian_residual": 3,
        "adm_mass": 1, "identity residuals": 12, "AFMetric.jets": 3,
    }


def test_verify_extrapolates_the_adm_subcommand_value_bit_for_bit(monkeypatch, capsys):
    # on coordinate spheres both read one flux formula at the same nodes
    estimates = []

    def recorded(radii, fluxes):
        estimates.append(nr.adm_mass(radii, fluxes))
        return estimates[-1]

    monkeypatch.setattr(harness, "adm_mass", recorded)
    assert nr.run_verify(nr.StudyConfig(**KERR_L16)).passed
    assert main(["adm", "--metric", KERR_L16["metric"], "--schedule", "20,40,80",
                 "--band-limit", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (est,) = estimates
    assert payload["fluxes"] == list(est.fluxes)
    assert payload["value"] == est.value


@pytest.mark.parametrize("metric", ["kerr_slice m=1 a=0.5", "schwarzschild_standard m=1"])
def test_run_verify_divergence_identity_far_out(metric):
    # the identity reads the catalog's sigma, which keeps its digits far
    # out: 7.1e-15 on Kerr and 3.6e-15 on the standard chart; sigma read as
    # g - delta gave 1.5e-8 and 1.15e-8
    cfg = nr.StudyConfig(metric=metric, schedule=(1e6, 1e7, 1e8), band_limit=16)
    by_name = {c.name: c for c in nr.run_verify(cfg).checks}
    assert by_name["divergence-identity"].tolerance == 1e-10
    assert by_name["divergence-identity"].passed


def test_verify_kerr_l16_spectral_resolution_at_roundoff():
    # the curvature tail of resolved Kerr spheres is roundoff of the
    # transforms: 1.1e-14 with the mirrored phi table, 1.3e-13 with a
    # cos/sin table of the rounded products m phi
    cfg = nr.StudyConfig(
        metric="kerr_slice m=1 a=0.5", schedule=(20.0, 40.0, 80.0), band_limit=16
    )
    by_name = {c.name: c for c in nr.run_verify(cfg).checks}
    assert by_name["spectral-resolution"].value <= 5e-14


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
    assert main(["masses", "--metric", "kerr_slice m=1 a=0.5 a=0.9"]) == 2
    assert main(["masses", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus_key = 1\n")
    assert main(["masses", "--config", str(bad)]) == 2
    # no conformal solve runs, so pde_tol names no configuration key
    removed = tmp_path / "removed.cfg"
    removed.write_text("pde_tol = 1e-6\n")
    assert main(["masses", "--config", str(removed)]) == 2
    assert "Traceback" not in capsys.readouterr().err


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
        # a grid past the band-limit ceiling is refused before any table is built
        ["adm", "--metric", "schwarzschild_isotropic m=1", "--schedule", "40,80,160",
         "--band-limit", "100000000"],
        ["masses", "--schedule", "10,20,40", "--band-limit", "100000"],
        # the l=2 bump at amplitude 0.9 dips to r = 3.58 < 4 at r = 5
        ["masses", "--metric", "schwarzschild_standard m=1", "--family", "radial-perturbed",
         "--l", "2", "--m-order", "0", "--amplitude", "0.9", "--decay", "0",
         "--schedule", "5,10,20", "--band-limit", "8"],
        ["verify", "--metric", "euclidean", "--schedule", "10,20,40", "--seed", "-1",
         "--inject-failure"],
        # embed and adm take StudyConfig's band-limit floor
        ["embed", "--metric", "kerr_slice m=1 a=0.5", "--radius", "40", "--band-limit", "1"],
        ["adm", "--metric", "kerr_slice m=1 a=0.5", "--schedule", "20,40,80",
         "--band-limit", "7"],
        # a perturbation degree above the largest band limit, which no grid
        # resolves, is refused before the time that grows with it is spent
        ["adm", "--metric", "conformal_perturbed m=1 eps=0.1 l=129", "--schedule", "20,40,80"],
    ],
    ids=[
        "masses-schedule-nan", "masses-metric-nan", "masses-tol-inf",
        "embed-radius-nan", "embed-tol-inf", "embed-band-limit-0",
        "adm-schedule-unsorted", "adm-metric-abc", "adm-band-limit-huge",
        "masses-band-limit-huge", "masses-perturbed-inside-exclusion",
        "verify-seed-negative", "embed-band-limit-1", "adm-band-limit-7",
        "adm-perturbation-degree-129",
    ],
)
def test_cli_rejects_bad_input_with_exit_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        # r ** -decay overflows a float at r = 1e10
        ["masses", "--family", "radial-perturbed", "--l", "2", "--decay", "-300",
         "--schedule", "10,20,1e10"],
        # a coordinate sphere's det h carries r^4, which overflows at r = 1e200
        ["adm", "--metric", "kerr_slice m=1 a=0.5", "--schedule", "10,20,1e200"],
    ],
    ids=["masses-perturbation-overflow", "adm-radius-square-overflow"],
)
def test_cli_float_overflow_is_a_config_error(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "nearlyround.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "configuration error" in proc.stderr


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "nearlyround.cli", *argv], capture_output=True, text=True
    )


_KERR_METRIC = ["--metric", "kerr_slice m=1 a=0.5"]
_STANDARD_METRIC = ["--metric", "schwarzschild_standard m=1"]
# an l = 0 bump of amplitude 1e300 puts the surfaces of the default schedule
# near 5.6e300, though every scheduled radius is in range
_HUGE_BUMP = [*_STANDARD_METRIC, "--family", "radial-perturbed", "--l", "0", "--m-order", "0",
              "--amplitude", "1e300", "--decay", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        # det h = r^4 sin^2 theta on a coordinate sphere overflows at r = 1e100,
        # where r^2 is still finite
        pytest.param(["masses", *_KERR_METRIC, "--schedule", "10,20,1e100"], id="masses"),
        pytest.param(["verify", *_KERR_METRIC, "--schedule", "10,20,1e100"], id="verify"),
        pytest.param(["embed", *_KERR_METRIC, "--radius", "1e100"], id="embed"),
        # the rule holds every node of a perturbed surface
        pytest.param(["masses", *_HUGE_BUMP], id="masses-perturbed-5.6e300"),
        pytest.param(["verify", *_HUGE_BUMP], id="verify-perturbed-5.6e300"),
        # the schedule is in range, but its l = 2 bump reaches about 1.5e77
        pytest.param(
            ["masses", *_STANDARD_METRIC, "--schedule", "1e76,1.1e77,1.15e77",
             "--family", "radial-perturbed", "--l", "2", "--amplitude", "0.5", "--decay", "0"],
            id="masses-perturbed-past-max",
        ),
        # r^4 underflows below the rule's lower end, about 1.22e-77
        pytest.param(["masses", "--metric", "euclidean", "--schedule", "1e-100,2e-100,4e-100"],
                     id="masses-underflow"),
        pytest.param(["embed", "--metric", "euclidean", "--radius", "1e-100"], id="embed-underflow"),
    ],
)
def test_cli_rejects_radius_whose_fourth_power_overflows(argv):
    # a radius past either end of the rule is bad input, not a solver
    # failure: refused before any row runs, with the rule's message
    proc = _cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "fourth power overflows" in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("command", ["masses", "verify", "adm"])
def test_cli_names_a_missing_metric_parameter(command):
    proc = _cli(command, "--metric", "kerr_slice m=1", "--schedule", "20,40,80")
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr and "parameter 'a'" in proc.stderr
    assert "Traceback" not in proc.stderr


def _jets_overflow_beyond(monkeypatch, radius):
    """Make every metric's jets raise NonFiniteJets at points beyond
    `radius`, as jets that overflow a float there would: no catalog family
    overflows below the largest radius a study accepts."""
    jets = nr.AFMetric.jets

    def overflowing(self, points):
        top = float(np.max(np.linalg.norm(np.atleast_2d(points), axis=1)))
        if top > radius:
            raise NonFiniteJets(f"{self.family}: metric jets overflow at radius up to {top:.6g}")
        return jets(self, points)

    monkeypatch.setattr(nr.AFMetric, "jets", overflowing)


def test_cli_masses_row_fails_where_metric_jets_overflow(monkeypatch, capsys):
    # the r = 40 member's jets overflow: that row fails by name and the
    # others stand
    _jets_overflow_beyond(monkeypatch, 30.0)
    code = main(["masses", "--metric", "kerr_slice m=1 a=0.5", "--schedule", "10,20,40",
                 "--band-limit", "8"])
    out, err = capsys.readouterr()
    assert code == 3, err
    rows = out.splitlines()[1:]
    assert [row.split(",")[-1] for row in rows[:2]] == ["", ""]
    assert rows[2].startswith("40.0,") and "row-failed:NonFiniteJets" in rows[2]
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_cli_verify_table_survives_a_member_whose_jets_overflow(monkeypatch, capsys):
    # the r = 40 member's records fail; every check that reads it fails
    # by name, and the table still prints with the solver-failure exit
    _jets_overflow_beyond(monkeypatch, 30.0)
    code = main(["verify", "--metric", "kerr_slice m=1 a=0.5", "--schedule", "10,20,40",
                 "--band-limit", "8"])
    out, err = capsys.readouterr()
    assert code == 3, err
    lines = out.splitlines()
    assert lines[0].startswith("check") and lines[-1] == "CHECK FAILURES PRESENT"
    checks = lines[1:-1]
    assert len(checks) == 12
    assert all("computation failed: NonFiniteJets" in line for line in checks)
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_cli_library_warnings_are_log_lines():
    # adm_mass warns of a non-monotone flux tail; the user sees one log line
    # naming the category, not a source location and a line of code
    proc = _cli("verify", "--metric", "kerr_slice m=1 a=0.5", "--schedule", "10,11,40",
                "--band-limit", "8")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "verification sweep: kerr_slice m=1 a=0.5, coordinate-spheres",
        "warning: NonMonotoneFluxTail: flux values do not approach a limit monotonically",
    ]


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
    assert payload["steps"] == 0  # round data: the unit sphere already matches
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


def test_cli_adm_conformal_perturbation_of_high_degree(capsys):
    # Y_lm is evaluated on the unit direction, not as r^l Y_lm times
    # r^-(l + tau), which overflows at the largest degree, 128, on these
    # radii (300^128 > 1.8e308) and exited 3
    code = main(["adm", "--metric", "conformal_perturbed m=1 eps=0.1 l=128",
                 "--schedule", "300,600,1200", "--band-limit", "8"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["known_mass"] == 1.0


def test_cli_adm_constant_flux_has_null_rate(capsys):
    # every p fits a constant flux, so the JSON carries no rate, not NaN
    assert main(["adm", "--metric", "euclidean", "--schedule", "20,40,80"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert "NaN" not in out
    assert payload["rate"] is None
    assert payload["coefficient"] == 0.0
    assert payload["value"] == 0.0


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
    # every transform sum is a small per-m Legendre product or a product
    # with the per-L phi table, whose summation order over the contracted
    # axis does not change with the OpenBLAS thread count; the
    # lumpy study takes the general (Gauss-Newton) embedding route
    kerr = ["--metric", "kerr_slice m=1 a=0.5", "--family", "coordinate-spheres",
            "--schedule", "20,40,80"]
    lumpy = ["masses", "--metric", "schwarzschild_standard m=1", "--family", "radial-perturbed",
             "--l", "3", "--m-order", "2", "--amplitude", "0.1", "--decay", "1",
             "--schedule", "20,40,80", "--band-limit", "32"]
    runs = [["masses", *kerr, "--band-limit", "24"], ["verify", *kerr, "--band-limit", "16"], lumpy]
    for args in runs:
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "nearlyround.cli", *args],
                capture_output=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], args


def test_masses_load_no_scipy(tmp_path):
    # a fresh interpreter runs the embedding from the unit sphere on lumpy
    # and Kerr records (both factor the round preconditioner once, and
    # neither takes the revolution seed), then every other subcommand,
    # without scipy
    report = tmp_path / "lumpy.csv"
    code = (
        "import contextlib, io, sys\n"
        "import nearlyround as nr, nearlyround.cli\n"
        "from nearlyround import embedding as emb\n"
        "calls = {'cho_factor': 0, 'embed_axisymmetric': 0}\n"
        "def counted(name):\n"
        "    fn = getattr(emb, name)\n"
        "    def wrapped(*args, **kwargs):\n"
        "        calls[name] += 1\n"
        "        return fn(*args, **kwargs)\n"
        "    setattr(emb, name, wrapped)\n"
        "for name in calls: counted(name)\n"
        "common = dict(schedule=(20.0, 40.0, 80.0), band_limit=16)\n"
        "lumpy = nr.run_masses(nr.StudyConfig(\n"
        "    metric='schwarzschild_standard m=1', family='radial-perturbed', l=3,\n"
        "    m_order=2, amplitude=0.1, decay=1.0, **common))\n"
        "kerr = nr.run_masses(nr.StudyConfig(\n"
        "    metric='kerr_slice m=1 a=0.5', family='coordinate-spheres', **common))\n"
        "assert all(not row.flags for row in lumpy.rows + kerr.rows)\n"
        # one factorisation per distinct charge-class size at L=16
        "assert calls['cho_factor'] == 17 and calls['embed_axisymmetric'] == 0, calls\n"
        f"open({str(report)!r}, 'w').write(lumpy.render())\n"
        "kerr, study = ['--metric', 'kerr_slice m=1 a=0.5'], ['--schedule', '20,40,80']\n"
        "runs = [\n"
        "    ['verify', *kerr, *study, '--band-limit', '16'],\n"
        "    ['verify', '--metric', 'schwarzschild_standard m=1', '--family',\n"
        "     'radial-perturbed', '--l', '3', '--m-order', '2', '--amplitude', '0.1',\n"
        "     '--decay', '1', *study, '--band-limit', '16'],\n"
        "    ['adm', *kerr, *study],\n"
        "    ['embed', *kerr, '--radius', '40'],\n"
        f"    ['rate', '--input', {str(report)!r}],\n"
        "]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [nearlyround.cli.main(args) for args in runs]\n"
        "assert codes == [0] * len(runs), codes\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cold_start_loads_no_importlib_metadata():
    # the package version is read when a report's metadata is built, not
    # at import: importlib.metadata costs every cold start ~20 ms
    probe = "import sys\n{}print('importlib.metadata' in sys.modules)\n"
    bare = subprocess.run([sys.executable, "-c", probe.format("")],
                          capture_output=True, text=True, check=True)
    if bare.stdout.strip() == "True":
        pytest.skip("this interpreter loads importlib.metadata at start-up")
    setup = (
        "import nearlyround as nr, nearlyround.cli\n"
        "nr.parse_metric('kerr_slice m=1 a=0.5')\n"
        "nr.build_grid(16)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe.format(setup)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_runtime_imports_are_the_declared_dependencies():
    # every third-party module src/ imports, at module level or inside a
    # function, is a declared runtime dependency, and numpy is the only one
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in sorted((root / "src" / "nearlyround").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"nearlyround"}
    with open(root / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in declared}
    assert third_party == names == {"numpy"}


# a dotted name in a string, as the benchmark tracer names its probes
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _top_level_names(stmt) -> set:
    """Names a module-level statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def test_no_module_touches_private_attributes_of_other_objects():
    # a single-underscore attribute is the private state of its object: in
    # src/ only self and cls read or write one (private module functions
    # imported by name are not attributes and are not counted)
    root = Path(__file__).resolve().parents[1]
    touched = [
        f"{path.stem}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted((root / "src" / "nearlyround").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert touched == []


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "nearlyround").glob("*.py"))
TRACER = ROOT / "benchmarks" / "tracer.py"

# the src/ names and members that only a probe string of the benchmark
# tracer reads; they go, with their probes, when the tracer retires them
PROBE_ONLY = {
    "embedding.uniformize",
    "embedding.embed_axisymmetric",
    "sphere.center_gauge",
    "surfaces._signed_distances",
    "sphere.SphereGrid.synthesis_matrix",
    "sphere.SphereGrid.dtheta_matrix",
    "sphere.SphereGrid.dphi_matrix",
}


def _readers(probes: bool) -> list:
    """(path, tree, whether its dotted-name strings count) of every module
    whose reads count: src/, demos/ and benchmarks/, the tracer's probe
    strings only when probes is set."""
    paths = PACKAGE + sorted((ROOT / "demos").glob("*.py")) + sorted(
        (ROOT / "benchmarks").glob("*.py")
    )
    return [
        (path, ast.parse(path.read_text(encoding="utf-8")), probes or path != TRACER)
        for path in paths
    ]


def _dotted_parts(node, strings: bool) -> set:
    """The parts of a dotted-name string constant, e.g. "SphereGrid.synthesis_matrix"."""
    if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        if _DOTTED.fullmatch(node.value):
            return set(node.value.split("."))
    return set()


def _unread_names(probes: bool = True) -> list:
    """Top-level functions, classes and constants of src/ read nowhere
    outside tests/.  A reference is a loaded Name or Attribute in src/,
    demos/ or benchmarks/, or part of a dotted-name string (the benchmark
    tracer names its probes so); the name's own definition and the
    __all__ lists do not count."""
    defined = {
        (path.stem, name)
        for path in PACKAGE if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        for name in _top_level_names(stmt)
        if not name.startswith("__")
    }
    read = set()
    for _, tree, strings in _readers(probes):
        for stmt in tree.body:
            own = _top_level_names(stmt)
            if "__all__" in own:
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = {node.id}
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names = {node.attr}
                else:
                    names = _dotted_parts(node, strings)
                read |= names - own
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def _attribute_reads(node, strings: bool, own=None) -> set:
    """Attribute names loaded under node and the parts of its dotted-name
    strings, except where a method or property reads its own name."""
    names = set()
    for child in ast.iter_child_nodes(node):
        member = isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef)
        names |= _attribute_reads(child, strings, child.name if member else own)
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        names.add(node.attr)
    names |= _dotted_parts(node, strings)
    return names - {own}


def _outside_attribute_reads(probes: bool) -> set:
    """Every attribute name _attribute_reads finds in src/, demos/ and
    benchmarks/."""
    return set().union(
        *(_attribute_reads(tree, strings) for _, tree, strings in _readers(probes))
    )


def _unread_members(probes: bool = True) -> list:
    """The same rule for the methods and properties of the src/ classes,
    dunders excluded: a member counts as read where its name is an
    attribute load outside its own definition, or part of a dotted-name
    string."""
    defined = {
        (path.stem, cls.name, item.name)
        for path in PACKAGE
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
    }
    read = _outside_attribute_reads(probes)
    return sorted(f"{module}.{cls}.{name}" for module, cls, name in defined if name not in read)


def _unread_fields(probes: bool = True) -> list:
    """The same rule for the fields of the src/ dataclasses: a field counts
    as read where its name is an attribute load or part of a dotted-name
    string; a keyword of the constructor writes it."""
    defined = {
        (path.stem, cls.name, item.target.id)
        for path in PACKAGE
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }
    read = _outside_attribute_reads(probes)
    return sorted(f"{module}.{cls}.{name}" for module, cls, name in defined if name not in read)


# the dataclass fields that no code outside tests/ reads by name: what only
# the probe-only uniformize fills, and the fit records that cli writes
# whole through asdict; the set may only shrink
FIELDS_READ_WHOLE = {
    *(f"embedding.UniformizationDiagnostics.{name}" for name in (
        "mean_part", "first_harmonic", "higher_norm", "curvature_deviation", "residual",
        "kernel_defect",
    )),
    *(f"harness.RateFit.{name}" for name in (
        "fittable", "intercept", "m_infinity", "n_points", "residual",
    )),
    *(f"metrics.AdmEstimate.{name}" for name in ("coefficient", "fluxes", "radii", "residual")),
}


def test_every_library_name_is_read_outside_the_tests():
    # a top-level function, class or constant of src/ that only tests read
    # belongs in tests/
    unread = _unread_names()
    assert unread == [], f"read by no code outside tests/: {unread}"


def test_every_class_member_is_read_outside_the_tests():
    unread = _unread_members()
    assert unread == [], f"read by no code outside tests/: {unread}"


def test_every_dataclass_field_is_read_outside_the_tests():
    unread = set(_unread_fields())
    extra = sorted(unread - FIELDS_READ_WHOLE)
    assert extra == [], f"read by no code outside tests/: {extra}"


def test_no_new_name_is_read_by_a_tracer_probe_alone():
    # a probe string of benchmarks/tracer.py counts as a read above, so dead
    # code could hide behind one; the names and members read by nothing
    # else may only shrink from PROBE_ONLY
    probe_only = set(
        _unread_names(probes=False) + _unread_members(probes=False) + _unread_fields(probes=False)
    ) - set(_unread_names() + _unread_members() + _unread_fields())
    assert probe_only <= PROBE_ONLY, sorted(probe_only - PROBE_ONLY)


@pytest.mark.parametrize(
    "row, reference",
    [('{"r": null, "hawking": 1.0}', "1.0"), ('{"r": [1], "hawking": 1.0}', "1.0"),
     ('{"r": 10.0, "hawking": 1.0}', '"abc"'), ('{"r": true, "hawking": 1.5}', "1.0"),
     ('{"r": 10.0, "hawking": false}', "1.0"), ('{"r": 10.0, "hawking": 1.5}', "true")],
    ids=["null-radius", "list-radius", "text-reference", "true-radius", "false-mass",
         "true-reference"],
)
def test_cli_rate_wrong_cell_types(tmp_path, capsys, row, reference):
    # a JSON report whose cells have the wrong type exits 2, not a traceback;
    # float(True) is 1.0, so a boolean cell is refused, not read as a number
    path = tmp_path / "report.json"
    path.write_text(
        f'{{"rows": [{row}, {row}, {row}], "metadata": {{"adm_reference": {reference}}}}}'
    )
    assert main(["rate", "--input", str(path), "--column", "hawking"]) == 2
    assert capsys.readouterr().out == ""


SERIES = [(10.0, 1.5), (20.0, 1.25), (40.0, 1.125)]


@pytest.mark.parametrize(
    "series, reference",
    [
        ([(10.0, "NaN"), *SERIES[1:]], "1.0"),
        ([(10.0, "Infinity"), *SERIES[1:]], "1.0"),
        (SERIES, "NaN"),
        (SERIES, "Infinity"),
        ([(0.0, 1.5), *SERIES[1:]], "1.0"),
        ([(-10.0, 1.5), *SERIES[1:]], "1.0"),
    ],
    ids=["nan-cell", "inf-cell", "nan-reference", "inf-reference", "zero-radius",
         "negative-radius"],
)
def test_cli_rate_rejects_nonfinite_and_nonpositive_input(tmp_path, capsys, series, reference):
    # a fit over such pairs has no slope: it exits 2 and prints nothing,
    # neither a "fittable" result with null slopes nor a bare NaN
    path = tmp_path / "report.json"
    rows = ", ".join(f'{{"r": {r}, "hawking": {v}}}' for r, v in series)
    path.write_text(f'{{"rows": [{rows}], "metadata": {{"adm_reference": {reference}}}}}')
    assert main(["rate", "--input", str(path), "--column", "hawking"]) == 2
    assert capsys.readouterr().out == ""


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


SCALE_CASES = {
    "kerr": ("kerr_slice m={m!r} a={a!r}", {}),
    "isotropic": ("schwarzschild_isotropic m={m!r}", {}),
    "standard": ("schwarzschild_standard m={m!r}", {}),
    "lumpy": (
        "schwarzschild_standard m={m!r}",
        dict(family="radial-perturbed", l=3, m_order=2, amplitude=0.1, decay=1.0),
    ),
}


def scaled_report(case, lam):
    """The run_masses report of a scale case with (m, a, r) -> lam (m, a, r);
    the bump amplitude takes lam^decay, so each surface is the scaled one."""
    spec, bump = SCALE_CASES[case]
    bump = dict(bump, amplitude=bump["amplitude"] * lam ** bump["decay"]) if bump else {}
    cfg = nr.StudyConfig(
        metric=spec.format(m=1.0 * lam, a=0.5 * lam),
        schedule=tuple(lam * r for r in (20.0, 40.0, 80.0)), band_limit=16, **bump,
    )
    return cfg.tol, harness.run_masses(cfg)


@pytest.mark.parametrize("case", sorted(SCALE_CASES))
def test_masses_scale_with_the_metric(case):
    # g_{lam m, lam a}(lam x) = g_{m, a}(x): r, the ADM reference and both
    # masses scale by lam and the area by lam^2.  lam = 2 scales every
    # float exactly, so the rows are bit for bit the unscaled ones; at
    # lam = 3 and 0.1 they agree to roundoff.  The embedding residual is
    # the solver's stopping point, not a scaled quantity: off lam = 2 it
    # is only held to the tolerance.
    tol, base = scaled_report(case, 1.0)

    def unscaled(report, row, lam):
        return (
            row.r_label / lam, row.area / lam**2, row.hawking / lam,
            row.brown_york / lam, report.adm_reference / lam,
        )

    for lam in (2.0, 3.0, 0.1):
        _, report = scaled_report(case, lam)
        for row, want in zip(report.rows, base.rows, strict=True):
            assert row.flags == want.flags == ()
            got, exact = unscaled(report, row, lam), unscaled(base, want, 1.0)
            if lam == 2.0:
                assert got == exact and row.embed_residual == want.embed_residual, row.r_label
            else:
                assert np.allclose(got, exact, rtol=1e-13, atol=0.0), (lam, row.r_label)
                assert row.embed_residual <= tol
