"""The failure contract: one exception hierarchy decides what a failure means.

ConfigError (bad input) exits 2, SolverError (valid input, no number)
exits 3 and degrades a mass row or a verify check, and anything else is a
defect of the program that must propagate instead of turning into a
report cell.
"""

import importlib
import inspect
import logging
import pkgutil

import numpy as np
import pytest

import nearlyround as nr
from nearlyround import cli, harness, mass, sphere
from nearlyround.errors import ConfigError, NearlyRoundError, SolverError

CONFIG_LEAVES = ("UnknownMetricFamily", "PointInsideExclusionRadius")
SOLVER_LEAVES = (
    "RegimeViolation", "UniformizationError", "EmbeddingError", "SelfIntersectionError",
    "EmbeddabilityError", "NonConvexSurface", "DegenerateInducedMetric",
)


def package_exception_classes():
    """Every exception class defined in a nearlyround module (warning
    categories aside), by name."""
    found = {}
    for info in pkgutil.iter_modules(nr.__path__):
        module = importlib.import_module(f"nearlyround.{info.name}")
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and issubclass(obj, BaseException)
                and not issubclass(obj, Warning)
            ):
                found[name] = obj
    return found


def test_every_exception_class_derives_from_the_root():
    classes = package_exception_classes()
    assert set(CONFIG_LEAVES + SOLVER_LEAVES) <= set(classes)
    assert [n for n, c in classes.items() if not issubclass(c, NearlyRoundError)] == []
    for name in CONFIG_LEAVES:
        assert issubclass(classes[name], ConfigError), name
    for name in SOLVER_LEAVES:
        assert issubclass(classes[name], SolverError), name
    # the branches keep the builtin meaning older callers catch
    assert issubclass(ConfigError, ValueError)
    assert issubclass(SolverError, RuntimeError)


SMALL = dict(metric="schwarzschild_isotropic m=1", schedule=(10.0, 20.0, 40.0), band_limit=8)


def defect(*args, **kwargs):
    raise ValueError("a defect of the program")


def test_run_masses_propagates_a_defect(monkeypatch):
    monkeypatch.setattr(mass, "hawking_mass", defect)
    with pytest.raises(ValueError, match="defect"):
        nr.run_masses(nr.StudyConfig(**SMALL))


def test_run_verify_propagates_a_defect(monkeypatch):
    monkeypatch.setattr(harness, "divergence_identity_gap", defect)
    with pytest.raises(ValueError, match="defect"):
        nr.run_verify(nr.StudyConfig(**SMALL))
    with pytest.raises(ValueError, match="defect"):
        cli.main(["verify", "--metric", SMALL["metric"], "--schedule", "10,20,40",
                  "--band-limit", "8"])


@pytest.mark.parametrize(
    "argv, reported",
    [
        (["masses", "--metric", "schwarzschild_isotropic m=1", "--schedule", "10,20,40"],
         "embedding-failed:SolverError"),
        (["verify", "--metric", "schwarzschild_isotropic m=1", "--schedule", "10,20,40"],
         "embedding failed at r=10: SolverError"),
        (["embed", "--metric", "schwarzschild_isotropic m=1", "--radius", "20"],
         "solver failure: no embedding"),
    ],
    ids=["masses", "verify", "embed"],
)
def test_cli_solver_error_from_embed_exits_3(argv, reported, monkeypatch, capsys, caplog):
    def failing(*args, **kwargs):
        raise SolverError("no embedding")

    for module in (mass, harness, cli):
        monkeypatch.setattr(module, "embed", failing)
    with caplog.at_level(logging.INFO, logger="nearlyround"):
        assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert reported in out + caplog.text


def test_masses_row_keeps_hawking_on_solver_error(monkeypatch):
    def failing(*args, **kwargs):
        raise nr.UniformizationError("no factor")

    monkeypatch.setattr(mass, "embed", failing)
    report = nr.run_masses(nr.StudyConfig(**SMALL))
    assert [row.flags for row in report.rows] == [("embedding-failed:UniformizationError",)] * 3
    assert all(row.brown_york is None and np.isfinite(row.hawking) for row in report.rows)


def test_verify_exit_code_prefers_a_measured_failure():
    def check(passed, computed=True):
        return nr.VerifyCheck("c", 0.0 if passed else np.inf, 1.0, passed, computed=computed)

    def code(*checks):
        return nr.VerifyReport(checks).exit_code

    assert code(check(True), check(True)) == 0
    assert code(check(True), check(False, computed=False)) == 3
    assert code(check(False), check(False, computed=False)) == 1
    assert code(check(False), check(True)) == 1


def test_center_gauge_singular_jacobian_raises_solver_error(monkeypatch):
    grid = sphere.build_grid(8)
    # moments that ignore the dilation give an all-zero Jacobian
    monkeypatch.setattr(sphere, "conformal_moments", lambda grid, u: np.ones(3))
    with pytest.raises(SolverError, match="singular"):
        sphere.center_gauge(grid, np.zeros(grid.shape))
