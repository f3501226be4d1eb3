"""Batch driver for mass studies: configs, sweeps, rate fits, check tables.

A study is a metric, a one-parameter family of surfaces, and a radius
schedule.  run_masses evaluates both quasi-local masses along the family
and packages them as a deterministic report; run_verify measures the
geometric identity residuals and diagnostic constants behind those
numbers and renders a pass/fail table; fit_rate extracts convergence
slopes from any (r, mass) series.

Reports carry no timestamps and format floats by shortest round trip, so
identical configurations produce byte-identical output.

A row or check that ends in a NearlyRoundError (see nearlyround.errors) is
reported as failed and the study goes on; any other exception is a defect
of the program and propagates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy

from importlib.metadata import PackageNotFoundError, version as _dist_version

try:
    _package_version = _dist_version("nearlyround")
except PackageNotFoundError:  # running from a source tree without install
    _package_version = "unknown"

from .embedding import embed, minkowski_residuals
from .errors import ConfigError, NearlyRoundError
from .mass import MassValues, assemble_mass_row
from .metrics import adm_mass, parse_metric
from .sphere import analyze, build_grid, coeff_degrees, coeff_index, synthesize
from .surfaces import (
    best_fit_sphere,
    coordinate_sphere,
    distance_hessian_residual,
    divergence_identity_gap,
    fundamental_forms,
    immerse_radial,
    mean_curvature_expansion_residual,
    mean_curvature_integral_residual,
    nearly_round_diagnostics,
    second_form_transform_residual,
)

__all__ = [
    "MassReport",
    "RateFit",
    "RowFailure",
    "StudyConfig",
    "VerifyCheck",
    "VerifyReport",
    "fit_rate",
    "load_config",
    "run_masses",
    "run_verify",
]

_FAMILIES = ("coordinate-spheres", "radial-perturbed")

CSV_COLUMNS = ("r", "area", "hawking", "brown_york", "adm_reference", "embed_residual", "flags")


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study run needs, validated at construction.

    The schedule must be strictly increasing with at least three radii;
    the band limit at least 8.  amplitude/l/m_order/decay shape the
    radial-perturbed family and are ignored by coordinate-spheres.
    """

    metric: str = "schwarzschild_isotropic m=1"
    family: str = "coordinate-spheres"
    schedule: tuple = (10.0, 20.0, 40.0)
    band_limit: int = 16
    amplitude: float = 0.1
    l: int = 2
    m_order: int = 0
    decay: float = 1.0
    tol: float = 1e-8
    pde_tol: float = 1e-10
    out: str | None = None
    format: str = "csv"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "schedule", tuple(float(r) for r in self.schedule))
        if not all(math.isfinite(r) for r in self.schedule):
            raise ConfigError(f"schedule radii must be finite: {self.schedule}")
        for name in ("amplitude", "decay", "tol", "pde_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if len(self.schedule) < 3:
            raise ConfigError("schedule needs at least three radii")
        if any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            raise ConfigError(f"schedule must be strictly increasing: {self.schedule}")
        if self.band_limit < 8:
            raise ConfigError(f"band limit must be at least 8, got {self.band_limit}")
        if self.family not in _FAMILIES:
            raise ConfigError(
                f"unknown family {self.family!r}; choose one of {', '.join(_FAMILIES)}"
            )
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if abs(self.m_order) > self.l:
            raise ConfigError(f"harmonic order |{self.m_order}| exceeds degree {self.l}")
        if not (self.tol > 0.0 and self.pde_tol > 0.0):
            raise ConfigError("tolerances must be positive")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "StudyConfig":
        """Build a config from string values (file keys, CLI overrides)."""
        converters = {
            "metric": str,
            "family": str,
            "schedule": _parse_schedule,
            "band_limit": int,
            "amplitude": float,
            "l": int,
            "m_order": int,
            "decay": float,
            "tol": float,
            "pde_tol": float,
            "out": str,
            "format": str,
            "seed": int,
        }
        kwargs = {}
        for key, raw in mapping.items():
            if key not in converters:
                raise ConfigError(f"unknown configuration key {key!r}")
            try:
                kwargs[key] = raw if not isinstance(raw, str) else converters[key](raw)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
        config = cls(**kwargs)
        parse_metric(config.metric)  # fail fast on a bad metric spec
        return config


def _parse_schedule(text: str) -> tuple:
    parts = text.replace(",", " ").split()
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad schedule {text!r}: {exc}") from exc


def load_config(path: str) -> dict:
    """Read a plain key-value config file: `key = value`, # comments."""
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line.strip()!r}")
            key, value = body.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def family_surfaces(config: StudyConfig, grid, metric) -> list:
    """The scheduled family as (radius, Immersion) pairs, schedule order."""
    if min(config.schedule) <= metric.exclusion_radius:
        raise ConfigError(
            f"schedule reaches into the exclusion radius "
            f"{metric.exclusion_radius:.3f} of {config.metric!r}"
        )
    members = []
    if config.family == "radial-perturbed":
        if config.l > grid.L:
            raise ConfigError(
                f"perturbation degree {config.l} exceeds the band limit {grid.L}"
            )
        coeffs = np.zeros(grid.n_coeffs)
        coeffs[coeff_index(config.l, config.m_order)] = 1.0
        ylm = synthesize(grid, coeffs)
        profiles = [
            r * (1.0 + config.amplitude * r ** (-config.decay) * ylm)
            for r in config.schedule
        ]
        # checked before any row runs, so no row fails inside the metric
        r_min = min(float(np.min(profile)) for profile in profiles)
        if r_min <= metric.exclusion_radius:
            raise ConfigError(
                f"perturbed surfaces reach radius {r_min:.3f}, inside the "
                f"exclusion radius {metric.exclusion_radius:.3f} of {config.metric!r}"
            )
        for r, profile in zip(config.schedule, profiles):
            members.append((r, immerse_radial(None, profile, grid)))
    else:
        for r in config.schedule:
            members.append((r, coordinate_sphere(r, grid)))
    return members


@dataclass(frozen=True)
class RowFailure:
    """A schedule entry whose geometry could not be evaluated at all."""

    r_label: float
    error: str


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


@dataclass(frozen=True)
class MassReport:
    """Mass table plus enough metadata to reproduce it."""

    config: StudyConfig
    rows: tuple
    adm_reference: float

    def metadata(self) -> dict:
        cfg = {f.name: getattr(self.config, f.name) for f in fields(self.config)}
        cfg["schedule"] = list(self.config.schedule)
        del cfg["out"]  # the destination is not part of the study
        return {
            "config": cfg,
            "adm_reference": self.adm_reference,
            "columns": list(CSV_COLUMNS),
            "tolerances": {"tol": self.config.tol, "pde_tol": self.config.pde_tol},
            "versions": {
                "nearlyround": _package_version,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        }

    def _row_values(self, row) -> dict:
        """The cells of one row by column, in CSV_COLUMNS order; flags a list."""
        values = dict.fromkeys(CSV_COLUMNS)
        if isinstance(row, RowFailure):
            values.update(
                r=row.r_label, adm_reference=self.adm_reference,
                flags=[f"row-failed:{row.error}"],
            )
        else:
            values.update(
                r=row.r_label, area=row.area, hawking=row.hawking,
                brown_york=row.brown_york, adm_reference=row.adm_reference,
                embed_residual=row.embed_residual, flags=list(row.flags),
            )
        return values

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            values = self._row_values(row)
            flags = ";".join(values.pop("flags"))
            lines.append(",".join([_fmt(v) for v in values.values()] + [flags]))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        rows = [self._row_values(row) for row in self.rows]
        return json.dumps({"metadata": self.metadata(), "rows": rows}, indent=2) + "\n"

    def render(self) -> str:
        return self.to_json() if self.config.format == "json" else self.to_csv()

    @property
    def hard_failures(self) -> tuple:
        return tuple(r for r in self.rows if isinstance(r, RowFailure))


def run_masses(config: StudyConfig) -> MassReport:
    """Evaluate the mass table of the configured family.

    Per-row failures are recorded inline and the sweep continues; rows
    keep schedule order regardless of how they are computed.
    """
    metric = parse_metric(config.metric)
    grid = build_grid(config.band_limit)
    adm_reference = metric.known_mass if metric.known_mass is not None else math.nan
    rows = []
    for r, s in family_surfaces(config, grid, metric):
        try:
            rows.append(
                assemble_mass_row(
                    s,
                    metric,
                    r_label=r,
                    adm_reference=metric.known_mass,
                    tol=config.tol,
                    pde_tol=config.pde_tol,
                )
            )
        except NearlyRoundError as exc:
            rows.append(RowFailure(r_label=r, error=f"{type(exc).__name__}: {exc}"))
    return MassReport(config=config, rows=tuple(rows), adm_reference=float(adm_reference))


@dataclass(frozen=True)
class RateFit:
    """Least-squares power law |m(r) - m_inf| ~ C r^slope on log-log axes."""

    slope: float
    intercept: float
    residual: float
    m_infinity: float
    n_points: int
    fittable: bool
    note: str = ""

    def as_dict(self) -> dict:
        def clean(x):
            return x if math.isfinite(x) else None

        return {
            "slope": clean(self.slope),
            "intercept": clean(self.intercept),
            "residual": clean(self.residual),
            "m_infinity": self.m_infinity,
            "n_points": self.n_points,
            "fittable": self.fittable,
            "note": self.note,
        }


def fit_rate(series, m_infinity: float) -> RateFit:
    """Fit the approach rate of a mass series toward its limit.

    series is an iterable of (r, mass) pairs.  A flux of size r less its
    leading part, a mass at radius r carries about eps r of roundoff: gaps
    below 10 eps max(1, |m_inf|, r) give an explicit not-fittable result.
    """
    pts = [(float(r), float(v)) for r, v in series]
    if len(pts) < 3:
        raise ValueError("rate fit needs at least three points")
    m_infinity = float(m_infinity)
    radii = np.array([r for r, _ in pts])
    gaps = np.array([abs(v - m_infinity) for _, v in pts])
    floors = 10.0 * np.finfo(float).eps * np.maximum(max(1.0, abs(m_infinity)), radii)
    if np.any(gaps <= floors):
        return RateFit(
            slope=math.nan, intercept=math.nan, residual=math.nan,
            m_infinity=m_infinity, n_points=len(pts), fittable=False,
            note=f"mass differences at the machine noise floor (up to "
            f"{floors.max():.1e}); rate not fittable",
        )
    logr = np.log(radii)
    logg = np.log(gaps)
    X = np.stack([logr, np.ones_like(logr)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(X, logg, rcond=None)
    residual = float(np.sqrt(np.mean((X @ [slope, intercept] - logg) ** 2)))
    note = ""
    if residual > 0.1:
        note = f"log-log fit residual {residual:.3f} above 0.1; power-law model questionable"
    return RateFit(
        slope=float(slope), intercept=float(intercept), residual=residual,
        m_infinity=m_infinity, n_points=len(pts), fittable=True, note=note,
    )


@dataclass(frozen=True)
class VerifyCheck:
    """One named verification: a measured number against its tolerance.

    A check whose computation ended in a NearlyRoundError is not computed;
    its value is inf and its note names the error.
    """

    name: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""
    computed: bool = True


@dataclass(frozen=True)
class VerifyReport:
    config: StudyConfig
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        """0 when every check passed, 1 when a computed check failed, and 3
        when the only failures are checks that could not be computed."""
        failed = [c for c in self.checks if not c.passed]
        if not failed:
            return 0
        return 1 if any(c.computed for c in failed) else 3

    def to_table(self) -> str:
        lines = [f"{'check':<28} {'measured':>13} {'tolerance':>10}  verdict"]
        for c in self.checks:
            verdict = "pass" if c.passed else "FAIL"
            note = f"  ({c.note})" if c.note else ""
            lines.append(
                f"{c.name:<28} {c.value:>13.6e} {c.tolerance:>10.1e}  {verdict}{note}"
            )
        summary = "all checks passed" if self.passed else "CHECK FAILURES PRESENT"
        lines.append(summary)
        return "\n".join(lines) + "\n"


def _curvature_tail(grid, fd, r0: float) -> float:
    """Energy fraction of the scaled curvature in the top two degree bands."""
    coeffs = analyze(grid, fd.gauss_curvature * r0**2)
    degs, _ = coeff_degrees(grid.L)
    total = float(np.linalg.norm(coeffs))
    if total == 0.0:
        return 0.0
    return float(np.linalg.norm(coeffs[degs >= grid.L - 1]) / total)


def run_verify(config: StudyConfig, *, inject_failure: bool = False) -> VerifyReport:
    """Measure the identity residuals and diagnostics behind a mass study.

    Every check is named, carries its measured value and tolerance, and
    the report's exit code is nonzero iff any check fails.  With
    inject_failure, one seeded check is forced to fail so downstream
    plumbing of the failure path can be exercised end to end.
    """
    metric = parse_metric(config.metric)
    grid = build_grid(config.band_limit)
    members = family_surfaces(config, grid, metric)
    data = []
    for r, s in members:
        fd_hat = fundamental_forms(s)
        fd = fundamental_forms(s, metric)
        data.append((r, s, fd_hat, fd))

    def over_family(fn):
        return max(fn(fd_hat, fd) for _, _, fd_hat, fd in data)

    checks = []

    def add(name, value, tolerance, note="", computed=True):
        checks.append(
            VerifyCheck(
                name=name, value=float(value), tolerance=float(tolerance),
                passed=bool(value <= tolerance), note=note, computed=computed,
            )
        )

    def add_failed(name, tolerance, exc):
        add(
            name, math.inf, tolerance, computed=False,
            note=f"computation failed: {type(exc).__name__}: {exc}",
        )

    def add_measured(name, fn, tolerance):
        # a check whose computation breaks is a failed check, not an
        # aborted table; violating families must still produce a report
        try:
            value = fn()
        except NearlyRoundError as exc:
            add_failed(name, tolerance, exc)
        else:
            add(name, value, tolerance)

    add_measured(
        "gauss-bonnet",
        lambda: over_family(
            lambda fh, fd: abs(fd.integrate(fd.gauss_curvature) - 4.0 * math.pi)
        ),
        1e-8,
    )
    add_measured("divergence-identity", lambda: over_family(divergence_identity_gap), 1e-10)
    add_measured(
        "curvature-transform", lambda: over_family(second_form_transform_residual), 1e-10
    )
    add_measured(
        "distance-hessian",
        lambda: over_family(lambda fh, fd: distance_hessian_residual(fh)),
        1e-10,
    )
    add_measured(
        "mean-curvature-expansion", lambda: over_family(mean_curvature_expansion_residual), 50.0
    )
    add_measured(
        "mean-curvature-integral", lambda: over_family(mean_curvature_integral_residual), 100.0
    )

    try:
        diag = nearly_round_diagnostics([(s, fd) for _, s, _, fd in data], metric.tau)
    except NearlyRoundError as exc:
        add_failed("roundness-flags", 0.0, exc)
    else:
        add("roundness-flags", len(diag.flagged), 0.0, note="; ".join(diag.flagged))

    add_measured(
        "spectral-resolution",
        lambda: max(
            _curvature_tail(grid, fd, best_fit_sphere(fh, s).radius) for _, s, fh, fd in data
        ),
        1e-10,
    )

    embed_worst = 0.0
    mink1 = 0.0
    mink2 = 0.0
    embed_note = ""
    for r, s, fd_hat, fd in data:
        try:
            e = embed(s, fd, fd_hat, tol=config.tol, pde_tol=config.pde_tol)
        except NearlyRoundError as exc:
            embed_worst = math.inf
            mink1 = mink2 = math.inf
            embed_note = f"embedding failed at r={r:g}: {type(exc).__name__}"
            break
        mk = minkowski_residuals(e, tau=metric.tau)
        embed_worst = max(embed_worst, e.metric_residual)
        mink1 = max(mink1, mk.first_identity)
        mink2 = max(mink2, mk.second_identity)
    embedded = not embed_note
    add("embedding-residual", embed_worst, config.tol, embed_note, embedded)
    add("minkowski-first", mink1, 1e-6, embed_note, embedded)
    add("minkowski-second", mink2, 1e-6, embed_note, embedded)

    if metric.known_mass is None:
        add("adm-agreement", 0.0, 1.0, note="metric has no mass reference; skipped")
    else:
        est = adm_mass(metric, config.schedule, config.band_limit)
        add(
            "adm-agreement",
            abs(est.value - metric.known_mass),
            0.05 * max(1.0, abs(metric.known_mass)),
            note=f"extrapolated {est.value:.6f} at rate {est.rate:.2f}",
        )

    if inject_failure:
        rng = np.random.default_rng(config.seed)
        idx = int(rng.integers(0, len(checks)))
        victim = checks[idx]
        checks[idx] = replace(
            victim, passed=False,
            note=(victim.note + "; " if victim.note else "") + "injected failure",
        )

    return VerifyReport(config=config, checks=tuple(checks))
