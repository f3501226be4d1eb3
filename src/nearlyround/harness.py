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

import functools
import json
import math
import operator
from dataclasses import dataclass, fields, replace

import numpy as np

from .embedding import embed, minkowski_residuals
from .errors import ConfigError, NearlyRoundError
from .mass import MassValues, assemble_mass_row
from .metrics import adm_mass, check_radii, check_schedule, parse_metric
from .sphere import analyze, build_grid, coeff_degrees, coeff_index, synthesize
from .surfaces import (
    coordinate_sphere,
    distance_hessian_residual,
    divergence_identity_gap,
    fundamental_forms,
    immerse_radial,
    mass_flux,
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
    """Everything a study run needs, validated at construction: the one
    input rule of the command line, whose study flags are these fields.

    The schedule is under metrics.check_schedule's rule; the band limit
    under build_grid's rule (l, m_order and seed under its operator.index)
    and at least 8; tol positive and finite.  amplitude/l/m_order/decay
    shape the radial-perturbed family and are ignored by coordinate-spheres.
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
    out: str | None = None
    format: str = "csv"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "schedule", check_schedule(self.schedule))
        for name in ("amplitude", "decay", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("l", "m_order", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        build_grid(self.band_limit)
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
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "StudyConfig":
        """Build a config from string values (file keys, CLI flags); each
        field's annotation names its converter."""
        types = {"tuple": _parse_schedule, "int": int, "float": float}
        converters = {f.name: types.get(f.type, str) for f in fields(cls)}
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
    if config.family != "radial-perturbed":
        return [(r, coordinate_sphere(r, grid)) for r in config.schedule]
    if config.l > grid.L:
        raise ConfigError(
            f"perturbation degree {config.l} exceeds the band limit {grid.L}"
        )
    coeffs = np.zeros(grid.n_coeffs)
    coeffs[coeff_index(config.l, config.m_order)] = 1.0
    ylm = synthesize(grid, coeffs)
    # an overflow gives inf or nan, which the radius rule refuses; every node
    # is checked before any row runs, so no row fails inside the metric
    with np.errstate(over="ignore", invalid="ignore"):
        profiles = [
            r * (1.0 + config.amplitude * np.float64(r) ** -config.decay * ylm)
            for r in config.schedule
        ]
    node_radii = check_radii(f(profile) for profile in profiles for f in (np.min, np.max))
    r_min = min(node_radii)
    if r_min <= metric.exclusion_radius:
        raise ConfigError(
            f"perturbed surfaces reach radius {r_min:.3f}, inside the "
            f"exclusion radius {metric.exclusion_radius:.3f} of {config.metric!r}"
        )
    return [(r, immerse_radial(profile, grid)) for r, profile in zip(config.schedule, profiles)]


@dataclass(frozen=True)
class RowFailure:
    """A schedule entry whose geometry could not be evaluated at all."""

    r_label: float
    error: str


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _finite_or_null(value):
    """value with every non-finite float, at any depth of its dicts, lists
    and tuples, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def json_text(payload) -> str:
    """payload as indented JSON text, the one JSON rule of the reports and
    the subcommands: JSON has no nan or inf, so a non-finite float is null."""
    return json.dumps(_finite_or_null(payload), indent=2) + "\n"


@functools.cache
def _package_version() -> str:
    """The installed distribution's version, or "unknown" in a source tree.
    Read on first use: importlib.metadata costs every cold start ~20 ms."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("nearlyround")
    except PackageNotFoundError:
        return "unknown"


@dataclass(frozen=True)
class MassReport:
    """Mass table plus enough metadata to reproduce it.  adm_reference is
    the study's one ADM reference; every row's cell reads it from here."""

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
            "tolerances": {"tol": self.config.tol},
            "versions": {"nearlyround": _package_version(), "numpy": np.__version__},
        }

    def _row_values(self, row) -> dict:
        """The cells of one row by column, in CSV_COLUMNS order; flags a list."""
        values = dict.fromkeys(CSV_COLUMNS)
        values.update(r=row.r_label, adm_reference=self.adm_reference)
        if isinstance(row, RowFailure):
            values["flags"] = [f"row-failed:{row.error}"]
        else:
            values.update(
                area=row.area, hawking=row.hawking, brown_york=row.brown_york,
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
        return json_text({"metadata": self.metadata(), "rows": rows})

    def render(self) -> str:
        return self.to_json() if self.config.format == "json" else self.to_csv()


def run_masses(config: StudyConfig) -> MassReport:
    """Evaluate the mass table of the configured family.

    Per-row failures are recorded inline and the sweep continues; rows
    keep schedule order regardless of how they are computed.
    """
    metric = parse_metric(config.metric)
    grid = build_grid(config.band_limit)
    members = family_surfaces(config, grid, metric)
    rows = []
    while members:
        r, s = members.pop(0)  # a done member, with the tangents it keeps, is freed
        try:
            rows.append(assemble_mass_row(s, metric, r_label=r, tol=config.tol))
        except NearlyRoundError as exc:
            rows.append(RowFailure(r_label=r, error=f"{type(exc).__name__}: {exc}"))
    return MassReport(config=config, rows=tuple(rows), adm_reference=float(metric.known_mass))


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


def fit_rate(series, m_infinity: float) -> RateFit:
    """Fit the approach rate of a mass series toward its limit.

    series is an iterable of at least three (r, mass) pairs, with finite
    masses at radii under metrics.check_radii's rule, and m_infinity is
    finite.  A flux of size r less its leading part, a mass at radius r
    carries about eps r of roundoff: gaps below 10 eps max(1, |m_inf|, r)
    give an explicit not-fittable result.
    """
    pts = [(float(r), float(v)) for r, v in series]
    if len(pts) < 3:
        raise ConfigError("rate fit needs at least three points")
    check_radii(r for r, _ in pts)
    bad = [(r, v) for r, v in pts if not math.isfinite(v)]
    if bad:
        raise ConfigError(f"rate fit needs finite masses, got {bad[0]}")
    m_infinity = float(m_infinity)
    if not math.isfinite(m_infinity):
        raise ConfigError(f"the limit m_inf must be finite, got {m_infinity}")
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

    A check that measured nothing (see _verify_check) is not computed; its
    value is inf and its note names the error.
    """

    name: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""
    computed: bool = True


@dataclass(frozen=True)
class VerifyReport:
    """The verify table: its checks in run_verify's order."""

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


def _curvature_tail(grid, fd) -> float:
    """Energy fraction of the curvature in the top two degree bands."""
    coeffs = analyze(grid, fd.gauss_curvature)
    # scaled by a power of two near the largest: the fraction stays exact, the squares finite
    coeffs *= 2.0 ** -np.frexp(np.max(np.abs(coeffs)))[1]
    degs, _ = coeff_degrees(grid.L)
    total = float(np.linalg.norm(coeffs))
    if total == 0.0:
        return 0.0
    return float(np.linalg.norm(coeffs[degs >= grid.L - 1]) / total)


def _verify_check(name: str, tolerance: float, measure) -> VerifyCheck:
    """One check of the verify table from its measure, which returns (value,
    note) with value None when nothing was measured.  A NearlyRoundError is
    such a measure, noted "computation failed: <Class>: <message>"; a check
    with no value is not computed, reads inf and fails."""
    try:
        value, note = measure()
    except NearlyRoundError as exc:
        value, note = None, f"computation failed: {type(exc).__name__}: {exc}"
    computed = value is not None
    value = float(value) if computed else math.inf
    return VerifyCheck(
        name=name, value=value, tolerance=float(tolerance),
        passed=value <= tolerance, note=note, computed=computed,
    )


def run_verify(config: StudyConfig, *, inject_failure: bool = False) -> VerifyReport:
    """Measure the identity residuals and diagnostics behind a mass study.

    The table is one ordered list of (name, tolerance, measure) entries
    under _verify_check's failure rule: a check whose measure ends in a
    NearlyRoundError fails, not computed, and the table goes on.  Member
    records are built up to the first that fails, whose error then fails
    every check that reads the family.  The three embedding checks share
    one pass, which the first failed embedding stops; they are then not
    computed, noted "embedding failed at r=<r>: <Class>".  With
    inject_failure, one seeded check is forced to fail so the failure path
    can be exercised end to end.
    """
    metric = parse_metric(config.metric)
    grid = build_grid(config.band_limit)
    data, member_error = [], None
    for r, s in family_surfaces(config, grid, metric):
        try:
            data.append((r, fundamental_forms(s), fundamental_forms(s, metric)))
        except NearlyRoundError as exc:
            member_error = exc
            break

    def family():
        if member_error is not None:
            raise member_error
        return data

    def over_family(fn):
        return lambda: (max(fn(fd_hat, fd) for _, fd_hat, fd in family()), "")

    def roundness():
        diag = nearly_round_diagnostics([fd for _, _, fd in family()])
        return len(diag.flagged), "; ".join(diag.flagged)

    @functools.cache
    def embedded():
        # one pass for the three embedding checks: the sups of the metric
        # residual and of the two Minkowski identities, as (value, note)
        worst = [0.0, 0.0, 0.0]
        for r, _, fd in family():
            try:
                e = embed(fd, tol=config.tol)
            except NearlyRoundError as exc:
                return [(None, f"embedding failed at r={r:g}: {type(exc).__name__}")] * 3
            mk = minkowski_residuals(e)
            measured = (e.metric_residual, mk.first_identity, mk.second_identity)
            worst = [max(w, m) for w, m in zip(worst, measured)]
        return [(w, "") for w in worst]

    known = metric.known_mass

    def adm():
        est = adm_mass(config.schedule, [mass_flux(fh, fd.ambient_dg) for _, fh, fd in family()])
        rate = ", flux constant; no rate" if math.isnan(est.rate) else f" at rate {est.rate:.2f}"
        return abs(est.value - known), f"extrapolated {est.value:.6f}{rate}"

    entries = [
        ("gauss-bonnet", 1e-8,
         over_family(lambda fh, fd: abs(fd.integrate(fd.gauss_curvature) - 4.0 * math.pi))),
        ("divergence-identity", 1e-10, over_family(divergence_identity_gap)),
        ("curvature-transform", 1e-10, over_family(second_form_transform_residual)),
        ("distance-hessian", 1e-10, over_family(lambda fh, fd: distance_hessian_residual(fh))),
        ("mean-curvature-expansion", 50.0, over_family(mean_curvature_expansion_residual)),
        ("mean-curvature-integral", 100.0, over_family(mean_curvature_integral_residual)),
        ("roundness-flags", 0.0, roundness),
        ("spectral-resolution", 1e-10, over_family(lambda fh, fd: _curvature_tail(grid, fd))),
        ("embedding-residual", config.tol, lambda: embedded()[0]),
        ("minkowski-first", 1e-6, lambda: embedded()[1]),
        ("minkowski-second", 1e-6, lambda: embedded()[2]),
        ("adm-agreement", 0.05 * max(1.0, abs(known)), adm),
    ]
    checks = [_verify_check(*entry) for entry in entries]

    if inject_failure:
        rng = np.random.default_rng(config.seed)
        idx = int(rng.integers(0, len(checks)))
        victim = checks[idx]
        checks[idx] = replace(
            victim, passed=False,
            note=(victim.note + "; " if victim.note else "") + "injected failure",
        )

    return VerifyReport(checks=tuple(checks))
