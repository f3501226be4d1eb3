"""Command-line front end: masses, verify, embed, adm, rate.

Data goes to standard output or the --out file; progress and errors go
to the log on standard error.  Exit codes: 0 success; 1 a verification
check failed; 2 configuration error, a ConfigError: the input is bad;
3 solver failure, a SolverError: the input is valid but some number
could not be produced (a mass row that is flagged or failed, a verify
table whose only failures are checks that could not be computed).  Both
error classes are NearlyRoundErrors (see nearlyround.errors); any other
exception is a defect of the program and is not caught.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
import warnings
from dataclasses import asdict, fields

from .embedding import (
    embed,
    minkowski_residuals,
    volume_cross_check,
    write_embedding_obj,
)
from .errors import ConfigError, NearlyRoundError
from .harness import (
    RowFailure,
    StudyConfig,
    fit_rate,
    json_text,
    load_config,
    run_masses,
    run_verify,
)
from .metrics import adm_mass, check_radii, parse_metric
from .sphere import build_grid
from .surfaces import coordinate_sphere, fundamental_forms, mass_flux

log = logging.getLogger("nearlyround")

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_FAILURE = 3


def _add_config_flags(p: argparse.ArgumentParser, names=None, required=()):
    """One flag per StudyConfig field (all of them, or those in names), taken
    as text: StudyConfig.from_mapping converts and checks every value."""
    for f in fields(StudyConfig):
        if names is None or f.name in names:
            p.add_argument(
                "--" + f.name.replace("_", "-"), required=f.name in required,
                help=f"config key {f.name} (default {f.default})",
            )


def _study_config(args) -> StudyConfig:
    """The StudyConfig of a subcommand's flags over its --config file, if it
    has one; a key given by neither keeps the field's default."""
    mapping: dict = {}
    if getattr(args, "config", None):
        try:
            mapping.update(load_config(args.config))
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    for f in fields(StudyConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            mapping[f.name] = value
    return StudyConfig.from_mapping(mapping)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        log.info("wrote %s", out)
    else:
        sys.stdout.write(text)


def _cmd_masses(args) -> int:
    config = _study_config(args)
    log.info("mass sweep: %s, %s, radii %s", config.metric, config.family, config.schedule)
    report = run_masses(config)
    _emit(report.render(), config.out)
    code = EXIT_OK
    for row in report.rows:
        problem = row.error if isinstance(row, RowFailure) else ";".join(row.flags)
        if problem:
            log.error("row r=%g failed: %s", row.r_label, problem)
            code = EXIT_SOLVER_FAILURE
    return code


def _cmd_verify(args) -> int:
    config = _study_config(args)
    log.info("verification sweep: %s, %s", config.metric, config.family)
    report = run_verify(config, inject_failure=args.inject_failure)
    _emit(report.to_table(), config.out)
    return report.exit_code


def _cmd_embed(args) -> int:
    (radius,) = check_radii([args.radius])
    config = _study_config(args)  # the metric, band limit and tol
    grid = build_grid(config.band_limit)
    fd = fundamental_forms(coordinate_sphere(radius, grid), parse_metric(config.metric))
    e = embed(fd, tol=config.tol)
    mk = minkowski_residuals(e)
    if args.mesh:
        write_embedding_obj(e, args.mesh)
        log.info("wrote %s", args.mesh)
    sys.stdout.write(json_text({
        "radius": e.radius,
        "steps": e.steps,
        "metric_residual": e.metric_residual,
        "area": e.image_data.area,
        "volume": e.volume,
        "volume_cross_check": volume_cross_check(e),
        "h0_deviation": e.h0_deviation,
        "support_deviation": e.support_deviation,
        "minkowski_first": mk.first_identity,
        "minkowski_second": mk.second_identity,
    }))
    return EXIT_OK


def _cmd_adm(args) -> int:
    config = _study_config(args)  # the metric, schedule and band limit
    metric = parse_metric(config.metric)
    grid = build_grid(config.band_limit)
    records = [fundamental_forms(coordinate_sphere(r, grid)) for r in config.schedule]
    est = adm_mass(config.schedule, [mass_flux(fh, metric.jets(fh.points).dg) for fh in records])
    sys.stdout.write(json_text({**asdict(est), "known_mass": metric.known_mass}))
    return EXIT_OK


def _read_series(path: str, column: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        def number(cell):  # float(True) is 1.0, but a JSON boolean is no number
            if isinstance(cell, bool):
                raise TypeError(f"boolean cell {cell}")
            return float(cell)
        payload = json.loads(text)
        rows, metadata = payload["rows"], payload["metadata"]
        if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
            raise ConfigError(f"report {path!r}: rows must be a list of objects")
        if not isinstance(metadata, dict):
            raise ConfigError(f"report {path!r}: metadata must be an object")
        pairs = [
            (number(row["r"]), number(row[column]))
            for row in rows
            if row.get(column) is not None
        ]
        reference = metadata["adm_reference"]
        return pairs, None if reference is None else number(reference)
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or column not in reader.fieldnames:
        raise ConfigError(f"report {path!r} has no column {column!r}")
    pairs = []
    reference = None
    for row in reader:
        if reference is None and row["adm_reference"]:
            reference = float(row["adm_reference"])
        if row[column]:
            pairs.append((float(row["r"]), float(row[column])))
    return pairs, reference


def _cmd_rate(args) -> int:
    try:
        pairs, reference = _read_series(args.input, args.column)
    except OSError as exc:
        raise ConfigError(f"cannot read report {args.input!r}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"malformed report {args.input!r}: {exc}") from exc
    m_infinity = args.m_inf if args.m_inf is not None else reference
    if m_infinity is None:
        raise ConfigError("no --m-inf given and the report carries no adm_reference")
    sys.stdout.write(json_text(asdict(fit_rate(pairs, m_infinity))))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearlyround",
        description="Quasi-local mass studies of nearly round surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("masses", help="mass table over a surface family")
    p.add_argument("--config", help="key = value study file; flags override it")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_masses)

    p = sub.add_parser("verify", help="identity and diagnostic check table")
    p.add_argument("--config", help="key = value study file; flags override it")
    _add_config_flags(p)
    p.add_argument(
        "--inject-failure", action="store_true",
        help="force one seeded check to fail (pipeline test)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("embed", help="isometrically embed one coordinate sphere")
    _add_config_flags(p, ("metric", "band_limit", "tol"), required=("metric",))
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--out", dest="mesh", help="write the embedded surface as an OBJ mesh")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("adm", help="ADM mass flux extrapolation")
    _add_config_flags(p, ("metric", "schedule", "band_limit"), required=("metric", "schedule"))
    p.set_defaults(func=_cmd_adm)

    p = sub.add_parser("rate", help="fit a convergence rate from a mass report")
    p.add_argument("--input", required=True, help="csv or json report from `masses`")
    p.add_argument("--column", choices=("hawking", "brown_york"), default="brown_york")
    p.add_argument("--m-inf", dest="m_inf", type=float, help="limit; default adm_reference")
    p.set_defaults(func=_cmd_rate)

    return parser


def _log_warning(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning that writes one log line, with no source location."""
    log.warning("warning: %s: %s", category.__name__, message)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _log_warning
        try:
            return args.func(args)
        except ConfigError as exc:
            log.error("configuration error: %s", exc)
            return EXIT_CONFIG_ERROR
        except NearlyRoundError as exc:
            log.error("solver failure: %s", exc)
            return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
