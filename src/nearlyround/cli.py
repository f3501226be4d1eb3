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
import math
import sys

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
    _parse_schedule,
    fit_rate,
    load_config,
    run_masses,
    run_verify,
)
from .metrics import adm_mass, parse_metric
from .sphere import build_grid
from .surfaces import coordinate_sphere, fundamental_forms

log = logging.getLogger("nearlyround")

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_FAILURE = 3


def _add_study_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value study file; flags override it")
    p.add_argument("--metric", help='metric spec, e.g. "kerr_slice m=1 a=0.5"')
    p.add_argument(
        "--family",
        help="coordinate-spheres | radial-perturbed",
    )
    p.add_argument("--schedule", help="comma-separated radii, e.g. 10,20,40")
    p.add_argument("--band-limit", dest="band_limit", type=int)
    p.add_argument("--amplitude", type=float)
    p.add_argument("--l", type=int)
    p.add_argument("--m-order", dest="m_order", type=int)
    p.add_argument("--decay", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--pde-tol", dest="pde_tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--out", help="report file; standard output when omitted")


def _study_config(args) -> StudyConfig:
    mapping: dict = {}
    if args.config:
        try:
            mapping.update(load_config(args.config))
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    for key in (
        "metric", "family", "schedule", "band_limit", "amplitude", "l",
        "m_order", "decay", "tol", "pde_tol", "seed", "format", "out",
    ):
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
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
    for name in ("radius", "tol", "pde_tol"):
        value = getattr(args, name)
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    metric = parse_metric(args.metric)
    grid = build_grid(args.band_limit)
    s = coordinate_sphere(args.radius, grid)
    fd = fundamental_forms(s, metric)
    e = embed(s, fd, tol=args.tol, pde_tol=args.pde_tol)
    mk = minkowski_residuals(e, tau=metric.tau)
    vol = volume_cross_check(e)
    if args.out:
        write_embedding_obj(e, args.out)
        log.info("wrote %s", args.out)
    summary = {
        "radius": e.radius,
        "method": e.method,
        "metric_residual": e.metric_residual,
        "area": e.area,
        "volume": e.volume,
        "volume_cross_check": vol.rel_gap,
        "h0_deviation": e.h0_deviation,
        "support_deviation": e.support_deviation,
        "minkowski_first": mk.first_identity,
        "minkowski_second": mk.second_identity,
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def _cmd_adm(args) -> int:
    metric = parse_metric(args.metric)
    est = adm_mass(metric, _parse_schedule(args.schedule), args.band_limit)
    payload = {
        "value": est.value,
        "rate": est.rate,
        "coefficient": est.coefficient,
        "residual": est.residual,
        "radii": list(est.radii),
        "fluxes": list(est.fluxes),
        "known_mass": metric.known_mass,
    }
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _read_series(path: str, column: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        rows, metadata = payload["rows"], payload["metadata"]
        if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
            raise ConfigError(f"report {path!r}: rows must be a list of objects")
        if not isinstance(metadata, dict):
            raise ConfigError(f"report {path!r}: metadata must be an object")
        pairs = [
            (float(row["r"]), float(row[column]))
            for row in rows
            if row.get(column) is not None
        ]
        reference = metadata["adm_reference"]
        return pairs, None if reference is None else float(reference)
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
    if len(pairs) < 3:
        raise ConfigError(f"need at least three usable rows, found {len(pairs)}")
    fit = fit_rate(pairs, m_infinity)
    sys.stdout.write(json.dumps(fit.as_dict(), indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearlyround",
        description="Quasi-local mass studies of nearly round surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("masses", help="mass table over a surface family")
    _add_study_args(p)
    p.set_defaults(func=_cmd_masses)

    p = sub.add_parser("verify", help="identity and diagnostic check table")
    _add_study_args(p)
    p.add_argument(
        "--inject-failure", action="store_true",
        help="force one seeded check to fail (pipeline test)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("embed", help="isometrically embed one coordinate sphere")
    p.add_argument("--metric", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--band-limit", dest="band_limit", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--pde-tol", dest="pde_tol", type=float, default=1e-10)
    p.add_argument("--out", help="write the embedded surface as an OBJ mesh")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("adm", help="ADM mass flux extrapolation")
    p.add_argument("--metric", required=True)
    p.add_argument("--schedule", required=True, help="flux radii, e.g. 40,80,160")
    p.add_argument("--band-limit", dest="band_limit", type=int, default=16)
    p.set_defaults(func=_cmd_adm)

    p = sub.add_parser("rate", help="fit a convergence rate from a mass report")
    p.add_argument("--input", required=True, help="csv or json report from `masses`")
    p.add_argument("--column", choices=("hawking", "brown_york"), default="brown_york")
    p.add_argument("--m-inf", dest="m_inf", type=float, help="limit; default adm_reference")
    p.set_defaults(func=_cmd_rate)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
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
