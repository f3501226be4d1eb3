"""Correctness checks on study outputs, computed apart from the program.

Each check returns a list of problems; an empty list means the output
passed.  The reference quantities come from closed forms and expansions
written here, not from nearlyround:

* Schwarzschild (areal chart): the Brown-York mass of the round sphere
  of areal radius r is r (1 - sqrt(1 - 2m/r)).
* Any asymptotically Schwarzschild slice: r (m_BY - m) -> m^2 / 2.  The
  closed form above gives r (m_BY - m) = m^2/2 + m^3/(2r) + O(r^-2), so
  the gap |r (m_BY - m) - m^2/2| is held below m^3 / r (twice the leading
  term) and must shrink along the schedule.
"""

from __future__ import annotations

import math
from dataclasses import replace

# Brown-York against the round-sphere closed form on the perturbed
# Schwarzschild family: 4e-7 at r=20 and 6e-9 at r=80 when written.
CLOSED_FORM_TOL = 1e-6

VERIFY_CHECKS = (
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


def brown_york_round_schwarzschild(m: float, r: float) -> float:
    """Brown-York mass of the areal-radius-r sphere in Schwarzschild."""
    return r * (1.0 - math.sqrt(1.0 - 2.0 * m / r))


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def check_masses(report, schedule, mass: float, tol: float, schwarzschild: bool) -> list:
    """Problems with one mass report of a study over `schedule`."""
    rows = report.rows
    if len(rows) != len(schedule):
        return [f"{len(rows)} rows for a schedule of {len(schedule)}"]
    problems = []
    for row, r in zip(rows, schedule):
        if not hasattr(row, "brown_york"):
            problems.append(f"r={r:g}: row failed ({row.error})")
        elif row.flags:
            problems.append(f"r={r:g}: flagged {';'.join(row.flags)}")
        elif row.brown_york is None or row.embed_residual is None:
            problems.append(f"r={r:g}: Brown-York mass missing")
        elif not row.embed_residual <= tol:
            problems.append(f"r={r:g}: embed_residual {row.embed_residual:.3g} > tol {tol:g}")
        elif row.r_label != r:
            problems.append(f"r={r:g}: row labelled {row.r_label!r}")
    if problems:
        return problems

    hawking_gap = [abs(row.hawking - mass) for row in rows]
    by_gap = [abs(row.brown_york - mass) for row in rows]
    if not _strictly_decreasing(hawking_gap):
        problems.append(f"|m_H - m| not strictly decreasing: {hawking_gap}")
    if not _strictly_decreasing(by_gap):
        problems.append(f"|m_BY - m| not strictly decreasing: {by_gap}")
    limit_gap = [abs(r * (row.brown_york - mass) - 0.5 * mass**2) for r, row in zip(schedule, rows)]
    if not _strictly_decreasing(limit_gap):
        problems.append(f"|r (m_BY - m) - m^2/2| not strictly decreasing: {limit_gap}")
    for r, gap in zip(schedule, limit_gap):
        if not gap <= mass**3 / r:
            problems.append(f"r={r:g}: |r (m_BY - m) - m^2/2| = {gap:.3g} > m^3/r")
    if schwarzschild:
        closed = [
            abs(row.brown_york - brown_york_round_schwarzschild(mass, r))
            for r, row in zip(schedule, rows)
        ]
        if not _strictly_decreasing(closed):
            problems.append(f"Brown-York closed-form gap not shrinking with r: {closed}")
        for r, gap in zip(schedule, closed):
            if not gap <= CLOSED_FORM_TOL:
                problems.append(f"r={r:g}: Brown-York off the closed form by {gap:.3g}")
    return problems


def check_verify(report) -> list:
    """Problems with one verify table: all 12 named checks must pass."""
    names = tuple(c.name for c in report.checks)
    if names != VERIFY_CHECKS:
        return [f"unexpected check list {names}"]
    problems = [
        f"{c.name}: {c.value:.3g} vs {c.tolerance:.1g} failed ({c.note})"
        for c in report.checks
        if not (c.passed and c.value <= c.tolerance)
    ]
    if report.exit_code != 0:
        problems.append(f"exit code {report.exit_code}")
    return problems


def corrupt_masses(report):
    """The report with the Brown-York mass of its last row moved by 1e-3."""
    rows = list(report.rows)
    rows[-1] = replace(rows[-1], brown_york=rows[-1].brown_york + 1e-3)
    return replace(report, rows=tuple(rows))
