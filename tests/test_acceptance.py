"""Acceptance suite: one test per advertised guarantee, one verdict line each.

Every test prints a single ``[PASS]``/``[FAIL]`` line naming the guarantee it
checks, visible even under pytest's capture (via ``capsys.disabled``), so a
full run reads as a checklist.  Tolerances are the advertised ones, not the
(much smaller) measured residuals; see the per-test docstrings for the
closed-form oracles.

Conventions: mass parameter m=1 throughout, Kerr spin a=0.5, band limit
L=16 unless a test sweeps it.  Checks with a stated runtime budget time the
computation itself (grids and metric tables come from shared fixtures).
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import nearlyround as nr
import nearlyround.surfaces as surf
from nearlyround.sphere import coeff_degrees

FOUR_PI = 4.0 * math.pi


@pytest.fixture(scope="module")
def g16():
    return nr.build_grid(16)


@pytest.fixture(scope="module")
def iso():
    return nr.schwarzschild_isotropic(1.0)


@pytest.fixture(scope="module")
def std():
    return nr.schwarzschild_standard(1.0)


@pytest.fixture(scope="module")
def kerr():
    return nr.kerr_slice(1.0, 0.5)


def _verdict(capsys, label, failures):
    """Print the one-line verdict, then raise if anything failed."""
    ok = not failures
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label + "\n" + "\n".join(failures)


def test_hawking_exact_on_schwarzschild(capsys, g16, iso):
    """m_H on centered spheres in the m=1 isotropic slice is identically 1.

    Closed form: the slice is conformally flat with zero tracefree second
    form, so 16pi - integral H^2 collapses to the mass for every radius.
    Budget: |m_H - 1| <= 1e-8 at r in {10, 20, 40}, under 5 seconds.
    """
    failures = []
    t0 = time.perf_counter()
    for r in (10.0, 20.0, 40.0):
        s = nr.coordinate_sphere(r, g16)
        mh = nr.hawking_mass(nr.fundamental_forms(s, iso))
        if abs(mh - 1.0) > 1e-8:
            failures.append(f"r={r}: |m_H - 1| = {abs(mh - 1.0):.3e} > 1e-8")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _verdict(capsys, "Hawking mass exact on Schwarzschild slices", failures)


def test_brown_york_closed_form_and_rate(capsys, g16, std):
    """m_BY(r) = r(1 - sqrt(1 - 2/r)) in the m=1 standard slice.

    Standard-coordinate spheres are round with areal radius r, so the
    embedded reference sphere is exact and the integral is elementary.
    The gap to the total mass decays like 1/r: fitted slope -1.0 +/- 0.05.
    """
    failures = []
    series = []
    for r in (10.0, 20.0, 40.0, 80.0):
        s = nr.coordinate_sphere(r, g16)
        fd = nr.fundamental_forms(s, std)
        mby = nr.brown_york_mass(fd, nr.embed(fd))
        closed = r * (1.0 - math.sqrt(1.0 - 2.0 / r))
        rel = abs(mby - closed) / closed
        series.append((r, mby))
        if rel > 1e-6:
            failures.append(f"r={r}: relative gap to closed form {rel:.3e} > 1e-6")
    fit = nr.fit_rate(series, 1.0)
    if abs(fit.slope + 1.0) > 0.05:
        failures.append(f"convergence slope {fit.slope:.4f} not within -1.0 +/- 0.05")
    _verdict(capsys, "Brown-York closed form and 1/r convergence on Schwarzschild", failures)


def _sphere_fit(metric, radii, grid):
    """adm_mass of the mass fluxes over the coordinate spheres of radii."""
    records = [nr.fundamental_forms(nr.coordinate_sphere(r, grid)) for r in radii]
    return nr.adm_mass(radii, [nr.mass_flux(fh, metric.jets(fh.points).dg) for fh in records])


def test_adm_flux_and_extrapolation(capsys, g16, iso, kerr):
    """ADM fluxes match the isotropic closed form; extrapolants hit m=1.

    Closed form: the isotropic-slice flux integral at radius r evaluates
    to m(1 + m/2r)^3 exactly.  Extrapolation budgets: 1e-4 on the
    conformally flat slice, 1e-2 on the Kerr slice (slower decay).
    """
    failures = []
    radii = (80.0, 160.0, 320.0)
    est = _sphere_fit(iso, radii, g16)
    for r, flux in zip(radii, est.fluxes):
        oracle = (1.0 + 1.0 / (2.0 * r)) ** 3
        if abs(flux - oracle) > 1e-6:
            failures.append(f"iso flux at r={r}: |{flux!r} - {oracle!r}| > 1e-6")
    if abs(est.value - 1.0) > 1e-4:
        failures.append(f"iso extrapolant {est.value!r}: |value - 1| > 1e-4")
    kest = _sphere_fit(kerr, (20.0, 40.0, 80.0), g16)
    if abs(kest.value - 1.0) > 1e-2:
        failures.append(f"kerr extrapolant {kest.value!r}: |value - 1| > 1e-2")
    _verdict(capsys, "ADM flux closed form and extrapolated mass", failures)


def test_kerr_roundness_decay(capsys, g16, kerr):
    """Kerr coordinate spheres decay like a nearly round family.

    sup r^3 |Aring| should level off at a constant (stable within 20%
    across a dyadic sweep) and sup r^2 |H - 2/r| should stay bounded.
    """
    failures = []
    tracefree_consts = []
    for r in (20.0, 40.0, 80.0):
        fd = nr.fundamental_forms(nr.coordinate_sphere(r, g16), kerr)
        tracefree_consts.append(r**3 * float(np.max(fd.tracefree_norm)))
        h_const = r**2 * float(np.max(np.abs(fd.mean_curvature - 2.0 / r)))
        if h_const > 5.0:
            failures.append(f"r={r}: r^2 sup|H - 2/r| = {h_const:.3f} > 5.0")
    spread = max(tracefree_consts) / min(tracefree_consts)
    if spread > 1.2:
        failures.append(
            f"r^3 sup|Aring| spread {spread:.3f} > 1.2 (values {tracefree_consts})"
        )
    _verdict(capsys, "Kerr sphere decay rates (tracefree cubic, mean-curvature quadratic)", failures)


def test_both_masses_converge_on_kerr(capsys, g16, kerr):
    """Hawking and Brown-York both converge to the Kerr mass from a sweep.

    Monotone gaps over r in {20, 40, 80} with fitted slope <= -0.8 each,
    whole sweep under two minutes.
    """
    failures = []
    t0 = time.perf_counter()
    radii = (20.0, 40.0, 80.0)
    rows = [nr.assemble_mass_row(nr.coordinate_sphere(r, g16), kerr) for r in radii]
    elapsed = time.perf_counter() - t0
    for row in rows:
        if row.flags:
            failures.append(f"r={row.r_label}: unexpected flags {row.flags}")
    gaps_h = [abs(row.hawking - 1.0) for row in rows]
    gaps_b = [abs(row.brown_york - 1.0) for row in rows]
    if not all(a > b for a, b in zip(gaps_h, gaps_h[1:])):
        failures.append(f"|m_H - 1| not monotone decreasing: {gaps_h}")
    if not all(a > b for a, b in zip(gaps_b, gaps_b[1:])):
        failures.append(f"|m_BY - 1| not monotone decreasing: {gaps_b}")
    for name, column in (("hawking", [r.hawking for r in rows]),
                         ("brown_york", [r.brown_york for r in rows])):
        fit = nr.fit_rate(list(zip(radii, column)), 1.0)
        if not fit.slope <= -0.8:
            failures.append(f"{name} slope {fit.slope:.4f} > -0.8")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _verdict(capsys, "Hawking and Brown-York converge to the Kerr mass", failures)


def test_uniformization_manufactured_recovery(capsys):
    """Conformal-factor solver recovers a manufactured exact solution.

    Build u* from a handful of low-degree harmonics and feed the solver
    the curvature K* = (1 - Lap u*) e^{-2u*} it induces, which solves the
    uniformization equation identically.  Demand PDE residual <= 1e-10
    and u-recovery <= 1e-8 in the centered gauge, at L=16 and L=24.
    """
    failures = []
    for L in (16, 24):
        grid = nr.build_grid(L)
        c = np.zeros(grid.n_coeffs)
        c[0] = 0.03 * math.sqrt(FOUR_PI)
        c[nr.coeff_index(2, 0)] = 0.05
        c[nr.coeff_index(2, 1)] = -0.04
        c[nr.coeff_index(2, -2)] = 0.03
        u_star = nr.synthesize(grid, c)
        ls, _ = coeff_degrees(L)
        lap = nr.synthesize(grid, -ls * (ls + 1.0) * c)
        k_star = (1.0 - lap) * np.exp(-2.0 * u_star)
        u, diag = nr.uniformize(grid, k_star)
        if diag.residual > 1e-10:
            failures.append(f"L={L}: PDE residual {diag.residual:.3e} > 1e-10")
        ug, _ = nr.center_gauge(grid, u)
        ug_star, _ = nr.center_gauge(grid, u_star)
        gap = float(np.max(np.abs(ug - ug_star)))
        if gap > 1e-8:
            failures.append(f"L={L}: u recovery gap {gap:.3e} > 1e-8")
    _verdict(capsys, "Uniformization solver recovers a manufactured solution", failures)


def test_minkowski_identities_spectral(capsys, iso, std, kerr):
    """Minkowski identities hold on every converged embedding in the family.

    Relative residuals of both integral identities <= 1e-6 at L=24.  The
    refinement clause (10x gain from L=12) is floor-guarded: band-limited
    images make the identities discretely near-exact, so both levels
    routinely sit at the quadrature floor with nothing left to gain.
    """
    family = (("std r=10", std, 10.0), ("iso r=20", iso, 20.0),
              ("kerr r=20", kerr, 20.0), ("kerr r=40", kerr, 40.0))
    floor = 1e-12
    failures = []
    levels = {}
    for L in (12, 24):
        grid = nr.build_grid(L)
        for name, metric, r in family:
            s = nr.coordinate_sphere(r, grid)
            e = nr.embed(nr.fundamental_forms(s, metric))
            mk = nr.minkowski_residuals(e)
            levels[name, L] = (mk.first_identity, mk.second_identity)
    for name, _, _ in family:
        rho1, rho2 = levels[name, 24]
        if rho1 > 1e-6 or rho2 > 1e-6:
            failures.append(f"{name}: residuals at L=24 ({rho1:.3e}, {rho2:.3e}) > 1e-6")
        for coarse, fine in zip(levels[name, 12], levels[name, 24]):
            improved = fine <= coarse / 10.0
            at_floor = coarse <= floor and fine <= floor
            if not (improved or at_floor):
                failures.append(
                    f"{name}: L=12 -> L=24 residual {coarse:.3e} -> {fine:.3e}, "
                    "neither 10x gain nor at the quadrature floor"
                )
    _verdict(capsys, "Minkowski integral identities on converged embeddings", failures)


def test_exact_identity_suite(capsys, std, kerr):
    """Ambient-change identities are discretely exact and refine cleanly.

    Divergence and second-form transform residuals must gain 10x per
    band-limit doubling or already sit at the roundoff floor (they do:
    both identities are algebraic at coordinate-sphere nodes).  The
    distance-Hessian split is checked algebraically, and every surface
    must integrate its Gauss curvature to 4pi within 1e-8.
    """
    cases = (("std r=10", std, 10.0), ("kerr r=20", kerr, 20.0))
    floor = 1e-12
    failures = []
    levels = {}
    for L in (8, 16, 32):
        grid = nr.build_grid(L)
        for name, metric, r in cases:
            s = nr.coordinate_sphere(r, grid)
            fd_hat = nr.fundamental_forms(s)
            fd = nr.fundamental_forms(s, metric)
            levels[name, L] = (
                surf.divergence_identity_gap(fd_hat, fd),
                surf.second_form_transform_residual(fd_hat, fd),
            )
            gb = abs(fd.integrate(fd.gauss_curvature) - FOUR_PI)
            if gb > 1e-8:
                failures.append(f"{name} L={L}: Gauss-Bonnet gap {gb:.3e} > 1e-8")
    for name, _, _ in cases:
        for kind, idx in (("divergence", 0), ("transform", 1)):
            for L0, L1 in ((8, 16), (16, 32)):
                coarse = levels[name, L0][idx]
                fine = levels[name, L1][idx]
                improved = fine <= coarse / 10.0
                at_floor = coarse <= floor and fine <= floor
                if not (improved or at_floor):
                    failures.append(
                        f"{name} {kind}: L={L0} -> L={L1} residual "
                        f"{coarse:.3e} -> {fine:.3e}, neither 10x gain nor at floor"
                    )
    g16 = nr.build_grid(16)
    s = nr.coordinate_sphere(20.0, g16)
    algebraic = surf.distance_hessian_residual(nr.fundamental_forms(s))
    if algebraic > 1e-10:
        failures.append(f"distance-Hessian algebraic residual {algebraic:.3e} > 1e-10")
    _verdict(capsys, "Exact-identity suite (divergence, transform, Hessian, Gauss-Bonnet)", failures)


def test_scaled_residuals_bounded_and_violator_flagged(capsys, g16, iso, std, kerr):
    """Scaled expansion residuals stay bounded exactly where they should.

    Across four nearly round sweeps the scaled mean-curvature expansion
    and integral-comparison residuals stay under fixed constants and the
    roundness diagnostics raise no flags; a deliberately non-round family
    R = r(1 + 0.3 Y_40) must trip the tracefree growth flag.
    """
    def perturbed(r):
        c = np.zeros(g16.n_coeffs)
        c[nr.coeff_index(2, 0)] = 1.0
        prof = r * (1.0 + 0.1 * (1.0 / r) * nr.synthesize(g16, c))
        return nr.immerse_radial(prof, g16)

    families = {
        "iso spheres": (iso, [(r, nr.coordinate_sphere(r, g16)) for r in (10.0, 20.0, 40.0)]),
        "std spheres": (std, [(r, nr.coordinate_sphere(r, g16)) for r in (10.0, 20.0, 40.0)]),
        "kerr spheres": (kerr, [(r, nr.coordinate_sphere(r, g16)) for r in (20.0, 40.0, 80.0)]),
        "perturbed iso": (iso, [(r, perturbed(r)) for r in (10.0, 20.0, 40.0)]),
    }
    failures = []
    for name, (metric, members) in families.items():
        records = []
        for r, s in members:
            fd_hat = nr.fundamental_forms(s)
            fd = nr.fundamental_forms(s, metric)
            records.append(fd)
            expansion = surf.mean_curvature_expansion_residual(fd_hat, fd)
            integral = surf.mean_curvature_integral_residual(fd_hat, fd)
            if expansion > 50.0:
                failures.append(f"{name} r={r}: expansion residual {expansion:.2f} > 50")
            if integral > 100.0:
                failures.append(f"{name} r={r}: integral residual {integral:.2f} > 100")
        report = surf.nearly_round_diagnostics(records)
        if report.flagged:
            failures.append(f"{name}: unexpected roundness flags {report.flagged}")
    c = np.zeros(g16.n_coeffs)
    c[nr.coeff_index(4, 0)] = 1.0
    violators = []
    for r in (10.0, 20.0, 40.0):
        prof = r * (1.0 + 0.3 * nr.synthesize(g16, c))
        s = nr.immerse_radial(prof, g16)
        violators.append(nr.fundamental_forms(s, iso))
    report = surf.nearly_round_diagnostics(violators)
    if "tracefree_constant" not in report.flagged:
        failures.append(f"violating family not flagged (flags: {report.flagged})")
    _verdict(capsys, "Scaled residuals bounded on round sweeps, violator flagged", failures)


def test_determinism_and_exit_contract(capsys, tmp_path):
    """Repeated study runs are byte-identical; injected failure exits nonzero.

    Exercises the installed command line end to end in subprocesses: the
    same study written twice must produce identical bytes (reports carry
    no timestamps), and a seeded injected check failure must surface as a
    nonzero process exit.
    """
    failures = []
    base = [sys.executable, "-m", "nearlyround.cli"]
    study = base + [
        "masses", "--metric", "schwarzschild_standard m=1",
        "--schedule", "10,20,40", "--format", "json",
    ]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        proc = subprocess.run(study + ["--out", str(path)], capture_output=True, text=True)
        if proc.returncode != 0:
            failures.append(f"study run exited {proc.returncode}: {proc.stderr.strip()}")
    if not failures and paths[0].read_bytes() != paths[1].read_bytes():
        failures.append("repeated study runs are not byte-identical")
    inject = base + [
        "verify", "--metric", "schwarzschild_isotropic m=1",
        "--schedule", "10,20,40", "--inject-failure", "--seed", "0",
    ]
    proc = subprocess.run(inject, capture_output=True, text=True)
    if proc.returncode == 0:
        failures.append("injected check failure still exited 0")
    if "injected failure" not in proc.stdout:
        failures.append("injected failure not visible in the verification table")
    _verdict(capsys, "Byte-identical reruns and nonzero exit on injected failure", failures)
