"""Mass functional tests.

Closed-form oracles, worked out independently of the implementation:

- Flat round sphere of radius r: H = 2/r and Area = 4 pi r^2, so the
  Hawking flux integral is exactly 16 pi and the mass vanishes; the
  embedded reference has H0 = H, so Brown-York vanishes too.
- Schwarzschild, standard coordinates, mass m: the coordinate r-sphere
  is round with areal radius r and H = (2/r) sqrt(1 - 2m/r).  Then
  integral of H^2 dA = 16 pi (1 - 2m/r) and m_H = (r/2)(2m/r) = m at
  every r > 2m.  The isometric reference is the round r-sphere with
  H0 = 2/r, giving m_BY = r (1 - sqrt(1 - 2m/r)).
- Schwarzschild, isotropic coordinates: the coordinate r-sphere has
  areal radius R = r (1 + m/2r)^2 and R - 2m = r (1 - m/2r)^2, so the
  standard-coordinate formulas at R collapse to m_H = m and
  m_BY = R - sqrt(R (R - 2m)) = m + m^2 / (2r).
"""

import math
import sys

import numpy as np
import pytest
from jet_oracles import RotatedChart

import nearlyround as nr
from nearlyround import harness
from nearlyround import surfaces as surf


def schwarzschild_brown_york(r, m):
    return r * (1.0 - math.sqrt(1.0 - 2.0 * m / r))


def isotropic_brown_york(r, m):
    return m + m * m / (2.0 * r)


@pytest.fixture(scope="module")
def g16():
    return nr.build_grid(16)


@pytest.fixture(scope="module")
def metrics():
    return {
        "euclidean": nr.euclidean(),
        "iso": nr.schwarzschild_isotropic(1.0),
        "std": nr.schwarzschild_standard(1.0),
        "kerr": nr.kerr_slice(1.0, 0.5),
    }


def test_hawking_flat_round_sphere_vanishes(g16, metrics):
    for r in (1.0, 3.0, 25.0):
        s = nr.coordinate_sphere(r, g16)
        fd = nr.fundamental_forms(s, metrics["euclidean"])
        assert abs(nr.hawking_mass(fd)) <= 1e-13


def test_brown_york_flat_round_sphere_vanishes(g16, metrics):
    s = nr.coordinate_sphere(3.0, g16)
    fd = nr.fundamental_forms(s, metrics["euclidean"])
    e = nr.embed(fd)
    assert abs(nr.brown_york_mass(fd, e)) <= 1e-13


def test_hawking_schwarzschild_standard_exact(g16, metrics):
    # exact at every radius outside the horizon, not just asymptotically
    for r in (5.0, 10.0, 100.0):
        s = nr.coordinate_sphere(r, g16)
        fd = nr.fundamental_forms(s, metrics["std"])
        assert abs(nr.hawking_mass(fd) - 1.0) <= 1e-12


def test_hawking_schwarzschild_isotropic_r_independent(g16, metrics):
    values = []
    for r in (10.0, 20.0, 40.0):
        s = nr.coordinate_sphere(r, g16)
        fd = nr.fundamental_forms(s, metrics["iso"])
        values.append(nr.hawking_mass(fd))
    assert max(abs(v - 1.0) for v in values) <= 1e-12
    assert max(values) - min(values) <= 2e-12


def test_brown_york_schwarzschild_standard_closed_form(g16, metrics):
    for r, digits in ((10.0, 1.0557281), (100.0, 1.0050506)):
        s = nr.coordinate_sphere(r, g16)
        fd = nr.fundamental_forms(s, metrics["std"])
        e = nr.embed(fd)
        by = nr.brown_york_mass(fd, e)
        assert abs(by - schwarzschild_brown_york(r, 1.0)) <= 1e-12
        assert abs(by - digits) <= 1e-7


def test_brown_york_isotropic_closed_form(g16, metrics):
    s = nr.coordinate_sphere(20.0, g16)
    fd = nr.fundamental_forms(s, metrics["iso"])
    e = nr.embed(fd)
    assert abs(nr.brown_york_mass(fd, e) - isotropic_brown_york(20.0, 1.0)) <= 1e-12


def test_brown_york_requires_embedding(g16, metrics):
    s = nr.coordinate_sphere(3.0, g16)
    fd = nr.fundamental_forms(s, metrics["euclidean"])
    with pytest.raises(ValueError, match="embedding"):
        nr.brown_york_mass(fd, None)


def test_brown_york_requires_positive_curvature(g16, metrics):
    # deep polar bulge: flat Gauss curvature dips to about -0.4
    profile = 1.0 + 0.7 * np.repeat(np.cos(g16.theta)[:, None] ** 2, g16.nphi, axis=1)
    fd = nr.fundamental_forms(nr.immerse_radial(profile, g16))
    assert fd.gauss_curvature.min() < 0.0
    s = nr.coordinate_sphere(3.0, g16)
    e = nr.embed(nr.fundamental_forms(s, metrics["euclidean"]))
    with pytest.raises(nr.RegimeViolation, match="positive"):
        nr.brown_york_mass(fd, e)


def test_brown_york_rejects_grid_mismatch(g16, metrics):
    g24 = nr.build_grid(24)
    s16 = nr.coordinate_sphere(3.0, g16)
    s24 = nr.coordinate_sphere(3.0, g24)
    fd16 = nr.fundamental_forms(s16, metrics["euclidean"])
    e24 = nr.embed(nr.fundamental_forms(s24, metrics["euclidean"]))
    with pytest.raises(ValueError, match="grid"):
        nr.brown_york_mass(fd16, e24)


def test_hawking_kerr_far_sphere(g16, metrics):
    s = nr.coordinate_sphere(100.0, g16)
    fd = nr.fundamental_forms(s, metrics["kerr"])
    gap = abs(nr.hawking_mass(fd) - 1.0)
    assert gap <= 1e-2
    assert gap <= 1e-6  # measured 2.5e-7 at this resolution


def test_assemble_row_isotropic(g16, metrics):
    row = nr.assemble_mass_row(nr.coordinate_sphere(20.0, g16), metrics["iso"])
    assert row.flags == ()
    assert abs(row.hawking - 1.0) <= 1e-12
    assert abs(row.brown_york - isotropic_brown_york(20.0, 1.0)) <= 1e-12
    assert row.embed_residual <= 1e-10
    assert abs(row.r_label - 20.0) <= 1e-8
    areal = 20.0 * (1.0 + 1.0 / 40.0) ** 2
    assert abs(row.area - 4.0 * math.pi * areal**2) <= 1e-9 * row.area


def test_assemble_row_euclidean_zeroes(g16, metrics):
    row = nr.assemble_mass_row(nr.coordinate_sphere(3.0, g16), metrics["euclidean"])
    assert abs(row.hawking) <= 1e-13
    assert abs(row.brown_york) <= 1e-13
    assert row.flags == ()


def test_assemble_row_embedding_failure_marker(g16, metrics):
    profile = 1.0 + 0.45 * np.repeat(np.cos(g16.theta)[:, None] ** 2, g16.nphi, axis=1)
    s = nr.immerse_radial(profile, g16)
    row = nr.assemble_mass_row(s, metrics["euclidean"])
    assert row.brown_york is None
    assert row.embed_residual is None
    assert row.flags == ("embedding-failed:RegimeViolation",)
    assert np.isfinite(row.hawking)
    assert row.area > 0.0


def test_assemble_rows_kerr_regression(g16, metrics):
    rows = [
        nr.assemble_mass_row(nr.coordinate_sphere(r, g16), metrics["kerr"])
        for r in (20.0, 40.0)
    ]
    for row in rows:
        assert row.flags == ()
        assert abs(row.hawking - 1.0) <= 1e-4
        assert 1.0 < row.brown_york < 1.03
    # both functionals tighten toward the reference as the sphere recedes
    assert abs(rows[1].hawking - 1.0) < abs(rows[0].hawking - 1.0)
    assert abs(rows[1].brown_york - 1.0) < abs(rows[0].brown_york - 1.0)


def test_hawking_below_brown_york_on_symmetric_families(g16, metrics):
    # observed ordering on every computed row; recorded as a regression
    for name, radii in (("std", (10.0, 40.0)), ("kerr", (20.0, 40.0))):
        for r in radii:
            row = nr.assemble_mass_row(nr.coordinate_sphere(r, g16), metrics[name])
            assert row.hawking <= row.brown_york + 1e-12


def test_brown_york_decreasing_toward_mass_standard(g16, metrics):
    values = [
        nr.assemble_mass_row(nr.coordinate_sphere(r, g16), metrics["std"]).brown_york
        for r in (10.0, 20.0, 40.0)
    ]
    assert all(v > 1.0 for v in values)
    assert values[0] > values[1] > values[2]


def test_masses_rotation_invariant(g16, metrics):
    th = g16.theta[:, None]
    ph = g16.phi[None, :]
    profile = 20.0 * (1.0 + 0.03 * np.sin(th) ** 2 * np.cos(2 * ph) + 0.02 * np.cos(th))
    s = nr.immerse_radial(profile, g16)
    a = 0.7
    rot = np.array(
        [[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]]
    )
    s_rot = nr.Immersion(grid=g16, Y=np.einsum("ij,jtp->itp", rot, s.Y))
    row = nr.assemble_mass_row(s, metrics["kerr"])
    row_rot = nr.assemble_mass_row(s_rot, metrics["kerr"])
    assert row.flags == () and row_rot.flags == ()
    assert abs(row.hawking - row_rot.hawking) <= 1e-12
    assert abs(row.brown_york - row_rot.brown_york) <= 1e-12


def test_tilted_kerr_gives_the_untilted_masses():
    # Kerr with its spin axis tilted by 0.7 rad is the same slice in other
    # coordinates, and its coordinate spheres the same surfaces: the grid's
    # poles leave the symmetry axis, so the data is not phi-independent,
    # yet the masses stay the untilted ones
    kerr = nr.kerr_slice(1.0, 0.5)
    c, s = math.cos(0.7), math.sin(0.7)
    tilted = RotatedChart(kerr, [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    for L in (16, 24, 32, 48):
        grid = nr.build_grid(L)
        for r in (20.0, 40.0, 80.0):
            rows = []
            for ambient in (kerr, tilted):
                fd = nr.fundamental_forms(nr.coordinate_sphere(r, grid), ambient)
                e = nr.embed(fd, tol=1e-12)
                rows.append((nr.hawking_mass(fd), nr.brown_york_mass(fd, e)))
            (hawking, brown_york), (tilted_hawking, tilted_brown_york) = rows
            assert abs(tilted_hawking - hawking) <= 1e-13 * hawking, (L, r)
            assert abs(tilted_brown_york - brown_york) <= 1e-12 * brown_york, (L, r)


def test_isotropic_and_standard_charts_give_the_same_surface():
    # rho -> R = rho (1 + m/2 rho)^2 carries the isotropic Schwarzschild
    # chart isometrically onto the standard one, direction by direction, so
    # a lumpy isotropic profile and its image are one surface at the same
    # nodes.  Measured: masses within 2.2e-14, area 5e-16, and H and K
    # within 1.3e-13 (L=16), 6.3e-13 (L=32) and 1.5e-11 (L=48) of their
    # sup, the pole-row roundoff that ROADMAP item 3 step 2 takes out;
    # that change tightens the H and K bound to 1e-13
    iso, std = nr.schwarzschild_isotropic(1.0), nr.schwarzschild_standard(1.0)
    for L in (16, 32, 48):
        grid = nr.build_grid(L)
        c = np.zeros(grid.n_coeffs)
        c[nr.coeff_index(3, 2)] = 1.0
        y32 = nr.synthesize(grid, c)
        for rho0 in (20.0, 40.0, 80.0):
            rho = rho0 * (1.0 + 0.1 / rho0 * y32)
            standard = rho * (1.0 + 0.5 / rho) ** 2
            fd_iso, fd_std = (
                nr.fundamental_forms(nr.immerse_radial(profile, grid), metric)
                for profile, metric in ((rho, iso), (standard, std))
            )
            assert abs(fd_std.area - fd_iso.area) <= 1e-13 * fd_iso.area, (L, rho0)
            for field in ("mean_curvature", "gauss_curvature"):
                a, b = getattr(fd_iso, field), getattr(fd_std, field)
                assert np.abs(b - a).max() <= 2e-11 * np.abs(a).max(), (L, rho0, field)
            for mass in (nr.hawking_mass, lambda fd: nr.brown_york_mass(fd, nr.embed(fd))):
                m_iso, m_std = mass(fd_iso), mass(fd_std)
                assert abs(m_std - m_iso) <= 1e-13 * abs(m_iso), (L, rho0)


def family_records(family, L):
    """The r = 20, 40, 80 records of a general-route family: the lumpy l=3
    bump of the benchmark (decay 1) at m_order 2 or 3, the off-regime l=2
    bump that keeps its size (decay 0), or tilted Kerr coordinate spheres."""
    grid = nr.build_grid(L)
    schedule = (20.0, 40.0, 80.0)
    if family == "tilted-kerr":
        c, s = math.cos(0.7), math.sin(0.7)
        tilted = RotatedChart(nr.kerr_slice(1.0, 0.5), [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        return [nr.fundamental_forms(nr.coordinate_sphere(r, grid), tilted) for r in schedule]
    if family == "off-regime":
        bump = dict(l=2, m_order=1, amplitude=0.05, decay=0.0)
    else:
        bump = dict(l=3, m_order=int(family[-1]), amplitude=0.1, decay=1.0)
    cfg = nr.StudyConfig(
        metric="schwarzschild_standard m=1", family="radial-perturbed", schedule=schedule,
        band_limit=L, **bump,
    )
    metric = nr.parse_metric(cfg.metric)
    return [nr.fundamental_forms(s, metric) for _, s in harness.family_surfaces(cfg, grid, metric)]


@pytest.mark.parametrize(
    "family,L",
    [("lumpy-m2", 16), ("lumpy-m2", 32), ("lumpy-m3", 16), ("lumpy-m3", 32),
     ("off-regime", 16), ("tilted-kerr", 16), ("tilted-kerr", 24)],
)
def test_brown_york_at_the_default_tol_matches_a_tight_solve(family, L):
    # the first-order term in the metric gap takes out what the default
    # tol 1e-8 leaves, where the raw value was off by up to 3e-8
    for fd in family_records(family, L):
        tight = nr.brown_york_mass(fd, nr.embed(fd, tol=1e-12))
        default = nr.brown_york_mass(fd, nr.embed(fd))
        assert abs(default - tight) <= 1e-13 * abs(tight)


@pytest.mark.parametrize("family", ["lumpy-m2", "lumpy-m3", "tilted-kerr"])
@pytest.mark.parametrize("L", [16, 32])
def test_brown_york_error_is_second_order_in_the_embedding_residual(family, L):
    # a solve stopped at tol 1e-4 leaves residuals res of 5e-8 to 1e-4;
    # the value is then off by c res^2 with c measured at 0.1 to 19.  The
    # off-regime family is left out: it is not nearly round, and there c
    # reached 6.7e3 at L=32
    residuals = []
    for fd in family_records(family, L):
        tight = nr.brown_york_mass(fd, nr.embed(fd, tol=1e-12))
        e = nr.embed(fd, tol=1e-4)
        residuals.append(e.metric_residual)
        assert abs(nr.brown_york_mass(fd, e) - tight) <= 100.0 * e.metric_residual**2 * abs(tight)
    assert max(residuals) >= 1e-6


def test_mass_values_validation():
    with pytest.raises(ValueError, match="area"):
        nr.MassValues(r_label=1.0, area=-1.0, hawking=0.0, brown_york=None)
    with pytest.raises(ValueError, match="finite"):
        nr.MassValues(r_label=1.0, area=1.0, hawking=float("nan"), brown_york=None)
    row = nr.MassValues(
        r_label=1.0, area=1.0, hawking=0.0, brown_york=None,
        flags=("embedding-failed:EmbeddingError",),
    )
    assert row.brown_york is None


def test_assemble_row_reads_none_as_the_flat_ambient(g16, metrics):
    # None is fundamental_forms' spelling of the flat ambient, and the row
    # takes it the same way
    bump = nr.synthesize(g16, np.eye(g16.n_coeffs)[nr.coeff_index(2, 1)])
    s = nr.immerse_radial(5.0 * (1.0 + 0.02 * bump), g16)
    row = nr.assemble_mass_row(s, None)
    assert row == nr.assemble_mass_row(s, metrics["euclidean"])
    assert row.brown_york is not None


@pytest.mark.parametrize("family", ["coordinate-spheres", "radial-perturbed"])
def test_run_masses_row_builds_two_records(monkeypatch, family):
    # one record of the surface in its ambient, one of the embedded image:
    # the embedding reads the first alone, so no flat record and no
    # best-fit sphere is built for a row that carries its radius label
    calls = []
    for name in ("fundamental_forms", "best_fit_sphere"):
        original = getattr(surf, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname.startswith("nearlyround") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    cfg = nr.StudyConfig(metric="kerr_slice m=1 a=0.5", family=family, schedule=(20.0, 40.0, 80.0))
    rows = nr.run_masses(cfg).rows
    assert all(row.flags == () for row in rows)
    assert calls == ["fundamental_forms"] * (2 * len(rows))
