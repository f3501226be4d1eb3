"""Tests for the surface-geometry layer.

Oracles, in order of appearance: closed-form curvature of symmetric
spheres in both Schwarzschild charts, a brute-force point-to-surface
distance Hessian, the flat-ambient divergence identity for the
tracefree second form (div of the tracefree part equals half the mean
curvature gradient), exact scaling/rotation covariance, and frozen
constants from refinement and family studies (noted inline where used).
"""

import csv
import sys

import numpy as np
import pytest

from nearlyround import harness
from nearlyround import metrics as mcat
from nearlyround import sphere
from nearlyround import surfaces as surf
from nearlyround.sphere import (
    analyze,
    build_grid,
    coeff_index,
    synth_gradient,
    synthesize,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def standard_sphere_mean_curvature(m, r):
    """Centered-sphere mean curvature in the radial-tensor chart.

    That chart restricted to radial lines is polar Schwarzschild,
    dr^2/(1 - 2m/r) + r^2 dOmega^2, so the outward unit normal is
    sqrt(1 - 2m/r) d_r and H = (unit normal applied to log of the area
    element r^2) = (2/r) sqrt(1 - 2m/r).
    """
    return (2.0 / r) * np.sqrt(1.0 - 2.0 * m / r)


def isotropic_sphere_facts(m, r):
    """Centered-sphere geometry in the conformally flat chart.

    phi = 1 + m/2r; the induced metric is (phi^2 r)^2 dOmega^2, so the
    areal radius is R = phi^2 r.  The proper radial derivative of the
    areal radius gives H = 2 (1 - m/2r) / (r phi^3), which must agree
    with the polar-chart formula (2/R) sqrt(1 - 2m/R) at the same areal
    radius.
    """
    phi = 1.0 + m / (2.0 * r)
    R = phi**2 * r
    H = 2.0 * (1.0 - m / (2.0 * r)) / (r * phi**3)
    return {
        "areal_radius": R,
        "H": H,
        "K": 1.0 / R**2,
        "area": 4.0 * np.pi * R**2,
        "diam": np.pi * R,
    }


def test_oracle_internal_consistency():
    # the two derivations of symmetric-sphere H must agree, and the
    # radial-tensor value at m=1, r=10 is frozen
    facts = isotropic_sphere_facts(1.0, 10.0)
    R = facts["areal_radius"]
    assert abs(facts["H"] - (2.0 / R) * np.sqrt(1.0 - 2.0 / R)) < 1e-15
    assert abs(standard_sphere_mean_curvature(1.0, 10.0) - 0.17888543819998318) < 1e-16


class PermutedChart:
    """Axis-permuted pullback of a metric: duck-typed AFMetric stand-in."""

    def __init__(self, base, perm):
        self.base, self.perm = base, np.asarray(perm)
        self.family = base.family
        self.tau = base.tau

    def spec(self):
        return self.base.spec() + " permuted"

    def jets(self, pts):
        P = np.eye(3)[self.perm]
        base = self.base.jets(pts @ P.T)
        g = np.einsum("ki,lj,nkl->nij", P, P, base.g)
        dg = np.einsum("ki,lj,mc,nklm->nijc", P, P, P, base.dg)
        ddg = np.einsum("ki,lj,mc,qd,nklmq->nijcd", P, P, P, P, base.ddg)
        return mcat.JetBatch(g=g, dg=dg, ddg=ddg)


def records(s, metric):
    """The flat and the curved FundamentalData of one surface."""
    return surf.fundamental_forms(s), surf.fundamental_forms(s, metric)


def bump_field(grid, *terms):
    """Synthesize sum of (l, m, amplitude) harmonics on the grid."""
    c = np.zeros(grid.n_coeffs)
    for l, m, amp in terms:
        c[coeff_index(l, m)] = amp
    return synthesize(grid, c)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid16():
    return build_grid(16)


@pytest.fixture(scope="module")
def catalog():
    return {
        "iso": mcat.schwarzschild_isotropic(1.0),
        "std": mcat.schwarzschild_standard(1.0),
        "kerr": mcat.kerr_slice(1.0, 0.5),
        "pert": mcat.conformal_perturbed(1.0, 0.2, 2, 0, 0.6),
    }


@pytest.fixture(scope="module")
def lumpy10(grid16):
    bump = bump_field(grid16, (2, 0, 1.0), (3, 1, 0.7))
    return surf.immerse_radial(None, 10.0 * (1 + 0.05 * bump), grid16)


def lumpy_surface(L, r=10.0, amp=0.05):
    g = build_grid(L)
    return surf.immerse_radial(
        None, r * (1 + amp * bump_field(g, (2, 0, 1.0), (3, 1, 0.7))), g
    )


# ---------------------------------------------------------------------------
# Immersion construction
# ---------------------------------------------------------------------------


def test_immersion_shape_validation(grid16):
    with pytest.raises(ValueError, match="does not match grid"):
        surf.Immersion(grid16, np.zeros((3, 4, 3)))


def test_radial_profile_validation(grid16):
    with pytest.raises(ValueError, match="positive"):
        surf.immerse_radial(None, -2.0, grid16)
    with pytest.raises(ValueError, match="shape"):
        surf.immerse_radial(None, np.ones(7), grid16)


def test_immersion_node_layout(grid16):
    s = surf.coordinate_sphere(3.0, grid16)
    assert s.points.shape == (grid16.n_nodes, 3)
    assert np.allclose(np.linalg.norm(s.points, axis=1), 3.0, atol=1e-14)
    yt, yp = s.tangents()
    # tangents are orthogonal to the position on a centered sphere
    assert np.abs(np.einsum("ijk,ijk->ij", yt, s.Y)).max() < 1e-10
    assert np.abs(np.einsum("ijk,ijk->ij", yp, s.Y)).max() < 1e-10


def test_shifted_sphere(grid16):
    s = surf.immerse_radial((1.0, 0.0, 0.0), 5.0, grid16)
    fd = surf.fundamental_forms(s)
    assert np.abs(fd.mean_curvature - 2.0 / 5.0).max() < 1e-11
    assert abs(fd.area - 4 * np.pi * 25) < 1e-9
    assert abs(fd.r_max - 6.0) < 1e-12 and abs(fd.r_min - 4.0) < 1e-12


# ---------------------------------------------------------------------------
# Fundamental forms: closed forms
# ---------------------------------------------------------------------------


def test_round_sphere_flat_facts(grid16):
    r = 2.0
    fd = surf.fundamental_forms(surf.coordinate_sphere(r, grid16))
    assert fd.ambient == "euclidean"
    assert np.abs(fd.mean_curvature - 2.0 / r).max() < 1e-11
    assert np.abs(fd.gauss_curvature - 1.0 / r**2).max() < 1e-11
    assert np.abs(fd.area_jacobian - r**2).max() < 1e-11
    assert abs(fd.area - 4 * np.pi * r**2) < 1e-10
    assert fd.tracefree_norm.max() < 1e-11
    assert surf.tracefree_gradient(fd)[1].max() < 1e-10
    assert abs(fd.diameter - np.pi * r) < 1e-12


def test_standard_chart_sphere(grid16, catalog):
    r = 10.0
    fd = surf.fundamental_forms(surf.coordinate_sphere(r, grid16), catalog["std"])
    H = standard_sphere_mean_curvature(1.0, r)
    assert np.abs(fd.mean_curvature - H).max() < 1e-11
    # sigma is purely radial, so the induced metric stays round
    assert np.abs(fd.gauss_curvature - 1.0 / r**2).max() < 1e-11
    assert abs(fd.area - 4 * np.pi * r**2) < 1e-9
    assert abs(fd.diameter - np.pi * r) < 1e-10
    assert fd.tracefree_norm.max() < 1e-11


def test_isotropic_chart_sphere(grid16, catalog):
    r = 10.0
    facts = isotropic_sphere_facts(1.0, r)
    fd = surf.fundamental_forms(surf.coordinate_sphere(r, grid16), catalog["iso"])
    assert np.abs(fd.mean_curvature - facts["H"]).max() < 1e-11
    assert np.abs(fd.gauss_curvature - facts["K"]).max() < 1e-12
    assert abs(fd.area - facts["area"]) < 1e-9
    assert abs(fd.diameter - facts["diam"]) < 1e-10


def test_mean_curvature_integral_round(grid16):
    r = 3.0
    fd = surf.fundamental_forms(surf.coordinate_sphere(r, grid16))
    assert abs(fd.integrate(fd.mean_curvature) - 8 * np.pi * r) < 1e-9


def test_principal_curvatures(grid16, lumpy10):
    r = 4.0
    fd = surf.fundamental_forms(surf.coordinate_sphere(r, grid16))
    lo, hi = fd.principal_curvatures()
    # umbilic points amplify roundoff by a square root in the split
    assert np.abs(lo - 1.0 / r).max() < 1e-7
    assert np.abs(hi - 1.0 / r).max() < 1e-7
    fdl = surf.fundamental_forms(lumpy10)
    lo, hi = fdl.principal_curvatures()
    assert np.all(hi >= lo)
    assert np.abs(lo + hi - fdl.mean_curvature).max() < 1e-12


def test_degenerate_immersion_raises(grid16):
    Y = np.ones(grid16.shape + (3,))  # all nodes coincide
    with pytest.raises(surf.DegenerateInducedMetric):
        surf.fundamental_forms(surf.Immersion(grid16, Y))


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def test_tracefree_trace_vanishes(grid16, catalog, lumpy10):
    for ambient in (None, catalog["kerr"]):
        fd = surf.fundamental_forms(lumpy10, ambient)
        tr = np.einsum(
            "...ab,...ab->...", fd.induced_metric_inv, fd.tracefree_second_form
        )
        assert np.abs(tr).max() < 1e-12


def test_gauss_bonnet_all_ambients(grid16, catalog, lumpy10):
    for ambient in (None, catalog["iso"], catalog["std"], catalog["kerr"]):
        fd = surf.fundamental_forms(lumpy10, ambient)
        assert abs(fd.integrate(fd.gauss_curvature) - 4 * np.pi) < 1e-8


def test_ambient_tag(grid16, catalog):
    s = surf.coordinate_sphere(10.0, grid16)
    assert surf.fundamental_forms(s).ambient == "euclidean"
    tag = surf.fundamental_forms(s, catalog["iso"]).ambient
    assert "schwarzschild_isotropic" in tag


def test_codazzi_divergence_of_tracefree(lumpy10):
    # flat ambient: div of the tracefree part equals dH/2 pointwise
    # (Codazzi plus full symmetry of the second-form gradient in flat
    # space).  Independent oracle for every connection correction in
    # the gradient assembly.  Measured 9.5e-8 at L=16, 7.2e-11 at L=24.
    grid = lumpy10.grid
    fd = surf.fundamental_forms(lumpy10)
    N = grid.n_nodes
    nab = surf.tracefree_gradient(fd)[0].reshape(N, 2, 2, 2)
    hinv = fd.induced_metric_inv.reshape(N, 2, 2)
    div = np.einsum("nab,nabc->nc", hinv, nab)
    Ht, Hp = synth_gradient(grid, analyze(grid, fd.mean_curvature))
    dH = np.stack([Ht.reshape(-1), Hp.reshape(-1)], axis=-1)
    res16 = np.abs(div - 0.5 * dH).max()
    assert res16 < 1e-6

    s24 = lumpy_surface(24)
    fd24 = surf.fundamental_forms(s24)
    N24 = s24.grid.n_nodes
    nab = surf.tracefree_gradient(fd24)[0].reshape(N24, 2, 2, 2)
    hinv = fd24.induced_metric_inv.reshape(N24, 2, 2)
    div = np.einsum("nab,nabc->nc", hinv, nab)
    Ht, Hp = synth_gradient(s24.grid, analyze(s24.grid, fd24.mean_curvature))
    dH = np.stack([Ht.reshape(-1), Hp.reshape(-1)], axis=-1)
    res24 = np.abs(div - 0.5 * dH).max()
    assert res24 < res16 / 50


def test_tracefree_gradient_scaling(lumpy10):
    # |grad Aring| has homogeneity -2 under dilation of the immersion
    fd = surf.fundamental_forms(lumpy10)
    lam = 3.7
    fd_s = surf.fundamental_forms(surf.Immersion(lumpy10.grid, lam * lumpy10.Y))
    err = np.abs(
        surf.tracefree_gradient(fd_s)[1] - surf.tracefree_gradient(fd)[1] / lam**2
    ).max()
    assert err < 1e-13


def test_chart_permutation_invariance(grid16, catalog):
    # same geometric data computed with poles along a different axis;
    # guards the frame assembly against orientation artifacts.  sup of
    # a non-band-limited field over different node sets: loose match.
    kerr = catalog["kerr"]
    kerr_p = PermutedChart(kerr, [2, 0, 1])
    s = surf.coordinate_sphere(12.0, grid16)
    fd = surf.fundamental_forms(s, kerr)
    fd_p = surf.fundamental_forms(s, kerr_p)
    ring = fd.tracefree_norm.max()
    assert abs(ring - fd_p.tracefree_norm.max()) < 1e-6 * ring
    grad = surf.tracefree_gradient(fd)[1].max()
    assert abs(grad - surf.tracefree_gradient(fd_p)[1].max()) < 0.02 * grad


# ---------------------------------------------------------------------------
# Best-fit sphere
# ---------------------------------------------------------------------------


def test_best_fit_round_recovery(grid16):
    s = surf.coordinate_sphere(7.0, grid16, center=(1.0, 2.0, 3.0))
    bf = surf.best_fit_sphere(surf.fundamental_forms(s), s)
    assert abs(bf.radius - 7.0) < 1e-10
    assert np.abs(bf.center - [1.0, 2.0, 3.0]).max() < 1e-10
    assert bf.curvature_spread < 1e-8
    assert bf.position_spread < 1e-10


def test_best_fit_perturbed_family(grid16):
    # decaying bump: curvature spread * r^2 stays bounded (measured
    # 0.159 across the sweep, frozen bound 0.5)
    for r in (10.0, 20.0, 40.0):
        bump = bump_field(grid16, (2, 0, 1.0))
        s = surf.immerse_radial(None, r * (1 + 0.1 / r * bump), grid16)
        bf = surf.best_fit_sphere(surf.fundamental_forms(s), s)
        assert abs(bf.radius - r) < 0.01
        assert bf.curvature_spread * r**2 < 0.5


def test_best_fit_lumpy_report(lumpy10):
    bf = surf.best_fit_sphere(surf.fundamental_forms(lumpy10), lumpy10)
    assert abs(bf.radius - 10.0) < 0.05
    assert 0.005 < bf.curvature_spread < 0.1
    assert 0.5 < bf.position_spread < 1.5


def test_best_fit_nonconvex_raises(grid16):
    bump = bump_field(grid16, (2, 0, 1.0))
    s = surf.immerse_radial(None, 5.0 * (1 + 0.8 * bump), grid16)
    with pytest.raises(surf.NonConvexSurface):
        surf.best_fit_sphere(surf.fundamental_forms(s), s)


def test_best_fit_requires_flat_data(grid16, catalog):
    s = surf.coordinate_sphere(10.0, grid16)
    fd = surf.fundamental_forms(s, catalog["iso"])
    with pytest.raises(ValueError, match="flat-ambient"):
        surf.best_fit_sphere(fd, s)


# ---------------------------------------------------------------------------
# Nearly-round diagnostics
# ---------------------------------------------------------------------------


def test_diagnostics_round_family(grid16):
    members = []
    for r in (1.0, 2.0, 4.0):
        s = surf.coordinate_sphere(r, grid16)
        members.append((s, surf.fundamental_forms(s)))
    rep = surf.nearly_round_diagnostics(members, tau=1.0)
    for row in rep.rows:
        assert row.tracefree_constant < 1e-9
        assert abs(row.radial_ratio - 1.0) < 1e-12
        assert abs(row.diameter_ratio - np.pi) < 1e-10
        assert abs(row.area_ratio - 4 * np.pi) < 1e-9
        assert abs(row.second_form_constant - np.sqrt(2.0)) < 1e-10
    assert rep.flagged == ()


def test_diagnostics_kerr_family(grid16, catalog):
    # frozen windows from the a=0.5 family sweep: r^3 sup|Aring| in
    # [0.18, 0.20] and stable within 7%; curved tracefree constant
    # <= 0.02; r^2 sup|H - 2/r| <= 2.08
    kerr = catalog["kerr"]
    members = []
    ring_consts = []
    for r in (20.0, 40.0, 80.0):
        s = surf.coordinate_sphere(r, grid16)
        fd = surf.fundamental_forms(s, kerr)
        members.append((s, fd))
        ring_consts.append(r**3 * fd.tracefree_norm.max())
        assert r**2 * np.abs(fd.mean_curvature - 2.0 / r).max() < 2.5
    assert max(ring_consts) < 0.3
    assert max(ring_consts) / min(ring_consts) < 1.2
    rep = surf.nearly_round_diagnostics(members, kerr.tau)
    assert rep.flagged == ()
    assert rep.tracefree_constant < 0.05
    assert rep.radial_ratio < 1.0 + 1e-10
    assert rep.area_ratio_bounds[0] > 4.0 and rep.area_ratio_bounds[1] < 16.0


def test_diagnostics_decaying_bump_family(grid16, catalog):
    # hatted and curved data both stay bounded; neither flags
    iso = catalog["iso"]
    bump = bump_field(grid16, (2, 0, 1.0))
    flat_members, curved_members = [], []
    for r in (10.0, 20.0, 40.0):
        s = surf.immerse_radial(None, r * (1 + 0.1 / r * bump), grid16)
        flat_members.append((s, surf.fundamental_forms(s)))
        curved_members.append((s, surf.fundamental_forms(s, iso)))
    for members in (flat_members, curved_members):
        rep = surf.nearly_round_diagnostics(members, iso.tau)
        assert rep.flagged == ()
        assert rep.tracefree_constant < 2.0
        assert rep.second_form_constant < 2.0


def test_diagnostics_violating_family(grid16, catalog):
    # fixed relative amplitude: the tracefree constant must grow like
    # r^tau and be flagged
    iso = catalog["iso"]
    bump = bump_field(grid16, (4, 0, 1.0))
    members = []
    for r in (10.0, 20.0, 40.0):
        s = surf.immerse_radial(None, r * (1 + 0.3 * bump), grid16)
        members.append((s, surf.fundamental_forms(s, iso)))
    rep = surf.nearly_round_diagnostics(members, iso.tau)
    assert "tracefree_constant" in rep.flagged
    assert rep.rows[-1].tracefree_constant > 2.0 * rep.rows[0].tracefree_constant


@pytest.mark.parametrize("name", ["iso", "std", "kerr"])
def test_diagnostics_coordinate_spheres_unflagged_at_l32(catalog, name):
    # Aring vanishes exactly on Schwarzschild coordinate spheres; its
    # roundoff grows with L, and at L=32 the r^(1+tau)-scaled series
    # climbs monotonically past 1e-8 without being a violation
    metric = catalog[name]
    grid = build_grid(32)
    members = []
    for r in (20.0, 40.0, 80.0):
        s = surf.coordinate_sphere(r, grid)
        members.append((s, surf.fundamental_forms(s, metric)))
    rep = surf.nearly_round_diagnostics(members, metric.tau)
    assert rep.flagged == ()


def test_diagnostics_needs_three(grid16):
    s = surf.coordinate_sphere(1.0, grid16)
    fd = surf.fundamental_forms(s)
    with pytest.raises(ValueError, match="three"):
        surf.nearly_round_diagnostics([(s, fd)], tau=1.0)


# ---------------------------------------------------------------------------
# Identity residuals
# ---------------------------------------------------------------------------


def test_transform_residual_flat_degenerate(grid16, lumpy10):
    res = surf.second_form_transform_residual(*records(lumpy10, mcat.euclidean()))
    assert res < 1e-11


def test_transform_residual_refinement(catalog):
    # lumpy surface in curved ambients: residual is resolvable at L=8
    # and collapses spectrally (measured 1.6e-5 -> 1.1e-8).  Coordinate
    # spheres sit at the roundoff floor at every L, so the doubling
    # ratio is asserted on the lumpy family and the spheres get an
    # absolute floor bound.
    for name in ("std", "kerr"):
        metric = catalog[name]
        res8 = surf.second_form_transform_residual(*records(lumpy_surface(8), metric))
        res16 = surf.second_form_transform_residual(*records(lumpy_surface(16), metric))
        assert res16 < res8 / 10
        assert res16 < 1e-6


def test_transform_residual_spheres_floor(grid16, catalog):
    for name in ("iso", "std", "kerr"):
        s = surf.coordinate_sphere(10.0, grid16)
        assert surf.second_form_transform_residual(*records(s, catalog[name])) < 1e-12


def test_transform_residual_kerr_l24(catalog):
    s = surf.coordinate_sphere(40.0, build_grid(24))
    assert surf.second_form_transform_residual(*records(s, catalog["kerr"])) < 1e-6


def test_transform_residual_iso_refinement_floor(catalog):
    # band-limited normals put both levels at roundoff; floor-guarded
    iso = catalog["iso"]
    r16 = surf.second_form_transform_residual(
        *records(surf.coordinate_sphere(10.0, build_grid(16)), iso)
    )
    r32 = surf.second_form_transform_residual(
        *records(surf.coordinate_sphere(10.0, build_grid(32)), iso)
    )
    assert r32 < r16 / 10 or (r16 < 1e-12 and r32 < 1e-12)


def test_distance_hessian_round():
    # r=80 needs a nearest-point stopping test that scales with r^2
    for L, r in ((16, 5.0), (24, 80.0)):
        grid = build_grid(L)
        s = surf.coordinate_sphere(r, grid)
        assert surf.distance_hessian_residual(surf.fundamental_forms(s)) < 1e-10
        assert surf.distance_hessian_spot_check(s) < 1e-5
        # closed form: the restricted Hessian is the tangential projector / r
        fd = surf.fundamental_forms(s)
        N = grid.n_nodes
        nhat = fd.normal.reshape(N, 3)
        proj = (np.eye(3)[None] - np.einsum("ni,nj->nij", nhat, nhat)) / r
        hinv = fd.induced_metric_inv.reshape(N, 2, 2)
        yt, yp = s.tangents()
        T = np.stack([yt.reshape(N, 3), yp.reshape(N, 3)], axis=1)
        E = np.einsum("nab,nbi->nai", hinv, T)
        A_amb = np.einsum("nab,nai,nbj->nij", fd.second_form.reshape(N, 2, 2), E, E)
        assert np.abs(A_amb - proj).max() < 1e-11


def test_distance_hessian_lumpy(lumpy10):
    assert surf.distance_hessian_residual(surf.fundamental_forms(lumpy10)) < 1e-10
    assert surf.distance_hessian_spot_check(lumpy10) < 1e-5


def test_expansion_residual_families(grid16, catalog):
    # frozen sup bounds from the family sweeps (measured max 12.9 iso,
    # 6.6 std/kerr, 4.7 pert); each family stays within a 1.35 band or
    # decreases toward its asymptote
    bounds = {"iso": 20.0, "std": 10.0, "kerr": 10.0, "pert": 8.0}
    for name, metric in catalog.items():
        vals = []
        for r in (10.0, 20.0, 40.0):
            s = surf.coordinate_sphere(r, grid16)
            vals.append(surf.mean_curvature_expansion_residual(*records(s, metric)))
        assert max(vals) < bounds[name], (name, vals)
        decreasing = all(b <= a for a, b in zip(vals, vals[1:]))
        assert decreasing or max(vals) / min(vals) < 1.35, (name, vals)


def test_expansion_residual_flat_zero(grid16, lumpy10):
    assert surf.mean_curvature_expansion_residual(*records(lumpy10, mcat.euclidean())) < 1e-9


def test_integral_residual_families(grid16, catalog):
    # measured maxima: 13.9 iso, 48.9 std, 47.9 kerr, 2.3 pert
    bounds = {"iso": 20.0, "std": 60.0, "kerr": 60.0, "pert": 4.0}
    for name, metric in catalog.items():
        vals = []
        for r in (10.0, 20.0, 40.0):
            s = surf.coordinate_sphere(r, grid16)
            vals.append(surf.mean_curvature_integral_residual(*records(s, metric)))
        assert max(vals) < bounds[name], (name, vals)
        decreasing = all(b <= a for a, b in zip(vals, vals[1:]))
        assert decreasing or max(vals) / min(vals) < 1.35, (name, vals)


def test_integral_residual_flat_zero(grid16, lumpy10):
    assert surf.mean_curvature_integral_residual(*records(lumpy10, mcat.euclidean())) < 1e-12


def test_divergence_gap_exact(grid16, catalog):
    # the identity holds exactly on closed surfaces: coordinate spheres
    # at quadrature floor, and the lumpy family collapses >= 10x per
    # band-limit doubling (measured 2.8e-7 -> 6.4e-14)
    for name in ("iso", "std", "kerr", "pert"):
        s = surf.coordinate_sphere(20.0, grid16)
        assert surf.divergence_identity_gap(*records(s, catalog[name])) < 1e-12
    gap8 = surf.divergence_identity_gap(*records(lumpy_surface(8), catalog["std"]))
    gap16 = surf.divergence_identity_gap(*records(lumpy_surface(16), catalog["std"]))
    assert gap16 < max(gap8 / 10, 1e-12)


def test_divergence_gap_kerr_l24(catalog):
    s = surf.coordinate_sphere(40.0, build_grid(24))
    assert surf.divergence_identity_gap(*records(s, catalog["kerr"])) < 1e-7


def test_identity_residuals_read_the_records(monkeypatch, catalog, lumpy10):
    # the five residuals read what fundamental_forms built: no metric jet
    # and no harmonic transform is evaluated inside them
    fd_hat, fd = records(lumpy10, catalog["kerr"])
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(mcat.AFMetric, "jets", counted("jets", mcat.AFMetric.jets))
    for module in (sphere, surf):
        for name in ("analyze", "synth_gradient"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    values = [
        surf.second_form_transform_residual(fd_hat, fd),
        surf.mean_curvature_expansion_residual(fd_hat, fd),
        surf.divergence_identity_gap(fd_hat, fd),
        surf.mean_curvature_integral_residual(fd_hat, fd),
        surf.distance_hessian_residual(fd_hat),
    ]
    assert calls == []
    assert np.all(np.isfinite(values))
    # the counters see the evaluations that building a record makes
    surf.fundamental_forms(surf.Immersion(lumpy10.grid, lumpy10.Y), catalog["kerr"])
    assert {"jets", "analyze", "synth_gradient"} <= set(calls)


def test_verify_computes_christoffel_once_per_record(monkeypatch):
    # Gamma is built with the record and read by the transform residual,
    # the curvature term and the tracefree gradient
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(mcat, "christoffel", counted("christoffel", mcat.christoffel))
    forms = counted("forms", surf.fundamental_forms)
    for name, module in list(sys.modules.items()):
        if name.startswith("nearlyround") and hasattr(module, "fundamental_forms"):
            monkeypatch.setattr(module, "fundamental_forms", forms)
    cfg = harness.StudyConfig(
        metric="kerr_slice m=1 a=0.5", schedule=(20.0, 40.0, 80.0), band_limit=8
    )
    harness.run_verify(cfg)
    assert calls.count("forms") > 0
    assert calls.count("christoffel") == calls.count("forms")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_csv_roundtrip(tmp_path, lumpy10):
    path = tmp_path / "surface.csv"
    surf.write_immersion_csv(lumpy10, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "phi", "y1", "y2", "y3"]
    assert len(rows) == 1 + lumpy10.grid.n_nodes
    grid = lumpy10.grid
    k = 1 + 3 * grid.nphi + 5  # node (3, 5)
    row = rows[k]
    assert abs(float(row[0]) - grid.theta[3]) < 1e-15
    assert abs(float(row[1]) - grid.phi[5]) < 1e-15
    assert np.abs(np.array(row[2:], dtype=float) - lumpy10.Y[3, 5]).max() < 1e-14
