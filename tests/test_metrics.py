"""Metric catalog: jets, curvature, decay, the mass flux over coordinate
spheres, and the ADM extrapolation of fluxes."""

import ast
import collections
import functools
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from jet_oracles import (
    RotatedChart,
    christoffel_node_major,
    dense_sigma_dg,
    full_ddg,
    node_major,
    riemann_contraction,
)

from nearlyround import metrics as M
from nearlyround.metrics import MAX_RADIUS
from nearlyround.sphere import MAX_BAND_LIMIT, build_grid, coeff_index, synth_at
from nearlyround.surfaces import coordinate_sphere, fundamental_forms, mass_flux


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def fd_jets(metric, points, h=2e-3):
    """Fourth-order central differences of g and of the analytic dg."""
    points = np.atleast_2d(points)
    dg = np.zeros((len(points), 3, 3, 3))
    ddg = np.zeros((len(points), 3, 3, 3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        (g2, d2), (g1, d1), (gm1, dm1), (gm2, dm2) = (
            node_major(metric.jets(points + s * e)) for s in (2, 1, -1, -2)
        )
        dg[:, :, :, k] = (-g2 + 8 * g1 - 8 * gm1 + gm2) / (12 * h)
        ddg[:, :, :, :, k] = (-d2 + 8 * d1 - 8 * dm1 + dm2) / (12 * h)
    return dg, ddg


def sympy_isotropic_christoffel(m, point):
    """Independent symbolic route to the connection of the phi^4 metric."""
    import sympy as sp

    x, y, z = sp.symbols("x y z", real=True)
    xv = (x, y, z)
    r = sp.sqrt(x * x + y * y + z * z)
    phi = 1 + sp.Rational(m) / (2 * r)
    g = phi**4 * sp.eye(3)
    ginv = g.inv()
    Gam = np.zeros((3, 3, 3))
    subs = dict(zip(xv, point))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                expr = sum(
                    ginv[k, l]
                    * (
                        sp.diff(g[i, l], xv[j])
                        + sp.diff(g[j, l], xv[i])
                        - sp.diff(g[i, j], xv[l])
                    )
                    for l in range(3)
                ) / 2
                Gam[k, i, j] = float(expr.subs(subs))
    return Gam


@functools.lru_cache(maxsize=None)
def _sympy_kerr_lambdified():
    """Symbolic derivation of the rotating slice, differentiated componentwise.

    g = B I + (A - B) n (x) n + E w (x) w with Sigma = r^2 + a^2 z^2 / r^2,
    Delta = r^2 - 2 m r + a^2, A = Sigma/Delta, B = Sigma/r^2,
    E = a^2 (Sigma + 2 m r)/(Sigma r^4) and w = (-y, x, 0).
    """
    import sympy as sp

    x, y, z, m, a = sp.symbols("x y z m a", real=True)
    xv = (x, y, z)
    r2 = x * x + y * y + z * z
    r = sp.sqrt(r2)
    Sigma = r2 + a * a * z * z / r2
    Delta = r2 - 2 * m * r + a * a
    A = Sigma / Delta
    B = Sigma / r2
    E = a * a * (Sigma + 2 * m * r) / (Sigma * r2 * r2)
    w = sp.Matrix([-y, x, 0])
    n = sp.Matrix([x, y, z]) / r
    g = B * sp.eye(3) + (A - B) * (n * n.T) + E * (w * w.T)
    comps = [g[i, j] for i in range(3) for j in range(3)]
    d1 = [sp.diff(c, v) for c in comps for v in xv]
    d2 = [sp.diff(c, v) for c in d1 for v in xv]
    return sp.lambdify((x, y, z, m, a), comps + d1 + d2, modules="numpy", cse=True)


def sympy_kerr_jets(m, a, points):
    """(g, dg, ddg) of kerr_slice m a from the symbolic derivation."""
    n = len(points)
    vals = _sympy_kerr_lambdified()(*points.T, m, a)
    flat = np.stack([np.broadcast_to(v, (n,)) for v in vals], axis=-1)
    return (
        flat[:, :9].reshape(n, 3, 3),
        flat[:, 9:36].reshape(n, 3, 3, 3),
        flat[:, 36:].reshape(n, 3, 3, 3, 3),
    )


@functools.lru_cache(maxsize=None)
def _mpmath_lambdified(family):
    """sigma = g - delta of a closed form of the catalog, lambdified into
    mpmath: kerr_slice as _sympy_kerr_lambdified gives it, and the two
    Schwarzschild charts in their textbook forms, g = (1 + m/(2r))^4 delta
    and g = delta + 2m/(r - 2m) n (x) n.

    The radius is a symbol s of its own, differentiated by the chain rule
    d_k s = x_k / s, so every expression stays rational and the
    derivation takes well under a second.  Returns the six packed
    components sigma_ij, i <= j, their gradients (6 ij, 3 k) and their
    packed Hessians (6 ij, 6 kl), flattened in that order.
    """
    import sympy as sp

    x, y, z, m, a = sp.symbols("x y z m a", real=True)
    s = sp.symbols("s", positive=True)
    xv = (x, y, z)
    B, A, E = 1, 1, 0  # g = B I + (A - B) n (x) n + E w (x) w
    if family == "kerr_slice":
        Sigma = s**2 + a * a * z * z / s**2
        Delta = s**2 - 2 * m * s + a * a
        A = Sigma / Delta
        B = Sigma / s**2
        E = a * a * (Sigma + 2 * m * s) / (Sigma * s**4)
    elif family == "schwarzschild_standard":
        A = 1 + 2 * m / (s - 2 * m)
    else:  # schwarzschild_isotropic
        A = B = (1 + m / (2 * s)) ** 4
    w = (-y, x, 0)
    pairs = list(zip(M._PI, M._PJ))

    def d(f, k):
        return sp.diff(f, xv[k]) + sp.diff(f, s) * xv[k] / s

    comps = [(B - 1) * int(i == j) + (A - B) * xv[i] * xv[j] / s**2 + E * w[i] * w[j]
             for i, j in pairs]
    grads = [d(c, k) for c in comps for k in range(3)]
    hessians = [d(grads[3 * c + k], l) for c in range(6) for k, l in pairs]
    return sp.lambdify((x, y, z, s, m, a), comps + grads + hessians, modules="mpmath", cse=True)


def mpmath_jets(metric, points):
    """(sigma, dg, ddg) of a kerr_slice or Schwarzschild metric, node-major
    as sympy_kerr_jets gives them, sigma = g - delta formed at 40
    significant digits and every entry rounded once."""
    import mpmath

    f = _mpmath_lambdified(metric.family)
    m, a = metric.params["m"], metric.params.get("a", 0.0)
    with mpmath.workdps(40):
        vals = []
        for p in points:
            x, y, z = map(mpmath.mpf, p)
            vals.append([float(v) for v in f(x, y, z, mpmath.sqrt(x * x + y * y + z * z),
                                             mpmath.mpf(m), mpmath.mpf(a))])
    vals = np.array(vals)
    sigma, dg, hess = vals[:, :6], vals[:, 6:24].reshape(-1, 6, 3), vals[:, 24:].reshape(-1, 6, 6)
    return (
        sigma[:, M._PACK],
        dg[:, M._PACK],
        hess[:, M._PACK][:, :, :, M._PACK],
    )


def connection(jets):
    """M.christoffel_lowered of a JetBatch, node-major: Gamma[n, l, i, j] =
    Gamma_l,ij."""
    return M.christoffel_lowered(jets.dg).transpose(3, 0, 1, 2)


def lowered(g, Gam):
    """Symbols of the second kind Gam[n, k, i, j] = Gamma^k_ij lowered with
    the node-major metric g: g_lk Gamma^k_ij."""
    return np.einsum("nlk,nkij->nlij", g, Gam)


def raised_connection(jets):
    """The library's symbols raised by its own inverse, node-major:
    Gamma[n, k, i, j] = g^kl Gamma_l,ij = Gamma^k_ij."""
    ginv = M.unpack(M.symmetric_inverse(jets.sigma + M.DELTA))
    return np.einsum("kln,lijn->kijn", ginv, M.christoffel_lowered(jets.dg)).transpose(3, 0, 1, 2)


def gauss_term(jets, X, Y):
    """M.sectional_curvature on node-major (N, 3) fields X and Y."""
    ginv = M.symmetric_inverse(jets.sigma + M.DELTA)
    return M.sectional_curvature(jets, ginv, M.christoffel_lowered(jets.dg), X.T, Y.T)


def christoffel_derivative(g, dg, ddg):
    """dGamma[n, k, i, j, m] = d_m Gamma^k_ij from the second-derivative jet."""
    ginv = np.linalg.inv(g)
    T = (
        np.einsum("nilj->nlij", dg)
        + np.einsum("njli->nlij", dg)
        - np.einsum("nijl->nlij", dg)
    )
    # dT[l, i, j, m]
    dT = (
        np.einsum("niljm->nlijm", ddg)
        + np.einsum("njlim->nlijm", ddg)
        - np.einsum("nijlm->nlijm", ddg)
    )
    # d_m g^{kl} = -g^{ka} (d_m g_ab) g^{bl}
    dginv = -np.einsum("nka,nabm,nbl->nklm", ginv, dg, ginv)
    return 0.5 * (
        np.einsum("nklm,nlij->nkijm", dginv, T)
        + np.einsum("nkl,nlijm->nkijm", ginv, dT)
    )


def riemann_lowered(g, dg, ddg, Gam=None):
    """Covariant curvature tensor R[n, i, j, k, l] with R(X,Y,Z,W) =
    g(R(X,Y)Z, W), the sign fixed so that round spheres in the catalog
    reproduce K = 1/r^2 through the Gauss equation: the full tensor that
    M.sectional_curvature contracts on a pair.  `Gam` is the Christoffel
    symbols of (g, dg), computed here when not given."""
    Gam = christoffel_node_major(np.linalg.inv(g), dg) if Gam is None else Gam
    dGam = christoffel_derivative(g, dg, ddg)  # dGam[n, k, i, j, m] = d_m Gamma^k_ij
    # R^r_{s m q} = d_m Gamma^r_{q s} - d_q Gamma^r_{m s}
    #             + Gamma^r_{m l} Gamma^l_{q s} - Gamma^r_{q l} Gamma^l_{m s}
    # term_a[r, s, m, q] = d_m Gamma^r_{q s} = dGam[r, q, s, m]
    term_a = np.einsum("nrqsm->nrsmq", dGam)
    # term_b[r, s, m, q] = d_q Gamma^r_{m s} = dGam[r, m, s, q]
    term_b = np.einsum("nrmsq->nrsmq", dGam)
    # term_c[r, s, m, q] = Gamma^r_{m l} Gamma^l_{q s}
    term_c = np.einsum("nrml,nlqs->nrsmq", Gam, Gam)
    # term_d[r, s, m, q] = Gamma^r_{q l} Gamma^l_{m s}
    term_d = np.einsum("nrql,nlms->nrsmq", Gam, Gam)
    Rup = term_a - term_b + term_c - term_d
    return np.einsum("nra,nasmq->nrsmq", g, Rup)


def ricci(g, dg, ddg):
    """Ricci tensor Ric[n, s, q]."""
    ginv = np.linalg.inv(g)
    # Ric_{sq} = g^{rm} R_{r s m q}
    return np.einsum("nrm,nrsmq->nsq", ginv, riemann_lowered(g, dg, ddg))


def scalar_curvature(metric, points):
    """Scalar curvature at an (N, 3) array of points."""
    jets = metric.jets(np.atleast_2d(points))
    g, dg = node_major(jets)
    return np.einsum("nsq,nsq->n", np.linalg.inv(g), ricci(g, dg, full_ddg(jets)))


def perturbed_scalar_curvature_closed_form(metric, points):
    """R of a conformally flat phi^4 metric: R = -8 phi^-5 (Laplacian phi).

    For phi = 1 + m/(2r) + eps*Y_l*r^-t the monopole is harmonic and the
    angular term contributes (t(t-1) - l(l+1)) * eps * Y_l * r^(-t-2),
    from the radial eigenvalue s(s+1) of Y_l r^s at s = -t.
    """
    p = metric.params
    m, eps, l, mo, t = p["m"], p["eps"], p["l"], p["m_order"], p["tau_extra"]
    r = np.linalg.norm(points, axis=1)
    coeffs = np.zeros((l + 1) ** 2)
    coeffs[coeff_index(l, mo)] = 1.0
    Y = synth_at(coeffs, np.arccos(points[:, 2] / r), np.arctan2(points[:, 1], points[:, 0]))
    lap_phi = eps * (t * (t - 1) - l * (l + 1)) * Y * r ** (-t - 2)
    phi = 1 + m / (2 * r) + eps * Y * r ** (-t)
    return -8.0 * phi**-5 * lap_phi


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    K = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def shell_points(radius, count, seed):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(count, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return radius * d


ALL_FAMILIES = [
    M.euclidean(),
    M.schwarzschild_isotropic(1.0),
    M.schwarzschild_standard(1.0),
    M.kerr_slice(1.0, 0.5),
    M.conformal_perturbed(1.0, 0.1, l=2, m_order=0, tau_extra=1.0),
    M.conformal_perturbed(1.0, 0.1, l=2, m_order=1, tau_extra=0.8),
]


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------


def test_euclidean_jet_is_flat():
    jet = M.euclidean().jets(np.array([3.0, -1.0, 2.0])[None])
    assert np.array_equal(node_major(jet)[0][0], np.eye(3))
    assert np.max(np.abs(jet.dg)) == 0.0
    assert np.max(np.abs(full_ddg(jet))) == 0.0
    assert np.max(np.abs(jet.sigma)) == 0.0 and jet.terms == ()


def test_isotropic_component_closed_form():
    # conformal factor 1 + m/(2r) = 1.1 at r=10 for m=2, so g11 = 1.1^4
    g = node_major(M.schwarzschild_isotropic(2.0).jets(np.array([10.0, 0.0, 0.0])[None]))[0][0]
    assert abs(g[0, 0] - 1.4641) <= 1e-14
    assert abs(g[1, 1] - 1.4641) <= 1e-14
    assert abs(g[0, 1]) == 0.0


def test_standard_radial_component_closed_form():
    m, r = 1.0, 10.0
    g = node_major(M.schwarzschild_standard(m).jets(np.array([r, 0.0, 0.0])[None]))[0][0]
    assert abs(g[0, 0] - 1.0 / (1.0 - 2 * m / r)) <= 1e-14
    assert abs(g[1, 1] - 1.0) <= 1e-15
    assert abs(g[2, 2] - 1.0) <= 1e-15


@pytest.mark.parametrize("metric", ALL_FAMILIES, ids=lambda m: m.family)
def test_jets_match_finite_differences(metric):
    pts = shell_points(12.0, 20, seed=10)
    jets = metric.jets(pts)
    dg_fd, ddg_fd = fd_jets(metric, pts)
    scale_d = 1.0 + np.max(np.abs(dg_fd))
    scale_dd = 1.0 + np.max(np.abs(ddg_fd))
    assert np.max(np.abs(node_major(jets)[1] - dg_fd)) <= 1e-10 * scale_d
    assert np.max(np.abs(full_ddg(jets) - ddg_fd)) <= 1e-9 * scale_dd


@pytest.mark.parametrize("metric", ALL_FAMILIES, ids=lambda m: m.family)
def test_jet_symmetries_and_positivity(metric):
    pts = shell_points(9.0, 30, seed=11)
    jets = metric.jets(pts)
    g, dg = node_major(jets)
    assert np.max(np.abs(g - g.transpose(0, 2, 1))) == 0.0
    assert np.max(np.abs(dg - dg.transpose(0, 2, 1, 3))) == 0.0
    # the packed rebuild stores each symmetric pair once
    ddg = full_ddg(jets)
    assert np.array_equal(ddg, ddg.transpose(0, 2, 1, 3, 4))
    assert np.array_equal(ddg, ddg.transpose(0, 1, 2, 4, 3))
    assert np.min(np.linalg.eigvalsh(g)) > 0.0


def test_jet_batch_indexing():
    # node n of a batch is the jet of the single point n
    pts = shell_points(8.0, 4, seed=12)
    metric = M.schwarzschild_isotropic(1.0)
    batch = metric.jets(pts)
    one = metric.jets(pts[2][None])
    for field in ("sigma", "dg"):
        assert np.array_equal(getattr(one, field)[..., 0], getattr(batch, field)[..., 2]), field
    assert np.array_equal(full_ddg(one)[0], full_ddg(batch)[2])
    for (S1, V1), (S, V) in zip(one.terms, batch.terms, strict=True):
        assert V1 is V or np.array_equal(V1, V)
        for a1, a in ((S1.v, S.v), (S1.d, S.d), (S1.h, S.h)):
            assert np.array_equal(a1[..., 0], a[..., 2])
    assert np.array_equal(node_major(batch)[0][2], M.unpack(batch.sigma)[..., 2] + np.eye(3))


@pytest.mark.parametrize("metric", ALL_FAMILIES, ids=lambda m: m.family)
def test_jet_batches_are_node_major_and_contiguous(metric):
    # sigma and dg are handed out as the assembly built them: packed
    # node-last rows, C-contiguous, so a reshape of dg to its 18 rows stays
    # a view; the terms' scalar jets keep the node axis last, and the r^2
    # jet's gradient is C-contiguous, so no scalar jet built from r runs
    # strided
    n = 17
    points = shell_points(7.0, n, seed=21)
    jets = metric.jets(points)
    for field, shape in (("sigma", (6, n)), ("dg", (3, 6, n))):
        a = getattr(jets, field)
        assert a.shape == shape and a.flags.c_contiguous, field
    assert np.shares_memory(jets.dg.reshape(18, n), jets.dg)
    assert M._squares(points).d.flags.c_contiguous
    assert all(V is not None for _, V in jets.terms[1:])  # a beta I term comes first
    for S, V in jets.terms:
        assert (S.v.shape, S.d.shape, S.h.shape) == ((n,), (3, n), (6, n))
        assert V is None or V.shape == (3, 3)


@pytest.mark.parametrize("metric", ALL_FAMILIES, ids=lambda m: m.family)
def test_jets_equal_the_dense_assembly_bit_for_bit(metric):
    # the library adds only the nonzero rows of dvv; the dense products
    # with the 0/+-1 pattern of V give the same bits and the same signs of
    # zero, on coordinate spheres (whose phi = 0 nodes have y = 0) and on
    # the coordinate axes
    axes = np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]])
    for L in (16, 24, 32):
        grid = build_grid(L)
        for r in (20.0, 1e3, 1e6):
            points = np.vstack([coordinate_sphere(r, grid).points, r * axes])
            jets = metric.jets(points)
            for got, want in zip((jets.sigma, jets.dg), dense_sigma_dg(jets), strict=True):
                assert np.array_equal(got, want), (L, r)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (L, r)


def test_kerr_zero_spin_limit_is_schwarzschild():
    pts = shell_points(15.0, 25, seed=13)
    jk = M.kerr_slice(1.0, 1e-12).jets(pts)
    js = M.schwarzschild_standard(1.0).jets(pts)
    assert np.max(np.abs(jk.sigma - js.sigma)) <= 1e-12
    assert np.max(np.abs(jk.dg - js.dg)) <= 1e-12
    assert np.max(np.abs(full_ddg(jk) - full_ddg(js))) <= 1e-12


def test_kerr_axisymmetry():
    kerr = M.kerr_slice(1.0, 0.5)
    pts = shell_points(10.0, 20, seed=14)
    Q = rotation_matrix([0.0, 0.0, 1.0], 0.718)
    g_rotated_pts = node_major(kerr.jets(pts @ Q.T))[0]
    g_transformed = np.einsum("ki,lj,nij->nkl", Q, Q, node_major(kerr.jets(pts))[0])
    assert np.max(np.abs(g_rotated_pts - g_transformed)) <= 1e-13


def test_kerr_equatorial_reflection():
    kerr = M.kerr_slice(1.0, 0.5)
    pts = shell_points(10.0, 20, seed=15)
    P = np.diag([1.0, 1.0, -1.0])
    g_reflected = node_major(kerr.jets(pts @ P))[0]
    g_transformed = np.einsum("ki,lj,nij->nkl", P, P, node_major(kerr.jets(pts))[0])
    assert np.max(np.abs(g_reflected - g_transformed)) <= 1e-14


def test_kerr_deviation_decay():
    # sup r|sigma| stays near one constant across dyadic shells
    kerr = M.kerr_slice(1.0, 0.5)
    sups = []
    for i, r in enumerate((20.0, 40.0, 80.0)):
        jb = kerr.jets(shell_points(r, 100, seed=5 + i))
        sups.append(r * np.abs(jb.sigma).max())
    assert max(sups) <= 2.5  # frozen: measured 2.22 at the tightest shell
    assert max(sups) / min(sups) <= 1.2


@pytest.mark.parametrize("a", [0.5, 0.9])
def test_kerr_jets_match_symbolic_oracle(a):
    kerr = M.kerr_slice(1.0, a)
    s = np.sqrt(0.5)
    axes = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 1, 0], [-s, s, 0]])
    for r in (5.0, 20.0, 640.0):
        pts = np.vstack([shell_points(r, 20, seed=16), r * axes])
        got = kerr.jets(pts)
        want = sympy_kerr_jets(1.0, a, pts)
        for field, exact in zip((*node_major(got), full_ddg(got)), want):
            assert np.max(np.abs(field - exact)) <= 1e-12 * np.max(np.abs(exact))


# about ten times the largest relative errors against the 40-digit oracle
# on the shells of ORACLE_RADII, measured for (sigma, dg, ddg): Kerr
# 4.1e-16, 6.5e-16 and 1.25e-15, dg and ddg keeping the bounds of the
# shells at 1e4 and 1e6; standard 3.3e-16, 9.8e-16 and 1.5e-15; isotropic
# 2.1e-16, 4.9e-16 and 6.1e-16.  sigma read as g - delta loses about
# eps r: 1.4e-10 on Kerr at r = 1e6 and 7-9e-9 at 1e8
ORACLE_BOUNDS = {
    "kerr_slice": (4.1e-15, 5.9e-15, 1.3e-14),
    "schwarzschild_standard": (3.3e-15, 9.8e-15, 1.5e-14),
    "schwarzschild_isotropic": (2.1e-15, 4.9e-15, 6.1e-15),
}
ORACLE_RADII = (20.0, 1e4, 1e6, 1e8)


def assert_jets_match_the_mpmath_oracle(metric):
    s = np.sqrt(0.5)
    axes = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 1, 0], [-s, s, 0]])
    for r in ORACLE_RADII:
        pts = np.vstack([shell_points(r, 20, seed=16), r * axes])
        got = metric.jets(pts)
        fields = (M.unpack(got.sigma).transpose(2, 0, 1), node_major(got)[1], full_ddg(got))
        want = mpmath_jets(metric, pts)
        for field, exact, bound in zip(fields, want, ORACLE_BOUNDS[metric.family]):
            assert np.max(np.abs(field - exact)) <= bound * np.max(np.abs(exact)), r


@pytest.mark.parametrize("a", [0.5, 0.9])
def test_kerr_jets_match_the_mpmath_oracle_far_out(a):
    # the float64 symbolic oracle itself loses 2e-12 at r = 1e4 and 2-5e-10
    # at 1e6, so far out only a 40-digit evaluation can judge the jets
    assert_jets_match_the_mpmath_oracle(M.kerr_slice(1.0, a))


@pytest.mark.parametrize("chart", ["standard", "isotropic"])
def test_schwarzschild_jets_match_the_mpmath_oracle_far_out(chart):
    assert_jets_match_the_mpmath_oracle(getattr(M, f"schwarzschild_{chart}")(1.0))


def test_catalog_jets_need_no_sympy():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import nearlyround as nr\n"
        "for spec in ('euclidean', 'schwarzschild_isotropic m=1',\n"
        "             'schwarzschild_standard m=1', 'kerr_slice m=1 a=0.5',\n"
        "             'conformal_perturbed m=1 eps=0.1'):\n"
        "    nr.parse_metric(spec).jets(np.array([[3.0, 4.0, 12.0]]))\n"
        "sys.exit('sympy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "sympy was imported"


@pytest.mark.parametrize("metric", ALL_FAMILIES[1:], ids=lambda m: m.family)
def test_decay_audit(metric):
    # |sigma| r^tau, |dg| r^(1+tau), |ddg| r^(2+tau) bounded on dyadic shells
    bounds = {
        "schwarzschild_isotropic": (3.3, 3.5, 7.3),
        "schwarzschild_standard": (3.7, 4.7, 12.0),
        "kerr_slice": (3.7, 4.6, 11.6),
        "conformal_perturbed": (3.7, 3.8, 7.5),
    }
    c0m, c1m, c2m = bounds[metric.family]
    tau = metric.tau
    rng = np.random.default_rng(42)
    for k in range(5):
        r = 10.0 * 2**k
        d = rng.normal(size=(100, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        jb = metric.jets(r * d)
        assert r**tau * np.abs(jb.sigma).max() <= c0m
        assert r ** (1 + tau) * np.abs(jb.dg).max() <= c1m
        assert r ** (2 + tau) * np.abs(full_ddg(jb)).max() <= c2m


def test_exclusion_radius_enforced():
    cases = [
        (M.schwarzschild_isotropic(1.0), 0.9),
        (M.schwarzschild_standard(1.0), 3.9),
        (M.kerr_slice(1.0, 0.5), 3.5),
        (M.conformal_perturbed(1.0, 0.05), 0.9),
    ]
    for metric, r in cases:
        with pytest.raises(M.PointInsideExclusionRadius):
            metric.jets(np.array([r, 0.0, 0.0])[None])
        # one bad point poisons a batch
        pts = np.array([[10.0, 0.0, 0.0], [r, 0.0, 0.0]])
        with pytest.raises(M.PointInsideExclusionRadius):
            metric.jets(pts)


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        M.schwarzschild_isotropic(-1.0)
    with pytest.raises(ValueError):
        M.schwarzschild_standard(0.0)
    with pytest.raises(ValueError):
        M.kerr_slice(1.0, 1.0)  # extremal spin
    with pytest.raises(ValueError):
        M.conformal_perturbed(1.0, 0.1, l=0)
    # no grid resolves a degree above the largest band limit, the catalog's
    # own copy of the grid module's bound
    assert M._MAX_DEGREE == MAX_BAND_LIMIT
    M.conformal_perturbed(1.0, 0.1, l=MAX_BAND_LIMIT)
    with pytest.raises(ValueError, match=f"between 1 and {MAX_BAND_LIMIT}, got 129"):
        M.conformal_perturbed(1.0, 0.1, l=MAX_BAND_LIMIT + 1)
    with pytest.raises(ValueError):
        M.conformal_perturbed(1.0, 0.1, l=2, m_order=3)
    with pytest.raises(ValueError):
        M.conformal_perturbed(1.0, 0.1, tau_extra=0.5)


def test_parse_metric_roundtrip():
    for metric in ALL_FAMILIES:
        again = M.parse_metric(metric.spec())
        assert again.family == metric.family
        assert again.params == pytest.approx(metric.params)
        assert again.tau == metric.tau


def test_parse_metric_grammar():
    met = M.parse_metric("kerr_slice m=1, a=0.5")
    assert met.params == {"m": 1.0, "a": 0.5}
    assert isinstance(M.parse_metric("conformal_perturbed m=1 eps=0.1 l=3").params["l"], int)
    with pytest.raises(M.UnknownMetricFamily):
        M.parse_metric("goedel m=1")
    with pytest.raises(M.UnknownMetricFamily):
        M.parse_metric("")
    with pytest.raises(ValueError):
        M.parse_metric("kerr_slice m=1 spin")
    with pytest.raises(ValueError):
        M.parse_metric("euclidean m=1")
    # every parameter without a default is required, and named when missing
    with pytest.raises(M.ConfigError, match="'a'"):
        M.parse_metric("kerr_slice m=1")
    with pytest.raises(M.ConfigError, match="'m', 'eps'"):
        M.parse_metric("conformal_perturbed l=2")
    with pytest.raises(M.ConfigError, match="parameter 'm_order'"):
        M.parse_metric("conformal_perturbed m=1 eps=0.1 m_order=0.5")
    # a repeated parameter is refused
    with pytest.raises(M.ConfigError, match="parameter 'a' given twice"):
        M.parse_metric("kerr_slice m=1 a=0.5 a=0.9")


# ---------------------------------------------------------------------------
# Connection and curvature
# ---------------------------------------------------------------------------


def test_christoffel_euclidean_zero():
    jets = M.euclidean().jets(shell_points(5.0, 10, seed=16))
    assert np.max(np.abs(connection(jets))) == 0.0


def test_christoffel_symmetric_lower_indices():
    jets = M.kerr_slice(1.0, 0.5).jets(shell_points(8.0, 15, seed=17))
    Gam = connection(jets)
    assert np.max(np.abs(Gam - Gam.transpose(0, 1, 3, 2))) <= 1e-15


@pytest.mark.parametrize("radius", [5.0, 20.0, 640.0])
@pytest.mark.parametrize(
    "metric",
    [
        M.kerr_slice(1.0, 0.5),
        M.kerr_slice(1.0, 0.9),
        M.conformal_perturbed(1.0, 0.2, l=3, m_order=2, tau_extra=0.7),
    ],
    ids=["kerr-a0.5", "kerr-a0.9", "perturbed"],
)
def test_symmetric_inverse_matches_lapack(metric, radius):
    # the closed-form adjugate agrees with LAPACK's inverse to the
    # conditioning of each matrix
    jets = metric.jets(shell_points(radius, 200, seed=22))
    g = node_major(jets)[0]
    inv = M.unpack(M.symmetric_inverse(jets.sigma + M.DELTA)).transpose(2, 0, 1)
    ref = np.linalg.inv(g)
    cond = np.linalg.cond(g)
    err = np.max(np.abs(inv - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
    assert np.all(err <= 10.0 * cond * np.finfo(float).eps)


def test_christoffel_isotropic_against_symbolic_oracle():
    point = (5.0, 0.0, 0.0)
    jets = M.schwarzschild_isotropic(1.0).jets(np.array([point]))
    g = node_major(jets)[0]
    want = lowered(g, sympy_isotropic_christoffel(1, point)[None])[0]
    got = connection(jets)[0]
    assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(want)))
    # frozen spot values: Gamma_x,xx = 2 phi^3 phi_x = -2 (1.1)^3 / 50 at
    # this point, phi^4 times Gamma^x_xx = 2 phi_x / phi = -2/55
    assert got[0, 0, 0] == pytest.approx(-0.05324, abs=1e-14)
    assert got[0, 1, 1] == pytest.approx(0.05324, abs=1e-14)
    assert got[1, 0, 1] == pytest.approx(-0.05324, abs=1e-14)


@pytest.mark.parametrize(
    "metric",
    [M.kerr_slice(1.0, 0.5), M.conformal_perturbed(1.0, 0.1, l=2, m_order=1)],
    ids=lambda m: m.family,
)
def test_metric_compatibility(metric):
    # covariant derivative of g vanishes identically through the jet
    pts = shell_points(11.0, 20, seed=18)
    jets = metric.jets(pts)
    Gam = raised_connection(jets)
    g, dg = node_major(jets)
    nabla = (
        dg
        - np.einsum("nlki,nlj->nijk", Gam, g)
        - np.einsum("nlkj,nil->nijk", Gam, g)
    )
    assert np.max(np.abs(nabla)) <= 1e-13


def test_christoffel_derivative_matches_finite_differences():
    # d_m Gamma_l,ij = d_m g_lk Gamma^k_ij + g_lk d_m Gamma^k_ij, the
    # oracle's derivative lowered with g, against differences of the
    # library's lowered symbols
    metric = M.kerr_slice(1.0, 0.5)
    pts = shell_points(10.0, 10, seed=19)
    jets = metric.jets(pts)
    g, dg = node_major(jets)
    dGam = np.einsum("nlkm,nkij->nlijm", dg, christoffel_node_major(np.linalg.inv(g), dg))
    dGam += np.einsum("nlk,nkijm->nlijm", g, christoffel_derivative(g, dg, full_ddg(jets)))
    h = 2e-3
    for m_ax in range(3):
        e = np.zeros(3)
        e[m_ax] = h
        gp2 = connection(metric.jets(pts + 2 * e))
        gp1 = connection(metric.jets(pts + e))
        gm1 = connection(metric.jets(pts - e))
        gm2 = connection(metric.jets(pts - 2 * e))
        fd = (-gp2 + 8 * gp1 - 8 * gm1 + gm2) / (12 * h)
        assert np.max(np.abs(dGam[..., m_ax] - fd)) <= 1e-10


def test_riemann_symmetries():
    jets = M.kerr_slice(1.0, 0.5).jets(shell_points(9.0, 10, seed=20))
    R = riemann_lowered(*node_major(jets), full_ddg(jets))
    scale = np.max(np.abs(R)) + 1e-30
    assert np.max(np.abs(R + R.transpose(0, 2, 1, 3, 4))) / scale <= 1e-10
    assert np.max(np.abs(R + R.transpose(0, 1, 2, 4, 3))) / scale <= 1e-10
    assert np.max(np.abs(R - R.transpose(0, 3, 4, 1, 2))) / scale <= 1e-10
    # first Bianchi: R_{r[smq]} = 0
    bianchi = R + R.transpose(0, 1, 3, 4, 2) + R.transpose(0, 1, 4, 2, 3)
    assert np.max(np.abs(bianchi)) / scale <= 1e-10


def test_sectional_curvature_tangent_planes():
    # tangential sectional curvature of the symmetric slice is 2m/r^3
    m, r = 1.0, 10.0
    metric = M.schwarzschild_standard(m)
    pts = np.array([[r, 0.0, 0.0], [0.0, r, 0.0], [0.0, 0.0, r]])
    frames = {
        0: (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])),
        1: (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])),
        2: (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
    }
    jets = metric.jets(pts)
    e1 = np.stack([frames[i][0] for i in range(3)])
    e2 = np.stack([frames[i][1] for i in range(3)])
    K = gauss_term(jets, e1, e2)
    assert np.max(np.abs(K - 2 * m / r**3)) <= 1e-12


@pytest.mark.parametrize("radius", [5.0, 20.0, 640.0])
@pytest.mark.parametrize(
    "metric",
    [
        M.kerr_slice(1.0, 0.5),
        M.kerr_slice(1.0, 0.9),
        M.schwarzschild_standard(1.0),
        M.schwarzschild_isotropic(1.0),
        M.conformal_perturbed(1.0, 0.1, l=2, m_order=1, tau_extra=0.8),
    ],
    ids=lambda m: m.spec(),
)
def test_sectional_curvature_matches_riemann_contraction(metric, radius):
    # the contracted Gauss-equation term against the full covariant tensor,
    # on pairs that are neither unit nor orthogonal
    rng = np.random.default_rng(int(radius))
    pts = shell_points(radius, 40, seed=int(radius) + 1)
    X, Y = rng.normal(size=(2, 40, 3))
    jets = metric.jets(pts)
    R = riemann_lowered(*node_major(jets), full_ddg(jets), raised_connection(jets))
    want = np.einsum("nrsmq,nr,ns,nm,nq->n", R, X, Y, X, Y)
    got = gauss_term(jets, X, Y)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


CHARTS = {
    "plain": None,
    "rotated": rotation_matrix([1.0, 2.0, 0.5], 1.13),
    "permuted": np.eye(3)[[2, 0, 1]].T,
}


@pytest.mark.parametrize("chart", sorted(CHARTS))
@pytest.mark.parametrize("metric", ALL_FAMILIES[:4] + ALL_FAMILIES[5:], ids=lambda m: m.family)
def test_sectional_curvature_matches_rebuilt_tensor(metric, chart):
    # the product-rule Gauss term of the closed form against the curvature
    # contraction of the rebuilt ddg, on coordinate-sphere tangent pairs
    # (orthogonal, and sheared so that X.Y != 0) over band limits and six
    # decades of radius; rotated charts turn the terms (V -> Q V Q^T) and
    # leave no family axis-aligned
    ambient = metric if CHARTS[chart] is None else RotatedChart(metric, CHARTS[chart])
    for L in (16, 24, 32, 48):
        grid = build_grid(L)
        for r in (20.0, 1e3, 1e6):
            s = coordinate_sphere(r, grid)
            X, Y = s.tangents().reshape(2, 3, -1).transpose(0, 2, 1)
            jets = ambient.jets(s.points)
            Gam = raised_connection(jets)
            g, ddg = node_major(jets)[0], full_ddg(jets)
            for U, W in ((X, Y), (X, Y + 0.5 * X)):
                want = riemann_contraction(g, ddg, Gam, U, W)
                got = gauss_term(jets, U, W)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (L, r)


def test_scalar_curvature_flat_and_vacuum():
    pts = shell_points(10.0, 20, seed=21)
    assert np.max(np.abs(scalar_curvature(M.euclidean(), pts))) == 0.0
    # harmonic conformal factor: the symmetric slices are scalar flat
    assert np.max(np.abs(scalar_curvature(M.schwarzschild_isotropic(1.0), pts))) <= 1e-10
    assert np.max(np.abs(scalar_curvature(M.schwarzschild_standard(1.0), pts))) <= 1e-10


def test_scalar_curvature_perturbed_closed_form():
    metric = M.conformal_perturbed(1.0, 0.1, l=2, m_order=1, tau_extra=0.8)
    pts = shell_points(9.0, 40, seed=22)
    got = scalar_curvature(metric, pts)
    want = perturbed_scalar_curvature_closed_form(metric, pts)
    assert np.max(np.abs(got - want)) <= 1e-9 * (1 + np.max(np.abs(want)))


def test_scalar_curvature_kerr_decay_and_fd_cross_check():
    kerr = M.kerr_slice(1.0, 0.5)
    sups = []
    for i, r in enumerate((20.0, 40.0, 80.0)):
        pts = shell_points(r, 50, seed=3 + i)
        Rc = scalar_curvature(kerr, pts)
        sups.append(np.abs(Rc).max() * r**4)
    assert max(sups) <= 0.02  # frozen: measured 0.0112 at the tightest shell
    assert sups[0] >= sups[1] >= sups[2]
    # same contraction fed with finite-difference jets agrees
    pts = shell_points(20.0, 5, seed=30)
    g = node_major(kerr.jets(pts))[0]
    dg_fd, ddg_fd = fd_jets(kerr, pts)
    R_fd = np.einsum("nsq,nsq->n", np.linalg.inv(g), ricci(g, dg_fd, ddg_fd))
    R_an = scalar_curvature(kerr, pts)
    assert np.max(np.abs(R_fd - R_an)) <= 1e-3 * np.max(np.abs(R_an))


# ---------------------------------------------------------------------------
# Total-mass surface integrals
# ---------------------------------------------------------------------------


def sphere_flux(metric, radius, band_limit=16):
    """mass_flux over the coordinate sphere of the given radius."""
    fd_hat = fundamental_forms(coordinate_sphere(radius, build_grid(band_limit)))
    return mass_flux(fd_hat, metric.jets(fd_hat.points).dg)


def sphere_fit(metric, radii, band_limit=16):
    """adm_mass of the coordinate-sphere fluxes over the given radii."""
    return M.adm_mass(radii, [sphere_flux(metric, r, band_limit) for r in radii])


def test_flux_euclidean_zero():
    assert sphere_flux(M.euclidean(), 10.0) == 0.0


def test_flux_isotropic_closed_form():
    # flux at finite radius is exactly m (1 + m/(2r))^3
    metric = M.schwarzschild_isotropic(1.0)
    for r in (10.0, 50.0, 100.0):
        got = sphere_flux(metric, r)
        want = (1.0 + 0.5 / r) ** 3
        assert abs(got - want) <= 1e-12
    assert abs(sphere_flux(metric, 100.0) - 1.015075125) <= 1e-9


def test_flux_standard_closed_form():
    # flux at finite radius is exactly m / (1 - 2m/r)
    metric = M.schwarzschild_standard(1.0)
    for r in (10.0, 40.0):
        got = sphere_flux(metric, r)
        assert abs(got - 1.0 / (1.0 - 2.0 / r)) <= 1e-12


def test_flux_perturbation_orthogonality():
    # the O(eps) term integrates to zero; what survives is O(eps^2),
    # identical at both band limits (not a quadrature artifact)
    iso = M.schwarzschild_isotropic(1.0)
    pert = M.conformal_perturbed(1.0, 0.1, l=2, m_order=0, tau_extra=1.0)
    vals = {}
    for L in (16, 32):
        fi = sphere_flux(iso, 50.0, band_limit=L)
        fp = sphere_flux(pert, 50.0, band_limit=L)
        vals[L] = (fi, fp)
        assert abs(fp - fi) <= 2e-4  # frozen: measured 9.84e-5
    assert abs(vals[16][1] - vals[32][1]) <= 1e-10


def test_flux_rotation_invariance():
    kerr = M.kerr_slice(1.0, 0.5)
    Q = rotation_matrix([1.0, 2.0, 0.5], 1.13)
    rotated = RotatedChart(kerr, Q)
    a = sphere_flux(kerr, 25.0)
    b = sphere_flux(rotated, 25.0)
    assert abs(a - b) <= 1e-12


def test_adm_mass_isotropic():
    est = sphere_fit(M.schwarzschild_isotropic(1.0), [50.0, 100.0, 200.0])
    assert abs(est.value - 1.0) <= 1e-4
    assert est.residual <= 1e-8


def test_adm_mass_euclidean():
    est = sphere_fit(M.euclidean(), [10.0, 20.0, 40.0])
    assert abs(est.value) <= 1e-12


@pytest.mark.parametrize("flux", [0.0, 1.5])
def test_adm_mass_constant_flux_has_no_rate(flux):
    # every p fits a constant flux with zero residual, so no rate is reported
    est = M.adm_mass([20.0, 40.0, 80.0], [flux] * 3)
    assert np.isnan(est.rate)
    assert est.coefficient == 0.0
    assert est.residual == 0.0
    assert est.value == pytest.approx(flux, abs=1e-13)


def test_adm_mass_rejects_radii_whose_square_overflows():
    with pytest.raises(ValueError):
        M.adm_mass([10.0, 20.0, 1e200], [1.2, 1.1, 1.0])


def test_adm_mass_holds_radii_to_the_radius_rule():
    # 1e100 has a finite square, but its fourth power overflows: the
    # schedule rule of the studies refuses it
    with pytest.raises(M.ConfigError, match="fourth power overflows"):
        M.adm_mass([10.0, 20.0, 1e100], [1.2, 1.1, 1.0])


def test_radius_rule_ends_are_where_the_fourth_power_leaves_the_normal_floats():
    # every radius strictly between the ends has a normal, finite r^4
    lo, hi = np.nextafter(M.MIN_RADIUS, np.inf), np.nextafter(M.MAX_RADIUS, 0.0)
    assert M.check_radii([lo, hi]) == (lo, hi)
    assert lo**4 >= np.finfo(float).tiny and np.isfinite(hi**4)
    for r in (M.MIN_RADIUS, M.MAX_RADIUS, 0.0, -1.0, np.nan, np.inf):
        with pytest.raises(M.ConfigError, match="positive"):
            M.check_radii([r])


@pytest.mark.parametrize("radii", [(0.0, 1.0, 2.0), (-2.0, 1.0, 2.0), (-3.0, -2.0, -1.0)])
def test_adm_mass_rejects_radii_that_are_not_positive(radii):
    # the model r^-p has no value at r <= 0
    with pytest.raises(M.ConfigError, match="positive"):
        M.adm_mass(radii, [1.2, 1.1, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adm_mass_rejects_fluxes_that_are_not_finite(bad):
    with pytest.raises(M.ConfigError, match="finite"):
        M.adm_mass([20.0, 40.0, 80.0], [1.2, bad, 1.0])


# below the radius rule, outside the exclusion radius, where the Hessians of
# the S (Vx)(Vx)^T terms (about m / r^5) overflow a float
TINY_MASSES = (M.kerr_slice(1e-300, 5e-301), M.schwarzschild_standard(1e-300))


def test_jets_overflow_is_a_solver_error_without_warnings():
    # the jets run at unit scale: Kerr's stay finite where r^2 overflows
    # (1e155), and an entry overflows only where its value does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M.kerr_slice(1.0, 0.5).jets(np.array([[0.0, 0.0, 1e155], [1e160, 0.0, 0.0]]))
        for metric in TINY_MASSES:
            with pytest.raises(M.NonFiniteJets, match="overflow"):
                metric.jets(np.array([[1e-200, 0.0, 0.0]]))


def test_kerr_jets_first_overflow_radius():
    # the terms' scalar jets are checked with g and dg.  At unit scale no
    # power of r leaves the floats: with m = 1 the Kerr jets are finite on
    # spheres to r = 1e300, and with m = 1e-300 they overflow at r = 1e-200
    kerr = M.kerr_slice(1.0, 0.5)
    grid = build_grid(8)
    for k in range(40, 301, 5):
        kerr.jets(coordinate_sphere(10.0**k, grid).points)
    with pytest.raises(M.NonFiniteJets):
        TINY_MASSES[0].jets(coordinate_sphere(1e-200, grid).points)


def test_catalog_jets_are_finite_at_the_largest_study_radius():
    # r = 1.15e77 lies just under metrics.MAX_RADIUS, the largest radius a
    # study accepts: no family's jets overflow or warn there
    r = 1.15e77
    assert r < MAX_RADIUS < 1.16e77
    points = coordinate_sphere(r, build_grid(8)).points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for metric in ALL_FAMILIES:
            jets = metric.jets(points)
            arrays = [jets.sigma, jets.dg] + [a for S, _ in jets.terms for a in (S.v, S.d, S.h)]
            assert all(np.all(np.isfinite(a)) for a in arrays), metric.family


def test_jets_name_a_finite_radius_where_its_square_overflows():
    # the square of |x| = 1e160 overflows a float; the radius is measured
    # without a warning, and no family's jets overflow there.  Where the
    # square of |x| = 1e-200 underflows, a family whose jets overflow names it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for metric in ALL_FAMILIES:
            metric.jets(np.array([[1e160, 0.0, 0.0], [0.0, 0.0, -1e155]]))
        for metric in TINY_MASSES:
            with pytest.raises(M.NonFiniteJets, match="radius up to 1e-200"):
                metric.jets(np.array([[1e-200, 0.0, 0.0], [0.0, 0.0, -1e-200]]))


# per jets call: products of two jets, products of a jet with a number,
# powers, and the closed form's terms, on every family of ALL_FAMILIES
JET_WORK = {
    "euclidean": (0, 0, 0, 0),
    "schwarzschild_isotropic m=1": (2, 1, 1, 1),
    "schwarzschild_standard m=1": (1, 1, 2, 1),
    "kerr_slice a=0.5 m=1": (7, 5, 4, 3),
    "conformal_perturbed eps=0.1 l=2 m=1 m_order=0 tau_extra=1": (10, 10, 2, 1),
    "conformal_perturbed eps=0.1 l=2 m=1 m_order=1 tau_extra=0.8": (10, 11, 2, 1),
}


def test_catalog_jet_work_is_pinned(monkeypatch):
    counts = collections.Counter()
    product, power = M._Jet.__mul__, M._Jet.__pow__

    def counted_product(self, other):
        counts["jet" if isinstance(other, M._Jet) else "number"] += 1
        return product(self, other)

    def counted_power(self, p):
        counts["power"] += 1
        return power(self, p)

    monkeypatch.setattr(M._Jet, "__mul__", counted_product)
    monkeypatch.setattr(M._Jet, "__rmul__", counted_product)
    monkeypatch.setattr(M._Jet, "__pow__", counted_power)
    points = shell_points(20.0, 7, seed=23)
    work = {}
    for metric in ALL_FAMILIES:
        counts.clear()
        terms = metric.jets(points).terms
        work[metric.spec()] = (counts["jet"], counts["number"], counts["power"], len(terms))
    assert work == JET_WORK


def test_jets_peak_memory():
    # no fourth-rank tensor is built: g, dg and the terms' scalar jets
    # (4.71 MiB with the assembled ddg; 2.26 MiB measured)
    metric = M.schwarzschild_standard(1.0)
    points = coordinate_sphere(20.0, build_grid(32)).points
    metric.jets(points)
    tracemalloc.start()
    try:
        metric.jets(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_library_reads_no_second_derivative_tensor():
    # the Gauss term reads the closed form's terms; ddg lives on only in the
    # tests, rebuilt from the terms by jet_oracles.full_ddg
    names = []
    for path in sorted(Path(M.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.append((path.name, node.id))
            elif isinstance(node, ast.Attribute):
                names.append((path.name, node.attr))
            elif isinstance(node, ast.arg):
                names.append((path.name, node.arg))
    assert names and [(f, n) for f, n in names if "ddg" in n.lower()] == []


def test_adm_mass_kerr():
    est = sphere_fit(M.kerr_slice(1.0, 0.5), [50.0, 100.0, 200.0])
    assert abs(est.value - 1.0) <= 1e-2


def test_adm_mass_fitted_rate():
    # standard-form flux is m/(1-2m/r) = m + 2m^2/r + ..., so p fits near 1
    est = sphere_fit(M.schwarzschild_standard(1.0), [40.0, 80.0, 160.0, 320.0])
    assert abs(est.rate - 1.0) <= 0.05
    assert abs(est.value - 1.0) <= 1e-3


@pytest.mark.parametrize(
    "radii", [(10.0, 20.0, 40.0), (10.0, 20.0, 40.0, 80.0, 160.0), (15.0, 20.0, 50.0, 70.0)]
)
def test_adm_mass_recovers_an_exact_power_law(radii):
    # flux 1 + 3 r^-1.5 exactly: the fitted rate reaches the search's 1e-13
    # bracket, so the mass and the rate come out to roundoff
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", M.NonMonotoneFluxTail)  # uneven steps
        est = M.adm_mass(radii, [1.0 + 3.0 * r**-1.5 for r in radii])
    assert abs(est.value - 1.0) <= 1e-12
    assert abs(est.rate - 1.5) <= 1e-10


def test_adm_mass_schedule_validation():
    with pytest.raises(ValueError):
        M.adm_mass([50.0, 100.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        M.adm_mass([50.0, 50.0, 100.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="2 fluxes for 3 radii"):
        M.adm_mass([50.0, 100.0, 200.0], [1.0, 1.0])


def test_adm_mass_non_monotone_tail_warning():
    with pytest.warns(M.NonMonotoneFluxTail):
        M.adm_mass([10.0, 20.0, 40.0, 80.0], [1.1, 0.9, 1.05, 0.95])


def test_mass_flux_needs_the_flat_record():
    kerr = M.kerr_slice(1.0, 0.5)
    fd = fundamental_forms(coordinate_sphere(20.0, build_grid(8)), kerr)
    with pytest.raises(ValueError, match="flat-ambient"):
        mass_flux(fd, fd.ambient_dg)


def test_metrics_imports_only_errors_from_the_package():
    # the catalog is ambient geometry alone: it reads no grid, surface or
    # study module, so no flux or fit can hide in it again
    imports = []
    for node in ast.walk(ast.parse(Path(M.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imports.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imports += [alias.name for alias in node.names]
    assert [name for name in imports if name.startswith((".", "nearlyround"))] == [".errors"]
