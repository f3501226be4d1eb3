"""Spectral sphere substrate: quadrature, transforms, Mobius maps, gauge."""

import ast
from pathlib import Path

import numpy as np
import pytest

from nearlyround import sphere
from nearlyround.errors import ConfigError
from nearlyround.sphere import (
    MAX_BAND_LIMIT,
    SphereGrid,
    analyze,
    build_grid,
    center_gauge,
    coeff_degrees,
    coeff_index,
    conformal_moments,
    mobius_log_factor,
    mobius_map,
    synth_at,
    synth_gradient,
    synth_gradient_adjoint,
    synthesize,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def sphere_monomial_integral(a: int, b: int, c: int) -> float:
    """Exact integral of x^a y^b z^c over the unit sphere.

    Vanishes when any exponent is odd; otherwise
    4 pi (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!!.
    """
    if a % 2 or b % 2 or c % 2:
        return 0.0

    def dfact(n):
        out = 1
        while n > 1:
            out *= n
            n -= 2
        return out

    return 4.0 * np.pi * dfact(a - 1) * dfact(b - 1) * dfact(c - 1) / dfact(a + b + c + 1)


def low_degree_harmonics(xyz: np.ndarray) -> dict:
    """Closed-form real orthonormal harmonics through degree 2 (unit sphere)."""
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    return {
        (0, 0): np.sqrt(1 / (4 * np.pi)) * np.ones_like(x),
        (1, -1): np.sqrt(3 / (4 * np.pi)) * y,
        (1, 0): np.sqrt(3 / (4 * np.pi)) * z,
        (1, 1): np.sqrt(3 / (4 * np.pi)) * x,
        (2, -2): np.sqrt(15 / (4 * np.pi)) * x * y,
        (2, -1): np.sqrt(15 / (4 * np.pi)) * y * z,
        (2, 0): np.sqrt(5 / (16 * np.pi)) * (3 * z**2 - 1),
        (2, 1): np.sqrt(15 / (4 * np.pi)) * x * z,
        (2, 2): np.sqrt(15 / (16 * np.pi)) * (x**2 - y**2),
    }


def stereographic_dilation(points: np.ndarray, s: float) -> np.ndarray:
    """Conformal dilation along e3 via the Riemann-sphere chart.

    Project from the north pole to the equatorial plane, scale the complex
    coordinate by k = (1+s)/(1-s), and project back.  Independent route to
    the same map as mobius_map(points, s*e3).
    """
    k = (1.0 + s) / (1.0 - s)
    zeta = (points[..., 0] + 1j * points[..., 1]) / (1.0 - points[..., 2])
    zeta = k * zeta
    d = 1.0 + np.abs(zeta) ** 2
    return np.stack(
        [2 * zeta.real / d, 2 * zeta.imag / d, (np.abs(zeta) ** 2 - 1.0) / d],
        axis=-1,
    )


def axisymmetric_gauge_root(grid: SphereGrid, u: np.ndarray) -> float:
    """Bisection on the one-parameter subfamily b = s*e3 for the gauge root.

    For axisymmetric u the centering condition reduces to one scalar
    equation in s; bisection gives an oracle independent of the Newton
    solver inside center_gauge.
    """
    coeffs = analyze(grid, u)
    pts = grid.unit_vectors.reshape(-1, 3)

    def third_moment(s):
        b = np.array([0.0, 0.0, s])
        moved = mobius_map(pts, b)
        theta = np.arccos(np.clip(moved[:, 2], -1.0, 1.0))
        phi = np.arctan2(moved[:, 1], moved[:, 0])
        ug = (synth_at(coeffs, theta, phi) + mobius_log_factor(pts, b)).reshape(
            grid.shape
        )
        return conformal_moments(grid, ug)[2]

    lo, hi = -0.5, 0.5
    flo, fhi = third_moment(lo), third_moment(hi)
    assert flo * fhi < 0, "gauge root not bracketed"
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = third_moment(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def apply_mobius(grid: SphereGrid, f: np.ndarray, b: np.ndarray):
    """Pull a scalar field back along Phi_b.

    Returns (f o Phi_b at the nodes, conformal factor field e^{2 w_b}).
    The pullback resamples the band-limited representation of f at the
    displaced nodes.
    """
    pts = grid.unit_vectors.reshape(-1, 3)
    moved = mobius_map(pts, b)
    theta = np.arccos(np.clip(moved[:, 2], -1.0, 1.0))
    phi = np.arctan2(moved[:, 1], moved[:, 0])
    pulled = synth_at(analyze(grid, f), theta, phi).reshape(grid.shape)
    factor = np.exp(2.0 * mobius_log_factor(pts, b)).reshape(grid.shape)
    return pulled, factor


def laplace_beltrami(grid: SphereGrid, coeffs: np.ndarray) -> np.ndarray:
    """Round-sphere Laplacian in coefficient space: eigenvalues -l(l+1)."""
    ls, _ = coeff_degrees(grid.L)
    return -ls * (ls + 1.0) * coeffs


def fd4(f, t, h):
    """Fourth-order central difference of a callable on scalars/arrays."""
    return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)


# ---------------------------------------------------------------------------
# Grid and quadrature
# ---------------------------------------------------------------------------


def test_grid_shape_and_weight_sum():
    grid = build_grid(8)
    assert grid.shape == (9, 18)
    assert grid.n_nodes == 9 * 18
    assert abs(grid.weights.sum() - 4 * np.pi) <= 1e-13


@pytest.mark.parametrize("L", [1, 2, 8, 33])
def test_coeff_degrees_matches_the_loop_over_degrees(L):
    # the vectorized table against the loop over l it replaced, and the
    # flat index it inverts
    ls, ms = coeff_degrees(L)
    loop = [(l, m) for l in range(L + 1) for m in range(-l, l + 1)]
    assert ls.tolist() == [l for l, _ in loop]
    assert ms.tolist() == [m for _, m in loop]
    assert [coeff_index(l, m) for l, m in loop] == list(range((L + 1) ** 2))


def test_grid_rejects_degenerate_band_limit():
    with pytest.raises(ValueError):
        SphereGrid(0)
    # a float band limit would pass the range check and fail inside
    # leggauss on first use; any integer type is taken
    with pytest.raises(ConfigError, match="integer"):
        build_grid(16.0)
    with pytest.raises(ConfigError, match="integer"):
        SphereGrid("16")
    assert build_grid(np.int64(16)) == build_grid(16)


def test_quadrature_cos_squared_theta():
    grid = build_grid(16)
    z = grid.unit_vectors[..., 2]
    assert abs(grid.integrate(z**2) - 4 * np.pi / 3) <= 1e-13


def test_quadrature_monomials_exact_through_degree_2L():
    grid = build_grid(8)
    x, y, z = (grid.unit_vectors[..., i] for i in range(3))
    rng = np.random.default_rng(0)
    for _ in range(40):
        a, b, c = rng.integers(0, 6, size=3)
        if a + b + c > 2 * grid.L:
            continue
        got = grid.integrate(x ** int(a) * y ** int(b) * z ** int(c))
        want = sphere_monomial_integral(int(a), int(b), int(c))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_orthonormality_pairs():
    grid = build_grid(16)
    y32 = synthesize(grid, _unit_coeff(grid, 3, 2))
    y21 = synthesize(grid, _unit_coeff(grid, 2, 1))
    assert abs(grid.integrate(y32 * y32) - 1.0) <= 1e-12
    assert abs(grid.integrate(y32 * y21)) <= 1e-12


def test_gram_matrix_is_identity():
    grid = build_grid(10)
    S = grid.synthesis_matrix
    gram = S.T @ (grid.weights.ravel()[:, None] * S)
    assert np.max(np.abs(gram - np.eye(grid.n_coeffs))) <= 1e-11


def test_low_degree_closed_forms():
    grid = build_grid(12)
    table = low_degree_harmonics(grid.unit_vectors)
    for (l, m), want in table.items():
        got = synthesize(grid, _unit_coeff(grid, l, m))
        assert np.max(np.abs(got - want)) <= 1e-12, (l, m)


def _unit_coeff(grid, l, m):
    c = np.zeros(grid.n_coeffs)
    c[coeff_index(l, m)] = 1.0
    return c


# ---------------------------------------------------------------------------
# Analysis / synthesis
# ---------------------------------------------------------------------------


def test_roundtrip_single_harmonic():
    grid = build_grid(16)
    c = _unit_coeff(grid, 2, 1)
    back = analyze(grid, synthesize(grid, c))
    assert np.max(np.abs(back - c)) <= 1e-12


def test_constant_field_coefficients():
    grid = build_grid(8)
    c = 2.75
    coeffs = analyze(grid, np.full(grid.shape, c))
    want = np.zeros(grid.n_coeffs)
    want[0] = c * np.sqrt(4 * np.pi)
    assert np.max(np.abs(coeffs - want)) <= 1e-12


def rel_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_roundtrip_random_band_limited():
    grid = build_grid(16)
    rng = np.random.default_rng(7)
    c = rng.normal(size=grid.n_coeffs)
    back = analyze(grid, synthesize(grid, c))
    assert np.max(np.abs(back - c)) <= 1e-11
    # stacked (m, ntheta, nphi) fields and (K, m) coefficients: each
    # component matches its 1-D transform; the stack's axes are kept
    for shape in ((3,), (3, 3)):
        cs = rng.normal(size=(grid.n_coeffs,) + shape)
        fields = synthesize(grid, cs)
        back = analyze(grid, fields)
        assert fields.shape == shape + grid.shape and back.shape == cs.shape
        assert np.max(np.abs(back - cs)) <= 1e-11
        for k in np.ndindex(shape):
            f_k = synthesize(grid, cs[(slice(None),) + k])
            assert rel_gap(fields[k], f_k) <= 1e-14
            assert rel_gap(back[(slice(None),) + k], analyze(grid, f_k)) <= 1e-14


def fft_to_nodes(L, q, deriv):
    """The phi sum of `sphere._to_nodes` with `_phi_table(L)[deriv]` by
    numpy's inverse real FFT: the (2 (L+1), rows) amplitudes as complex
    Z_m, times i m for the phi derivative, and sum_m Re(e^{i m phi} Z_m) =
    irfft of (Z_0, Z_1 / 2, Z_2 / 2, ...) with the forward norm."""
    m = np.arange(L + 1)
    z = (q[0::2] + 1j * q[1::2]) * (1j * m[:, None]) ** deriv
    z = z * np.where(m == 0, 1.0, 0.5)[:, None]
    return np.fft.irfft(z, n=2 * L + 2, axis=0, norm="forward").T  # (rows, nphi)


def fft_from_nodes(L, f, deriv):
    """`sphere._from_nodes` with `_phi_table(L)[deriv]` by numpy's real
    FFT: (re, im) of sum_p f e^{-i m phi_p}, times -i m for the transpose
    of the phi derivative, as (2 (L+1), rows)."""
    t = np.fft.rfft(f, axis=1)[:, : L + 1] * (-1j * np.arange(L + 1)) ** deriv  # (rows, m)
    return np.stack([t.real, t.imag], axis=-1).reshape(len(f), -1).T


@pytest.mark.parametrize("L", [1, 2, 16, 33, 64, 96, MAX_BAND_LIMIT])
def test_phi_step_matches_fft_oracle(L):
    # both tables, on the theta rows of one and of three components, alone
    # and as the stacked pair synth_gradient and its adjoint pass
    grid = build_grid(L)
    tables = sphere._phi_table(L)
    rng = np.random.default_rng(L)
    for rows in (grid.ntheta, 3 * grid.ntheta):
        q = rng.normal(size=(2, 2 * (L + 1), rows))
        f = rng.normal(size=(2, rows, grid.nphi))
        to_nodes, from_nodes = sphere._to_nodes(tables, q), sphere._from_nodes(tables, f)
        for deriv in (0, 1):
            want_to, want_from = fft_to_nodes(L, q[deriv], deriv), fft_from_nodes(L, f[deriv], deriv)
            assert rel_gap(sphere._to_nodes(tables[deriv], q[deriv]), want_to) <= 1e-14
            assert rel_gap(sphere._from_nodes(tables[deriv], f[deriv]), want_from) <= 1e-14
            assert rel_gap(to_nodes[deriv], want_to) <= 1e-14
            assert rel_gap(from_nodes[deriv], want_from) <= 1e-14


def test_phi_table_is_exactly_symmetric():
    # one quarter wave, mirrored: cos(m (2 pi - phi)) = cos(m phi) and
    # sin(m (2 pi - phi)) = -sin(m phi) bit for bit, and cos(pi/2) is 0
    # its phi derivative, -m sin(m phi) and -m cos(m phi), mirrors the other
    # way round and is zero at m = 0
    for L in (1, 2, 16, 33, 64):
        table, deriv = sphere._phi_table(L).reshape(2, 2 * L + 2, L + 1, 2)
        mirror = table[(-np.arange(2 * L + 2)) % (2 * L + 2)]
        assert np.array_equal(mirror[..., 0], table[..., 0])
        assert np.array_equal(mirror[..., 1], -table[..., 1] + 0.0)
        assert np.all(table[..., 1][:, 0] == 0.0) and np.all(np.abs(table) <= 1.0)
        if (2 * L + 2) % 4 == 0:
            assert table[(2 * L + 2) // 4, 1, 0] == 0.0
        mirror = deriv[(-np.arange(2 * L + 2)) % (2 * L + 2)]
        assert np.array_equal(mirror[..., 0], -deriv[..., 0] + 0.0)
        assert np.array_equal(mirror[..., 1], deriv[..., 1])
        assert np.all(deriv[:, 0] == 0.0)


def test_library_reads_no_fft():
    # the phi step is a product with a cached table; numpy's FFT stays a
    # test oracle
    readers = []
    for path in sorted(Path(sphere.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "fft":
                readers.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
                module = getattr(node, "module", None) or ""
                if "fft" in module.split(".") or any("fft" in n.split(".") for n in names):
                    readers.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert readers == []


@pytest.mark.parametrize("L", [1, 2, 7, 16, 33, 48])
def test_transforms_match_dense_oracle(L):
    # the per-m Legendre x phi-table core against the dense (n_nodes, n_coeffs)
    # matrices, for one expansion and a (K, 3, 3) stack
    grid = build_grid(L)
    S, Dt, Dp = grid.synthesis_matrix, grid.dtheta_matrix, grid.dphi_matrix
    rng = np.random.default_rng(L)
    for tail in ((), (3, 3)):
        c = rng.normal(size=(grid.n_coeffs,) + tail)
        f, g = rng.normal(size=(2,) + tail + grid.shape)
        c2 = c.reshape(grid.n_coeffs, -1)
        f2, g2 = f.reshape(-1, grid.n_nodes).T, g.reshape(-1, grid.n_nodes).T
        ft, fp = synth_gradient(grid, c)
        adjoint = synth_gradient_adjoint(grid, np.stack([f, g]))
        fields = [(synthesize(grid, c), S @ c2), (ft, Dt @ c2), (fp, Dp @ c2)]
        coefficients = [
            (analyze(grid, f), S.T @ (grid.weights.reshape(-1, 1) * f2)),
            (adjoint, Dt.T @ f2 + Dp.T @ g2),
        ]
        for got, oracle in fields:
            assert got.shape == tail + grid.shape
            assert rel_gap(got.reshape(-1, grid.n_nodes).T, oracle) <= 1e-13
        for got, oracle in coefficients:
            assert got.shape == c.shape
            assert rel_gap(got.reshape(oracle.shape), oracle) <= 1e-13
        # <D v, w> = <v, D^T w> for the pair D = (d/dtheta, d/dphi)
        lhs = np.sum(ft * f) + np.sum(fp * g)
        assert abs(lhs - np.sum(c * adjoint)) <= 1e-13 * np.sum(np.abs(c * adjoint))


@pytest.mark.parametrize("L", [64, MAX_BAND_LIMIT])
def test_gradient_adjoint_is_the_transpose_at_high_band_limits(L):
    # <synth_gradient c, (f, g)> = <c, synth_gradient_adjoint (f, g)> for
    # one, three and six components, where a dense oracle would not fit
    grid = build_grid(L)
    rng = np.random.default_rng(L)
    for tail in ((), (3,), (6,)):
        c = rng.normal(size=(grid.n_coeffs,) + tail)
        fg = rng.normal(size=(2,) + tail + grid.shape)
        adjoint = synth_gradient_adjoint(grid, fg)
        assert adjoint.shape == c.shape
        lhs = np.sum(synth_gradient(grid, c) * fg)
        assert abs(lhs - np.sum(c * adjoint)) <= 1e-13 * np.sum(np.abs(c * adjoint))


def test_shape_mismatch_raises():
    grid = build_grid(8)
    with pytest.raises(ValueError):
        analyze(grid, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        synthesize(grid, np.zeros(10))


# ---------------------------------------------------------------------------
# Laplace-Beltrami
# ---------------------------------------------------------------------------


def test_laplacian_eigenvalues_degree_one():
    grid = build_grid(8)
    for m in (-1, 0, 1):
        c = _unit_coeff(grid, 1, m)
        assert np.allclose(laplace_beltrami(grid, c), -2.0 * c, atol=1e-14)


def test_laplacian_kills_constants():
    grid = build_grid(8)
    assert np.max(np.abs(laplace_beltrami(grid, _unit_coeff(grid, 0, 0)))) == 0.0


def test_laplacian_pointwise_degree_five():
    # Delta Y_{5,3} = -30 Y_{5,3} pointwise, with Delta f = f_tt + cot(theta)
    # f_t + f_pp / sin^2(theta) from the pointwise derivatives
    grid = build_grid(16)
    c = _unit_coeff(grid, 5, 3)
    th, ph = np.repeat(grid.theta, grid.nphi), np.tile(grid.phi, grid.ntheta)
    _, ft, _, ftt, _, fpp = synth_at(c, th, ph, nderiv=2)
    pointwise = ftt + ft / np.tan(th) + fpp / np.sin(th) ** 2
    lhs = synthesize(grid, laplace_beltrami(grid, c)).ravel() - pointwise
    assert np.max(np.abs(lhs)) <= 1e-11


# ---------------------------------------------------------------------------
# Pointwise evaluation and derivatives
# ---------------------------------------------------------------------------


def test_synth_at_matches_grid_synthesis():
    grid = build_grid(10)
    rng = np.random.default_rng(1)
    c = rng.normal(size=grid.n_coeffs)
    th = np.repeat(grid.theta, grid.nphi)
    ph = np.tile(grid.phi, grid.ntheta)
    assert np.max(np.abs(synth_at(c, th, ph) - synthesize(grid, c).ravel())) <= 1e-12
    # stacked (K, 3) coefficients on the broadcast grid mesh, one meridian
    # as an outer probe, and both poles
    cs = rng.normal(size=(grid.n_coeffs, 3))
    mesh = synth_at(cs, grid.theta[:, None], grid.phi[None, :])
    meridian = synth_at(cs, grid.theta[:, None], grid.phi[None, 3:4])
    poles = synth_at(cs, np.array([0.0, np.pi]), 0.7)
    assert mesh.shape == grid.shape + (3,) and meridian.shape == (grid.ntheta, 1, 3)
    assert poles.shape == (2, 3)
    for k in range(3):
        assert np.max(np.abs(mesh[..., k] - synthesize(grid, cs[:, k]))) <= 1e-12
        assert np.max(np.abs(mesh[..., k].ravel() - synth_at(cs[:, k], th, ph))) <= 1e-12
        assert np.max(np.abs(meridian[:, 0, k] - mesh[:, 3, k])) <= 1e-12
        pole_1d = synth_at(cs[:, k], np.array([0.0, np.pi]), np.array([0.7, 0.7]))
        assert np.max(np.abs(poles[:, k] - pole_1d)) <= 1e-12


def test_synth_gradient_matches_pointwise_derivatives():
    grid = build_grid(10)
    rng = np.random.default_rng(2)
    c = rng.normal(size=grid.n_coeffs)
    ft, fp = synth_gradient(grid, c)
    th = np.repeat(grid.theta, grid.nphi)
    ph = np.tile(grid.phi, grid.ntheta)
    _, ft2, fp2 = synth_at(c, th, ph, nderiv=1)
    assert np.max(np.abs(ft.ravel() - ft2)) <= 1e-12
    assert np.max(np.abs(fp.ravel() - fp2)) <= 1e-12
    # a (K, 3) stack: each component matches its 1-D gradient
    cs = rng.normal(size=(grid.n_coeffs, 3))
    fts, fps = synth_gradient(grid, cs)
    assert fts.shape == fps.shape == (3,) + grid.shape
    for k in range(3):
        ft, fp = synth_gradient(grid, cs[:, k])
        assert rel_gap(fts[k], ft) <= 1e-14
        assert rel_gap(fps[k], fp) <= 1e-14


def test_first_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(8 + 1) ** 2)
    th = rng.uniform(0.3, np.pi - 0.3, size=40)
    ph = rng.uniform(0.0, 2 * np.pi, size=40)
    _, ft, fp = synth_at(c, th, ph, nderiv=1)
    h = 1e-3
    ft_fd = fd4(lambda t: synth_at(c, t, ph), th, h)
    fp_fd = fd4(lambda p: synth_at(c, th, p), ph, h)
    # truncation error of the fourth-order stencil grows with the field scale
    tol = 1e-9 * (1.0 + np.max(np.abs(ft_fd)) + np.max(np.abs(fp_fd)))
    assert np.max(np.abs(ft - ft_fd)) <= tol
    assert np.max(np.abs(fp - fp_fd)) <= tol


def test_second_derivatives_match_finite_differences():
    rng = np.random.default_rng(4)
    c = rng.normal(size=(8 + 1) ** 2)
    th = rng.uniform(0.3, np.pi - 0.3, size=40)
    ph = rng.uniform(0.0, 2 * np.pi, size=40)
    _, _, _, ftt, ftp, fpp = synth_at(c, th, ph, nderiv=2)
    h = 1e-3
    ftt_fd = fd4(lambda t: synth_at(c, t, ph, nderiv=1)[1], th, h)
    ftp_fd = fd4(lambda p: synth_at(c, th, p, nderiv=1)[1], ph, h)
    fpp_fd = fd4(lambda p: synth_at(c, th, p, nderiv=1)[2], ph, h)
    scale = 1.0 + max(np.max(np.abs(a)) for a in (ftt_fd, ftp_fd, fpp_fd))
    assert np.max(np.abs(ftt - ftt_fd)) <= 1e-9 * scale
    assert np.max(np.abs(ftp - ftp_fd)) <= 1e-9 * scale
    assert np.max(np.abs(fpp - fpp_fd)) <= 1e-9 * scale


def test_pointwise_evaluation_at_poles_is_finite():
    rng = np.random.default_rng(5)
    c = rng.normal(size=(6 + 1) ** 2)
    out = synth_at(c, np.array([0.0, np.pi]), np.array([0.3, 1.1]))
    assert np.all(np.isfinite(out))


def test_theta_derivatives_exact_at_poles():
    # f = sqrt(3 / 4 pi) x + sqrt(15 / 4 pi) xz = (a sin t + b sin 2t / 2) cos p
    # at the poles themselves, where the Legendre tables have no 1/sin(theta)
    # to lean on: f_t = (a cos t + b cos 2t) cos p, f_tt = -(a sin t + 2 b sin 2t) cos p
    c = np.zeros(9)
    c[coeff_index(1, 1)] = 1.0
    c[coeff_index(2, 1)] = 1.0
    a, b = np.sqrt(3 / (4 * np.pi)), np.sqrt(15 / (4 * np.pi))
    th, ph = np.array([0.0, np.pi]), np.array([0.4, 0.4])
    _, ft, _, ftt, _, _ = synth_at(c, th, ph, nderiv=2)
    assert np.max(np.abs(ft - (a * np.cos(th) + b * np.cos(2 * th)) * np.cos(ph))) <= 1e-14
    assert np.max(np.abs(ftt + (a * np.sin(th) + 2 * b * np.sin(2 * th)) * np.cos(ph))) <= 1e-14


# ---------------------------------------------------------------------------
# Mobius dilations
# ---------------------------------------------------------------------------


def test_mobius_zero_is_identity():
    grid = build_grid(8)
    pts = grid.unit_vectors.reshape(-1, 3)
    assert np.max(np.abs(mobius_map(pts, np.zeros(3)) - pts)) == 0.0
    f = grid.unit_vectors[..., 0] ** 2
    pulled, factor = apply_mobius(grid, f, np.zeros(3))
    assert np.max(np.abs(factor - 1.0)) <= 1e-15
    assert np.max(np.abs(pulled - f)) <= 1e-12


def test_mobius_parameter_outside_ball_rejected():
    with pytest.raises(ValueError):
        mobius_map(np.array([[0.0, 0.0, 1.0]]), np.array([0.0, 0.0, 1.0]))


def test_mobius_inverse_composition():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(50, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    for b in (np.array([0.0, 0.0, 0.3]), np.array([0.2, -0.4, 0.1])):
        back = mobius_map(mobius_map(pts, b), -b)
        assert np.max(np.abs(back - pts)) <= 1e-14


def test_mobius_images_stay_on_sphere():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(50, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    moved = mobius_map(pts, np.array([0.3, 0.1, -0.5]))
    assert np.max(np.abs(np.linalg.norm(moved, axis=1) - 1.0)) <= 1e-14


def test_conformal_factor_area_identity():
    grid = build_grid(20)
    pts = grid.unit_vectors.reshape(-1, 3)
    for b in (np.array([0.0, 0.0, 0.3]), np.array([0.25, -0.1, 0.35])):
        e2w = np.exp(2 * mobius_log_factor(pts, b)).reshape(grid.shape)
        assert abs(grid.integrate(e2w) - 4 * np.pi) <= 1e-10


def test_mobius_matches_stereographic_oracle():
    s = 0.3
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(80, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    want = stereographic_dilation(pts, s)
    got = mobius_map(pts, np.array([0.0, 0.0, s]))
    assert np.max(np.abs(got - want)) <= 1e-13


def test_apply_mobius_on_linear_field():
    # f = x3 is band limited (degree 1), so the pullback resampling is exact
    # and must equal the third component of the mapped points.
    grid = build_grid(12)
    b = np.array([0.0, 0.0, 0.3])
    f = grid.unit_vectors[..., 2]
    pulled, _ = apply_mobius(grid, f, b)
    pts = grid.unit_vectors.reshape(-1, 3)
    want = stereographic_dilation(pts, 0.3)[:, 2].reshape(grid.shape)
    assert np.max(np.abs(pulled - want)) <= 1e-11


def test_apply_mobius_preserves_conformal_area():
    grid = build_grid(24)
    coeffs = np.zeros(grid.n_coeffs)
    coeffs[coeff_index(1, 0)] = 0.03
    coeffs[coeff_index(2, 1)] = 0.02
    coeffs[coeff_index(3, -2)] = 0.015
    u = synthesize(grid, coeffs)
    b = np.array([0.1, -0.05, 0.2])
    pulled, factor = apply_mobius(grid, u, b)
    w = 0.5 * np.log(factor)
    area0 = grid.integrate(np.exp(2 * u))
    area1 = grid.integrate(np.exp(2 * (pulled + w)))
    assert abs(area1 - area0) <= 1e-12


# ---------------------------------------------------------------------------
# Center-of-mass gauge
# ---------------------------------------------------------------------------


def test_center_gauge_zero_field():
    grid = build_grid(12)
    u, b = center_gauge(grid, np.zeros(grid.shape))
    assert np.max(np.abs(b)) == 0.0
    assert np.max(np.abs(u)) == 0.0


def test_center_gauge_fixed_point():
    # An even axisymmetric u already satisfies the gauge, so b stays 0.
    grid = build_grid(16)
    u = 0.1 * synthesize(grid, _unit_coeff(grid, 2, 0))
    ug, b = center_gauge(grid, u)
    assert np.max(np.abs(b)) <= 1e-10
    assert np.max(np.abs(ug - u)) <= 1e-9


def test_center_gauge_first_harmonic_bias():
    grid = build_grid(16)
    u = 0.05 * grid.unit_vectors[..., 2]
    root = axisymmetric_gauge_root(grid, u)
    # frozen from the bisection oracle
    assert abs(root - 0.024978158089487) <= 1e-6
    ug, b = center_gauge(grid, u)
    assert np.max(np.abs(conformal_moments(grid, ug))) <= 1e-10
    assert np.max(np.abs(b[:2])) <= 1e-8  # aligned with e3
    assert abs(b[2] - root) <= 1e-9


def test_center_gauge_is_idempotent():
    grid = build_grid(16)
    rng = np.random.default_rng(9)
    coeffs = np.zeros(grid.n_coeffs)
    coeffs[coeff_index(1, -1)] = 0.04
    coeffs[coeff_index(1, 1)] = -0.03
    coeffs[coeff_index(2, 0)] = 0.05
    u = synthesize(grid, coeffs)
    u1, b1 = center_gauge(grid, u)
    u2, b2 = center_gauge(grid, u1)
    assert np.max(np.abs(u2 - u1)) <= 1e-9
    assert np.max(np.abs(b2)) <= 1e-9


def test_center_gauge_preserves_conformal_area():
    grid = build_grid(16)
    u = 0.05 * grid.unit_vectors[..., 2]
    ug, _ = center_gauge(grid, u)
    a0 = grid.integrate(np.exp(2 * u))
    a1 = grid.integrate(np.exp(2 * ug))
    assert abs(a1 - a0) <= 1e-10
