"""Solid harmonics r^l Y_lm as jets: the independent cross-check of the basis.

metrics._solid_harmonic builds r^l Y_lm with its gradient and Hessian from
Cartesian recurrences and product-rule jet arithmetic; the sphere module
builds Y_lm through Legendre recurrences in theta.  Agreement of the two
routes validates both.  sympy builds the same polynomials from the
textbook formula and differentiates them, an oracle for the jet's
gradient and Hessian.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from nearlyround import metrics as M
from nearlyround.sphere import build_grid, coeff_index, synthesize


def solid(points, l, m):
    """r^l Y_lm with value v (N,), gradient d (N, 3) and Hessian h (N, 3, 3);
    the library's jets keep the node axis last and pack the symmetric
    Hessian as (6, N), so it is unpacked and the node axis moved first here.
    At l = 0 the library returns the number Y_00, taken here as a constant jet."""
    x, y, z = M._coordinates(np.atleast_2d(points))
    S = 0.0 * x + M._solid_harmonic(x, y, z, l, m)
    return SimpleNamespace(v=S.v, d=np.moveaxis(S.d, -1, 0), h=np.moveaxis(S.h[M._PACK], -1, 0))


def test_agrees_with_spectral_basis_on_unit_sphere():
    grid = build_grid(10)
    xyz = grid.unit_vectors.reshape(-1, 3)
    for l in range(9):
        for m in range(-l, l + 1):
            jet = solid(xyz, l, m).v.reshape(grid.shape)
            coeffs = np.zeros(grid.n_coeffs)
            coeffs[coeff_index(l, m)] = 1.0
            spectral = synthesize(grid, coeffs)
            assert np.max(np.abs(jet - spectral)) <= 1e-13, (l, m)


def test_polynomials_are_harmonic():
    # the Hessian is trace free: r^l Y_lm solves the flat Laplace equation
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(30, 3)) * 2.0
    for l, m in [(1, 0), (2, -1), (3, 3), (4, -2), (5, 0), (6, 4), (8, -7)]:
        S = solid(pts, l, m)
        lap = np.trace(S.h, axis1=1, axis2=2)
        scale = np.max(np.abs(S.h)) + 1.0
        assert np.max(np.abs(lap)) <= 1e-13 * scale, (l, m)


def test_homogeneity_degree_l():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 3))
    t = 1.7
    for l, m in [(1, 1), (2, 0), (3, -2), (5, 4)]:
        S, St = solid(pts, l, m), solid(t * pts, l, m)
        assert np.allclose(St.v, t**l * S.v, rtol=1e-13), (l, m)
        assert np.allclose(St.d, t ** (l - 1) * S.d, rtol=1e-13), (l, m)
        # Euler's relation for a degree-l homogeneous function
        assert np.allclose(np.einsum("ni,ni->n", pts, S.d), l * S.v, rtol=1e-12), (l, m)


def test_orthonormal_under_sphere_quadrature():
    grid = build_grid(12)
    xyz = grid.unit_vectors.reshape(-1, 3)
    w = grid.weights.ravel()
    pairs = [((3, 2), (3, 2), 1.0), ((3, 2), (2, 1), 0.0), ((4, -3), (4, -3), 1.0),
             ((4, -3), (4, 3), 0.0), ((1, 0), (3, 0), 0.0)]
    for (l1, m1), (l2, m2), want in pairs:
        f = solid(xyz, l1, m1).v * solid(xyz, l2, m2).v
        assert abs(np.sum(w * f) - want) <= 1e-12


def sympy_solid_harmonic(sp, x, y, z, l, m):
    """r^l Y_lm from the textbook formula: with P_l^m = (1 - mu^2)^(m/2)
    d^m P_l / dmu^m (no Condon-Shortley phase), r^l P_l^|m|(z/r) e^{i|m|phi}
    is (x + i y)^|m| r^(l-|m|) P_l^(|m|)(z/r), a polynomial."""
    am = abs(m)
    mu = sp.Symbol("mu")
    r = sp.sqrt(x**2 + y**2 + z**2)
    radial = sp.expand(r ** (l - am) * sp.diff(sp.legendre(l, mu), mu, am).subs(mu, z / r))
    sectoral = sp.expand((x + sp.I * y) ** am)
    angular = sp.re(sectoral) if m >= 0 else sp.im(sectoral)
    norm = sp.sqrt((2 * l + 1) / (4 * sp.pi) * sp.factorial(l - am) / sp.factorial(l + am))
    return (norm if m == 0 else sp.sqrt(2) * norm) * angular * radial


def test_gradient_and_hessian_match_sympy():
    sp = pytest.importorskip("sympy")
    x, y, z = sp.symbols("x y z", real=True)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(25, 3)) * 1.5
    n = len(pts)

    def evaluate(expr):
        return np.broadcast_to(sp.lambdify((x, y, z), expr, "numpy")(*pts.T), (n,))

    for l, m in [(2, 2), (3, -1), (4, 0), (5, -3), (6, 5)]:
        poly = sympy_solid_harmonic(sp, x, y, z, l, m)
        grad = [sp.diff(poly, v) for v in (x, y, z)]
        want_v = evaluate(poly)
        want_d = np.stack([evaluate(g) for g in grad], axis=-1)
        want_h = np.stack([np.stack([evaluate(sp.diff(g, v)) for v in (x, y, z)], axis=-1)
                           for g in grad], axis=-2)
        S = solid(pts, l, m)
        for got, want in ((S.v, want_v), (S.d, want_d), (S.h, want_h)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (l, m)


def test_known_closed_forms():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(15, 3))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    cases = {
        (0, 0): np.sqrt(1 / (4 * np.pi)) * np.ones_like(x),
        (1, 0): np.sqrt(3 / (4 * np.pi)) * z,
        (1, 1): np.sqrt(3 / (4 * np.pi)) * x,
        (1, -1): np.sqrt(3 / (4 * np.pi)) * y,
        (2, 0): np.sqrt(5 / (16 * np.pi)) * (2 * z**2 - x**2 - y**2),
        (2, 2): np.sqrt(15 / (16 * np.pi)) * (x**2 - y**2),
        (2, -2): np.sqrt(15 / (4 * np.pi)) * x * y,
    }
    for (l, m), want in cases.items():
        got = solid(pts, l, m).v
        assert np.max(np.abs(got - want)) <= 1e-13, (l, m)


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        M.conformal_perturbed(1.0, 0.1, l=2, m_order=5)
