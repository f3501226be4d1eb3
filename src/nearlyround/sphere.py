"""Spectral substrate on the unit sphere.

Gauss-Legendre x uniform-phi grids, real orthonormal spherical harmonics,
forward/inverse transforms with analytic angular derivatives, the conformal
(Mobius) dilations of the round sphere, and the center-of-mass gauge fix.

`synth_at` is the one off-grid evaluator: one coefficient vector or a
(K, ncomp) stack, at theta and phi arrays that broadcast against each other
(scattered points, or an outer mesh from theta[:, None] and phi[None, :]).
It contracts over l against the Legendre table of theta, then over m against
cos/sin(m phi).  The grid's dense basis matrices share that table and layout.

Conventions
-----------
* Grid: band limit L gives L+1 Gauss-Legendre nodes in cos(theta) and 2L+2
  uniform phi nodes.  Quadrature is exact for spherical polynomials through
  degree 2L (in fact 2L+1).
* Real harmonics Y_{l,m}: m > 0 pairs with sqrt(2) cos(m phi), m < 0 with
  sqrt(2) sin(|m| phi), normalized so that the integral of Y^2 over the
  sphere is 1.  Coefficient index: l*(l+1) + m.
* Scalar fields are (ntheta, nphi) arrays sampled at grid nodes.  analyze,
  synthesize and synth_gradient also take stacks with trailing component
  axes, (ntheta, nphi, ...) fields and (n_coeffs, ...) coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SolverError


def coeff_index(l: int, m: int) -> int:
    """Flat index of the (l, m) coefficient."""
    return l * (l + 1) + m


def coeff_degrees(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of l and m for each flat coefficient index, 0..(L+1)^2-1."""
    ls = np.concatenate([np.full(2 * l + 1, l) for l in range(L + 1)])
    ms = np.concatenate([np.arange(-l, l + 1) for l in range(L + 1)])
    return ls, ms


def normalized_legendre(L: int, mu: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values Pbar[l, m, :] at mu.

    Normalization: int_{S^2} (Pbar_l^m(cos th) e^{i m phi})^2-type harmonics
    have unit L2 norm; no Condon-Shortley phase.  Entries with m > l are 0.
    Stable for the band limits used here (L <= 64).
    """
    mu = np.asarray(mu, dtype=float)
    s = np.sqrt(np.clip(1.0 - mu * mu, 0.0, None))
    p = np.zeros((L + 1, L + 1) + mu.shape)
    p[0, 0] = np.sqrt(1.0 / (4.0 * np.pi))
    for m in range(1, L + 1):
        p[m, m] = np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * p[m - 1, m - 1]
    for m in range(0, L):
        p[m + 1, m] = np.sqrt(2.0 * m + 3.0) * mu * p[m, m]
    for m in range(0, L + 1):
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            p[l, m] = a * (mu * p[l - 1, m] - b * p[l - 2, m])
    return p


def normalized_legendre_dtheta(L: int, mu: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d/dtheta of the normalized associated Legendre table `p` at mu.

    dPbar_l^m/dtheta = (l mu Pbar_l^m - c_lm Pbar_{l-1}^m) / sin(theta) with
    c_lm = sqrt((2l+1)/(2l-1) (l^2 - m^2)); entries with m > l stay 0.
    """
    mu = np.asarray(mu, dtype=float)
    s = np.sqrt(np.clip(1.0 - mu * mu, 0.0, None))
    inv_s = 1.0 / np.where(s == 0.0, 1.0, s)
    tail = (1,) * mu.ndim
    l = np.arange(1, L + 1).reshape((L, 1) + tail)
    m = np.arange(L + 1).reshape((1, L + 1) + tail)
    lower = m <= l
    c = np.sqrt(np.where(lower, (2.0 * l + 1.0) / (2.0 * l - 1.0) * (l * l - m * m), 0.0))
    dp = np.zeros_like(p)
    dp[1:] = np.where(lower, (l * mu * p[1:] - c * p[:-1]) * inv_s, 0.0)
    return dp


@dataclass
class SphereGrid:
    """Gauss-Legendre x uniform-phi quadrature grid at band limit L."""

    L: int
    theta: np.ndarray = field(init=False, repr=False)
    phi: np.ndarray = field(init=False, repr=False)
    mu: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.L < 1:
            raise ConfigError(f"band limit must be >= 1, got {self.L}")
        mu, wgl = np.polynomial.legendre.leggauss(self.L + 1)
        order = np.argsort(-mu)  # theta increasing from north to south
        self.mu = mu[order]
        self.theta = np.arccos(self.mu)
        self.phi = 2.0 * np.pi * np.arange(2 * self.L + 2) / (2 * self.L + 2)
        w = wgl[order] * (2.0 * np.pi / (2 * self.L + 2))
        self.weights = np.repeat(w[:, None], 2 * self.L + 2, axis=1)
        self._cache: dict = {}

    @property
    def ntheta(self) -> int:
        return self.L + 1

    @property
    def nphi(self) -> int:
        return 2 * self.L + 2

    @property
    def n_nodes(self) -> int:
        return self.ntheta * self.nphi

    @property
    def n_coeffs(self) -> int:
        return (self.L + 1) ** 2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ntheta, self.nphi)

    @property
    def unit_vectors(self) -> np.ndarray:
        """Node directions on the unit sphere, shape (ntheta, nphi, 3)."""
        if "unit_vectors" not in self._cache:
            st = np.sin(self.theta)[:, None]
            ct = np.cos(self.theta)[:, None]
            cp = np.cos(self.phi)[None, :]
            sp = np.sin(self.phi)[None, :]
            self._cache["unit_vectors"] = np.stack(
                [st * cp, st * sp, np.broadcast_to(ct, (self.ntheta, self.nphi))],
                axis=-1,
            )
        return self._cache["unit_vectors"]

    def integrate(self, f: np.ndarray) -> float:
        """Quadrature of a scalar field against the round measure."""
        return float(np.sum(self.weights * f))

    def _basis_matrices(self):
        """Synthesis matrix and its theta/phi derivative companions.

        Rows are flattened nodes (theta-major), columns coefficients.
        """
        if "basis" not in self._cache:
            ls, ms = coeff_degrees(self.L)
            am = np.abs(ms)
            p = normalized_legendre(self.L, self.mu)
            dp = normalized_legendre_dtheta(self.L, self.mu, p)
            mphi = np.outer(np.arange(self.L + 1), self.phi)
            cos_m, sin_m = np.cos(mphi), np.sin(mphi)
            sine = (ms < 0)[:, None]
            # (K, nphi) rows: cos(m phi) for m >= 0, sin(|m| phi) for m < 0,
            # and their phi derivatives
            trig = np.where(sine, sin_m[am], cos_m[am])
            dtrig = -ms[:, None] * np.where(sine, cos_m[am], sin_m[am])
            fac = np.where(ms == 0, 1.0, np.sqrt(2.0))

            def columns(leg, rows):
                # node-major (ntheta, nphi, K), so the (N, K) reshape is a view
                out = np.empty(self.shape + (len(ms),))
                np.multiply(leg[ls, am].T[:, None, :], rows.T, out=out)
                out *= fac
                return out.reshape(self.n_nodes, -1)

            self._cache["basis"] = (
                columns(p, trig),
                columns(dp, trig),
                columns(p, dtrig),
            )
        return self._cache["basis"]

    @property
    def synthesis_matrix(self) -> np.ndarray:
        return self._basis_matrices()[0]

    @property
    def dtheta_matrix(self) -> np.ndarray:
        return self._basis_matrices()[1]

    @property
    def dphi_matrix(self) -> np.ndarray:
        return self._basis_matrices()[2]


def build_grid(L: int) -> SphereGrid:
    """Quadrature grid at band limit L (see SphereGrid)."""
    return SphereGrid(L)


def _apply(matrix: np.ndarray, a: np.ndarray, lead: int) -> np.ndarray:
    """`matrix` applied over the first `lead` axes of `a`, for each trailing
    component: (rows,) plus the trailing axes.

    A stack goes through one batched product of matrix-vector pairs, so
    each component comes out bitwise equal to its own 1-D call.
    """
    if a.ndim == lead:
        return matrix @ a.reshape(-1)
    cols = np.ascontiguousarray(a.reshape(matrix.shape[1], -1).T)[..., None]
    out = np.ascontiguousarray((matrix @ cols)[..., 0].T)
    return out.reshape(matrix.shape[:1] + a.shape[lead:])


def analyze(grid: SphereGrid, f: np.ndarray) -> np.ndarray:
    """Harmonic coefficients of a field (exact through degree L).

    `f` is (ntheta, nphi) or carries trailing component axes,
    (ntheta, nphi, ...); the result is (n_coeffs,) plus the same axes.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[:2] != grid.shape:
        raise ValueError(
            f"field shape {f.shape} does not match grid shape {grid.shape}"
        )
    w = grid.weights.reshape(grid.shape + (1,) * (f.ndim - 2))
    return _apply(grid.synthesis_matrix.T, w * f, 2)


def synthesize(grid: SphereGrid, coeffs: np.ndarray) -> np.ndarray:
    """Field at the grid nodes from harmonic coefficients.

    `coeffs` is (n_coeffs,) or a stack (n_coeffs, ...); the result is
    (ntheta, nphi) plus the same trailing axes.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 0 or coeffs.shape[0] != grid.n_coeffs:
        raise ValueError(
            f"{coeffs.shape[0] if coeffs.ndim == 1 else coeffs.shape} "
            f"coefficients do not match band limit {grid.L} "
            f"(expected {grid.n_coeffs})"
        )
    return _apply(grid.synthesis_matrix, coeffs, 1).reshape(grid.shape + coeffs.shape[1:])


def synth_gradient(grid: SphereGrid, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d/dtheta, d/dphi) fields of the synthesized function or stack."""
    coeffs = np.asarray(coeffs, dtype=float)
    shape = grid.shape + coeffs.shape[1:]
    ft = _apply(grid.dtheta_matrix, coeffs, 1).reshape(shape)
    return ft, _apply(grid.dphi_matrix, coeffs, 1).reshape(shape)


def laplace_beltrami(coeffs: np.ndarray) -> np.ndarray:
    """Round-sphere Laplacian in coefficient space: eigenvalues -l(l+1)."""
    K = len(coeffs)
    L = int(round(np.sqrt(K))) - 1
    if (L + 1) ** 2 != K:
        raise ValueError("coefficient vector length is not a square")
    ls, _ = coeff_degrees(L)
    return -ls * (ls + 1.0) * coeffs


def synth_at(
    coeffs: np.ndarray,
    theta: np.ndarray,
    phi: np.ndarray,
    nderiv: int = 0,
):
    """Evaluate harmonic expansions (and derivatives) at arbitrary points.

    `coeffs` is one expansion (K,) or a stack of them (K, ncomp).  `theta`
    and `phi` broadcast against each other: two (n,) arrays give n scattered
    points, theta[:, None] with phi[None, :] an outer mesh.  Each output has
    the broadcast shape, plus a trailing ncomp axis for stacked input.

    Returns f for nderiv=0; (f, f_theta, f_phi) for nderiv=1; and
    (f, f_t, f_p, f_tt, f_tp, f_pp) for nderiv=2.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    K = coeffs.shape[0]
    L = int(round(np.sqrt(K))) - 1
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    stacked = coeffs.reshape(K, -1)
    ls, ms = coeff_degrees(L)
    # (cos | sin, l, |m|, component) table of the normalized amplitudes
    table = np.zeros((2, L + 1, L + 1, stacked.shape[1]))
    table[(ms < 0).astype(int), ls, np.abs(ms)] = (
        np.where(ms == 0, 1.0, np.sqrt(2.0))[:, None] * stacked
    )
    mu = np.cos(theta)
    p = normalized_legendre(L, mu)
    legendre = [p]
    if nderiv >= 1:
        legendre.append(normalized_legendre_dtheta(L, mu, p))
    # 0..L along the l axis of the Legendre table (l, m, theta...) and along
    # the m axis of the l-contracted amplitudes (m, component, theta...)
    m = np.arange(L + 1.0).reshape((L + 1, 1) + (1,) * theta.ndim)
    if nderiv >= 2:
        # the l(l+1) term of the associated Legendre ODE, before the l-sum
        legendre.append(m * (m + 1.0) * p)
    q = np.einsum("slmc,dlm...->dsmc...", table, np.stack(legendre))

    def dphi(a):
        # d/dphi maps (cos, sin) amplitudes (a_c, a_s) to (m a_s, -m a_c)
        return np.stack([m * a[1], -m * a[0]])

    rows = [q[0]]
    if nderiv >= 1:
        rows += [q[1], dphi(q[0])]
    if nderiv >= 2:
        s = np.sin(theta)
        cot = np.cos(theta) / s
        inv_s2 = 1.0 / (s * s)
        rows += [-cot * q[1] - q[2] + m * m * inv_s2 * q[0], dphi(q[1]), -m * m * q[0]]
    mphi = np.multiply.outer(np.arange(L + 1.0), phi)
    trig = np.stack([np.cos(mphi), np.sin(mphi)])
    out = np.einsum("esmc...,sm...->e...c", np.stack(rows), trig)
    if coeffs.ndim == 1:
        out = out[..., 0]
    return out[0] if nderiv == 0 else tuple(out)


# ---------------------------------------------------------------------------
# Conformal dilations of the round sphere
# ---------------------------------------------------------------------------


def mobius_map(points: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Conformal dilation Phi_b of the unit sphere, |b| < 1.

    Phi_b(w) = [(1-|b|^2) w + 2 (1 + b.w) b] / (1 + |b|^2 + 2 b.w).
    Phi_0 is the identity and Phi_{-b} is the inverse of Phi_b.
    """
    b = np.asarray(b, dtype=float)
    beta = float(b @ b)
    if beta >= 1.0:
        raise ValueError("Mobius parameter must satisfy |b| < 1")
    t = points @ b
    denom = 1.0 + beta + 2.0 * t
    return ((1.0 - beta) * points + 2.0 * (1.0 + t)[..., None] * b) / denom[..., None]


def mobius_log_factor(points: np.ndarray, b: np.ndarray) -> np.ndarray:
    """w_b with Phi_b^* g0 = e^{2 w_b} g0 on the round sphere."""
    b = np.asarray(b, dtype=float)
    beta = float(b @ b)
    t = points @ b
    return np.log((1.0 - beta) / (1.0 + beta + 2.0 * t))


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


def conformal_moments(grid: SphereGrid, u: np.ndarray) -> np.ndarray:
    """The three first moments of the conformal measure, int e^{2u} x_i."""
    e2u = np.exp(2.0 * u)
    x = grid.unit_vectors
    return np.array([grid.integrate(e2u * x[..., i]) for i in range(3)])


# moment size at which the conformal measure counts as centered, and the
# Newton steps allowed to get there
_GAUGE_TOL = 1e-10
_GAUGE_MAX_ITER = 50


def center_gauge(grid: SphereGrid, u: np.ndarray):
    """Compose u with a conformal dilation so the e^{2u} measure is centered.

    Finds b with int e^{2u'} x_i = 0 for u' = u o Phi_b + w_b and returns
    (u', b).  Damped Newton with a finite-difference Jacobian; raises
    SolverError if the moment norm cannot be driven below _GAUGE_TOL.
    """
    u = np.asarray(u, dtype=float)
    coeffs = analyze(grid, u)
    pts = grid.unit_vectors.reshape(-1, 3)

    def gauged(b):
        if not np.any(b):
            return u
        moved = mobius_map(pts, b)
        theta = np.arccos(np.clip(moved[:, 2], -1.0, 1.0))
        phi = np.arctan2(moved[:, 1], moved[:, 0])
        w = mobius_log_factor(pts, b)
        return (synth_at(coeffs, theta, phi) + w).reshape(grid.shape)

    def moments(b):
        return conformal_moments(grid, gauged(b))

    b = np.zeros(3)
    res = moments(b)
    for _ in range(_GAUGE_MAX_ITER):
        if np.max(np.abs(res)) <= _GAUGE_TOL:
            ug = gauged(b)
            return ug, b
        h = 1e-6
        jac = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            jac[:, j] = (moments(b + e) - moments(b - e)) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"center gauge: singular moment Jacobian ({exc})") from exc
        lam = 1.0
        for _ in range(12):
            b_new = b + lam * step
            if b_new @ b_new >= 0.9025:  # keep |b| <= 0.95
                lam *= 0.5
                continue
            res_new = moments(b_new)
            if np.linalg.norm(res_new) < np.linalg.norm(res):
                b, res = b_new, res_new
                break
            lam *= 0.5
        else:
            raise SolverError("center gauge: damped Newton stalled")
    if np.max(np.abs(res)) <= _GAUGE_TOL:
        return gauged(b), b
    raise SolverError("center gauge: no convergence within iteration budget")
