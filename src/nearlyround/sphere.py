"""Spectral substrate on the unit sphere.

Gauss-Legendre x uniform-phi grids, real orthonormal spherical harmonics,
forward/inverse transforms with analytic angular derivatives, the conformal
(Mobius) dilations of the round sphere, and the center-of-mass gauge fix.

Conventions
-----------
* Grid: band limit L gives L+1 Gauss-Legendre nodes in cos(theta) and 2L+2
  uniform phi nodes.  Quadrature is exact for spherical polynomials through
  degree 2L (in fact 2L+1).
* Real harmonics Y_{l,m}: m > 0 pairs with sqrt(2) cos(m phi), m < 0 with
  sqrt(2) sin(|m| phi), normalized so that the integral of Y^2 over the
  sphere is 1.  Coefficient index: l*(l+1) + m.
* Scalar fields are (ntheta, nphi) arrays sampled at grid nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
    """d/dtheta of the normalized associated Legendre table `p` at mu."""
    mu = np.asarray(mu, dtype=float)
    s = np.sqrt(np.clip(1.0 - mu * mu, 0.0, None))
    dp = np.zeros_like(p)
    inv_s = 1.0 / np.where(s == 0.0, 1.0, s)
    for m in range(0, L + 1):
        for l in range(m, L + 1):
            if l == 0:
                continue
            c = np.sqrt((2.0 * l + 1.0) / (2.0 * l - 1.0) * (l * l - m * m))
            pm1 = p[l - 1, m] if l - 1 >= m else 0.0
            dp[l, m] = (l * mu * p[l, m] - c * pm1) * inv_s
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
            raise ValueError("band limit must be >= 1")
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
            L = self.L
            K = self.n_coeffs
            p = normalized_legendre(L, self.mu)
            dp = normalized_legendre_dtheta(L, self.mu, p)
            cos_m = np.cos(np.outer(np.arange(L + 1), self.phi))
            sin_m = np.sin(np.outer(np.arange(L + 1), self.phi))
            S = np.empty((self.n_nodes, K))
            Dt = np.empty_like(S)
            Dp = np.empty_like(S)
            r2 = np.sqrt(2.0)
            for l in range(L + 1):
                for m in range(-l, l + 1):
                    k = coeff_index(l, m)
                    am = abs(m)
                    if m == 0:
                        trig, dtrig = np.ones(self.nphi), np.zeros(self.nphi)
                        fac = 1.0
                    elif m > 0:
                        trig, dtrig = cos_m[m], -m * sin_m[m]
                        fac = r2
                    else:
                        trig, dtrig = sin_m[am], am * cos_m[am]
                        fac = r2
                    S[:, k] = fac * np.outer(p[l, am], trig).ravel()
                    Dt[:, k] = fac * np.outer(dp[l, am], trig).ravel()
                    Dp[:, k] = fac * np.outer(p[l, am], dtrig).ravel()
            self._cache["basis"] = (S, Dt, Dp)
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


def analyze(grid: SphereGrid, f: np.ndarray) -> np.ndarray:
    """Harmonic coefficients of a scalar field (exact through degree L)."""
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise ValueError(
            f"field shape {f.shape} does not match grid shape {grid.shape}"
        )
    return grid.synthesis_matrix.T @ (grid.weights * f).ravel()


def synthesize(grid: SphereGrid, coeffs: np.ndarray) -> np.ndarray:
    """Scalar field at the grid nodes from harmonic coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (grid.n_coeffs,):
        raise ValueError(
            f"{coeffs.shape[0] if coeffs.ndim == 1 else coeffs.shape} "
            f"coefficients do not match band limit {grid.L} "
            f"(expected {grid.n_coeffs})"
        )
    return (grid.synthesis_matrix @ coeffs).reshape(grid.shape)


def synth_gradient(grid: SphereGrid, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d/dtheta, d/dphi) fields of the synthesized function."""
    ft = (grid.dtheta_matrix @ coeffs).reshape(grid.shape)
    fp = (grid.dphi_matrix @ coeffs).reshape(grid.shape)
    return ft, fp


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
    """Evaluate a harmonic expansion (and derivatives) at arbitrary points.

    Returns f for nderiv=0; (f, f_theta, f_phi) for nderiv=1; and
    (f, f_t, f_p, f_tt, f_tp, f_pp) for nderiv=2.
    """
    K = len(coeffs)
    L = int(round(np.sqrt(K))) - 1
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    mu = np.cos(theta)
    p = normalized_legendre(L, mu)
    dp = normalized_legendre_dtheta(L, mu, p) if nderiv >= 1 else None
    npts = theta.shape[0]
    f = np.zeros(npts)
    ft = np.zeros(npts) if nderiv >= 1 else None
    fp = np.zeros(npts) if nderiv >= 1 else None
    ftt = np.zeros(npts) if nderiv >= 2 else None
    ftp = np.zeros(npts) if nderiv >= 2 else None
    fpp = np.zeros(npts) if nderiv >= 2 else None
    if nderiv >= 2:
        s = np.sin(theta)
        cot = np.cos(theta) / s
        inv_s2 = 1.0 / (s * s)
    r2 = np.sqrt(2.0)
    for l in range(L + 1):
        for m in range(-l, l + 1):
            c = coeffs[coeff_index(l, m)]
            if c == 0.0:
                continue
            am = abs(m)
            if m == 0:
                trig = np.ones(npts)
                dtrig = np.zeros(npts)
                fac = 1.0
            elif m > 0:
                trig = np.cos(m * phi)
                dtrig = -m * np.sin(m * phi)
                fac = r2
            else:
                trig = np.sin(am * phi)
                dtrig = am * np.cos(am * phi)
                fac = r2
            base = fac * p[l, am]
            f += c * base * trig
            if nderiv >= 1:
                dbase = fac * dp[l, am]
                ft += c * dbase * trig
                fp += c * base * dtrig
            if nderiv >= 2:
                # Associated Legendre ODE gives the second theta derivative.
                d2base = -cot * dbase - (l * (l + 1.0) - am * am * inv_s2) * base
                ftt += c * d2base * trig
                ftp += c * dbase * dtrig
                fpp += c * base * (-(am * am) * trig)
    if nderiv == 0:
        return f
    if nderiv == 1:
        return f, ft, fp
    return f, ft, fp, ftt, ftp, fpp


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


def center_gauge(
    grid: SphereGrid,
    u: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 50,
):
    """Compose u with a conformal dilation so the e^{2u} measure is centered.

    Finds b with int e^{2u'} x_i = 0 for u' = u o Phi_b + w_b and returns
    (u', b).  Damped Newton with a finite-difference Jacobian; raises
    RuntimeError if the moment norm cannot be driven below tol.
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
    for _ in range(max_iter):
        if np.max(np.abs(res)) <= tol:
            ug = gauged(b)
            return ug, b
        h = 1e-6
        jac = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            jac[:, j] = (moments(b + e) - moments(b - e)) / (2.0 * h)
        step = np.linalg.solve(jac, -res)
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
            raise RuntimeError("center gauge: damped Newton stalled")
    if np.max(np.abs(res)) <= tol:
        return gauged(b), b
    raise RuntimeError("center gauge: no convergence within iteration budget")
