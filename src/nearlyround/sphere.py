"""Spectral substrate on the unit sphere.

Gauss-Legendre x uniform-phi grids, real orthonormal spherical harmonics,
forward/inverse transforms with analytic angular derivatives, the conformal
(Mobius) dilations of the round sphere, and the center-of-mass gauge fix.

Every transform runs through one O(L^3) core (Driscoll & Healy 1994;
Schaeffer, G^3 2013): coefficients scattered into a per-m amplitude table,
one batched matrix product over m against the grid's per-m Legendre table
(values and theta derivatives), an inverse real FFT in phi; `analyze` and
`synth_gradient_adjoint` are its transposes.  `synth_at` shares the table
layout and Legendre step, with an explicit phi sum at scattered points.
SphereGrid's dense matrices are oracles built on demand.

Conventions
-----------
* Grid: band limit L gives L+1 Gauss-Legendre nodes in cos(theta) and 2L+2
  uniform phi nodes.  Quadrature is exact for spherical polynomials through
  degree 2L (in fact 2L+1).
* Real harmonics Y_{l,m}: m > 0 pairs with sqrt(2) cos(m phi), m < 0 with
  sqrt(2) sin(|m| phi), normalized so that the integral of Y^2 over the
  sphere is 1.  Coefficient index: l*(l+1) + m.
* Scalar fields are (ntheta, nphi) arrays sampled at grid nodes.  The
  transforms also take stacks with trailing component axes, (ntheta, nphi,
  ...) fields and (n_coeffs, ...) coefficients.
"""

from __future__ import annotations

import functools
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
    for l in range(1, L + 1):
        # all orders m < l at once; b vanishes at m = l - 1 (so at l = 1)
        m = np.arange(l).reshape((l,) + (1,) * mu.ndim)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        p[l, :l] = a * (mu * p[l - 1, :l] - b * p[max(l - 2, 0), :l])
    return p


def normalized_legendre_dtheta(p: np.ndarray) -> np.ndarray:
    """d/dtheta of a normalized associated Legendre table `p` (or of its
    theta derivatives): (a_lm Pbar_l^{m-1} - b_lm Pbar_l^{m+1}) / 2, with
    a_lm = sqrt((l+m)(l-m+1)), b_lm = sqrt((l-m)(l+m+1)), and -b_l0 Pbar_l^1
    for m = 0.  No 1/sin(theta): regular at and near the poles."""
    L = p.shape[0] - 1
    tail = (1,) * (p.ndim - 2)
    l = np.arange(L + 1.0).reshape((L + 1, 1) + tail)
    m = np.arange(L + 1.0).reshape((1, L + 1) + tail)
    a = np.sqrt(np.clip((l + m) * (l - m + 1.0), 0.0, None))
    b = np.sqrt(np.clip((l - m) * (l + m + 1.0), 0.0, None))
    b[:, 0] *= 2.0  # m = 0 has the Pbar^{m+1} term only, at full weight
    dp = np.zeros_like(p)
    dp[:, 1:] = a[:, 1:] * p[:, :-1]
    dp[:, :-1] -= b[:, :-1] * p[:, 1:]
    return 0.5 * dp


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
            st, ct = np.sin(self.theta)[:, None], np.cos(self.theta)[:, None]
            cp, sp = np.cos(self.phi), np.sin(self.phi)
            self._cache["unit_vectors"] = np.stack(
                [st * cp, st * sp, np.broadcast_to(ct, self.shape)], axis=-1
            )
        return self._cache["unit_vectors"]

    def integrate(self, f: np.ndarray) -> float:
        """Quadrature of a scalar field against the round measure."""
        return float(np.sum(self.weights * f))

    def _dense(self, deriv: int) -> np.ndarray:
        """Dense (n_nodes, n_coeffs) matrix of synthesize, d/dtheta or d/dphi
        (deriv 0, 1, 2) from explicit cos/sin rows, built on every call."""
        ls, ms = coeff_degrees(self.L)
        first = 0 if deriv == 1 else self.ntheta
        leg = _legendre_rows(self)[np.abs(ms), first : first + self.ntheta, ls]
        mphi, sine = np.outer(np.abs(ms), self.phi), (ms < 0)[:, None]
        trig = np.where(sine, np.sin(mphi), np.cos(mphi))
        if deriv == 2:
            trig = -ms[:, None] * np.where(sine, np.cos(mphi), np.sin(mphi))
        fac = np.where(ms == 0, 1.0, np.sqrt(2.0))[:, None]
        return np.einsum("kt,kp->tpk", fac * leg, trig).reshape(self.n_nodes, -1)

    @property
    def synthesis_matrix(self) -> np.ndarray:
        return self._dense(0)

    @property
    def dtheta_matrix(self) -> np.ndarray:
        return self._dense(1)

    @property
    def dphi_matrix(self) -> np.ndarray:
        return self._dense(2)


def build_grid(L: int) -> SphereGrid:
    """Quadrature grid at band limit L (see SphereGrid)."""
    return SphereGrid(L)


# ---------------------------------------------------------------------------
# The transform core: per-m amplitudes, per-m Legendre sums, FFT in phi
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _layout(L: int):
    """(row, part, scale, scale w_m) of each flat coefficient in the per-m
    amplitude table ((L+1)^2, ncomp, re/im).  Row m (L+1) + l holds Z = c_{l,0}
    (m = 0) or (c_{l,m} - i c_{l,-m}) / sqrt(2) (m > 0), so a field is
    sum_m w_m Re(e^{i m phi} sum_l Pbar_l^m Z) with w = (1, 2, 2, ...)."""
    ls, ms = coeff_degrees(L)
    scale = np.where(ms == 0, 1.0, np.sign(ms) / np.sqrt(2.0))
    return np.abs(ms) * (L + 1) + ls, (ms < 0).astype(int), scale, scale * (1.0 + (ms != 0))


def _amplitudes(L: int, coeffs: np.ndarray) -> np.ndarray:
    """(n_coeffs, ncomp) coefficients as the (m, l, 2 ncomp) amplitude table."""
    row, part, scale, _ = _layout(L)
    z = np.zeros(((L + 1) ** 2, coeffs.shape[1], 2))
    z[row, :, part] = scale[:, None] * coeffs
    return z.reshape(L + 1, L + 1, -1)


def _coefficients(L: int, b: np.ndarray) -> np.ndarray:
    """Transpose of `_amplitudes` and of the w_m of the phi sum."""
    row, part, _, wscale = _layout(L)
    return wscale[:, None] * b.reshape((L + 1) ** 2, -1, 2)[row, :, part]


def _legendre_rows(grid: SphereGrid) -> np.ndarray:
    """(m, 2 ntheta, l) table, cached: dPbar_l^m/dtheta rows, then Pbar_l^m."""
    if "legendre" not in grid._cache:
        p = normalized_legendre(grid.L, grid.mu)
        pd = np.concatenate([normalized_legendre_dtheta(p), p], axis=2)
        grid._cache["legendre"] = np.ascontiguousarray(pd.transpose(1, 2, 0))
    return grid._cache["legendre"]


def _to_nodes(grid: SphereGrid, q: np.ndarray) -> np.ndarray:
    """The phi sum by inverse real FFT: (m, rows, 2 ncomp) to (rows, nphi, ncomp)."""
    f = np.fft.irfft(q.view(complex), n=grid.nphi, axis=0, norm="forward")
    return np.ascontiguousarray(f.transpose(1, 0, 2))


def _from_nodes(grid: SphereGrid, f: np.ndarray) -> np.ndarray:
    """Transpose of `_to_nodes` less w_m: sums of f e^{-i m phi}, (m, rows, ncomp)."""
    t = np.fft.rfft(f, axis=1)[:, : grid.L + 1]
    return np.ascontiguousarray(t.transpose(1, 0, 2))


def analyze(grid: SphereGrid, f: np.ndarray) -> np.ndarray:
    """Harmonic coefficients of a field (exact through degree L).

    `f` is (ntheta, nphi) or carries trailing component axes,
    (ntheta, nphi, ...); the result is (n_coeffs,) plus the same axes.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[:2] != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid shape {grid.shape}")
    t = _from_nodes(grid, grid.weights[:, :1, None] * f.reshape(grid.shape + (-1,)))
    b = _legendre_rows(grid)[:, grid.ntheta :].transpose(0, 2, 1) @ t.view(float)
    return _coefficients(grid.L, b).reshape((grid.n_coeffs,) + f.shape[2:])


def synthesize(grid: SphereGrid, coeffs: np.ndarray) -> np.ndarray:
    """Field at the grid nodes from harmonic coefficients.

    `coeffs` is (n_coeffs,) or a stack (n_coeffs, ...); the result is
    (ntheta, nphi) plus the same trailing axes.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 0 or coeffs.shape[0] != grid.n_coeffs:
        raise ValueError(f"coefficients of shape {coeffs.shape} do not match band "
                         f"limit {grid.L} (expected {grid.n_coeffs} rows)")
    amps = _amplitudes(grid.L, coeffs.reshape(grid.n_coeffs, -1))
    q = _legendre_rows(grid)[:, grid.ntheta :] @ amps
    return _to_nodes(grid, q).reshape(grid.shape + coeffs.shape[1:])


def synth_gradient(grid: SphereGrid, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d/dtheta, d/dphi) fields of the synthesized function or stack."""
    coeffs = np.asarray(coeffs, dtype=float)
    q = _legendre_rows(grid) @ _amplitudes(grid.L, coeffs.reshape(grid.n_coeffs, -1))
    q.view(complex)[:, grid.ntheta :] *= 1j * np.arange(grid.L + 1.0)[:, None, None]
    return tuple(_to_nodes(grid, q).reshape((2,) + grid.shape + coeffs.shape[1:]))


def synth_gradient_adjoint(grid: SphereGrid, ft: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Dt^T ft + Dp^T fp, the transpose of `synth_gradient`, without the
    matrices.  `ft` and `fp` are (ntheta, nphi) plus the same trailing axes;
    the result is (n_coeffs,) plus those axes.  No quadrature weights."""
    pair = np.array([ft, fp], dtype=float)
    t = _from_nodes(grid, pair.reshape(2 * grid.ntheta, grid.nphi, -1))
    t[:, grid.ntheta :] *= -1j * np.arange(grid.L + 1.0)[:, None, None]
    b = _legendre_rows(grid).transpose(0, 2, 1) @ t.view(float)
    return _coefficients(grid.L, b).reshape((grid.n_coeffs,) + pair.shape[3:])


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
    legendre = [normalized_legendre(L, np.cos(theta))]
    for _ in range(nderiv):
        legendre.append(normalized_legendre_dtheta(legendre[-1]))
    # the per-m Legendre step of the grid transforms, tables stacked as rows
    table = np.stack(legendre, axis=2).reshape(L + 1, L + 1, -1)
    q = (table.transpose(1, 2, 0) @ _amplitudes(L, coeffs.reshape(K, -1))).view(complex)
    # (theta derivative, m, component, theta...) amplitudes of e^{i m phi}
    q = np.moveaxis(q.reshape((L + 1, nderiv + 1) + theta.shape + (-1,)), (1, -1), (0, 2))
    # d^n / dtheta^j dphi^(n-j) is theta-derivative j times (i m)^(n-j)
    im = 1j * np.arange(L + 1.0).reshape((L + 1, 1) + (1,) * theta.ndim)
    rows = [q[j] * im ** (n - j) for n in range(nderiv + 1) for j in range(n, -1, -1)]
    # the phi step: an explicit sum over m of w_m Re(e^{i m phi} q_m)
    m = np.arange(L + 1.0).reshape((L + 1,) + (1,) * phi.ndim)
    wexp = np.where(m == 0, 1.0, 2.0) * np.exp(1j * m * phi)
    out = np.einsum("emc...,m...->e...c", np.stack(rows), wexp).real
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
    return np.einsum("tp,tpk->k", grid.weights * np.exp(2.0 * u), grid.unit_vectors)


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
            return gauged(b), b
        h = 1e-6  # central differences along each axis
        jac = np.column_stack([moments(b + e) - moments(b - e) for e in h * np.eye(3)]) / (2.0 * h)
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
