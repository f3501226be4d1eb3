"""Spectral substrate on the unit sphere.

Gauss-Legendre x uniform-phi grids, real orthonormal spherical harmonics,
forward/inverse transforms with analytic angular derivatives, the conformal
(Mobius) dilations of the round sphere, and the center-of-mass gauge fix.

Every transform runs through one O(L^3) core (Driscoll & Healy 1994;
Schaeffer, G^3 2013): coefficients scattered into a per-m amplitude table
through one cached flat index, one batched matrix product over m against
the grid's per-m Legendre table (values or theta derivatives), then the
phi sum as one matrix product with the grid's real DFT table, or with its
phi derivative for d/dphi, both operands handed to BLAS transposed so the
node rows come out contiguous; `analyze` and `synth_gradient_adjoint` are
its transposes.  No step copies or reorders a field.  Through
MAX_BAND_LIMIT the phi products cost about what an FFT does (faster on
stacked fields, up to a fifth slower on one field at L >= 64), and at
most about as much as the per-m Legendre products beside them.
`synth_at` shares the table layout and Legendre step, with an explicit phi
sum at scattered points.  SphereGrid's dense matrices are oracles built on
demand.

The band-limit tables (nodes, weights, Legendre rows, the phi tables,
and embedding's tables) are functions of the integer L, cached by L and
read-only (`band_limit_table`); the coefficient layout is cached the same
way per L and component count.  A SphereGrid is a plain value: grids of
one L share every table, and each table is built once per process.

Conventions
-----------
* Grid: band limit L gives L+1 Gauss-Legendre nodes in cos(theta) and 2L+2
  uniform phi nodes.  Quadrature is exact for spherical polynomials through
  degree 2L (in fact 2L+1).
* Real harmonics Y_{l,m}: m > 0 pairs with sqrt(2) cos(m phi), m < 0 with
  sqrt(2) sin(|m| phi), normalized so that the integral of Y^2 over the
  sphere is 1.  Coefficient index: l*(l+1) + m.
* Scalar fields are (ntheta, nphi) arrays sampled at grid nodes.  The
  transforms also take stacks: fields put their component axes first,
  (..., ntheta, nphi), so each component is one contiguous row of the
  n_nodes = ntheta nphi nodes and a stack reshapes to (c, n_nodes) rows
  without a copy; coefficients put them last, (n_coeffs, ...).
  `synth_gradient` returns the pair as one (2, ..., ntheta, nphi) array,
  which `synth_gradient_adjoint` takes back.  Node directions
  (`SphereGrid.unit_vectors`) are points, (ntheta, nphi, 3), as are
  `synth_at`'s outputs, with the component axis last.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError


def band_limit_table(build):
    """Decorator for a table that depends on the band limit alone: cache
    `build(L)` by L with functools.cache and return its array, or each array
    of its tuple and of the tuples nested in it, read-only, so no caller can
    change a table that every grid of that L shares."""

    def freeze(table):
        if isinstance(table, tuple):
            for part in table:
                freeze(part)
        else:
            table.setflags(write=False)
        return table

    def frozen(L: int):
        return freeze(build(L))

    return functools.cache(functools.wraps(build)(frozen))


def coeff_index(l: int, m: int) -> int:
    """Flat index of the (l, m) coefficient."""
    return l * (l + 1) + m


@band_limit_table
def coeff_degrees(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of l and m for each flat coefficient index, 0..(L+1)^2-1."""
    ls = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    return ls, np.arange((L + 1) ** 2) - ls * (ls + 1)


def normalized_legendre(L: int, mu: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values Pbar[l, m, :] at mu.

    Normalization: int_{S^2} (Pbar_l^m(cos th) e^{i m phi})^2-type harmonics
    have unit L2 norm; no Condon-Shortley phase.  Entries with m > l are 0.
    Accurate through MAX_BAND_LIMIT: a synthesize/analyze round trip of unit
    random coefficients is exact to 1.3e-13 at L = 64 and 4.4e-12 at L = 128.
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


@band_limit_table
def _nodes(L: int) -> tuple:
    """(mu, theta, phi, weights, unit_vectors) of the grid at band limit L,
    theta increasing from north to south."""
    mu, wgl = np.polynomial.legendre.leggauss(L + 1)
    order = np.argsort(-mu)
    mu = mu[order]
    theta = np.arccos(mu)
    phi = 2.0 * np.pi * np.arange(2 * L + 2) / (2 * L + 2)
    w = wgl[order] * (2.0 * np.pi / (2 * L + 2))
    weights = np.repeat(w[:, None], 2 * L + 2, axis=1)
    st, ct = np.sin(theta)[:, None], np.cos(theta)[:, None]
    unit = np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.broadcast_to(ct, weights.shape)], axis=-1
    )
    return mu, theta, phi, weights, unit


# The highest band limit a grid takes: twice the highest the tests run (64).
# At the pole row the sectoral Legendre seed, ~ sin(theta_0)^L, is 2.6e-222
# at L = 128 and underflows near L = 170 (subnormal 9.8e-316 there, 0 at 175).
MAX_BAND_LIMIT = 128


@dataclass(frozen=True)
class SphereGrid:
    """Gauss-Legendre x uniform-phi quadrature grid at band limit L; its
    arrays are the shared read-only tables of `_nodes(L)`."""

    L: int

    mu = property(lambda self: _nodes(self.L)[0], doc="cos(theta) of the node rows.")
    theta = property(lambda self: _nodes(self.L)[1], doc="Node colatitudes.")
    phi = property(lambda self: _nodes(self.L)[2], doc="Node longitudes.")
    weights = property(lambda self: _nodes(self.L)[3], doc="Weights, (ntheta, nphi).")
    unit_vectors = property(
        lambda self: _nodes(self.L)[4], doc="Node directions, (ntheta, nphi, 3)."
    )

    def __post_init__(self):
        try:
            operator.index(self.L)
        except TypeError:
            raise ConfigError(f"band limit must be an integer, got {self.L!r}") from None
        if not 1 <= self.L <= MAX_BAND_LIMIT:
            raise ConfigError(
                f"band limit must be between 1 and {MAX_BAND_LIMIT}, got {self.L}"
            )

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

    def integrate(self, f: np.ndarray) -> float:
        """Quadrature of a scalar field against the round measure."""
        return float(np.sum(self.weights * f))

    def _dense(self, deriv: int) -> np.ndarray:
        """Dense (n_nodes, n_coeffs) matrix of synthesize, d/dtheta or d/dphi
        (deriv 0, 1, 2) from explicit cos/sin rows, built on every call."""
        ls, ms = coeff_degrees(self.L)
        leg = _legendre_rows(self.L)[int(deriv != 1)][np.abs(ms), :, ls]
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
# The transform core: per-m amplitudes, per-m Legendre sums, phi tables
# ---------------------------------------------------------------------------


@functools.cache
def _amplitude_layout(L: int, ncomp: int) -> tuple:
    """(slots, scale) of a row-major (n_coeffs, ncomp) coefficient block in
    the per-m amplitude table (m, re/im, ncomp, l), whose entry (m, l)
    holds Z = c_{l,0} (m = 0) or sqrt(2) (c_{l,m} - i c_{l,-m}) (m > 0), so
    a field is sum_m Re(e^{i m phi} sum_l Pbar_l^m Z).  slots is the flat
    index of each entry in the table and scale its factor, both flat and
    read-only, cached per (L, ncomp): a scatter or gather is one 1-D take
    and one product."""
    ls, ms = coeff_degrees(L)
    rows = (2 * np.abs(ms) + (ms < 0))[:, None] * ncomp + np.arange(ncomp)
    slots = (rows * (L + 1) + ls[:, None]).ravel()
    scale = np.where(ms == 0, 1.0, np.sign(ms) / np.sqrt(2.0)) * (1.0 + (ms != 0))
    scale = np.repeat(scale, ncomp)
    slots.setflags(write=False)
    scale.setflags(write=False)
    return slots, scale


def _amplitudes(L: int, coeffs: np.ndarray) -> np.ndarray:
    """(n_coeffs, ncomp) coefficients as the (m, 2 ncomp, l) amplitude table."""
    ncomp = coeffs.shape[1]
    slots, scale = _amplitude_layout(L, ncomp)
    z = np.zeros(2 * ncomp * (L + 1) ** 2)
    z[slots] = scale * coeffs.reshape(-1)
    return z.reshape(L + 1, 2 * ncomp, L + 1)


def _coefficients(L: int, b: np.ndarray) -> np.ndarray:
    """Transpose of `_amplitudes`: (m, 2 ncomp, l) to (n_coeffs, ncomp)."""
    ncomp = b.shape[1] // 2
    slots, scale = _amplitude_layout(L, ncomp)
    return (scale * b.reshape(-1).take(slots)).reshape(-1, ncomp)


@band_limit_table
def _legendre_rows(L: int) -> np.ndarray:
    """(2, m, ntheta, l) table at the grid's nodes: dPbar_l^m/dtheta, then
    Pbar_l^m."""
    p = normalized_legendre(L, _nodes(L)[0])
    return np.ascontiguousarray(np.stack([normalized_legendre_dtheta(p), p]).transpose(0, 2, 3, 1))


@band_limit_table
def _phi_table(L: int) -> np.ndarray:
    """(2, nphi, 2 (L+1)) real DFT tables.  Table 0 holds cos(m phi_p) in
    column 2m and -sin(m phi_p) in column 2m + 1, so row p applied to the
    (re, im) pairs of Z is sum_m Re(e^{i m phi_p} Z); table 1 is its phi
    derivative, -m sin(m phi_p) and -m cos(m phi_p), the sum of
    Re(i m e^{i m phi_p} Z).

    The angle m phi_p is 2 pi j / nphi with j = m p mod nphi, reduced
    exactly in integers to a first-quadrant index k and read from one
    quarter wave sin(2 pi k / nphi) = s[4k], cos(2 pi k / nphi) = s[nphi - 4k],
    so entries equal by symmetry are bitwise equal, cos(pi/2) is 0 and no
    large argument reaches np.sin.
    """
    n = 2 * L + 2
    j = np.outer(np.arange(n), np.arange(L + 1)) % n
    half = np.minimum(j, n - j)  # cos is even in j, sin odd
    k = np.minimum(half, n // 2 - half)  # cos flips sign across pi/2, sin not
    s = np.sin(np.arange(n + 1) * (np.pi / (2 * n)))
    cos = np.where(4 * half > n, -1.0, 1.0) * s[n - 4 * k]
    msin = np.where(2 * j > n, 1.0, -1.0) * s[4 * k]
    m = np.arange(L + 1.0)
    table, deriv = np.stack([cos, msin], axis=-1), m[:, None] * np.stack([msin, -cos], axis=-1)
    return np.stack([table, deriv]).reshape(2, n, -1) + 0.0  # + 0.0 clears -0.0


def _to_nodes(table: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The phi sum: (..., 2 (L+1), rows) amplitudes to (..., rows, nphi)
    fields, one product per `_phi_table` table.  Both operands enter BLAS
    transposed, so the node rows come out contiguous and nothing is copied."""
    return np.swapaxes(q, -1, -2) @ np.swapaxes(table, -1, -2)


def _from_nodes(table: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Transpose of `_to_nodes`: (..., rows, nphi) fields to the (re, im)
    parts of their phi sums, (..., 2 (L+1), rows)."""
    return np.swapaxes(table, -1, -2) @ np.swapaxes(f, -1, -2)


def analyze(grid: SphereGrid, f: np.ndarray) -> np.ndarray:
    """Harmonic coefficients of a field (exact through degree L).

    `f` is (ntheta, nphi) or a stack with leading component axes,
    (..., ntheta, nphi); the result is (n_coeffs,) plus those axes.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-2:] != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid shape {grid.shape}")
    rows = (grid.weights[:, :1] * f).reshape(-1, grid.nphi)
    t = _from_nodes(_phi_table(grid.L)[0], rows)
    b = t.reshape(grid.L + 1, -1, grid.ntheta) @ _legendre_rows(grid.L)[1]
    return _coefficients(grid.L, b).reshape((grid.n_coeffs,) + f.shape[:-2])


def synthesize(grid: SphereGrid, coeffs: np.ndarray) -> np.ndarray:
    """Field at the grid nodes from harmonic coefficients.

    `coeffs` is (n_coeffs,) or a stack (n_coeffs, ...); the result is the
    stack's axes, then (ntheta, nphi).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 0 or coeffs.shape[0] != grid.n_coeffs:
        raise ValueError(f"coefficients of shape {coeffs.shape} do not match band "
                         f"limit {grid.L} (expected {grid.n_coeffs} rows)")
    amps = _amplitudes(grid.L, coeffs.reshape(grid.n_coeffs, -1))
    q = amps @ np.swapaxes(_legendre_rows(grid.L)[1], 1, 2)
    f = _to_nodes(_phi_table(grid.L)[0], q.reshape(2 * (grid.L + 1), -1))
    return f.reshape(coeffs.shape[1:] + grid.shape)


def synth_gradient(grid: SphereGrid, coeffs: np.ndarray) -> np.ndarray:
    """The (d/dtheta, d/dphi) fields of the synthesized function or stack,
    one array (2, ..., ntheta, nphi): the theta derivative is the Legendre
    derivative table under the phi table, the phi derivative the Legendre
    table under the phi derivative table."""
    coeffs = np.asarray(coeffs, dtype=float)
    amps = _amplitudes(grid.L, coeffs.reshape(grid.n_coeffs, -1))
    q = amps @ np.swapaxes(_legendre_rows(grid.L), 2, 3)
    f = _to_nodes(_phi_table(grid.L), q.reshape(2, 2 * (grid.L + 1), -1))
    return f.reshape((2,) + coeffs.shape[1:] + grid.shape)


def synth_gradient_adjoint(grid: SphereGrid, f: np.ndarray) -> np.ndarray:
    """Dt^T f[0] + Dp^T f[1], the transpose of `synth_gradient`, without
    the matrices.  `f` is (2, ..., ntheta, nphi) as synth_gradient returns
    it; the result is (n_coeffs,) plus the stack's axes.  No quadrature
    weights."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != 2 or f.shape[-2:] != grid.shape:
        raise ValueError(f"gradient pair of shape {f.shape} does not match grid shape {grid.shape}")
    t = _from_nodes(_phi_table(grid.L), f.reshape(2, -1, grid.nphi))
    t = t.reshape(2, grid.L + 1, -1, grid.ntheta)
    leg = _legendre_rows(grid.L)
    b = t[0] @ leg[0]
    b += t[1] @ leg[1]
    return _coefficients(grid.L, b).reshape((grid.n_coeffs,) + f.shape[1:-2])


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
    q = _amplitudes(L, coeffs.reshape(K, -1)) @ table.transpose(1, 0, 2)
    q = q.reshape(L + 1, 2, -1, nderiv + 1, *theta.shape)
    # (theta derivative, m, component, theta...) amplitudes of e^{i m phi}
    q = np.moveaxis(q[:, 0] + 1j * q[:, 1], 2, 0)
    # d^n / dtheta^j dphi^(n-j) is theta-derivative j times (i m)^(n-j)
    im = 1j * np.arange(L + 1.0).reshape((L + 1, 1) + (1,) * theta.ndim)
    rows = [q[j] * im ** (n - j) for n in range(nderiv + 1) for j in range(n, -1, -1)]
    # the phi step: an explicit sum over m of Re(e^{i m phi} q_m)
    m = np.arange(L + 1.0).reshape((L + 1,) + (1,) * phi.ndim)
    out = np.einsum("emc...,m...->e...c", np.stack(rows), np.exp(1j * m * phi)).real
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
