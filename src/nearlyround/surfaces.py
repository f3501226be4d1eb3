"""Closed surfaces in the asymptotically flat end: fundamental forms,
curvature, nearly-round diagnostics, and the identity residual checks.

A surface is a smooth immersion of the sphere sampled on a SphereGrid;
the three Cartesian position components are the primary data and all
differentiation acts on them (or on Cartesian components of derived
fields) spectrally, one stacked transform per field.  (theta, phi)-
components of tangent tensors are assembled pointwise, never
differentiated, so the poles cost nothing.

fundamental_forms builds the one FundamentalData record of a surface in
an ambient: its node tangents, the ambient metric jets and decay order,
the forms, H, K and the area.  The masses read only H, K and the area.
tracefree_gradient(fd) computes grad Aring for the roundness diagnostics
alone.  The identity residuals read two records of one surface, the
flat fd_hat and the curved fd: second_form_transform_residual,
mean_curvature_expansion_residual, divergence_identity_gap and
mean_curvature_integral_residual take (fd_hat, fd), and
distance_hessian_residual takes fd_hat.  None of them re-evaluates the
metric or transforms a field.

Frame conventions: tangent index a in {0, 1} is the (theta, phi)
coordinate frame; ambient indices i, j, k are Cartesian.  The second
fundamental form is A(X, Y) = g(D_X nu, Y) with nu the outward unit
normal, so round spheres have H = 2/r > 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import metrics as mcat
from .errors import SolverError
from .sphere import SphereGrid, analyze, synth_gradient

__all__ = [
    "DegenerateInducedMetric",
    "NonConvexSurface",
    "Immersion",
    "FundamentalData",
    "immerse_radial",
    "coordinate_sphere",
    "fundamental_forms",
    "tracefree_gradient",
    "best_fit_sphere",
    "BestFitSphere",
    "nearly_round_diagnostics",
    "NearlyRoundReport",
    "second_form_transform_residual",
    "distance_hessian_residual",
    "distance_hessian_spot_check",
    "mean_curvature_expansion_residual",
    "divergence_identity_gap",
    "mean_curvature_integral_residual",
    "write_immersion_csv",
]


class DegenerateInducedMetric(SolverError):
    """The sampled surface has a non-positive induced metric somewhere."""


class NonConvexSurface(SolverError):
    """An operation requiring positive mean curvature met H <= 0."""


# ---------------------------------------------------------------------------
# Immersions
# ---------------------------------------------------------------------------


@dataclass
class Immersion:
    """A sphere immersion: grid plus the three Cartesian position fields.

    Y has shape (ntheta, nphi, 3).
    """

    grid: SphereGrid
    Y: np.ndarray

    def __post_init__(self):
        self.Y = np.asarray(self.Y, dtype=float)
        if self.Y.shape != self.grid.shape + (3,):
            raise ValueError(
                f"position field shape {self.Y.shape} does not match grid "
                f"{self.grid.shape}"
            )
        self._coeffs = None

    @property
    def points(self) -> np.ndarray:
        """Node positions flattened to (n_nodes, 3), theta-major."""
        return self.Y.reshape(-1, 3)

    def component_coeffs(self) -> np.ndarray:
        """Harmonic coefficients of the position, (n_coeffs, 3)."""
        if self._coeffs is None:
            self._coeffs = analyze(self.grid, self.Y)
        return self._coeffs

    def tangents(self) -> tuple[np.ndarray, np.ndarray]:
        """(d y / d theta, d y / d phi), each (ntheta, nphi, 3)."""
        return synth_gradient(self.grid, self.component_coeffs())

    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.Y, axis=-1)


def immerse_radial(center, profile, grid: SphereGrid) -> Immersion:
    """Surface y = center + R(omega) * omega; profile scalar or field."""
    center = np.zeros(3) if center is None else np.asarray(center, dtype=float)
    R = np.asarray(profile, dtype=float)
    if R.ndim == 0:
        R = np.full(grid.shape, float(R))
    if R.shape != grid.shape:
        raise ValueError("radial profile shape does not match the grid")
    if np.any(R <= 0):
        raise ValueError("radial profile must be positive")
    Y = center[None, None, :] + R[..., None] * grid.unit_vectors
    return Immersion(grid, Y)


def coordinate_sphere(radius: float, grid: SphereGrid, center=None) -> Immersion:
    """The round coordinate sphere of the given radius."""
    return immerse_radial(center, float(radius), grid)


# ---------------------------------------------------------------------------
# Fundamental forms
# ---------------------------------------------------------------------------


@dataclass
class FundamentalData:
    """Per-node surface geometry in one ambient metric.

    2x2 tensors are components in the (theta, phi) coordinate frame;
    scalar fields have the grid shape.  area_jacobian is the ratio of
    the induced area element to the round-sphere element sin(theta)
    dtheta dphi, so integrate() multiplies by it under the grid rule.
    points, tangents (N, 2, 3), the ambient jets and Christoffel symbols
    (N, 3, 3, 3) are per flattened node; tau is the ambient decay order.
    """

    ambient: str
    grid: SphereGrid
    points: np.ndarray
    tangents: np.ndarray
    jets: mcat.JetBatch
    christoffel: np.ndarray
    tau: float
    induced_metric: np.ndarray
    induced_metric_inv: np.ndarray
    area_jacobian: np.ndarray
    normal: np.ndarray
    second_form: np.ndarray
    mean_curvature: np.ndarray
    tracefree_second_form: np.ndarray
    tracefree_norm: np.ndarray
    gauss_curvature: np.ndarray
    area: float
    r_min: float
    r_max: float
    _diameter: float | None = None

    @property
    def diameter(self) -> float:
        """Intrinsic diameter estimate; the graph search runs on demand."""
        if self._diameter is None:
            N = self.grid.n_nodes
            self._diameter = _graph_diameter(
                self.grid, self.induced_metric.reshape(N, 2, 2)
            )
        return self._diameter

    def integrate(self, f: np.ndarray) -> float:
        """Surface integral of a node field against this ambient's measure."""
        return self.grid.integrate(f * self.area_jacobian)

    def second_form_norm(self) -> np.ndarray:
        """Pointwise |A| in the induced metric."""
        hinv = self.induced_metric_inv
        A = self.second_form
        val = np.einsum("...ab,...cd,...ac,...bd->...", A, A, hinv, hinv)
        return np.sqrt(np.clip(val, 0.0, None))

    def principal_curvatures(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of the shape operator (smaller, larger)."""
        H = self.mean_curvature
        h = self.induced_metric
        A = self.second_form
        deth = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] ** 2
        detA = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] ** 2
        disc = np.sqrt(np.clip(H**2 - 4.0 * detA / deth, 0.0, None))
        return 0.5 * (H - disc), 0.5 * (H + disc)


def _resolve_ambient(ambient):
    if ambient is None:
        return mcat.euclidean(), "euclidean"
    metric = ambient
    tag = "euclidean" if metric.family == "euclidean" else metric.spec()
    return metric, tag


def fundamental_forms(s: Immersion, ambient=None) -> FundamentalData:
    """First/second fundamental forms, H, tracefree part, K, and totals.

    ambient None means the flat background; otherwise an AFMetric.  The
    Gauss curvature uses the ambient sectional-curvature correction of
    the tangent plane, so it is intrinsic in either case.
    """
    grid = s.grid
    metric, tag = _resolve_ambient(ambient)
    flat = tag == "euclidean"
    pts = s.points
    N = len(pts)
    jets = metric.jets(pts)
    g = jets.g

    T = np.stack(s.tangents(), axis=2).reshape(N, 2, 3)
    h = np.einsum("nai,nij,nbj->nab", T, g, T)
    deth = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] ** 2
    if np.any(deth <= 0.0):
        raise DegenerateInducedMetric(
            "induced metric is not positive definite on the grid"
        )
    hinv = np.empty_like(h)
    hinv[:, 0, 0] = h[:, 1, 1] / deth
    hinv[:, 1, 1] = h[:, 0, 0] / deth
    hinv[:, 0, 1] = hinv[:, 1, 0] = -h[:, 0, 1] / deth

    # outward unit normal: g^{-1} applied to the Euclidean tangent cross
    # product is g-orthogonal to both tangents and outward-pointing
    cross = np.cross(T[:, 0], T[:, 1])
    nu = np.linalg.solve(g, cross[:, :, None])[:, :, 0]
    nu /= np.sqrt(np.einsum("ni,nij,nj->n", nu, g, nu))[:, None]

    nu_coeffs = analyze(grid, nu.reshape(grid.shape + (3,)))
    dnu = np.stack(synth_gradient(grid, nu_coeffs), axis=2).reshape(N, 2, 3)
    Gam = mcat.christoffel(jets)
    cov = dnu + np.einsum("nikl,nak,nl->nai", Gam, T, nu)
    A = np.einsum("nai,nij,nbj->nab", cov, g, T)
    A = 0.5 * (A + A.transpose(0, 2, 1))

    H = np.einsum("nab,nab->n", hinv, A)
    Aring = A - 0.5 * H[:, None, None] * h
    ring2 = np.einsum("nab,ncd,nac,nbd->n", Aring, Aring, hinv, hinv)
    ring_norm = np.sqrt(np.clip(ring2, 0.0, None))

    detA = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] ** 2
    if flat:
        K = detA / deth
    else:
        R = mcat.riemann_lowered(jets, Gam)
        sec = np.einsum("nrsmq,nr,ns,nm,nq->n", R, T[:, 0], T[:, 1], T[:, 0], T[:, 1])
        K = (sec + detA) / deth

    sin_theta = np.sin(grid.theta)[:, None]
    J = np.sqrt(deth).reshape(grid.shape) / sin_theta
    area = grid.integrate(J)
    radii = np.linalg.norm(pts, axis=1)

    shp = grid.shape
    return FundamentalData(
        ambient=tag,
        grid=grid,
        points=pts,
        tangents=T,
        jets=jets,
        christoffel=Gam,
        tau=metric.tau,
        induced_metric=h.reshape(shp + (2, 2)),
        induced_metric_inv=hinv.reshape(shp + (2, 2)),
        area_jacobian=J,
        normal=nu.reshape(shp + (3,)),
        second_form=A.reshape(shp + (2, 2)),
        mean_curvature=H.reshape(shp),
        tracefree_second_form=Aring.reshape(shp + (2, 2)),
        tracefree_norm=ring_norm.reshape(shp),
        gauss_curvature=K.reshape(shp),
        area=area,
        r_min=float(radii.min()),
        r_max=float(radii.max()),
    )


def _graph_diameter(grid: SphereGrid, h: np.ndarray) -> float:
    """Intrinsic diameter estimate: longest graph geodesic over grid edges.

    Edge lengths come from the induced metric (trapezoid rule along
    meridians and parallels); two virtual pole vertices close the mesh.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    nt, nph = grid.shape
    n = nt * nph
    sq_t = np.sqrt(h[:, 0, 0]).reshape(nt, nph)
    sq_p = np.sqrt(h[:, 1, 1]).reshape(nt, nph)
    theta = grid.theta
    dphi = 2.0 * np.pi / nph
    node = np.arange(n).reshape(nt, nph)

    rows, cols, vals = [], [], []
    # meridian edges
    for i in range(nt - 1):
        L = 0.5 * (sq_t[i] + sq_t[i + 1]) * (theta[i + 1] - theta[i])
        rows.append(node[i])
        cols.append(node[i + 1])
        vals.append(L)
    # parallel edges (periodic)
    nxt = np.roll(np.arange(nph), -1)
    for i in range(nt):
        L = 0.5 * (sq_p[i] + sq_p[i, nxt]) * dphi
        rows.append(node[i])
        cols.append(node[i, nxt])
        vals.append(L)
    # virtual poles
    north, south = n, n + 1
    rows.append(np.full(nph, north))
    cols.append(node[0])
    vals.append(sq_t[0] * theta[0])
    rows.append(np.full(nph, south))
    cols.append(node[nt - 1])
    vals.append(sq_t[nt - 1] * (np.pi - theta[nt - 1]))

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    graph = coo_matrix((vals, (rows, cols)), shape=(n + 2, n + 2))
    dist = dijkstra(graph, directed=False)
    return float(dist[np.isfinite(dist)].max())


# ---------------------------------------------------------------------------
# Best-fit sphere and nearly-round diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BestFitSphere:
    """Radius/center of the osculating round sphere with deviation sups."""

    radius: float
    center: np.ndarray
    curvature_spread: float  # sup |principal curvature - 1/radius|
    position_spread: float  # sup |y - center - radius * normal|


def best_fit_sphere(fd: FundamentalData, s: Immersion) -> BestFitSphere:
    """Fit radius from the mean of H and center from the position residual.

    Requires the flat-ambient fundamental data and H > 0 everywhere.
    """
    if fd.ambient != "euclidean":
        raise ValueError("best-fit sphere needs the flat-ambient data")
    H = fd.mean_curvature
    if np.any(H <= 0.0):
        raise NonConvexSurface("mean curvature is not positive everywhere")
    mean_H = fd.integrate(H) / fd.area
    r0 = 2.0 / mean_H
    resid = s.Y - r0 * fd.normal
    center = np.array([fd.integrate(resid[..., k]) for k in range(3)]) / fd.area
    lam_lo, lam_hi = fd.principal_curvatures()
    curv_spread = float(
        max(np.abs(lam_lo - 1.0 / r0).max(), np.abs(lam_hi - 1.0 / r0).max())
    )
    pos_spread = float(np.linalg.norm(resid - center, axis=-1).max())
    return BestFitSphere(float(r0), center, curv_spread, pos_spread)


@dataclass(frozen=True)
class NearlyRoundRow:
    """Per-surface diagnostic constants at its smallest node radius r."""

    r: float
    tracefree_constant: float  # r^(1+tau) * sup(|Aring| + r |grad Aring|)
    radial_ratio: float  # r_max / r_min
    diameter_ratio: float  # diam / r
    area_ratio: float  # Area / r^2
    second_form_constant: float  # r * sup |A|


@dataclass(frozen=True)
class NearlyRoundReport:
    """Family sweep of the roundness constants, with growth flags."""

    tau: float
    rows: tuple
    tracefree_constant: float
    radial_ratio: float
    diameter_ratio: float
    area_ratio: float
    second_form_constant: float
    area_ratio_bounds: tuple
    flagged: tuple

    def constants(self) -> dict:
        return {
            "tracefree_constant": self.tracefree_constant,
            "radial_ratio": self.radial_ratio,
            "diameter_ratio": self.diameter_ratio,
            "area_ratio": self.area_ratio,
            "second_form_constant": self.second_form_constant,
        }


_GROWTH_FACTOR = 1.5
# Roundoff never flags.  For the trace-free constant the floor is relative:
# sup|Aring| + r sup|grad Aring| below 1e-8 sup|A| is roundoff.
_GROWTH_FLOOR = 1e-8


def tracefree_gradient(fd: FundamentalData) -> tuple[np.ndarray, np.ndarray]:
    """Covariant gradient of the tracefree second form, and its norm.

    Returns (nabla, |nabla|) with nabla[..., a, b, c] the derivative along
    a of the (b, c) component.  Aring is extended to ambient indices by the
    dual frame, differentiated covariantly along the tangents and
    contracted back; for tangential tensors this equals the intrinsic
    covariant derivative.
    """
    grid = fd.grid
    N = grid.n_nodes
    T = fd.tangents
    Gam = fd.christoffel
    hinv = fd.induced_metric_inv.reshape(N, 2, 2)
    E = np.einsum("nab,nij,nbj->nai", hinv, fd.jets.g, T)  # dual frame
    Aring = fd.tracefree_second_form.reshape(N, 2, 2)
    Tamb = np.einsum("nab,nai,nbj->nij", Aring, E, E)
    dTamb = synth_gradient(grid, analyze(grid, Tamb.reshape(grid.shape + (3, 3))))
    covT = (
        np.stack(dTamb, axis=2).reshape(N, 2, 3, 3)
        - np.einsum("nlki,nak,nlj->naij", Gam, T, Tamb)
        - np.einsum("nlkj,nak,nil->naij", Gam, T, Tamb)
    )
    nabla = np.einsum("naij,nbi,ncj->nabc", covT, T, T)
    grad2 = np.einsum("nabc,nxyz,nax,nby,ncz->n", nabla, nabla, hinv, hinv, hinv)
    norm = np.sqrt(np.clip(grad2, 0.0, None))
    return nabla.reshape(grid.shape + (2, 2, 2)), norm.reshape(grid.shape)


def nearly_round_diagnostics(members, tau: float) -> NearlyRoundReport:
    """Roundness constants across a family of (Immersion, FundamentalData).

    Report-only: constants are measured, never asserted here.  A constant
    is flagged when it grows monotonically by more than 1.5x across the
    family, the signature of a violated roundness condition.
    """
    if len(members) < 3:
        raise ValueError("need at least three family members")
    rows = []
    for s, fd in members:
        r = fd.r_min
        trace_sup = float((fd.tracefree_norm + r * tracefree_gradient(fd)[1]).max())
        rows.append(
            NearlyRoundRow(
                r=r,
                tracefree_constant=r ** (1.0 + tau) * trace_sup,
                radial_ratio=fd.r_max / fd.r_min,
                diameter_ratio=fd.diameter / r,
                area_ratio=fd.area / r**2,
                second_form_constant=r * float(fd.second_form_norm().max()),
            )
        )
    rows.sort(key=lambda row: row.r)
    names = (
        "tracefree_constant",
        "radial_ratio",
        "diameter_ratio",
        "area_ratio",
        "second_form_constant",
    )
    sups = {k: max(getattr(row, k) for row in rows) for k in names}
    last = rows[-1]
    floors = dict.fromkeys(names, _GROWTH_FLOOR)
    floors["tracefree_constant"] *= last.r**tau * last.second_form_constant
    flagged = []
    for k in names:
        series = [getattr(row, k) for row in rows]
        increasing = all(b > a for a, b in zip(series, series[1:]))
        if (
            increasing
            and series[-1] > _GROWTH_FACTOR * series[0]
            and series[-1] > floors[k]
        ):
            flagged.append(k)
    ratios = [row.area_ratio for row in rows]
    return NearlyRoundReport(
        tau=tau,
        rows=tuple(rows),
        area_ratio_bounds=(min(ratios), max(ratios)),
        flagged=tuple(flagged),
        **sups,
    )


# ---------------------------------------------------------------------------
# Identity residuals
# ---------------------------------------------------------------------------


def _flat_extension(fd_hat: FundamentalData, form: np.ndarray) -> np.ndarray:
    """A tangent 2-tensor field as an ambient (N, 3, 3) field, by the flat
    dual frame.  Of the flat second form it is the Hessian of the Euclidean
    distance to the surface, restricted to the surface."""
    N = fd_hat.grid.n_nodes
    E = np.einsum("nab,nbi->nai", fd_hat.induced_metric_inv.reshape(N, 2, 2), fd_hat.tangents)
    return np.einsum("nab,nai,nbj->nij", form.reshape(N, 2, 2), E, E)


def second_form_transform_residual(fd_hat: FundamentalData, fd: FundamentalData) -> float:
    """Sup residual of the flat/curved second-form change of ambient.

    The flat-ambient form evaluated on tangents X, Y equals
    |grad rho| A(X, Y) + X^i Y^j Gamma^k_ij nhat_k with rho the Euclidean
    distance and A the curved-ambient form.  Exact, so the residual is
    pure discretization error; components are measured in the
    Euclidean-normalized coordinate frame.
    """
    N = fd.grid.n_nodes
    T = fd_hat.tangents
    nhat = fd_hat.normal.reshape(N, 3)
    Gam = fd.christoffel
    ginv = np.linalg.inv(fd.jets.g)
    grad_norm = np.sqrt(np.einsum("ni,nij,nj->n", nhat, ginv, nhat))
    gamma_term = np.einsum("nkij,nai,nbj,nk->nab", Gam, T, T, nhat)
    Ahat = fd_hat.second_form.reshape(N, 2, 2)
    A = fd.second_form.reshape(N, 2, 2)
    res = Ahat - grad_norm[:, None, None] * A - gamma_term
    scale = np.linalg.norm(T, axis=2)  # (N, 2) Euclidean tangent lengths
    res = res / (scale[:, :, None] * scale[:, None, :])
    return float(np.abs(res).max())


def _signed_distances(s: Immersion, X: np.ndarray, th0, ph0) -> np.ndarray:
    """Signed Euclidean distances from query points to the surface.

    Newton on the squared distance over (theta, phi), all queries at
    once, seeded at the grid node each query was generated from.  The
    queries must sit close to their seed nodes, which makes undamped
    steps safe.  Positive outside (along the outward normal).
    """
    from .sphere import synth_at

    cc = s.component_coeffs()
    th = np.array(th0, dtype=float).copy()
    ph = np.array(ph0, dtype=float).copy()
    scale = max(1.0, float(np.linalg.norm(X, axis=1).max()))
    for _ in range(50):
        y, yt, yp, ytt, ytp, ypp = synth_at(cc, th, ph, nderiv=2)
        d = X - y
        g1 = -2.0 * np.einsum("qi,qi->q", d, yt)
        g2 = -2.0 * np.einsum("qi,qi->q", d, yp)
        if max(np.abs(g1).max(), np.abs(g2).max()) <= 1e-13 * scale**2:
            break
        h11 = 2.0 * (np.einsum("qi,qi->q", yt, yt) - np.einsum("qi,qi->q", d, ytt))
        h12 = 2.0 * (np.einsum("qi,qi->q", yt, yp) - np.einsum("qi,qi->q", d, ytp))
        h22 = 2.0 * (np.einsum("qi,qi->q", yp, yp) - np.einsum("qi,qi->q", d, ypp))
        det = h11 * h22 - h12 * h12
        if np.any(det <= 0):
            raise SolverError("nearest-point Hessian lost positivity")
        th = th + (-g1 * h22 + g2 * h12) / det
        ph = ph + (-g2 * h11 + g1 * h12) / det
    else:
        raise SolverError("nearest-point search did not converge")
    nrm = np.cross(yt, yp)
    sign = np.where(np.einsum("qi,qi->q", d, nrm) >= 0.0, 1.0, -1.0)
    return sign * np.linalg.norm(d, axis=1)


def distance_hessian_residual(fd_hat: FundamentalData) -> float:
    """Check the split of the distance Hessian on the surface.

    The ambient extension of the flat second form equals its tracefree
    part plus (H/2) times the tangential projector -- frame algebra,
    residual at roundoff.  distance_hessian_spot_check is the brute-force
    reference for the same matrix.
    """
    if fd_hat.ambient != "euclidean":
        raise ValueError("distance Hessian check needs the flat-ambient data")
    N = fd_hat.grid.n_nodes
    nhat = fd_hat.normal.reshape(N, 3)
    H = fd_hat.mean_curvature.reshape(N)
    A_amb = _flat_extension(fd_hat, fd_hat.second_form)
    Aring_amb = _flat_extension(fd_hat, fd_hat.tracefree_second_form)
    proj = np.eye(3)[None] - np.einsum("ni,nj->nij", nhat, nhat)
    return float(np.abs(A_amb - Aring_amb - 0.5 * H[:, None, None] * proj).max())


def distance_hessian_spot_check(s: Immersion) -> float:
    """Brute-force gap between the distance Hessian and the flat second form.

    Central finite differences (step 1e-4 of the smallest radius) of the
    true signed point-to-surface distance at 8 nodes, against the ambient
    extension of the flat second form; max entrywise gap.
    """
    grid = s.grid
    fd_hat = fundamental_forms(s)
    A_amb = _flat_extension(fd_hat, fd_hat.second_form)
    # 19 offsets per node (center, 6 axis, 12 mixed), one batched solve
    picks = np.linspace(0, grid.n_nodes - 1, 8, dtype=int)
    th_nodes = np.repeat(grid.theta, grid.nphi)
    ph_nodes = np.tile(grid.phi, grid.ntheta)
    r_ref = float(np.linalg.norm(s.points, axis=1).min())
    h = 1e-4 * r_ref
    eye = np.eye(3)
    offsets = [np.zeros(3)]
    offsets += [sgn * h * eye[i] for i in range(3) for sgn in (+1, -1)]
    pairs = [(0, 1), (0, 2), (1, 2)]
    for i, j in pairs:
        for si in (+1, -1):
            for sj in (+1, -1):
                offsets.append(h * (si * eye[i] + sj * eye[j]))
    offsets = np.array(offsets)  # (19, 3)
    q = len(offsets)
    X = (s.points[picks][:, None, :] + offsets[None]).reshape(-1, 3)
    rho = _signed_distances(
        s, X, np.repeat(th_nodes[picks], q), np.repeat(ph_nodes[picks], q)
    ).reshape(len(picks), q)

    spot = 0.0
    for k, n in enumerate(picks):
        hess = np.zeros((3, 3))
        rho0 = rho[k, 0]
        for i in range(3):
            hess[i, i] = (rho[k, 1 + 2 * i] - 2 * rho0 + rho[k, 2 + 2 * i]) / h**2
        for p, (i, j) in enumerate(pairs):
            base = 7 + 4 * p
            val = (rho[k, base] - rho[k, base + 1] - rho[k, base + 2]
                   + rho[k, base + 3]) / (4 * h**2)
            hess[i, j] = hess[j, i] = val
        spot = max(spot, float(np.abs(hess - A_amb[n]).max()))
    return spot


def mean_curvature_expansion_residual(fd_hat: FundamentalData, fd: FundamentalData) -> float:
    """Scaled sup residual of the five-term flat-to-curved H expansion.

    H - Hhat equals (H/2) sigma(nhat, nhat) + (1/2) dsigma(nhat; nhat,
    nhat) - sigma : rho_hess - div(g)(nhat) + (1/2) grad(tr g)(nhat) up
    to O(r^(-1-2tau)); the return value is sup |H - RHS| * r^(1+2tau),
    bounded along a nearly round family.
    """
    N = fd.grid.n_nodes
    nhat = fd_hat.normal.reshape(N, 3)
    rho_hess = _flat_extension(fd_hat, fd_hat.second_form)
    sigma = fd.jets.sigma
    dg = fd.jets.dg
    H = fd.mean_curvature.reshape(N)
    Hhat = fd_hat.mean_curvature.reshape(N)
    t1 = 0.5 * H * np.einsum("nij,ni,nj->n", sigma, nhat, nhat)
    t2 = 0.5 * np.einsum("nsti,ni,ns,nt->n", dg, nhat, nhat, nhat)
    t3 = -np.einsum("nij,nij->n", sigma, rho_hess)
    t4 = -np.einsum("niji,nj->n", dg, nhat)
    t5 = 0.5 * np.einsum("njji,ni->n", dg, nhat)
    resid = H - Hhat - t1 - t2 - t3 - t4 - t5
    return float(np.abs(resid).max()) * fd.r_min ** (1.0 + 2.0 * fd.tau)


def divergence_identity_gap(fd_hat: FundamentalData, fd: FundamentalData) -> float:
    """Exact integration-by-parts identity on the closed surface.

    The flat-measure integral of dsigma contracted with three normals
    equals the sum of a mean-curvature term, a divergence term, and a
    Hessian term; the identity is the tangential divergence theorem, so
    the gap is pure quadrature error.
    """
    N = fd.grid.n_nodes
    nhat = fd_hat.normal.reshape(N, 3)
    rho_hess = _flat_extension(fd_hat, fd_hat.second_form)
    sigma = fd.jets.sigma
    dg = fd.jets.dg
    Hhat = fd_hat.mean_curvature.reshape(N)
    shp = fd.grid.shape

    def surf_int(field):
        return fd_hat.integrate(field.reshape(shp))

    i1 = surf_int(np.einsum("nsti,ni,ns,nt->n", dg, nhat, nhat, nhat))
    i2 = -surf_int(Hhat * np.einsum("nst,ns,nt->n", sigma, nhat, nhat))
    i3 = surf_int(np.einsum("nstt,ns->n", dg, nhat))
    i4 = surf_int(np.einsum("nst,nst->n", sigma, rho_hess))
    return float(abs(i1 - (i2 + i3 + i4)))


def mean_curvature_integral_residual(fd_hat: FundamentalData, fd: FundamentalData) -> float:
    """Scaled residual of the integral mean-curvature comparison.

    The curved-measure integral of H - Hhat equals half the flat-measure
    flux of (tr g),_j - g_ij,i against the normal minus half the
    flat-measure integral of sigma : rho_hess, up to O(r^(1-2tau)); the
    return value is |LHS - RHS| * r^(2tau-1).
    """
    N = fd.grid.n_nodes
    nhat = fd_hat.normal.reshape(N, 3)
    rho_hess = _flat_extension(fd_hat, fd_hat.second_form)
    sigma = fd.jets.sigma
    dg = fd.jets.dg
    H = fd.mean_curvature.reshape(N)
    Hhat = fd_hat.mean_curvature.reshape(N)
    shp = fd.grid.shape
    lhs = fd.integrate((H - Hhat).reshape(shp))
    flux = np.einsum("njji,ni->n", dg, nhat) - np.einsum("niji,nj->n", dg, nhat)
    rhs = 0.5 * fd_hat.integrate(flux.reshape(shp)) - 0.5 * fd_hat.integrate(
        np.einsum("nst,nst->n", sigma, rho_hess).reshape(shp)
    )
    return float(abs(lhs - rhs)) * fd.r_min ** (2.0 * fd.tau - 1.0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_immersion_csv(s: Immersion, path) -> None:
    """Node table: theta, phi, y1, y2, y3."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "phi", "y1", "y2", "y3"])
        for i, th in enumerate(s.grid.theta):
            for j, ph in enumerate(s.grid.phi):
                y = s.Y[i, j]
                writer.writerow(
                    [f"{th:.17g}", f"{ph:.17g}"]
                    + [f"{val:.17g}" for val in y]
                )
