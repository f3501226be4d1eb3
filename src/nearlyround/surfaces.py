"""Closed surfaces in the asymptotically flat end: fundamental forms,
curvature, nearly-round diagnostics, and the identity residual checks.

A surface is a smooth immersion of the sphere sampled on a SphereGrid;
the three Cartesian position components are the primary data and all
differentiation acts on them (or on Cartesian components of derived
fields) spectrally, one stacked transform per field.  (theta, phi)-
components of tangent tensors are assembled pointwise, never
differentiated, so the poles cost nothing.

fundamental_forms builds the one FundamentalData record of a surface in
an ambient, of values alone: node positions and tangents, the ambient
sigma = g - delta, g^-1 and dg, the decay order, the forms, H, K and the
area.  The catalog's closed form (the jets' terms) stays inside it, for
the Gauss term; g = delta + sigma is formed only where g is applied.
The pointwise algebra runs on node-last rows, as the jets come and as
the sphere module's component-first stacks reshape without a copy: the
position (3, ntheta, nphi), the tangents (2, 3, N) from one
synth_gradient, the normal (3, N), the packed sigma, g^-1 and dg, and
the lowered Christoffel symbols read on the vector pairs the forms
contract them with; the record's layout is FundamentalData's.  Consumers
take the record alone: the masses read H, K and the area, the embedding
the induced metric, K and the area, best_fit_sphere a flat record and
nearly_round_diagnostics a family of records in one ambient.
tracefree_gradient(fd), for the roundness diagnostics alone, and the
second-form transform residual read the lowered symbols too, with g^-1
applied to the field they contract them with.  The identity residuals
read sigma and dg from two records of one surface, the flat fd_hat and
the curved fd: second_form_transform_residual,
mean_curvature_expansion_residual, divergence_identity_gap and
mean_curvature_integral_residual take (fd_hat, fd), and
distance_hessian_residual takes fd_hat; none re-evaluates the metric or
transforms a field.  mass_flux reads a flat record and dg at its nodes.

Frame conventions: tangent index a in {0, 1} is the (theta, phi)
coordinate frame; ambient indices i, j, k are Cartesian.  The second
fundamental form is A(X, Y) = g(D_X nu, Y) with nu the outward unit
normal, so round spheres have H = 2/r > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics as mcat
from .errors import ConfigError, SolverError
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
    "mean_curvature_expansion_residual",
    "divergence_identity_gap",
    "mean_curvature_integral_residual",
    "mass_flux",
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

    Y has shape (3, ntheta, nphi), a field stack of the sphere module.
    coeffs, the harmonic coefficients of Y (n_coeffs, 3), and
    node_tangents, (dY/dtheta, dY/dphi) at the nodes as one (2, 3, ntheta,
    nphi) array, are given by a caller that already holds them (the
    embedding solve) and are otherwise transformed from Y when first read.
    """

    grid: SphereGrid
    Y: np.ndarray
    coeffs: np.ndarray | None = None
    node_tangents: np.ndarray | None = None

    def __post_init__(self):
        self.Y = np.asarray(self.Y, dtype=float)
        if self.Y.shape != (3,) + self.grid.shape:
            raise ValueError(
                f"position field shape {self.Y.shape} does not match grid "
                f"{self.grid.shape}"
            )

    @property
    def points(self) -> np.ndarray:
        """Node positions as (n_nodes, 3), theta-major: a view of the rows
        of Y."""
        return self.Y.reshape(3, -1).T

    def component_coeffs(self) -> np.ndarray:
        """Harmonic coefficients of the position, (n_coeffs, 3)."""
        if self.coeffs is None:
            self.coeffs = analyze(self.grid, self.Y)
        return self.coeffs

    def tangents(self) -> np.ndarray:
        """(d y / d theta, d y / d phi) as one (2, 3, ntheta, nphi) array."""
        if self.node_tangents is None:
            self.node_tangents = synth_gradient(self.grid, self.component_coeffs())
        return self.node_tangents


def immerse_radial(profile, grid: SphereGrid) -> Immersion:
    """Surface y = R(omega) * omega about the origin; profile scalar or field."""
    R = np.asarray(profile, dtype=float)
    if R.ndim == 0:
        R = np.full(grid.shape, float(R))
    if R.shape != grid.shape:
        raise ValueError("radial profile shape does not match the grid")
    if not (np.all(R > 0) and np.all(np.isfinite(R))):
        raise ConfigError("radial profile must be positive and finite")
    Y = R * np.moveaxis(grid.unit_vectors, -1, 0)
    return Immersion(grid, Y)


def coordinate_sphere(radius: float, grid: SphereGrid) -> Immersion:
    """The round coordinate sphere of the given radius about the origin."""
    return immerse_radial(float(radius), grid)


# ---------------------------------------------------------------------------
# Fundamental forms
# ---------------------------------------------------------------------------


@dataclass
class FundamentalData:
    """Per-node surface geometry in one ambient metric.

    2x2 tensors are components in the (theta, phi) coordinate frame,
    packed (3, ntheta, nphi) stacks of (00, 01, 11); scalar fields have the
    grid shape and the normal is a (3, ntheta, nphi) field stack.
    area_jacobian is the ratio of the induced area element to the
    round-sphere element sin(theta) dtheta dphi, so integrate()
    multiplies by it under the grid rule.  points (N, 3) are the nodes, a
    view of the immersion's rows.  The ambient side keeps the node axis
    last and packs each symmetric pair (metrics.pack): tangents (2, 3, N),
    sigma = g - delta and g^-1 (6, N), dg (3, 6, N), dg[k] = d_k g; tau is
    the decay order.  A flat record's sigma, g^-1 and dg are read-only.
    """

    ambient: str
    grid: SphereGrid
    points: np.ndarray
    tangents: np.ndarray
    ambient_sigma: np.ndarray
    ambient_metric_inv: np.ndarray
    ambient_dg: np.ndarray
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
        """Intrinsic diameter estimate; the graph search runs on demand.

        The longest Dijkstra geodesic of the grid graph weighted by the
        induced metric, searched once, when first read (_graph_diameter).
        """
        if self._diameter is None:
            self._diameter = _graph_diameter(self.grid, self.induced_metric)
        return self._diameter

    def integrate(self, f: np.ndarray) -> float:
        """Surface integral of a node field against this ambient's measure."""
        return self.grid.integrate(f * self.area_jacobian)

    def second_form_norm(self) -> np.ndarray:
        """Pointwise |A| in the induced metric."""
        val = trace_pairing(self.induced_metric_inv, self.second_form, self.second_form)
        return np.sqrt(np.clip(val, 0.0, None))


def _form_rows(form: np.ndarray) -> np.ndarray:
    """A packed (3, ntheta, nphi) form of the record as full (2, 2, N) rows."""
    return form.reshape(3, -1)[[[0, 1], [1, 2]]]


def _extension(E: np.ndarray, form: np.ndarray) -> np.ndarray:
    """E^T form E: a (2, 2, N) form carried to ambient indices (3, 3, N)
    by a (2, 3, N) frame."""
    return np.einsum("ain,ajn->ijn", E, np.einsum("abn,bjn->ajn", form, E))


def _quadratic(S: np.ndarray, u: np.ndarray) -> np.ndarray:
    """S(u, u) = u^i S_ij u^j for a (3, 3, N) field S and (3, N) rows u."""
    return np.einsum("in,in->n", np.einsum("ijn,jn->in", S, u), u)


def trace_pairing(hinv, F, G) -> np.ndarray:
    """tr(h^-1 F h^-1 G) = P_ab Q_ba (P = h^-1 F, Q = h^-1 G) of symmetric 2x2
    fields by (00, 01, 11) components, written out as an einsum costs more;
    cross terms first, so G = F gives P00^2 + 2 P01 P10 + P11^2 bit for bit."""
    i00, i01, i11 = hinv

    def raised(f00, f01, f11):
        return i00 * f00 + i01 * f01, i00 * f01 + i01 * f11, i01 * f00 + i11 * f01, i01 * f01 + i11 * f11

    p00, p01, p10, p11 = P = raised(*F)
    q00, q01, q10, q11 = P if G is F else raised(*G)
    return p00 * q00 + (p01 * q10 + p10 * q01) + p11 * q11


def fundamental_forms(s: Immersion, ambient=None) -> FundamentalData:
    """First/second fundamental forms, H, tracefree part, K, and totals.

    ambient None means the flat background; otherwise an AFMetric.  The
    algebra runs on node-last rows.  With T_a the tangents and nu the
    outward unit normal, the second form is
        A_ab = d_a nu . g T_b + Gamma_l(T_a, nu) T_b^l,
    read from the lowered symbols (metrics.christoffel_lowered), so it
    needs no g^-1.  The Gauss curvature comes from the Gauss equation
    K = (R(T0, T1, T0, T1) + det A) / det h, so it is intrinsic in either
    case; the ambient term is metrics.sectional_curvature on the tangent
    pair, which reads the jets' closed-form terms and the lowered symbols
    of the three tangent pairs, and forms no curvature tensor.  The
    inverse ambient metric is formed once, for the normal and that term,
    and kept on the record with sigma and dg; the jets themselves are not.

    A Euclidean ambient (None or the ``euclidean`` family) evaluates no
    jets and no Christoffel symbols: h = T T^t, nu = (T0 x T1)/|T0 x T1|,
    and K = det A / det h.  Its record still carries sigma = dg = 0 and
    g^-1 = delta as read-only constant views, so every consumer reads a flat
    record like a curved one.  The public 2x2 forms are their (00, 01, 11)
    rows and the normal its node-last rows, each stacked in the grid shape
    once, at the end.
    """
    grid = s.grid
    metric = mcat.euclidean() if ambient is None else ambient
    flat = metric.family == "euclidean"
    pts = s.points
    N = len(pts)
    shp = grid.shape
    T = s.tangents().reshape(2, 3, N)
    if flat:
        sigma, dg = np.broadcast_to(0.0, (6, N)), np.broadcast_to(0.0, (3, 6, N))
        ginv = np.broadcast_to(mcat.DELTA, (6, N))
        gT = T
    else:
        jets = metric.jets(pts)
        sigma, dg = jets.sigma, jets.dg
        ginv = mcat.symmetric_inverse(sigma + mcat.DELTA)
        gT = T + np.einsum("ijn,ajn->ain", mcat.unpack(sigma), T)  # g T_a
    h = np.einsum("ain,bin->abn", T, gT)
    h00, h01, h11 = h[0, 0], h[0, 1], h[1, 1]
    deth = h00 * h11 - h01**2
    if not np.all(deth > 0.0):  # a NaN node fails this test too
        raise DegenerateInducedMetric(
            "induced metric is not positive definite on the grid"
        )
    i00, i01, i11 = h11 / deth, -h01 / deth, h00 / deth

    # outward unit normal: g^{-1} applied to the Euclidean tangent cross
    # product is g-orthogonal to both tangents and outward-pointing
    (a0, a1, a2), (b0, b1, b2) = T
    cross = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    if flat:
        nu = cross / np.linalg.norm(cross, axis=0)
    else:
        nu = np.einsum("ijn,jn->in", mcat.unpack(ginv), cross)
        nu /= np.sqrt(np.einsum("in,in->n", nu, cross))  # g(nu, nu) = nu . cross
    normal = nu.reshape((3,) + shp)

    dnu = synth_gradient(grid, analyze(grid, normal)).reshape(2, 3, N)
    A = np.einsum("ain,bin->abn", dnu, gT)
    if not flat:
        lowered = mcat.christoffel_lowered(dg)
        # Gamma_l(T_a, nu) T_b^l
        gam_nu = np.einsum("lin,ain->aln", np.einsum("lijn,jn->lin", lowered, nu), T)
        A += np.einsum("aln,bln->abn", gam_nu, T)
    A00, A01, A11 = A[0, 0], 0.5 * (A[0, 1] + A[1, 0]), A[1, 1]

    H = i00 * A00 + 2.0 * i01 * A01 + i11 * A11
    R00, R01, R11 = A00 - 0.5 * H * h00, A01 - 0.5 * H * h01, A11 - 0.5 * H * h11
    ring = (R00, R01, R11)
    ring_norm = np.sqrt(np.clip(trace_pairing((i00, i01, i11), ring, ring), 0.0, None))

    detA = A00 * A11 - A01**2
    if flat:
        K = detA / deth
    else:
        K = (mcat.sectional_curvature(jets, ginv, lowered, T[0], T[1]) + detA) / deth

    sin_theta = np.sin(grid.theta)[:, None]
    J = np.sqrt(deth).reshape(shp) / sin_theta
    area = grid.integrate(J)
    x, y, z = pts.T
    r2 = (x * x + y * y) + z * z  # summed as np.linalg.norm sums
    packed = (3,) + shp

    return FundamentalData(
        ambient=metric.spec(),
        grid=grid,
        points=pts,
        tangents=T,
        ambient_sigma=sigma,
        ambient_metric_inv=ginv,
        ambient_dg=dg,
        tau=metric.tau,
        induced_metric=np.stack([h00, h01, h11]).reshape(packed),
        induced_metric_inv=np.stack([i00, i01, i11]).reshape(packed),
        area_jacobian=J,
        normal=normal,
        second_form=np.stack([A00, A01, A11]).reshape(packed),
        mean_curvature=H.reshape(shp),
        tracefree_second_form=np.stack(ring).reshape(packed),
        tracefree_norm=ring_norm.reshape(shp),
        gauss_curvature=K.reshape(shp),
        area=area,
        r_min=float(np.sqrt(r2.min())),
        r_max=float(np.sqrt(r2.max())),
    )


_SOURCE_BLOCK = 64  # sources per line-scan search: memory O(_SOURCE_BLOCK * N)


def _line_scan_distances(sources, down, east, caps) -> np.ndarray:
    """Graph distances (S, N + 2) from each source to the nodes, then poles.

    down[i, j] joins nodes (i, j) and (i + 1, j), east[i, j] joins (i, j)
    and (i, j + 1 mod nphi), caps the poles to the first and last rows.
    Rows 0 and nt + 1 hold each pole as nphi copies, joined by zero-length
    parallel edges, which add exactly.  A pole source's rows start as what
    the scans would write first: 0 on every copy of the source pole, as the
    laps round its row set them; down each meridian, the running sum of
    its edges from that pole, caps included, which np.cumsum adds left to
    right just as the down (or up) scan does; and on every copy of the far
    pole the least of those sums, as the zero-length laps round that row
    set them.  Sweeps (_line_scan_sweep) run while some edge relaxes: the
    test d[v] <= fl(d[u] + w) on every edge, both ways, is the condition
    that a sweep would change nothing, asked without running one.  On a
    round sphere the pole rows start settled, and no sweep runs.
    """
    nt, nph = east.shape
    n, S, v = nt * nph, len(sources), np.asarray(sources)
    d = np.full((nph, nt + 2, S), np.inf)
    inner = np.flatnonzero(v < n)
    d[v[inner] % nph, v[inner] // nph + 1, inner] = 0.0
    down = np.concatenate([caps[:1], down, caps[1:]]).T[..., None]
    east = np.pad(east, ((1, 1), (0, 0))).T[..., None]
    for s in np.flatnonzero(v >= n):
        # the south pole's scan is the north pole's on rows read upwards
        rows, w = (d[:, :, s], down[..., 0]) if v[s] == n else (d[:, ::-1, s], down[:, ::-1, 0])
        rows[:, 0] = 0.0
        np.cumsum(w, axis=1, out=rows[:, 1:])
        rows[:, -1] = rows[:, -1].min()
    while True:
        r = np.roll(d, -1, axis=0)  # r[j] is column j + 1 mod nphi
        if (
            (r <= d + east).all() and (d <= r + east).all()
            and (d[:, 1:] <= d[:, :-1] + down).all() and (d[:, :-1] <= d[:, 1:] + down).all()
        ):
            break
        _line_scan_sweep(d, down, east)
    return np.concatenate([d[:, 1:-1].transpose(2, 1, 0).reshape(S, n), d[0, [0, -1]].T], axis=1)


def _line_scan_sweep(d, down, east) -> None:
    """One Gauss-Seidel sweep in place: d[v] = min(d[v], d[u] + w), a lap
    each way round the parallels, then down and up the meridians.

    d is (nphi, nt + 2, S) with the pole rows; down (nphi, nt + 1, 1) and
    east (nphi, nt + 2, 1) hold the edge lengths, caps and zero-length
    pole-row edges included.
    """
    nph, nt2 = d.shape[:2]
    for j in range(nph):  # d[j + 1 - nph] is column j + 1 mod nphi
        np.minimum(d[j + 1 - nph], d[j] + east[j], out=d[j + 1 - nph])
    for j in range(nph - 1, -1, -1):
        np.minimum(d[j], d[j + 1 - nph] + east[j], out=d[j])
    for i in range(nt2 - 1):
        np.minimum(d[:, i + 1], d[:, i] + down[:, i], out=d[:, i + 1])
    for i in range(nt2 - 2, -1, -1):
        np.minimum(d[:, i], d[:, i + 1] + down[:, i], out=d[:, i])


def _pole_bound(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ub[u] = max over v of min(a[u] + a[v], b[u] + b[v]), in O(n log n).

    a[u] + a[v] is the smaller sum exactly when a[v] - b[v] <= b[u] - a[u],
    so with the nodes sorted by a - b, the v of one u split at a
    searchsorted index k: a prefix maximum of a serves v below k and a
    suffix maximum of b the rest.  A near-tie misclassified by rounding
    still picks one of the two sums, so ub stays an upper bound.
    """
    n = len(a)
    order = np.argsort(a - b, kind="stable")
    prefix_a = np.maximum.accumulate(a[order])
    suffix_b = np.maximum.accumulate(b[order][::-1])[::-1]
    k = np.searchsorted((a - b)[order], b - a, side="right")
    via_a = np.where(k > 0, a + prefix_a[np.maximum(k - 1, 0)], -np.inf)
    via_b = np.where(k < n, b + suffix_b[np.minimum(k, n - 1)], -np.inf)
    return np.maximum(via_a, via_b)


def _graph_diameter(grid: SphereGrid, h: np.ndarray) -> float:
    """Intrinsic diameter estimate: longest graph geodesic over grid edges.

    Edge lengths come from the packed induced metric h (trapezoid rule
    along meridians and parallels); two virtual pole vertices close the mesh.
    The result is the largest Dijkstra distance in this graph of M = N + 2
    vertices, found without searching from every vertex (the pruning of
    Takes & Kosters, 2011, with the poles as the bounding sources):

    - A search from the two poles gives the distance rows a, b, and
      best = max(a, b) bounds the diameter from below.
    - A path through a pole bounds every distance, so the eccentricity
      of u is at most ub(u) = max_v min(a_u + a_v, b_u + b_v)
      (_pole_bound).
    - Searches then run, in blocks of _SOURCE_BLOCK sources taken by
      decreasing ub, only from sources with ub(u) > best (1 + 2 M eps);
      best takes the maximum of every finished block.

    Each search is label-correcting (Bellman, 1958) and returns exactly
    Dijkstra's float distances D.  Every finite entry, seeded or scanned,
    is a float running sum along a walk from the source: a pole's meridian
    sums walk down the meridian, and the far pole's least sum continues
    one of those walks by zero-length edges.  As rounding is monotone and
    D[v] <= fl(D[u] + w) on every edge, induction along the walk gives
    d >= D.  The search stops only once d[v] <= fl(d[u] + w) on every edge
    in both directions, and induction down Dijkstra's tree,
    D[v] = fl(D[parent] + w), gives d <= D.

    The margin is roundoff.  With the unit roundoff e = eps/2, a float
    Dijkstra distance is a running sum of at most M - 1 positive edge
    lengths, so it lies between (1 - e)^(M-1) and (1 + e)^(M-1) times the
    exact shortest path over the same edge lengths (the summation bound
    of Higham, Accuracy and Stability of Numerical Algorithms, sec. 4.2).
    The triangle inequality through a pole, the rounding of the sums in
    ub and of the threshold then bound every distance from a skipped
    source by best (1 + 2 M eps) (1 + e)^(M+1) (1 - e)^(-M), which is at
    most best (1 + 4 M eps) for M below 10^12.  So the value returned is
    certified against the maximum over all pairs of the same graph:
    returned <= all-pairs <= returned (1 + 4 M eps).
    """
    nt, nph = grid.shape
    n = nt * nph
    sq_t, sq_p = np.sqrt(h[0]), np.sqrt(h[2])
    down = 0.5 * (sq_t[:-1] + sq_t[1:]) * np.diff(grid.theta)[:, None]
    east = 0.5 * (sq_p + np.roll(sq_p, -1, axis=1)) * (2.0 * np.pi / nph)
    caps = np.stack([sq_t[0] * grid.theta[0], sq_t[-1] * (np.pi - grid.theta[-1])])
    a, b = _line_scan_distances([n, n + 1], down, east, caps)
    best = float(max(a.max(), b.max()))
    ub = _pole_bound(a, b)
    slack = 1.0 + 2.0 * (n + 2) * np.finfo(float).eps
    todo = np.flatnonzero(ub > best * slack)
    todo = todo[np.argsort(-ub[todo], kind="stable")]
    while todo.size:
        block = _line_scan_distances(todo[:_SOURCE_BLOCK], down, east, caps)
        best = max(best, float(block.max()))
        todo = todo[_SOURCE_BLOCK:]
        todo = todo[ub[todo] > best * slack]
    return best


# ---------------------------------------------------------------------------
# Best-fit sphere and nearly-round diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BestFitSphere:
    """Radius and center of the round sphere that fits a surface."""

    radius: float
    center: np.ndarray


def best_fit_sphere(fd: FundamentalData) -> BestFitSphere:
    """Fit the radius 2 / mean(H) and the center as the area mean of
    y - radius * normal.

    Requires the flat-ambient fundamental data and H > 0 everywhere.
    """
    if fd.ambient != "euclidean":
        raise ValueError("best-fit sphere needs the flat-ambient data")
    H = fd.mean_curvature
    if np.any(H <= 0.0):
        raise NonConvexSurface("mean curvature is not positive everywhere")
    mean_H = fd.integrate(H) / fd.area
    r0 = 2.0 / mean_H
    resid = fd.points.T.reshape(fd.normal.shape) - r0 * fd.normal
    center = np.array([fd.integrate(resid[k]) for k in range(3)]) / fd.area
    return BestFitSphere(float(r0), center)


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
    """Family sweep of the roundness constants, one row per member in
    increasing r, with the names of the constants flagged for growth."""

    rows: tuple
    flagged: tuple


_GROWTH_FACTOR = 1.5
# Roundoff never flags.  For the trace-free constant the floor is relative:
# sup|Aring| + r sup|grad Aring| below 1e-8 sup|A| is roundoff.
_GROWTH_FLOOR = 1e-8


def tracefree_gradient(fd: FundamentalData) -> tuple[np.ndarray, np.ndarray]:
    """Covariant gradient of the tracefree second form, and its norm.

    Returns (nabla, |nabla|) with nabla[a, b, c] (2, 2, 2, ntheta, nphi)
    the derivative along a of the (b, c) component.  Aring is extended to
    ambient indices by the dual frame, differentiated covariantly along the
    tangents and contracted back; for tangential tensors this equals the
    intrinsic covariant derivative.  The extension is symmetric, so its six
    packed components are transformed.
    """
    grid = fd.grid
    N = grid.n_nodes
    T = fd.tangents
    hinv = _form_rows(fd.induced_metric_inv)
    gT = T + np.einsum("ijn,bjn->bin", mcat.unpack(fd.ambient_sigma), T)  # g T_b
    E = np.einsum("abn,bin->ain", hinv, gT)  # dual frame
    Tamb = _extension(E, _form_rows(fd.tracefree_second_form))
    packed = mcat.pack(Tamb).reshape((6,) + grid.shape)
    dTamb = mcat.unpack(synth_gradient(grid, analyze(grid, packed)).reshape(2, 6, N))
    # Gamma^l_ki T_a^k Aring_lj = GT[a, m, i] (g^-1 Aring)_mj, GT = Gamma_m,ki T_a^k
    GT = np.einsum("mkin,akn->amin", mcat.christoffel_lowered(fd.ambient_dg), T)
    Tamb_up = np.einsum("mln,ljn->mjn", mcat.unpack(fd.ambient_metric_inv), Tamb)
    GTamb = np.einsum("amin,mjn->aijn", GT, Tamb_up)
    covT = dTamb - GTamb - GTamb.transpose(0, 2, 1, 3)
    nabla = np.einsum("bin,aicn->abcn", T, np.einsum("aijn,cjn->aicn", covT, T))
    # all three indices raised by h^-1
    raised = np.einsum("zcn,abcn->abzn", hinv, nabla)
    raised = np.einsum("ybn,abzn->ayzn", hinv, raised)
    raised = np.einsum("xan,ayzn->xyzn", hinv, raised)
    grad2 = np.einsum("abcn,abcn->n", nabla, raised)
    norm = np.sqrt(np.clip(grad2, 0.0, None))
    return nabla.reshape((2, 2, 2) + grid.shape), norm.reshape(grid.shape)


def nearly_round_diagnostics(records) -> NearlyRoundReport:
    """Roundness constants across a family of FundamentalData records.

    The records must share one ambient, whose decay order tau scales the
    trace-free constant.  Report-only: constants are measured, never
    asserted here.  A constant is flagged when it grows monotonically by
    more than 1.5x across the family, the signature of a violated
    roundness condition.  diameter_ratio reads each record's diameter,
    searched here on first read and certified to a relative 4 (N + 2) eps
    against all pairs, far below what a 1.5x growth flag can see.
    """
    if len(records) < 3:
        raise ValueError("need at least three family members")
    ambients = {fd.ambient for fd in records}
    if len(ambients) > 1:
        raise ValueError(f"records mix ambients: {', '.join(sorted(ambients))}")
    tau = records[0].tau
    rows = []
    for fd in records:
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
    return NearlyRoundReport(rows=tuple(rows), flagged=tuple(flagged))


# ---------------------------------------------------------------------------
# Identity residuals
# ---------------------------------------------------------------------------


def _flat_extension(fd_hat: FundamentalData, form: np.ndarray) -> np.ndarray:
    """A tangent 2-tensor field as an ambient (3, 3, N) field, by the flat
    dual frame.  Of the flat second form it is the Hessian of the Euclidean
    distance to the surface, restricted to the surface."""
    E = np.einsum("abn,bin->ain", _form_rows(fd_hat.induced_metric_inv), fd_hat.tangents)
    return _extension(E, _form_rows(form))


def second_form_transform_residual(fd_hat: FundamentalData, fd: FundamentalData) -> float:
    """Sup residual of the flat/curved second-form change of ambient.

    The flat-ambient form evaluated on tangents X, Y equals
    |grad rho| A(X, Y) + X^i Y^j Gamma^k_ij nhat_k with rho the Euclidean
    distance and A the curved-ambient form.  Exact, so the residual is
    pure discretization error; components are measured in the
    Euclidean-normalized coordinate frame.
    """
    T = fd_hat.tangents
    nhat = fd_hat.normal.reshape(3, -1)
    nhat_up = np.einsum("ijn,jn->in", mcat.unpack(fd.ambient_metric_inv), nhat)  # g^-1 nhat
    grad_norm = np.sqrt(np.einsum("in,in->n", nhat_up, nhat))
    # nhat_k Gamma^k_ij = (g^-1 nhat)^l Gamma_l,ij, contracted with T_a^i T_b^j
    nGam = np.einsum("lijn,ln->ijn", mcat.christoffel_lowered(fd.ambient_dg), nhat_up)
    gamma_term = np.einsum("ain,bin->abn", T, np.einsum("ijn,bjn->bin", nGam, T))
    res = _form_rows(fd_hat.second_form) - grad_norm * _form_rows(fd.second_form) - gamma_term
    scale = np.linalg.norm(T, axis=1)  # (2, N) Euclidean tangent lengths
    res = res / (scale[:, None] * scale[None, :])
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
    scale = float(np.linalg.norm(X, axis=1).max())
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
    residual at roundoff.  The test suite checks the same matrix by brute
    force, with finite differences of _signed_distances.
    """
    if fd_hat.ambient != "euclidean":
        raise ValueError("distance Hessian check needs the flat-ambient data")
    nhat = fd_hat.normal.reshape(3, -1)
    A_amb = _flat_extension(fd_hat, fd_hat.second_form)
    Aring_amb = _flat_extension(fd_hat, fd_hat.tracefree_second_form)
    proj = np.eye(3)[:, :, None] - nhat[:, None] * nhat[None]
    return float(np.abs(A_amb - Aring_amb - 0.5 * fd_hat.mean_curvature.reshape(-1) * proj).max())


def mean_curvature_expansion_residual(fd_hat: FundamentalData, fd: FundamentalData) -> float:
    """Scaled sup residual of the five-term flat-to-curved H expansion.

    H - Hhat equals (H/2) sigma(nhat, nhat) + (1/2) dsigma(nhat; nhat,
    nhat) - sigma : rho_hess - div(g)(nhat) + (1/2) grad(tr g)(nhat) up
    to O(r^(-1-2tau)); the return value is sup |H - RHS| * r^(1+2tau),
    bounded along a nearly round family.
    """
    nhat = fd_hat.normal.reshape(3, -1)
    rho_hess = _flat_extension(fd_hat, fd_hat.second_form)
    sigma = mcat.unpack(fd.ambient_sigma)
    dg = mcat.unpack(fd.ambient_dg)  # dg[k, i, j] = d_k g_ij
    dgn = np.einsum("kijn,jn->kin", dg, nhat)  # (d_k g) nhat
    H = fd.mean_curvature.reshape(-1)
    Hhat = fd_hat.mean_curvature.reshape(-1)
    t1 = 0.5 * H * _quadratic(sigma, nhat)
    t2 = 0.5 * _quadratic(dgn, nhat)
    t3 = -np.einsum("ijn,ijn->n", sigma, rho_hess)
    t4 = -np.einsum("iin->n", dgn)
    t5 = 0.5 * np.einsum("in,in->n", np.einsum("ijjn->in", dg), nhat)
    resid = H - Hhat - t1 - t2 - t3 - t4 - t5
    return float(np.abs(resid).max()) * fd.r_min ** (1.0 + 2.0 * fd.tau)


def divergence_identity_gap(fd_hat: FundamentalData, fd: FundamentalData) -> float:
    """Exact integration-by-parts identity on the closed surface.

    The flat-measure integral of dsigma contracted with three normals
    equals the sum of a mean-curvature term, a divergence term, and a
    Hessian term; the identity is the tangential divergence theorem, so
    the gap is pure quadrature error.
    """
    nhat = fd_hat.normal.reshape(3, -1)
    rho_hess = _flat_extension(fd_hat, fd_hat.second_form)
    sigma = mcat.unpack(fd.ambient_sigma)
    dg = mcat.unpack(fd.ambient_dg)  # dg[k, i, j] = d_k g_ij
    Hhat = fd_hat.mean_curvature.reshape(-1)
    shp = fd.grid.shape

    def surf_int(field):
        return fd_hat.integrate(field.reshape(shp))

    dgn = np.einsum("kijn,jn->kin", dg, nhat)  # (d_k g) nhat
    i1 = surf_int(_quadratic(dgn, nhat))
    i2 = -surf_int(Hhat * _quadratic(sigma, nhat))
    i3 = surf_int(np.einsum("iin->n", dgn))
    i4 = surf_int(np.einsum("stn,stn->n", sigma, rho_hess))
    return float(abs(i1 - (i2 + i3 + i4)))


def mass_flux(fd_hat: FundamentalData, dg: np.ndarray) -> float:
    """ADM mass flux (1/16 pi) oint (d_i g_ij - d_j g_ii) nhat^j dAhat.

    The flat record gives the normal nhat and the measure dAhat, and dg is
    the metric's derivative at its nodes, packed (3, 6, N) as a curved
    record's ambient_dg or a JetBatch's dg.  Along any exhausting family
    of surfaces the flux tends to the ADM mass (Bartnik, CPAM 1986).
    """
    if fd_hat.ambient != "euclidean":
        raise ValueError("mass flux needs the flat-ambient data")
    dg = mcat.unpack(dg)  # dg[k, i, j] = d_k g_ij
    div = np.einsum("iijn->jn", dg)  # d_i g_ij
    grad_tr = np.einsum("jiin->jn", dg)  # d_j g_ii
    integrand = np.einsum("jn,jn->n", div - grad_tr, fd_hat.normal.reshape(3, -1))
    return fd_hat.integrate(integrand.reshape(fd_hat.grid.shape)) / (16.0 * np.pi)


def mean_curvature_integral_residual(fd_hat: FundamentalData, fd: FundamentalData) -> float:
    """Scaled residual of the integral mean-curvature comparison.

    The curved-measure integral of H - Hhat equals -8 pi times the mass
    flux (mass_flux) minus half the flat-measure integral of
    sigma : rho_hess, up to O(r^(1-2tau)); the return value is
    |LHS - RHS| * r^(2tau-1).
    """
    rho_hess = _flat_extension(fd_hat, fd_hat.second_form)
    sigma = mcat.unpack(fd.ambient_sigma)
    shp = fd.grid.shape
    lhs = fd.integrate(fd.mean_curvature - fd_hat.mean_curvature)
    rhs = -8.0 * np.pi * mass_flux(fd_hat, fd.ambient_dg) - 0.5 * fd_hat.integrate(
        np.einsum("stn,stn->n", sigma, rho_hess).reshape(shp)
    )
    return float(abs(lhs - rhs)) * fd.r_min ** (2.0 * fd.tau - 1.0)
