"""Isometric embedding of nearly round sphere metrics into Euclidean space.

Three solvers cooperate here.  A conformal uniformization step produces the
log factor whose conformally round metric matches a given curvature field.
A Gauss-Newton iteration then matches the full first fundamental form at
the grid nodes, working on the harmonic coefficients of the three position
components.  Surfaces of revolution bypass the iteration through an exact
profile quadrature.  `embed` chains the pieces: normalize by the best-fit
radius, uniformize, solve, rescale, and report the support function, mean
curvature, and enclosed volume of the image.

Both Newton iterations are matrix free: each linear step is solved by
preconditioned conjugate gradients (`_pcg`) on harmonic transforms
(`synth_gradient` and its transpose `synth_gradient_adjoint`), and no
Jacobian is formed.  The preconditioners are the linearizations about the
unit round sphere, which the normalized surfaces approach: the diagonal
-l(l+1) + 2 for the conformal factor, and for the metric match the normal
matrix of the round embedding, factored once per grid in its eight parity
blocks from columns of the grid's dense derivative matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from scipy.linalg import cho_factor, cho_solve

from .errors import SolverError
from .sphere import (
    SphereGrid,
    analyze,
    center_gauge,
    coeff_degrees,
    coeff_index,
    conformal_moments,
    synth_at,
    synth_gradient,
    synth_gradient_adjoint,
    synthesize,
)
from .surfaces import (
    FundamentalData,
    Immersion,
    best_fit_sphere,
    fundamental_forms,
)


class RegimeViolation(SolverError):
    """Input data sits outside the nearly round regime the solvers assume."""


class UniformizationError(SolverError):
    """The conformal factor solve did not reach the requested residual."""


class EmbeddingError(SolverError):
    """The metric matching iteration stalled; carries the best residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class SelfIntersectionError(SolverError):
    """The candidate embedding folds back through itself."""


class EmbeddabilityError(SolverError):
    """A profile pair admits no surface of revolution."""


# sup |K - 1| beyond which the normalized curvature is not nearly round
_REGIME_BOUND = 0.5
# relative phi variation below which data counts as a surface of revolution
_AXISYM_TOL = 1e-10
# Newton steps allowed to the conformal factor solve
_UNIFORMIZE_MAX_ITER = 30

# degree-one coefficient slots in x, y, z order
_IDX1 = np.array([coeff_index(1, 1), coeff_index(1, -1), coeff_index(1, 0)])


def _pcg(apply, rhs: np.ndarray, precondition) -> np.ndarray:
    """Preconditioned conjugate gradients for a symmetric positive definite
    operator, from zero.

    `apply` and `precondition` map arrays of rhs's shape to the same shape.
    Stops once the residual norm is 1e-12 times that of `rhs`, or after as
    many iterations as `rhs` has entries.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    stop = 1e-12 * np.linalg.norm(rhs)
    z = precondition(r)
    p = z
    rz = np.vdot(r, z)
    for _ in range(rhs.size):
        if np.linalg.norm(r) <= stop:
            break
        q = apply(p)
        alpha = rz / np.vdot(p, q)
        x += alpha * p
        r -= alpha * q
        z = precondition(r)
        rz, rz_old = np.vdot(r, z), rz
        p = z + (rz / rz_old) * p
    return x


# ---------------------------------------------------------------------------
# Conformal uniformization
# ---------------------------------------------------------------------------


@dataclass
class UniformizationDiagnostics:
    """Size breakdown of the log conformal factor and solve quality.

    mean_part is the constant component of u, first_harmonic the three
    degree-one coefficients (x, y, z order), higher_norm the L2 norm of the
    degree >= 2 part.  curvature_deviation records sup |K - 1| of the input.
    kernel_defect is the norm of the degree-one component of the final
    residual; prescribing curvature in a fixed parametrization is
    obstructed there, and the defect is quadratically small in the
    curvature deviation.
    """

    mean_part: float
    first_harmonic: np.ndarray
    higher_norm: float
    curvature_deviation: float
    residual: float
    kernel_defect: float
    iterations: int


def uniformize(
    grid: SphereGrid,
    curvature: np.ndarray,
    *,
    tol: float = 1e-10,
):
    """Solve  Delta u + K e^{2u} = 1  on the unit sphere for the log factor.

    `curvature` samples K at the grid nodes; it must stay within
    _REGIME_BOUND of 1 in sup norm or the solve refuses to start.  The
    degree-one harmonics span the near-kernel of the linearization
    Delta + 2 K e^{2u}, and the degree-one component of the equation is
    structurally obstructed for a fixed parametrization, so the solve runs
    entirely in the complement: Newton steps avoid degree one and
    convergence is judged on the pointwise residual with its degree-one
    part removed.  That part is returned as the kernel defect; it vanishes
    when K is an exactly attainable curvature field and is otherwise
    quadratically small in the deviation.

    Each Newton step is solved matrix free (see `_uniformize_step`), by
    conjugate gradients preconditioned with the round-sphere linearization
    Delta + 2, which is diagonal in harmonic space.  Once the coefficient
    residual is at roundoff while the nodal residual stays above `tol`, the
    curvature field is not resolved at this band limit and the solve stops.

    Returns (u, diagnostics) with u sampled at the nodes.
    """
    K = np.asarray(curvature, dtype=float)
    if K.shape != grid.shape:
        raise ValueError(f"curvature shape {K.shape} does not match grid {grid.shape}")
    deviation = float(np.max(np.abs(K - 1.0)))
    if deviation > _REGIME_BOUND:
        raise RegimeViolation(
            f"curvature deviates from 1 by {deviation:.3g} "
            f"(regime bound {_REGIME_BOUND:.3g}); normalize the metric first"
        )

    ls, _ = coeff_degrees(grid.L)
    lam = -(ls * (ls + 1.0))
    e0 = np.zeros(grid.n_coeffs)
    e0[0] = np.sqrt(4.0 * np.pi)
    keep = np.flatnonzero(ls != 1)
    deg1 = np.flatnonzero(ls == 1)

    def parts(cv):
        u = synthesize(grid, cv)
        f = K * np.exp(2.0 * u)
        rc = lam * cv + analyze(grid, f) - e0
        return rc, f

    def node_residual(cv, f):
        field = synthesize(grid, lam * cv) + f - 1.0
        cres = analyze(grid, field)
        kernel = np.zeros_like(cres)
        kernel[deg1] = cres[deg1]
        proj = field - synthesize(grid, kernel)
        return float(np.max(np.abs(proj))), cres[deg1]

    c = np.zeros(grid.n_coeffs)
    rc, f = parts(c)
    floor = 1e-13 * max(1.0, float(np.max(np.abs(K))))
    best = np.inf
    n_iter = 0
    while True:
        sup, defect = node_residual(c, f)
        best = min(best, sup)
        if sup <= tol:
            break
        if np.max(np.abs(rc[keep])) <= floor:
            # further Newton steps only stir roundoff
            raise UniformizationError(
                f"discrete system solved to roundoff but the nodal "
                f"residual {sup:.3g} sits above the target {tol:.3g}; "
                f"the curvature field is not resolved at band limit {grid.L}"
            )
        if n_iter >= _UNIFORMIZE_MAX_ITER:
            raise UniformizationError(
                f"no convergence after {_UNIFORMIZE_MAX_ITER} Newton steps "
                f"(best residual {best:.3g}, target {tol:.3g})"
            )
        step = _uniformize_step(grid, f, rc)
        norm0 = np.linalg.norm(rc[keep])
        t = 1.0
        for _ in range(15):
            trial = c + t * step
            rc_t, f_t = parts(trial)
            if np.linalg.norm(rc_t[keep]) < norm0:
                c, rc, f = trial, rc_t, f_t
                break
            t *= 0.5
        else:
            raise UniformizationError(
                f"line search stalled at residual {sup:.3g} (target {tol:.3g})"
            )
        n_iter += 1

    u = synthesize(grid, c)
    diag = UniformizationDiagnostics(
        mean_part=float(abs(c[0]) / np.sqrt(4.0 * np.pi)),
        first_harmonic=c[_IDX1],
        higher_norm=float(np.sqrt(np.sum(c[ls >= 2] ** 2))),
        curvature_deviation=deviation,
        residual=sup,
        kernel_defect=float(np.linalg.norm(defect)),
        iterations=n_iter,
    )
    return u, diag


def _uniformize_step(grid: SphereGrid, f: np.ndarray, rc: np.ndarray) -> np.ndarray:
    """Newton step of `uniformize` off degree one, at e^{2u} K = f.

    The reduced Jacobian Jr v = lam v + 2 analyze(f synthesize(v)), restricted
    to degrees l != 1, is symmetric but indefinite, so Jr s = -rc is solved
    through Jr^2 s = -Jr rc with the round-sphere diagonal (lam + 2)^2 as
    preconditioner.  The step is zero in degree one.
    """
    ls, _ = coeff_degrees(grid.L)
    lam = -(ls * (ls + 1.0))
    deg1 = ls == 1
    inv_round = np.zeros(grid.n_coeffs)
    inv_round[~deg1] = 1.0 / (lam[~deg1] + 2.0) ** 2

    def jr(v):
        out = lam * v + 2.0 * analyze(grid, f * synthesize(grid, v))
        out[deg1] = 0.0
        return out

    b = np.where(deg1, 0.0, -rc)
    return _pcg(lambda v: jr(jr(v)), jr(b), lambda r: inv_round * r)


# ---------------------------------------------------------------------------
# First fundamental form matching
# ---------------------------------------------------------------------------


def _frobenius(h: np.ndarray) -> np.ndarray:
    """Frobenius size of symmetric 2x2 fields, off-diagonal counted twice."""
    return np.sqrt(h[..., 0, 0] ** 2 + 2.0 * h[..., 0, 1] ** 2 + h[..., 1, 1] ** 2)


def _metric_mismatch(yt: np.ndarray, yp: np.ndarray, h: np.ndarray):
    """Gap between the metric of node tangents (yt, yp) and the target h.

    yt and yp are (n_nodes, 3), h is (..., 2, 2) over the same nodes.
    Returns the (tt, tp, pp) component differences, each (n_nodes,), and
    the sup over nodes of their Frobenius size relative to that of h.
    """
    h = h.reshape(-1, 2, 2)
    dtt = np.einsum("nk,nk->n", yt, yt) - h[:, 0, 0]
    dtp = np.einsum("nk,nk->n", yt, yp) - h[:, 0, 1]
    dpp = np.einsum("nk,nk->n", yp, yp) - h[:, 1, 1]
    mis = np.sqrt(dtt**2 + 2.0 * dtp**2 + dpp**2)
    return (dtt, dtp, dpp), float(np.max(mis / _frobenius(h)))


_ROT_PAIRS = ((0, 1), (0, 2), (1, 2))


def _gauge_rows(n_coeffs: int) -> np.ndarray:
    """The six linear gauge conditions on a (n_coeffs, 3) coefficient block,
    as a (6, 3 n_coeffs) matrix against its row-major flattening.

    Rows 0-2 pin the constant coefficient of each component (translations);
    rows 3-5 the antisymmetric part of the degree-one block (rotations).
    """
    G = np.zeros((6, n_coeffs, 3))
    G[[0, 1, 2], 0, [0, 1, 2]] = 1.0
    for r, (a, b) in enumerate(_ROT_PAIRS):
        G[3 + r, _IDX1[a], b] = 1.0
        G[3 + r, _IDX1[b], a] = -1.0
    return G.reshape(6, -1)


def _parity_labels(L: int) -> np.ndarray:
    """Parity class, 0..7, of each entry of a (n_coeffs, 3) coefficient block.

    The three parities are the equatorial reflection z -> -z, the azimuthal
    reflection y -> -y and the half turn about the z axis, each acting on
    the harmonic and on the position component together.  The round
    sphere's metric linearization commutes with all three, so its normal
    matrix has no entries between classes.
    """
    ls, ms = coeff_degrees(L)
    l, m = ls[:, None], ms[:, None]
    comp = np.arange(3)[None, :]
    equatorial = ((l + m) % 2 == 1) ^ (comp == 2)
    reflection = (m < 0) ^ (comp == 1)
    charge = (m + (comp != 2)) % 2 == 1
    return 4 * equatorial + 2 * reflection + charge


def _round_normal_blocks(grid: SphereGrid):
    """Cholesky factors of J0^T J0, the Gauss-Newton normal matrix of the
    unit round embedding (Y = x, gauge rows included), one per non-empty
    parity class of `_parity_labels`.

    Returns (flat indices into the row-major (n_coeffs, 3) block, factor)
    pairs.  The factors depend only on the grid and are cached on it.
    """
    if "round_normal" not in grid._cache:
        # x, y, z are sqrt(4 pi / 3) times the degree-one harmonics
        c0 = np.zeros((grid.n_coeffs, 3))
        c0[_IDX1, [0, 1, 2]] = np.sqrt(4.0 * np.pi / 3.0)
        yt, yp = (d.reshape(-1, 3) for d in synth_gradient(grid, c0))
        Dt, Dp = grid.dtheta_matrix, grid.dphi_matrix
        sw = np.sqrt(grid.weights.ravel())[:, None]
        gauge = _gauge_rows(grid.n_coeffs)
        labels = _parity_labels(grid.L).ravel()
        blocks = []
        for label in range(8):
            idx = np.flatnonzero(labels == label)
            if idx.size == 0:
                continue
            j, k = np.divmod(idx, 3)
            dt, dp = Dt[:, j], Dp[:, j]
            cols = np.concatenate([
                2.0 * sw * yt[:, k] * dt,
                sw * (yp[:, k] * dt + yt[:, k] * dp),
                2.0 * sw * yp[:, k] * dp,
                gauge[:, idx],
            ])
            blocks.append((idx, cho_factor(cols.T @ cols, check_finite=False)))
        grid._cache["round_normal"] = blocks
    return grid._cache["round_normal"]


def _embedding_step(grid: SphereGrid, yt: np.ndarray, yp: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Gauss-Newton step of `solve_embedding`: the least-squares solution s
    of J s = -R, as an (n_coeffs, 3) coefficient block.

    J linearizes the residual (the weighted tt, tp, pp metric gaps at the
    nodes, then the six gauge conditions) about the node tangents yt, yp.
    The normal equations J^T J s = -J^T R are solved by conjugate gradients
    on products with J and J^T, one `synth_gradient` or
    `synth_gradient_adjoint` each, preconditioned by the round-sphere
    normal matrix.
    """
    N, shape = grid.n_nodes, grid.shape + (3,)
    sw = np.sqrt(grid.weights.ravel())
    gauge = _gauge_rows(grid.n_coeffs)
    blocks = _round_normal_blocks(grid)

    def jac(v):
        vt, vp = (d.reshape(N, 3) for d in synth_gradient(grid, v))
        return np.concatenate([
            2.0 * sw * np.einsum("nk,nk->n", yt, vt),
            sw * (np.einsum("nk,nk->n", yt, vp) + np.einsum("nk,nk->n", yp, vt)),
            2.0 * sw * np.einsum("nk,nk->n", yp, vp),
            gauge @ v.ravel(),
        ])

    def jac_t(r):
        rtt, rtp, rpp = ((sw * r[i * N : (i + 1) * N])[:, None] for i in range(3))
        ft, fp = 2.0 * rtt * yt + rtp * yp, rtp * yt + 2.0 * rpp * yp
        out = synth_gradient_adjoint(grid, ft.reshape(shape), fp.reshape(shape))
        return out + (gauge.T @ r[3 * N :]).reshape(out.shape)

    def precondition(r):
        flat = r.ravel()
        z = np.empty_like(flat)
        for idx, factor in blocks:
            z[idx] = cho_solve(factor, flat[idx], check_finite=False)
        return z.reshape(r.shape)

    return _pcg(lambda v: jac_t(jac(v)), -jac_t(R), precondition)


def solve_embedding(
    grid: SphereGrid,
    target_metric: np.ndarray,
    log_factor: np.ndarray | None = None,
    seed: Immersion | None = None,
    *,
    tol: float = 1e-8,
    max_iter: int = 30,
):
    """Match a first fundamental form at the nodes over harmonic coefficients.

    `target_metric` has shape (ntheta, nphi, 2, 2) and should be given on
    the normalized scale where the surface is close to the unit sphere.
    Three equations per node (both diagonal components and the mixed one)
    are solved for the coefficients of the three position components by
    Gauss-Newton with a halving line search.  Translations are pinned by
    zeroing the constant coefficient of each component, rotations by
    symmetrizing the 3x3 block of degree-one coefficients, so the solution
    is a single representative of the rigid-motion orbit.

    Each Gauss-Newton step solves its normal equations matrix free, by
    conjugate gradients on J and J^T products (`_embedding_step`), to a
    relative residual of 1e-12.  The preconditioner is the normal matrix of
    the unit round embedding, which the normalized surface approaches; it
    is factored once per grid, in eight parity blocks, and cached on it.

    The starting point is exp(log_factor) times the round embedding unless
    an explicit `seed` immersion is supplied.

    Returns (immersion, relative_residual) where the residual is the sup
    over nodes of the metric mismatch relative to the local metric size.
    Raises EmbeddingError when the iteration stalls above `tol` (the best
    residual seen is attached) and SelfIntersectionError when the converged
    surface is not star shaped about the pinned centroid.
    """
    h = np.asarray(target_metric, dtype=float)
    if h.shape != grid.shape + (2, 2):
        raise ValueError(
            f"target metric shape {h.shape} does not match grid {grid.shape}"
        )
    if np.min(_frobenius(h)) <= 0.0:
        raise ValueError("target metric vanishes at a node")

    sw = np.sqrt(grid.weights.ravel())
    gauge = _gauge_rows(grid.n_coeffs)

    if seed is not None:
        Y0 = seed.Y
    else:
        u = np.zeros(grid.shape) if log_factor is None else np.asarray(log_factor)
        Y0 = np.exp(u)[..., None] * grid.unit_vectors
    c = analyze(grid, Y0)

    def state(cm):
        yt, yp = (d.reshape(-1, 3) for d in synth_gradient(grid, cm))
        (dtt, dtp, dpp), rel = _metric_mismatch(yt, yp, h)
        R = np.concatenate([sw * dtt, sw * dtp, sw * dpp, gauge @ cm.ravel()])
        return R, yt, yp, rel

    R, yt, yp, rel = state(c)
    best = rel
    for _ in range(max_iter):
        if rel <= tol:
            break
        step = _embedding_step(grid, yt, yp, R)
        norm0 = np.linalg.norm(R)
        t = 1.0
        for _ in range(15):
            trial = c + t * step
            R_t, yt_t, yp_t, rel_t = state(trial)
            if np.linalg.norm(R_t) < norm0:
                c, R, yt, yp, rel = trial, R_t, yt_t, yp_t, rel_t
                break
            t *= 0.5
        else:
            raise EmbeddingError(
                f"line search stalled (best residual {best:.3g}, target {tol:.3g})",
                best,
            )
        best = min(best, rel)
    if rel > tol:
        raise EmbeddingError(
            f"no convergence in {max_iter} iterations "
            f"(best residual {best:.3g}, target {tol:.3g})",
            best,
        )

    Y = synthesize(grid, c)
    radial = np.einsum("nk,nk->n", Y.reshape(-1, 3), np.cross(yt, yp))
    if np.min(radial) <= 0.0:
        raise SelfIntersectionError(
            "embedded surface is not star shaped about the pinned centroid"
        )
    return Immersion(grid, Y), rel


# ---------------------------------------------------------------------------
# Surfaces of revolution
# ---------------------------------------------------------------------------


def embed_axisymmetric(
    grid: SphereGrid,
    meridian_profile: np.ndarray,
    parallel_profile: np.ndarray,
) -> Immersion:
    """Surface of revolution realizing  E dtheta^2 + G dphi^2.

    The profiles sample E(theta) and G(theta) at the grid colatitudes.  The
    parallel radius is R = sqrt(G); the height solves z' = -sqrt(E - R'^2)
    so the north pole sits on top and the orientation agrees with the
    round embedding.  E and G/sin^2 are the quantities that stay smooth
    through the poles, so those two are carried spectrally and everything
    else is evaluated from them; the height integral is a Chebyshev
    antiderivative of the meridian slope.

    Raises EmbeddabilityError when a profile is not positive or the
    meridian speed undershoots the parallel slope (E - R'^2 < 0 beyond
    roundoff).
    """
    E = np.asarray(meridian_profile, dtype=float)
    G = np.asarray(parallel_profile, dtype=float)
    if E.shape != (grid.ntheta,) or G.shape != (grid.ntheta,):
        raise ValueError("profiles must be sampled at the grid colatitudes")
    if np.min(E) <= 0.0 or np.min(G) <= 0.0:
        raise EmbeddabilityError("profiles must be strictly positive")

    st = np.sin(grid.theta)
    # E and G / sin^2 as one (ntheta, nphi, 2) stack, constant in phi
    pair = np.repeat(np.stack([E, G / st**2], axis=-1)[:, None], grid.nphi, axis=1)
    profiles = analyze(grid, pair)

    def slope_sq(th):
        th = np.asarray(th, dtype=float)
        f, ft, _ = synth_at(profiles, th, 0.0, nderiv=1)
        e_val, f2, f2t = f[:, 0], f[:, 1], ft[:, 1]
        f_val = np.sqrt(np.clip(f2, 1e-300, None))
        rp = f2t / (2.0 * f_val) * np.sin(th) + f_val * np.cos(th)
        return e_val - rp**2, f2

    probe = np.linspace(0.0, np.pi, 8 * grid.L + 9)
    disc, f2_probe = slope_sq(probe)
    if np.min(f2_probe) <= 0.0:
        raise EmbeddabilityError("parallel radius profile collapses")
    if np.min(disc) < -1e-10 * np.max(E):
        raise EmbeddabilityError(
            "meridian speed undershoots the parallel slope "
            f"(min E - R'^2 = {np.min(disc):.3g})"
        )
    speed = Chebyshev.interpolate(
        lambda th: np.sqrt(np.clip(slope_sq(th)[0], 0.0, None)),
        4 * grid.L + 16,
        domain=[0.0, np.pi],
    )
    height = speed.integ(lbnd=0.0)
    z = -np.asarray(height(grid.theta))
    z -= grid.integrate(np.repeat(z[:, None], grid.nphi, axis=1)) / (4.0 * np.pi)
    R = np.sqrt(G)

    cp = np.cos(grid.phi)[None, :]
    sp = np.sin(grid.phi)[None, :]
    Y = np.stack(
        [
            R[:, None] * cp,
            R[:, None] * sp,
            np.repeat(z[:, None], grid.nphi, axis=1),
        ],
        axis=-1,
    )
    return Immersion(grid, Y)


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


@dataclass
class IsometricEmbedding:
    """A Euclidean realization of the induced metric of a sampled surface.

    The image lives at physical scale (radius times the normalized solve).
    image_data holds its Euclidean fundamental forms, support the
    position-normal product X . n0, and metric_residual the sup relative
    mismatch between realized and requested first fundamental forms.
    log_factor is the center-gauged conformal factor of the normalized
    metric and gauge the dilation parameter that centered it.
    """

    source: Immersion
    radius: float
    log_factor: np.ndarray
    gauge: np.ndarray
    image: Immersion
    image_data: FundamentalData
    support: np.ndarray
    volume: float
    metric_residual: float
    method: str
    diagnostics: UniformizationDiagnostics
    gauge_moment: float
    h0_deviation: float
    support_deviation: float

    @property
    def grid(self) -> SphereGrid:
        return self.image.grid

    @property
    def mean_curvature(self) -> np.ndarray:
        return self.image_data.mean_curvature

    @property
    def area(self) -> float:
        return self.image_data.area


def _node_metric_mismatch(grid: SphereGrid, imm: Immersion, h: np.ndarray) -> float:
    yt, yp = (d.reshape(-1, 3) for d in synth_gradient(grid, imm.component_coeffs()))
    _, rel = _metric_mismatch(yt, yp, h)
    return rel


def embed(
    s: Immersion,
    fd: FundamentalData | None = None,
    fd_hat: FundamentalData | None = None,
    *,
    tol: float = 1e-8,
    pde_tol: float = 1e-10,
    force_general: bool = False,
) -> IsometricEmbedding:
    """Embed the induced metric of `s` isometrically into Euclidean space.

    `fd` carries the metric to realize, the flat one of `s` when omitted;
    `fd_hat` is the flat-ambient data of `s`, computed when omitted.  The
    pipeline normalizes by the best-fit radius of the Euclidean shape of
    `s`, solves for the conformal log factor matching the intrinsic
    curvature, records the centering gauge, and then matches the first
    fundamental form, through the revolution route when the data is phi
    independent (within _AXISYM_TOL, unless force_general) and by
    Gauss-Newton otherwise.  The image is rescaled to physical size.

    `tol` bounds the metric match, `pde_tol` the nodal residual of the
    conformal factor solve (relax the latter for curvature data that is
    not band limited at the working resolution).

    Raises RegimeViolation when the curvature leaves the nearly round
    window or the image fails mean convexity, and the solver errors of the
    underlying steps.
    """
    grid = s.grid
    if fd_hat is None:
        fd_hat = fd if fd is not None and fd.ambient == "euclidean" else fundamental_forms(s)
    if fd is None:
        fd = fd_hat
    r0 = best_fit_sphere(fd_hat, s).radius

    h = fd.induced_metric / r0**2
    u, udiag = uniformize(grid, fd.gauss_curvature * r0**2, tol=pde_tol)
    gauged, b = center_gauge(grid, u)
    gauge_moment = float(np.max(np.abs(conformal_moments(grid, gauged))))

    scale = float(np.max(np.abs(h)))
    variation = float(np.max(np.abs(h - h[:, :1, :, :])))
    offdiag = float(np.max(np.abs(h[..., 0, 1])))
    if variation <= _AXISYM_TOL * scale and offdiag <= _AXISYM_TOL * scale and not force_general:
        img = embed_axisymmetric(grid, h[:, 0, 0, 0], h[:, 0, 1, 1])
        rel = _node_metric_mismatch(grid, img, h)
        method = "axisymmetric"
        if rel > tol:
            # profile quadrature hit its accuracy floor; polish in place
            img, rel = solve_embedding(grid, h, seed=img, tol=tol)
            method = "axisymmetric+newton"
    else:
        img, rel = solve_embedding(grid, h, log_factor=u, tol=tol)
        method = "general"

    image = Immersion(grid, r0 * img.Y)
    image_data = fundamental_forms(image)
    H0 = image_data.mean_curvature
    if np.min(H0) <= 0.0:
        raise RegimeViolation("embedded image lost mean convexity")
    support = np.einsum("tpk,tpk->tp", image.Y, image_data.normal)
    volume = image_data.integrate(support) / 3.0
    if volume <= 0.0:
        raise RegimeViolation("embedded image encloses no volume")

    diff = _frobenius(image_data.induced_metric - fd.induced_metric)
    metric_residual = float(np.max(diff / _frobenius(fd.induced_metric)))

    return IsometricEmbedding(
        source=s,
        radius=r0,
        log_factor=gauged,
        gauge=b,
        image=image,
        image_data=image_data,
        support=support,
        volume=volume,
        metric_residual=metric_residual,
        method=method,
        diagnostics=udiag,
        gauge_moment=gauge_moment,
        h0_deviation=float(np.max(np.abs(H0 - 2.0 / r0))),
        support_deviation=float(np.max(np.abs(support - r0))),
    )


# ---------------------------------------------------------------------------
# Integral identities and cross checks
# ---------------------------------------------------------------------------


@dataclass
class MinkowskiResiduals:
    """Relative gaps of the two Minkowski identities plus the scaled
    total-mean-curvature gap against 4 pi r0 + Area / r0."""

    first_identity: float
    second_identity: float
    claim_residual: float


def minkowski_residuals(e: IsometricEmbedding, tau: float = 1.0) -> MinkowskiResiduals:
    """Quadrature residuals of the Minkowski integral identities of the image.

    first_identity:  | oint H0 - 2 oint K X.n | / oint H0
    second_identity: | 2 Area - oint H0 X.n | / (2 Area)
    claim_residual:  | oint H0 - 4 pi r0 - Area/r0 | * r0^(2 tau - 1)
    """
    data = e.image_data
    total_h = data.integrate(data.mean_curvature)
    kx = data.integrate(data.gauss_curvature * e.support)
    hx = data.integrate(data.mean_curvature * e.support)
    area = data.area
    r0 = e.radius
    return MinkowskiResiduals(
        first_identity=abs(total_h - 2.0 * kx) / abs(total_h),
        second_identity=abs(2.0 * area - hx) / (2.0 * area),
        claim_residual=abs(total_h - 4.0 * np.pi * r0 - area / r0)
        * r0 ** (2.0 * tau - 1.0),
    )


def _tetrahedron_volume(coeffs: np.ndarray, level: int) -> float:
    """Signed volume of the faceted surface resampled at `level` bands."""
    theta = np.linspace(0.0, np.pi, level + 1)
    phi = 2.0 * np.pi * np.arange(2 * level) / (2 * level)
    V = synth_at(coeffs, theta[:, None], phi[None, :])
    A = V[:-1]
    B = V[1:]
    C = np.roll(B, -1, axis=1)
    D = np.roll(A, -1, axis=1)
    v = np.einsum("ijk,ijk->ij", A, np.cross(B, C))
    v += np.einsum("ijk,ijk->ij", A, np.cross(C, D))
    return float(np.sum(v) / 6.0)


@dataclass
class VolumeCheck:
    divergence: float
    tetrahedron: float
    rel_gap: float


def volume_cross_check(e, levels: tuple[int, int] = (128, 256)) -> VolumeCheck:
    """Enclosed volume two independent ways.

    The divergence-theorem value (support integral over the curved area
    element) is compared against signed tetrahedra on spectrally resampled
    fine meshes; the facet error is O(h^2), so the two levels are Richardson
    extrapolated before comparing.
    """
    if isinstance(e, IsometricEmbedding):
        imm, v_div = e.image, e.volume
    else:
        imm = e
        data = fundamental_forms(imm)
        v_div = data.integrate(np.einsum("tpk,tpk->tp", imm.Y, data.normal)) / 3.0
    c = imm.component_coeffs()
    coarse = _tetrahedron_volume(c, levels[0])
    fine = _tetrahedron_volume(c, levels[1])
    r = (levels[1] / levels[0]) ** 2
    v_tet = (r * fine - coarse) / (r - 1.0)
    return VolumeCheck(v_div, v_tet, abs(v_tet - v_div) / abs(v_div))


# ---------------------------------------------------------------------------
# Alignment and export
# ---------------------------------------------------------------------------


def rigid_align(grid: SphereGrid, Y: np.ndarray, Y_ref: np.ndarray):
    """Best rigid motion of Y onto Y_ref in the quadrature-weighted L2 sense.

    Returns (aligned Y, rms distance after alignment).  Reflections are
    excluded; only proper rotations plus translations are searched.
    """
    w = grid.weights.ravel()
    w = w / w.sum()
    A = Y.reshape(-1, 3)
    B = Y_ref.reshape(-1, 3)
    mu_a = w @ A
    mu_b = w @ B
    Ac = A - mu_a
    Bc = B - mu_b
    H = Ac.T @ (w[:, None] * Bc)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    rot = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    aligned = Ac @ rot.T + mu_b
    rms = float(np.sqrt(w @ np.sum((aligned - B) ** 2, axis=1)))
    return aligned.reshape(Y.shape), rms


def write_embedding_obj(target, path) -> None:
    """Triangle mesh of an embedded surface in OBJ format.

    Vertices are the grid nodes plus the two spectrally evaluated pole
    points; belt quads are split into triangles and the poles closed with
    fans, all oriented outward.
    """
    imm = target.image if isinstance(target, IsometricEmbedding) else target
    grid = imm.grid
    poles = synth_at(imm.component_coeffs(), np.array([0.0, np.pi]), 0.0)
    nt, nph = grid.shape

    def vid(i, j):
        return i * nph + (j % nph) + 1

    north = nt * nph + 1
    south = nt * nph + 2
    with open(path, "w") as fh:
        fh.write(f"# sphere immersion mesh: {nt}x{nph} nodes plus pole caps\n")
        for v in imm.points:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for v in poles:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for j in range(nph):
            fh.write(f"f {north} {vid(0, j)} {vid(0, j + 1)}\n")
        for i in range(nt - 1):
            for j in range(nph):
                fh.write(f"f {vid(i, j)} {vid(i + 1, j)} {vid(i + 1, j + 1)}\n")
                fh.write(f"f {vid(i, j)} {vid(i + 1, j + 1)} {vid(i, j + 1)}\n")
        for j in range(nph):
            fh.write(f"f {south} {vid(nt - 1, j + 1)} {vid(nt - 1, j)}\n")
