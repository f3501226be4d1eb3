"""Isometric embedding of nearly round sphere metrics into Euclidean space.

One solver realizes the metric: a Gauss-Newton iteration matches the full
first fundamental form at the grid nodes, working on the harmonic
coefficients of the three position components.  A convex sphere metric
has one Euclidean image up to rigid motion (Nirenberg, CPAM 1953), so the
starting surface changes only the path to it.  `embed` runs that solve on
one `FundamentalData` record: normalize by the areal radius of its metric,
check that the curvature is nearly round, solve from the unit sphere,
rescale, and report the support function, mean curvature, and enclosed
volume of the image.  The conformal uniformization solver (`uniformize`)
and the profile quadrature of a surface of revolution
(`embed_axisymmetric`) stay as library functions; no embedding reads
them.

Both Newton iterations are matrix free: each linear step is solved by
preconditioned conjugate gradients (`_pcg`) on harmonic transforms
(`synth_gradient` and its transpose `synth_gradient_adjoint`), and no
Jacobian is formed.  The preconditioners are the linearizations about the
unit round sphere, which the normalized surfaces approach: the diagonal
-l(l+1) + 2 for the conformal factor, and for the metric match the normal
matrix of the round embedding.  That matrix is block diagonal by azimuthal
charge and two reflections; its blocks are probed through the same J/J^T
products that the solver applies, a few probe columns at a time, kept at
their true sizes and factored together per block size, once per band
limit: like the gauge rows, the charge rotation table and the unit
sphere's coefficients and tangents, they are a table of L cached by
`sphere.band_limit_table`.  The first metric step from the unit sphere is
therefore one preconditioner application, the exact Gauss-Newton step.
The conformal steps are solved to 1e-12; the later metric steps are
inexact Newton steps, stopped at the forcing term min(1e-3, max(rel,
0.1 tol / rel)) of the current residual rel, and the image keeps its
metric gap so that the Brown-York mass can correct for the residual to
first order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from numpy.polynomial.legendre import legder, legval, legvander

from .errors import SolverError
from .sphere import (
    SphereGrid,
    analyze,
    band_limit_table,
    coeff_degrees,
    coeff_index,
    synth_at,
    synth_gradient,
    synth_gradient_adjoint,
    synthesize,
)
from .surfaces import FundamentalData, Immersion, fundamental_forms


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
# Newton steps allowed to the conformal factor solve
_UNIFORMIZE_MAX_ITER = 30
# Gauss-Newton steps allowed to the metric match
_EMBED_MAX_ITER = 30
# largest relative stop of a Gauss-Newton step's conjugate gradients
_FORCING = 1e-3

# degree-one coefficient slots in x, y, z order
_IDX1 = np.array([coeff_index(1, 1), coeff_index(1, -1), coeff_index(1, 0)])


def _curvature_deviation(curvature: np.ndarray) -> float:
    """sup |K - 1| of a curvature field on the normalized scale.  Raises
    RegimeViolation beyond _REGIME_BOUND, where the round-sphere models of
    the solvers no longer hold."""
    deviation = float(np.max(np.abs(curvature - 1.0)))
    if deviation > _REGIME_BOUND:
        raise RegimeViolation(
            f"curvature deviates from 1 by {deviation:.3g} (regime bound {_REGIME_BOUND:.3g})"
        )
    return deviation


def _pcg(apply, rhs: np.ndarray, precondition, rtol: float) -> np.ndarray:
    """Preconditioned conjugate gradients for a symmetric positive definite
    operator, from zero.

    `apply` and `precondition` map arrays of rhs's shape to the same shape.
    Stops once the residual norm is `rtol` times that of `rhs`, or after as
    many iterations as `rhs` has entries.  Inner products are numpy sums,
    not BLAS dot, so the iterates do not depend on the thread count.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    stop = rtol * np.sqrt(np.sum(rhs * rhs))
    z = precondition(r)
    p = z
    rz = np.sum(r * z)
    for _ in range(rhs.size):
        if np.sqrt(np.sum(r * r)) <= stop:
            break
        q = apply(p)
        alpha = rz / np.sum(p * q)
        x += alpha * p
        r -= alpha * q
        z = precondition(r)
        rz, rz_old = np.sum(r * z), rz
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
    deviation = _curvature_deviation(K)

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
    return _pcg(lambda v: jr(jr(v)), jr(b), lambda r: inv_round * r, 1e-12)


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


@band_limit_table
def _gauge_rows(L: int) -> np.ndarray:
    """The six linear gauge conditions on a (n_coeffs, 3) coefficient block,
    as a (6, 3 n_coeffs) matrix against its row-major flattening.

    Rows 0-2 pin the constant coefficient of each component (translations);
    rows 3-5 the antisymmetric part of the degree-one block (rotations).
    """
    G = np.zeros((6, (L + 1) ** 2, 3))
    G[[0, 1, 2], 0, [0, 1, 2]] = 1.0
    for r, (a, b) in enumerate(_ROT_PAIRS):
        G[3 + r, _IDX1[a], b] = 1.0
        G[3 + r, _IDX1[b], a] = -1.0
    return G.reshape(6, -1)


@band_limit_table
def _charge_table(L: int) -> tuple:
    """(P, Q, A, B, C) of `_charge_rotation` on a row-major (n_coeffs, 3)
    block, flat entry i turning to (A[i] v[P[i]] + B[i] v[Q[i]]) / C[i].
    For m != 0 the x_{l,m} entry reads (sign(m) x_{l,m} + y_{l,-m}) / sqrt 2
    and the y_{l,-m} entry (x_{l,m} - sign(m) y_{l,-m}) / sqrt 2; every other
    entry is 1 v[i] + 0 v[i] over 1, itself bit for bit."""
    _, ms = coeff_degrees(L)
    k = np.flatnonzero(ms)
    x, y, sign = 3 * k, 3 * (k - 2 * ms[k]) + 1, np.sign(ms[k])
    P, Q = np.arange(3 * (L + 1) ** 2), np.arange(3 * (L + 1) ** 2)
    A, B, C = np.ones(P.size), np.zeros(P.size), np.ones(P.size)
    Q[x], A[x], B[x], C[x] = y, sign, 1.0, np.sqrt(2.0)
    P[y], A[y], B[y], C[y] = x, 1.0, -sign, np.sqrt(2.0)
    return P, Q, A, B, C


def _charge_rotation(v: np.ndarray) -> np.ndarray:
    """Turn each x/y pair (x_{l,m}, y_{l,-m}), m != 0, of a (n_coeffs, 3,
    ...) block by 45 degrees into its parts of definite azimuthal charge,
    |m| - 1 in the x slot and |m| + 1 in the y slot (x + iy has charge one),
    by the gathers and products of `_charge_table`.  The map is symmetric,
    orthogonal and its own inverse.  A single block is turned as one flat
    vector, whose gathers run about three times as fast as on a (3K, 1)
    array."""
    K = v.shape[0]
    P, Q, A, B, C = _charge_table(round(np.sqrt(K)) - 1)
    flat = v.reshape((3 * K,) + v.shape[2:])
    lift = (slice(None),) + (None,) * (v.ndim - 2)
    return ((A[lift] * flat[P] + B[lift] * flat[Q]) / C[lift]).reshape(v.shape)


@band_limit_table
def _charge_labels(L: int) -> np.ndarray:
    """Class 4 |charge| + 2 equatorial + reflection of each entry of a
    (n_coeffs, 3) block after `_charge_rotation`; the charge is |m| - 1,
    |m| + 1 or |m| for x, y or z.  The round sphere's metric linearization
    commutes with the grid's turns about the z axis and with the
    reflections z -> -z and y -> -y, so its normal matrix has no entries
    between classes."""
    ls, ms = coeff_degrees(L)
    l, m, comp = ls[:, None], ms[:, None], np.arange(3)
    equatorial = ((l + m) % 2 == 1) ^ (comp == 2)
    reflection = (m < 0) ^ (comp == 1)
    return 4 * np.abs(np.abs(m) + [-1, 1, 0]) + 2 * equatorial + reflection


def _metric_linearization(grid: SphereGrid, yt: np.ndarray, yp: np.ndarray):
    """(J, J^T) of the `solve_embedding` residual (the weighted tt, tp, pp
    metric gaps at the nodes, then the six gauge conditions) about node
    tangents yt, yp.  J maps a (n_coeffs, 3, ...) block to (3 n_nodes + 6,
    ...) through one `synth_gradient`, J^T back through one
    `synth_gradient_adjoint`; trailing axes are a stack."""
    N, K = grid.n_nodes, grid.n_coeffs
    sw = np.sqrt(grid.weights.reshape(N, 1))
    gauge = _gauge_rows(grid.L)

    def jac(v):
        vt, vp = (d.reshape(N, 3, -1) for d in synth_gradient(grid, v))
        out = np.concatenate([
            2.0 * sw * np.einsum("nk,nks->ns", yt, vt),
            sw * (np.einsum("nk,nks->ns", yt, vp) + np.einsum("nk,nks->ns", yp, vt)),
            2.0 * sw * np.einsum("nk,nks->ns", yp, vp),
            gauge @ v.reshape(3 * K, -1),
        ])
        return out.reshape((-1,) + v.shape[2:])

    def jac_t(r):
        rs = r.reshape(3 * N + 6, 1, -1)
        rtt, rtp, rpp = (sw[:, None] * rs[i * N : (i + 1) * N] for i in range(3))
        ytt, ypp = yt[:, :, None], yp[:, :, None]
        ft, fp = 2.0 * rtt * ytt + rtp * ypp, rtp * ytt + 2.0 * rpp * ypp
        out = synth_gradient_adjoint(grid, *(f.reshape(grid.shape + (3, -1)) for f in (ft, fp)))
        out += (gauge.T @ rs[3 * N :, 0]).reshape(out.shape)
        return out.reshape((K, 3) + r.shape[1:])

    return jac, jac_t


# probe columns per J0^T J0 application: the build's transient memory grows
# with it, and beyond a few columns its time hardly falls
_PROBE_BATCH = 4


@band_limit_table
def _unit_sphere(L: int) -> tuple:
    """(c, yt, yp) of the unit round sphere at band limit L: its (n_coeffs,
    3) position coefficients and its node tangents, each (n_nodes, 3).  It
    is where `solve_embedding` starts and where
    `_round_normal_blocks` linearizes, so the round preconditioner inverts
    the normal matrix of that start exactly."""
    grid = SphereGrid(L)
    c = analyze(grid, grid.unit_vectors)
    yt, yp = (d.reshape(-1, 3) for d in synth_gradient(grid, c))
    return c, yt, yp


def _round_normal_blocks(grid: SphereGrid) -> tuple:
    """The blocks of J0^T J0, the normal matrix of the unit round embedding
    (Y = x, gauge rows included), after `_charge_rotation`.  Probe j holds a
    one at entry j of every class of `_charge_labels` that has one, and
    `_metric_linearization` applies J0^T J0 to _PROBE_BATCH probes at a
    time, each batch built as it is needed.  Returns one (slots, blocks)
    pair per distinct class size s, in increasing s: slots (n, s) holds the
    flat indices into the row-major (n_coeffs, 3) block of the entries of
    the n classes of that size, blocks (n, s, s) their blocks."""
    K = grid.n_coeffs
    labels = _charge_labels(grid.L).ravel()
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    groups = []
    for s in np.unique(sizes):
        first = starts[sizes == s]
        groups.append((order[first[:, None] + np.arange(s)], np.empty((first.size, s, s))))
    jac, jac_t = _metric_linearization(grid, *_unit_sphere(grid.L)[1:])
    for j0 in range(0, sizes.max(), _PROBE_BATCH):
        j = np.arange(j0, min(j0 + _PROBE_BATCH, sizes.max()))
        cls, col = np.nonzero(sizes[:, None] > j)
        probes = np.zeros((3 * K, j.size))
        probes[order[starts[cls] + j[col]], col] = 1.0
        normal = _charge_rotation(jac_t(jac(_charge_rotation(probes.reshape(K, 3, -1)))))
        for slots, blocks in groups:
            columns = blocks[:, :, j0 : j0 + j.size]
            columns[...] = normal.reshape(3 * K, -1)[slots, : columns.shape[2]]
    return tuple(groups)


def cho_factor(blocks: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of symmetric blocks, (..., n, n).
    Raises np.linalg.LinAlgError when a block is not positive definite."""
    return np.linalg.cholesky(blocks)


@band_limit_table
def _round_inverse_blocks(L: int) -> tuple:
    """(slots, inverse) per distinct block size of `_round_normal_blocks` at
    band limit L: the blocks of one size are factored in one batched
    `cho_factor` call and each inverted as L^-T L^-1, so the table holds
    the blocks at their true sizes."""
    inverses = []
    for slots, blocks in _round_normal_blocks(SphereGrid(L)):
        lower_inv = np.linalg.inv(cho_factor(blocks))
        inverses.append((slots, np.swapaxes(lower_inv, 1, 2) @ lower_inv))
    return tuple(inverses)


def _round_preconditioner(r: np.ndarray) -> np.ndarray:
    """(J0^T J0)^{-1} r on an (n_coeffs, 3) block: per block size of
    `_round_inverse_blocks`, one gather, one stacked product and one
    scatter, between two `_charge_rotation`s."""
    flat = _charge_rotation(r).ravel()
    z = np.empty_like(flat)
    for slots, inverse in _round_inverse_blocks(round(np.sqrt(r.shape[0])) - 1):
        z[slots] = (inverse @ flat[slots][:, :, None])[:, :, 0]
    return _charge_rotation(z.reshape(r.shape))


def _embedding_step(
    grid: SphereGrid, yt: np.ndarray, yp: np.ndarray, R: np.ndarray, eta: float
) -> np.ndarray:
    """Gauss-Newton step of `solve_embedding`: the least-squares solution s
    of J s = -R as an (n_coeffs, 3) block, by conjugate gradients on
    J^T J s = -J^T R preconditioned by the round-sphere normal matrix.  The
    step is inexact: conjugate gradients stop once |J^T J s + J^T R| is
    at most eta |J^T R|."""
    jac, jac_t = _metric_linearization(grid, yt, yp)
    return _pcg(lambda v: jac_t(jac(v)), -jac_t(R), _round_preconditioner, eta)


def _round_step(grid: SphereGrid, R: np.ndarray) -> np.ndarray:
    """Gauss-Newton step of `solve_embedding` from the unit sphere, whose
    J^T J is the normal matrix that `_round_preconditioner` inverts: the
    least-squares solution of J s = -R with no conjugate gradients."""
    _, jac_t = _metric_linearization(grid, *_unit_sphere(grid.L)[1:])
    return -_round_preconditioner(jac_t(R))


def solve_embedding(
    grid: SphereGrid,
    target_metric: np.ndarray,
    *,
    tol: float = 1e-8,
):
    """Match a first fundamental form at the nodes over harmonic coefficients.

    `target_metric` has shape (ntheta, nphi, 2, 2) and should be given on
    the normalized scale where the surface is close to the unit sphere.
    Three equations per node (both diagonal components and the mixed one)
    are solved for the coefficients of the three position components by
    Gauss-Newton with a halving line search, at most _EMBED_MAX_ITER
    steps.  Translations are pinned by zeroing the constant coefficient of
    each component, rotations by symmetrizing the 3x3 block of degree-one
    coefficients, so the solution is a single representative of the
    rigid-motion orbit.

    The iteration starts from the unit round sphere, and takes no step
    when that already matches within `tol`.  The preconditioner is the
    normal matrix J0^T J0 of the unit round embedding, which the
    normalized surface approaches; its azimuthal-charge blocks are probed
    through the same J and J^T and factored once per band limit (see
    `_round_inverse_blocks`).  The first step's normal matrix is J0^T J0
    itself, so that step is one preconditioner application
    (`_round_step`).  Every other step solves
    its normal equations matrix free, by conjugate gradients on J and J^T
    products (`_embedding_step`), to the inexact-Newton forcing term
    eta = min(_FORCING, max(rel, 0.1 tol / rel)) relative to the
    right-hand side, where rel is the current metric residual: loose while
    the iterate is far and tight near the solution (Dembo, Eisenstat &
    Steihaug, SINUM 1982), but on the last step, where a Newton step
    squares rel, only as tight as lands rel a tenth under `tol` rather than
    far past it (Eisenstat & Walker, SISC 1996).

    Returns (immersion, relative_residual, steps) where the residual is the
    sup over nodes of the metric mismatch relative to the local metric size
    and steps counts the Gauss-Newton steps taken.  The immersion carries
    the solve's coefficients and node tangents.  Raises EmbeddingError
    when the iteration stalls above `tol` (the best residual seen is
    attached) and SelfIntersectionError when the converged surface is not
    star shaped about the pinned centroid.
    """
    h = np.asarray(target_metric, dtype=float)
    if h.shape != grid.shape + (2, 2):
        raise ValueError(
            f"target metric shape {h.shape} does not match grid {grid.shape}"
        )
    if np.min(_frobenius(h)) <= 0.0:
        raise ValueError("target metric vanishes at a node")

    sw = np.sqrt(grid.weights.ravel())
    gauge = _gauge_rows(grid.L)

    def state(cm, yt=None, yp=None):
        if yt is None:
            yt, yp = (d.reshape(-1, 3) for d in synth_gradient(grid, cm))
        (dtt, dtp, dpp), rel = _metric_mismatch(yt, yp, h)
        R = np.concatenate([sw * dtt, sw * dtp, sw * dpp, gauge @ cm.ravel()])
        return R, yt, yp, rel

    c, yt, yp = _unit_sphere(grid.L)
    R, yt, yp, rel = state(c, yt, yp)
    best = rel
    steps = 0
    while rel > tol:
        if steps >= _EMBED_MAX_ITER:
            raise EmbeddingError(
                f"no convergence in {_EMBED_MAX_ITER} iterations "
                f"(best residual {best:.3g}, target {tol:.3g})",
                best,
            )
        if steps == 0:
            step = _round_step(grid, R)
        else:
            # forcing term: loose far off, tight near the solution, and on
            # the last step no tighter than what lands a tenth under tol
            step = _embedding_step(grid, yt, yp, R, min(_FORCING, max(rel, 0.1 * tol / rel)))
        norm0 = np.sqrt(np.sum(R * R))
        t = 1.0
        for _ in range(15):
            trial = c + t * step
            R_t, yt_t, yp_t, rel_t = state(trial)
            if np.sqrt(np.sum(R_t * R_t)) < norm0:
                c, R, yt, yp, rel = trial, R_t, yt_t, yp_t, rel_t
                break
            t *= 0.5
        else:
            raise EmbeddingError(
                f"line search stalled (best residual {best:.3g}, target {tol:.3g})",
                best,
            )
        best = min(best, rel)
        steps += 1

    Y = synthesize(grid, c)
    radial = np.einsum("nk,nk->n", Y.reshape(-1, 3), np.cross(yt, yp))
    if np.min(radial) <= 0.0:
        raise SelfIntersectionError(
            "embedded surface is not star shaped about the pinned centroid"
        )
    tangents = (yt.reshape(Y.shape), yp.reshape(Y.shape))
    return Immersion(grid, Y, c, tangents), rel, steps


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
    through the poles, so those two are interpolated through their node
    values by one degree-L Legendre series in cos(theta) (a square
    Legendre-Vandermonde solve at the Gauss nodes, summed by Clenshaw
    recurrence) and everything else is evaluated from them; the height
    integral is a Chebyshev antiderivative of the meridian slope.

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
    # E and G / sin^2 as (L+1, 2) Legendre coefficients in mu = cos(theta)
    profiles = np.linalg.solve(legvander(grid.mu, grid.L), np.stack([E, G / st**2], axis=-1))
    f2_mu = legder(profiles[:, 1])

    def slope_sq(th):
        th = np.asarray(th, dtype=float)
        ct, sth = np.cos(th), np.sin(th)
        e_val, f2 = legval(ct, profiles)
        f2t = -sth * legval(ct, f2_mu)
        f_val = np.sqrt(np.clip(f2, 1e-300, None))
        rp = f2t / (2.0 * f_val) * sth + f_val * ct
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

    The image lives at physical scale: radius is the areal radius of the
    realized metric and the image that radius times the normalized solve.
    image_data holds its Euclidean fundamental forms, support the
    position-normal product X . n0, metric_gap the realized minus the
    requested first fundamental form (ntheta, nphi, 2, 2) and
    metric_residual its sup Frobenius size relative to the requested one.
    steps counts the Gauss-Newton steps of the metric solve from the unit
    sphere.
    """

    radius: float
    image: Immersion
    image_data: FundamentalData
    support: np.ndarray
    volume: float
    metric_gap: np.ndarray
    metric_residual: float
    steps: int
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


def embed(fd: FundamentalData, *, tol: float = 1e-8) -> IsometricEmbedding:
    """Embed the induced metric of a surface record isometrically into
    Euclidean space.

    `fd` carries the metric to realize, in any ambient; the metric fixes
    the image up to a rigid motion, so nothing else of the surface is read.
    The metric is normalized by the areal radius r0 = sqrt(Area / 4 pi),
    under which the area-weighted mean of K r0^2 is exactly 1 (Gauss-
    Bonnet), and realized by one `solve_embedding` call from the unit
    sphere to residual `tol`, every record alike.  The image is that
    solve's position, coefficients and tangents scaled by r0, so no
    transform runs twice.

    Raises RegimeViolation before any solve when sup |K r0^2 - 1| exceeds
    _REGIME_BOUND, or when the image fails mean convexity, and the solver
    errors of the underlying steps.
    """
    grid = fd.grid
    r0 = float(np.sqrt(fd.area / (4.0 * np.pi)))
    _curvature_deviation(fd.gauss_curvature * r0**2)

    img, _, steps = solve_embedding(grid, fd.induced_metric / r0**2, tol=tol)
    image = Immersion(
        grid, r0 * img.Y, r0 * img.coeffs, tuple(r0 * d for d in img.node_tangents)
    )
    image_data = fundamental_forms(image)
    H0 = image_data.mean_curvature
    if np.min(H0) <= 0.0:
        raise RegimeViolation("embedded image lost mean convexity")
    support = np.einsum("tpk,tpk->tp", image.Y, image_data.normal)
    volume = image_data.integrate(support) / 3.0
    if volume <= 0.0:
        raise RegimeViolation("embedded image encloses no volume")

    gap = image_data.induced_metric - fd.induced_metric
    metric_residual = float(np.max(_frobenius(gap) / _frobenius(fd.induced_metric)))

    return IsometricEmbedding(
        radius=r0,
        image=image,
        image_data=image_data,
        support=support,
        volume=volume,
        metric_gap=gap,
        metric_residual=metric_residual,
        steps=steps,
        h0_deviation=float(np.max(np.abs(H0 - 2.0 / r0))),
        support_deviation=float(np.max(np.abs(support - r0))),
    )


# ---------------------------------------------------------------------------
# Integral identities and cross checks
# ---------------------------------------------------------------------------


@dataclass
class MinkowskiResiduals:
    """Relative gaps of the two Minkowski identities."""

    first_identity: float
    second_identity: float


def minkowski_residuals(e: IsometricEmbedding) -> MinkowskiResiduals:
    """Quadrature residuals of the Minkowski integral identities of the image.

    first_identity:  | oint H0 - 2 oint K X.n | / oint H0
    second_identity: | 2 Area - oint H0 X.n | / (2 Area)
    """
    data = e.image_data
    total_h = data.integrate(data.mean_curvature)
    kx = data.integrate(data.gauss_curvature * e.support)
    hx = data.integrate(data.mean_curvature * e.support)
    area = data.area
    return MinkowskiResiduals(
        first_identity=abs(total_h - 2.0 * kx) / abs(total_h),
        second_identity=abs(2.0 * area - hx) / (2.0 * area),
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


def volume_cross_check(e: IsometricEmbedding) -> float:
    """Relative gap between the image's enclosed volume taken two ways.

    The divergence-theorem value e.volume (support integral over the curved
    area element) is compared against signed tetrahedra on spectrally
    resampled meshes of 128 and 256 bands; the facet error is O(h^2), so
    the two levels are Richardson extrapolated before comparing.
    """
    c = e.image.component_coeffs()
    coarse = _tetrahedron_volume(c, 128)
    fine = _tetrahedron_volume(c, 256)
    v_tet = (4.0 * fine - coarse) / 3.0
    return abs(v_tet - e.volume) / abs(e.volume)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def write_embedding_obj(e: IsometricEmbedding, path) -> None:
    """Triangle mesh of an embedding's image in OBJ format.

    Vertices are the grid nodes plus the two spectrally evaluated pole
    points; belt quads are split into triangles and the poles closed with
    fans, all oriented outward.
    """
    imm = e.image
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
