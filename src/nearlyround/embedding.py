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
Jacobian is formed.  The metric match works on node-last rows throughout:
tangents are (2, 3, n_nodes), metrics and gaps (3, n_nodes), and one normal
operator J^T J (`_metric_linearization`) serves conjugate gradients and
the preconditioner's build alike.  The preconditioners are the
linearizations about the unit round sphere, which the normalized surfaces
approach: the diagonal -l(l+1) + 2 for the conformal factor, and for the
metric match the normal matrix of the round embedding.  That matrix is
block diagonal by azimuthal charge and two reflections; its blocks are
probed through the normal operator that the solver applies, a few probe
columns at a time, kept at their true sizes in class order and factored
together per block size, once per band limit: like the gauge rows, the
class order's gathers and the unit sphere's coefficients and tangents,
they are a table of L cached by `sphere.band_limit_table`.  The first
metric step from the unit sphere is therefore one preconditioner
application, the exact Gauss-Newton step.
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
    many iterations as `rhs` has entries.  The residual is tested before it
    is preconditioned, so the converged residual costs no preconditioner
    application.  Inner products are numpy sums, not BLAS dot, so the
    iterates do not depend on the thread count.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    stop = rtol * np.sqrt(np.sum(rhs * rhs))
    p = rz = None
    for _ in range(rhs.size):
        if np.sqrt(np.sum(r * r)) <= stop:
            break
        z = precondition(r)
        rz, rz_old = np.sum(r * z), rz
        p = z if p is None else z + (rz / rz_old) * p
        q = apply(p)
        alpha = rz / np.sum(p * q)
        x += alpha * p
        r -= alpha * q
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
    """Frobenius size of packed symmetric 2x2 fields, off-diagonal twice."""
    return np.sqrt(h[0] ** 2 + 2.0 * h[1] ** 2 + h[2] ** 2)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean product of two (3, ...) stacks of rows."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _metric_mismatch(T: np.ndarray, h: np.ndarray):
    """Gap between the metric of node tangents T and the target h.

    T is (2, 3, n_nodes), the theta and phi tangent rows; h is packed,
    (3, ...) over the same nodes.  Returns the (tt, tp, pp) component
    differences as (3, n_nodes) rows, and the sup over nodes of their
    Frobenius size relative to that of h.
    """
    h = h.reshape(3, -1)
    yt, yp = T
    gaps = np.stack([_dot(yt, yt), _dot(yt, yp), _dot(yp, yp)]) - h
    return gaps, float(np.max(_frobenius(gaps) / _frobenius(h)))


_ROT_PAIRS = ((0, 1), (0, 2), (1, 2))


@band_limit_table
def _gauge_rows(L: int) -> tuple:
    """(slots, G): the six linear gauge conditions on a (n_coeffs, 3)
    coefficient block, as a (6, 12) matrix G against the twelve entries of
    its row-major flattening that they read, at the flat indices slots.

    Rows 0-2 pin the constant coefficient of each component (translations);
    rows 3-5 the antisymmetric part of the degree-one block (rotations).
    """
    slots = np.concatenate([np.arange(3), (3 * _IDX1[:, None] + np.arange(3)).ravel()])
    G = np.zeros((6, 12))
    G[[0, 1, 2], [0, 1, 2]] = 1.0
    for r, (a, b) in enumerate(_ROT_PAIRS):
        G[3 + r, 3 + 3 * a + b] = 1.0
        G[3 + r, 3 + 3 * b + a] = -1.0
    return slots, G


@band_limit_table
def _charge_labels(L: int) -> np.ndarray:
    """Class 4 |charge| + 2 equatorial + reflection of each entry of a
    (n_coeffs, 3) block after the charge rotation; the charge is |m| - 1,
    |m| + 1 or |m| for x, y or z.  The round sphere's metric linearization
    commutes with the grid's turns about the z axis and with the
    reflections z -> -z and y -> -y, so its normal matrix has no entries
    between classes."""
    ls, ms = coeff_degrees(L)
    l, m, comp = ls[:, None], ms[:, None], np.arange(3)
    equatorial = ((l + m) % 2 == 1) ^ (comp == 2)
    reflection = (m < 0) ^ (comp == 1)
    return 4 * np.abs(np.abs(m) + [-1, 1, 0]) + 2 * equatorial + reflection


@band_limit_table
def _class_order(L: int) -> tuple:
    """(into, out_of, sizes, counts): the charge rotation composed with the
    class order, one gather each way.

    The charge rotation turns each x/y pair (x_{l,m}, y_{l,-m}), m != 0, of
    a row-major (n_coeffs, 3) block by 45 degrees into its parts of
    definite azimuthal charge, |m| - 1 in the x slot and |m| + 1 in the y
    slot (x + iy has charge one): flat entry i turns to (A[i] v[P[i]] +
    B[i] v[Q[i]]) / C[i], the x_{l,m} entry reading (sign(m) x_{l,m} +
    y_{l,-m}) / sqrt 2 and the y_{l,-m} entry (x_{l,m} - sign(m) y_{l,-m})
    / sqrt 2, and every other entry 1 v[i] + 0 v[i] over 1, itself bit for
    bit.  The map is symmetric, orthogonal and its own inverse.  The class
    order lists the rotated entries by class size, then class label of
    `_charge_labels`, then flat index, so the classes of one size s are
    count consecutive runs of s entries.  `into` = (P, Q, A, B, C) takes a
    block to its rotated entries in class order, and `out_of` takes
    class-ordered entries back, the rotation applied after the inverse
    permutation."""
    _, ms = coeff_degrees(L)
    k = np.flatnonzero(ms)
    x, y, sign = 3 * k, 3 * (k - 2 * ms[k]) + 1, np.sign(ms[k])
    P, Q = np.arange(3 * (L + 1) ** 2), np.arange(3 * (L + 1) ** 2)
    A, B, C = np.ones(P.size), np.zeros(P.size), np.ones(P.size)
    Q[x], A[x], B[x], C[x] = y, sign, 1.0, np.sqrt(2.0)
    P[y], A[y], B[y], C[y] = x, 1.0, -sign, np.sqrt(2.0)
    labels = _charge_labels(L).ravel()
    _, inverse, per_label = np.unique(labels, return_inverse=True, return_counts=True)
    order = np.lexsort((np.arange(labels.size), labels, per_label[inverse]))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    into = (P[order], Q[order], A[order], B[order], C[order])
    out_of = (rank[P], rank[Q], A, B, C)
    sizes, counts = np.unique(per_label, return_counts=True)
    return into, out_of, sizes, counts


def _gather(table: tuple, v: np.ndarray) -> np.ndarray:
    """(A v[P] + B v[Q]) / C along the first axis of v, for a (P, Q, A,
    B, C) table of `_class_order`."""
    P, Q, A, B, C = table
    lift = (slice(None),) + (None,) * (v.ndim - 1)
    out = A[lift] * v.take(P, axis=0)
    out += B[lift] * v.take(Q, axis=0)
    out /= C[lift]
    return out


def _metric_linearization(grid: SphereGrid, T: np.ndarray):
    """(normal, transpose) of the `solve_embedding` residual about node
    tangents T, (2, 3, n_nodes).

    The residual is the weighted (tt, tp, pp) metric gaps at the nodes,
    sqrt(w) (|Y_t|^2 - h_tt, Y_t . Y_p - h_tp, |Y_p|^2 - h_pp), then the
    six gauge conditions of `_gauge_rows`.  `transpose(gaps, v)` is J^T of
    the residual whose gap rows are `gaps`, (3, n_nodes), and whose gauge
    part is that of the (n_coeffs, 3) block v.  `normal(v)` = J^T J v maps
    a (n_coeffs, 3, ...) block to its own shape, trailing axes a stack:
    one `synth_gradient` gives the products T_a . dv_b of the tangents
    with the tangents of v, and their symmetrized pairs are the linearized
    gaps.  Either way the gap of each tangent pair (a, b) meets the frame
    weighted once per linearization, w (1 + [a = b]) T_b, in one
    contraction onto row a, one `synth_gradient_adjoint` carries the rows
    to coefficients, and the Gram matrix of the gauge rows acts on their
    twelve entries.  No (3 n_nodes + 6) vector is formed."""
    N, K = grid.n_nodes, grid.n_coeffs
    slots, G = _gauge_rows(grid.L)
    gram = G.T @ G
    w = grid.weights.reshape(1, -1)
    frame = np.stack([[2.0 * w, w], [w, 2.0 * w]]) * T[None]  # (a, b, k, n): w (1 + [a = b]) T_b

    def pullback(pairs, v):
        f = np.einsum("absn,abkn->aksn", pairs, frame)
        out = synth_gradient_adjoint(grid, f.reshape(f.shape[:3] + grid.shape)).reshape(3 * K, -1)
        out[slots] += gram @ v.reshape(3 * K, -1)[slots]
        return out.reshape(v.shape)

    def transpose(gaps, v):
        return pullback(gaps[[[0, 1], [1, 2]], None], v)

    def normal(v):
        products = np.einsum("akn,bksn->absn", T, synth_gradient(grid, v).reshape(2, 3, -1, N))
        return pullback(products + products.swapaxes(0, 1), v)

    return normal, transpose


# probe columns per J0^T J0 application: the build's transient memory grows
# with it, and beyond a few columns its time hardly falls
_PROBE_BATCH = 4


@band_limit_table
def _unit_sphere(L: int) -> tuple:
    """(c, T) of the unit round sphere at band limit L: its (n_coeffs, 3)
    position coefficients and its node tangent rows (2, 3, n_nodes).  It is
    where `solve_embedding` starts and where `_round_normal_blocks`
    linearizes, so the round preconditioner inverts the normal matrix of
    that start exactly."""
    grid = SphereGrid(L)
    c = analyze(grid, np.moveaxis(grid.unit_vectors, -1, 0))
    return c, synth_gradient(grid, c).reshape(2, 3, -1)


def _round_normal_blocks(grid: SphereGrid) -> tuple:
    """The blocks of J0^T J0, the normal matrix of the unit round embedding
    (Y = x, gauge rows included), after the charge rotation, in the class
    order of `_class_order`: one (count, s, s) stack per class size s, in
    increasing s.  Probe j holds a one at entry j of every class that has
    one, and `_metric_linearization`'s normal operator, the one conjugate
    gradients apply, takes _PROBE_BATCH probes at a time, each batch built
    as it is needed."""
    K = grid.n_coeffs
    into, out_of, sizes, counts = _class_order(grid.L)
    within = np.concatenate([np.tile(np.arange(s), n) for s, n in zip(sizes, counts)])
    blocks = [np.empty((n, s, s)) for s, n in zip(sizes, counts)]
    normal, _ = _metric_linearization(grid, _unit_sphere(grid.L)[1])
    for j0 in range(0, sizes[-1], _PROBE_BATCH):
        j = np.arange(j0, min(j0 + _PROBE_BATCH, sizes[-1]))
        probes = (within[:, None] == j).astype(float)
        turned = _gather(out_of, probes).reshape(K, 3, -1)
        columns = _gather(into, normal(turned).reshape(3 * K, -1))
        start = 0
        for stack in blocks:
            n, s, _ = stack.shape
            width = min(j.size, s - j0)
            if width > 0:
                block_rows = columns[start : start + n * s, :width]
                stack[:, :, j0 : j0 + width] = block_rows.reshape(n, s, width)
            start += n * s
    return tuple(blocks)


def cho_factor(blocks: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of symmetric blocks, (..., n, n).
    Raises np.linalg.LinAlgError when a block is not positive definite."""
    return np.linalg.cholesky(blocks)


@band_limit_table
def _round_inverse_blocks(L: int) -> tuple:
    """The inverses of the `_round_normal_blocks` at band limit L, one
    (count, s, s) stack per class size s in the class order of
    `_class_order`: the blocks of one size are factored in one batched
    `cho_factor` call and each inverted as L^-T L^-1, so the table holds
    the entries once, at their true sizes, in the order the
    preconditioner reads them."""
    inverses = []
    for blocks in _round_normal_blocks(SphereGrid(L)):
        lower_inv = np.linalg.inv(cho_factor(blocks))
        inverses.append(np.swapaxes(lower_inv, 1, 2) @ lower_inv)
    return tuple(inverses)


def _round_preconditioner(r: np.ndarray) -> np.ndarray:
    """(J0^T J0)^{-1} r on an (n_coeffs, 3) block: one gather into the
    rotated class order, per class size one stacked product of
    `_round_inverse_blocks` on a contiguous slice, written in place, and
    one gather back."""
    L = round(np.sqrt(r.shape[0])) - 1
    into, out_of, _, _ = _class_order(L)
    u = _gather(into, r.reshape(-1))
    z = np.empty_like(u)
    start = 0
    for inverse in _round_inverse_blocks(L):
        n, s, _ = inverse.shape
        stop = start + n * s
        np.matmul(inverse, u[start:stop].reshape(n, s, 1), out=z[start:stop].reshape(n, s, 1))
        start = stop
    return _gather(out_of, z).reshape(r.shape)


def _embedding_step(normal, gradient: np.ndarray, eta: float) -> np.ndarray:
    """Gauss-Newton step of `solve_embedding` for the normal operator
    J^T J of the iterate's `_metric_linearization`: the least-squares
    solution s of J s = -R as an (n_coeffs, 3) block, by conjugate
    gradients on J^T J s = -J^T R (gradient = J^T R) preconditioned by the
    round-sphere normal matrix.  The step is inexact: conjugate gradients
    stop once |J^T J s + J^T R| is at most eta |J^T R|."""
    return -_pcg(normal, gradient, _round_preconditioner, eta)


def solve_embedding(
    grid: SphereGrid,
    target_metric: np.ndarray,
    *,
    tol: float = 1e-8,
):
    """Match a first fundamental form at the nodes over harmonic coefficients.

    `target_metric` is a packed (3, ntheta, nphi) form, given on the
    normalized scale where the surface is close to the unit sphere.
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
    through the same normal operator J^T J and factored once per band
    limit (see `_round_inverse_blocks`).  Each iterate is linearized once:
    the transpose of its `_metric_linearization` gives the right-hand side
    J^T R and its normal operator serves the step.  The first step's normal
    matrix is J0^T J0 itself, so that step is one preconditioner
    application.  Every other step solves its normal equations matrix
    free, by conjugate gradients on that operator (`_embedding_step`), to
    the inexact-Newton forcing term
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
    if h.shape != (3,) + grid.shape:
        raise ValueError(
            f"target metric shape {h.shape} does not match grid {grid.shape}"
        )
    if np.min(_frobenius(h)) <= 0.0:
        raise ValueError("target metric vanishes at a node")

    N = grid.n_nodes
    w = grid.weights.reshape(-1)
    slots, G = _gauge_rows(grid.L)

    def state(cm, T=None):
        if T is None:
            T = synth_gradient(grid, cm).reshape(2, 3, N)
        gaps, rel = _metric_mismatch(T, h)
        gauge = G @ cm.reshape(-1)[slots]
        return gaps, T, rel, np.sum(w * np.sum(gaps * gaps, axis=0)) + np.sum(gauge * gauge)

    c, T = _unit_sphere(grid.L)
    gaps, T, rel, size = state(c, T)
    best = rel
    steps = 0
    while rel > tol:
        if steps >= _EMBED_MAX_ITER:
            raise EmbeddingError(
                f"no convergence in {_EMBED_MAX_ITER} iterations "
                f"(best residual {best:.3g}, target {tol:.3g})",
                best,
            )
        normal, transpose = _metric_linearization(grid, T)
        gradient = transpose(gaps, c)
        if steps == 0:
            # at the unit sphere J^T J is the normal matrix the round
            # preconditioner inverts: the exact step, with no iteration
            step = -_round_preconditioner(gradient)
        else:
            # forcing term: loose far off, tight near the solution, and on
            # the last step no tighter than what lands a tenth under tol
            step = _embedding_step(normal, gradient, min(_FORCING, max(rel, 0.1 * tol / rel)))
        t = 1.0
        for _ in range(15):
            trial = c + t * step
            gaps_t, T_t, rel_t, size_t = state(trial)
            if size_t < size:
                c, gaps, T, rel, size = trial, gaps_t, T_t, rel_t, size_t
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
    if np.min(_dot(Y.reshape(3, N), np.cross(T[0], T[1], axis=0))) <= 0.0:
        raise SelfIntersectionError(
            "embedded surface is not star shaped about the pinned centroid"
        )
    return Immersion(grid, Y, c, T.reshape((2, 3) + grid.shape)), rel, steps


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
    Y = np.stack([R[:, None] * cp, R[:, None] * sp, np.repeat(z[:, None], grid.nphi, axis=1)])
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
    requested first fundamental form (3, ntheta, nphi), packed, and
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
    image = Immersion(grid, r0 * img.Y, r0 * img.coeffs, r0 * img.node_tangents)
    image_data = fundamental_forms(image)
    H0 = image_data.mean_curvature
    if np.min(H0) <= 0.0:
        raise RegimeViolation("embedded image lost mean convexity")
    support = _dot(image.Y, image_data.normal)
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
