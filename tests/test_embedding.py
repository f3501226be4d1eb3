"""Isometric embedding: uniformization, metric matching, revolution route.

Oracles come first: a one-dimensional Gauss curvature formula for profile
metrics, a manufactured conformal factor with its exactly attainable
curvature field, closed forms on round data, and recovery of band-limited
surfaces from their own sampled first fundamental form (closed convex
surfaces are rigid, so matching the metric must reproduce the surface up
to a rigid motion).
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import nearlyround as nr
from nearlyround import embedding as emb
from nearlyround import harness, mass, sphere, surfaces
from nearlyround.sphere import (
    analyze,
    center_gauge,
    coeff_degrees,
    coeff_index,
    conformal_moments,
    synth_gradient,
    synthesize,
)
from nearlyround.surfaces import (
    Immersion,
    coordinate_sphere,
    fundamental_forms,
    immerse_radial,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def revolution_curvature(grid, E, G):
    """Gauss curvature of the profile metric E dtheta^2 + G dphi^2.

    For an orthogonal metric depending on theta only,
        K = - d/dtheta( G' / sqrt(E G) ) / (2 sqrt(E G)).
    Everything here uses only the spectral substrate, independently of the
    embedding solvers under test.
    """
    EE = np.repeat(np.asarray(E)[:, None], grid.nphi, axis=1)
    GG = np.repeat(np.asarray(G)[:, None], grid.nphi, axis=1)
    dG = (grid.dtheta_matrix @ analyze(grid, GG)).reshape(grid.shape)
    inner = dG / np.sqrt(EE * GG)
    dinner = (grid.dtheta_matrix @ analyze(grid, inner)).reshape(grid.shape)
    return -dinner / (2.0 * np.sqrt(EE * GG))


def manufactured_factor(grid):
    """A low-degree log factor and the curvature field it realizes exactly.

    With u* given, K* = (1 - Lap u*) e^{-2u*} satisfies
    Lap u* + K* e^{2u*} = 1 identically.  Degrees stay <= 2 so the
    nonlinear term is resolved far below 1e-10 at the band limits used.
    """
    c = np.zeros(grid.n_coeffs)
    c[0] = 0.03 * np.sqrt(4.0 * np.pi)
    c[coeff_index(2, 0)] = 0.05
    c[coeff_index(2, 1)] = -0.04
    c[coeff_index(2, -2)] = 0.03
    u_star = synthesize(grid, c)
    ls, _ = coeff_degrees(grid.L)
    lap = synthesize(grid, -ls * (ls + 1.0) * c)
    return u_star, (1.0 - lap) * np.exp(-2.0 * u_star)


def rigid_align(grid, Y, Y_ref):
    """Best rigid motion of Y onto Y_ref in the quadrature-weighted L2 sense.

    Returns (aligned Y, rms distance after alignment).  Reflections are
    excluded; only proper rotations plus translations are searched.
    """
    w = grid.weights.ravel()
    w = w / w.sum()
    A = Y.reshape(3, -1).T
    B = Y_ref.reshape(3, -1).T
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
    return aligned.T.reshape(Y.shape), rms


def unit_rows(grid):
    """The grid's node directions as a (3, ntheta, nphi) field stack."""
    return np.moveaxis(grid.unit_vectors, -1, 0)


def lumpy_surface(grid, scale=1.0):
    """Band-limited star-shaped surface used for recovery tests."""
    e20 = np.zeros(grid.n_coeffs)
    e20[coeff_index(2, 0)] = 1.0
    e31 = np.zeros(grid.n_coeffs)
    e31[coeff_index(3, 1)] = 1.0
    prof = scale * (1.0 + 0.04 * synthesize(grid, e20) + 0.03 * synthesize(grid, e31))
    return immerse_radial(prof, grid)


def normalized_curvature(fd):
    """K r0^2 of a record, r0 its areal radius: the field `embed` checks."""
    r0 = float(np.sqrt(fd.area / (4.0 * np.pi)))
    return fd.gauss_curvature * r0**2


def round_metric(grid, radius=1.0):
    """The round metric of the given radius, packed (3, ntheta, nphi)."""
    h = np.zeros((3,) + grid.shape)
    h[0] = radius**2
    h[2] = (radius * np.sin(grid.theta)[:, None]) ** 2
    return h


_ROT_PAIRS = ((0, 1), (0, 2), (1, 2))
_IDX1 = [coeff_index(1, 1), coeff_index(1, -1), coeff_index(1, 0)]


def dense_metric_jacobian(grid, T):
    """The (3N+6) x 3K Jacobian of the solve_embedding residual about node
    tangent rows T (2, 3, N), assembled densely with component-major
    columns (k * K + coefficient index)."""
    N, Kc = grid.n_nodes, grid.n_coeffs
    yt, yp = T.transpose(0, 2, 1)
    Dt, Dp = grid.dtheta_matrix, grid.dphi_matrix
    sw = np.sqrt(grid.weights.ravel())
    J = np.zeros((3 * N + 6, 3 * Kc))
    for k in range(3):
        cols = slice(k * Kc, (k + 1) * Kc)
        J[0:N, cols] = 2.0 * sw[:, None] * Dt * yt[:, k][:, None]
        J[N : 2 * N, cols] = sw[:, None] * (Dt * yp[:, k][:, None] + Dp * yt[:, k][:, None])
        J[2 * N : 3 * N, cols] = 2.0 * sw[:, None] * Dp * yp[:, k][:, None]
        J[3 * N + k, k * Kc] = 1.0
    for r, (a, b) in enumerate(_ROT_PAIRS):
        J[3 * N + 3 + r, b * Kc + _IDX1[a]] = 1.0
        J[3 * N + 3 + r, a * Kc + _IDX1[b]] = -1.0
    return J


def embedding_state(grid, h, Y):
    """Node tangent rows (2, 3, N), metric gap rows (3, N), coefficients
    (K, 3) and the weighted (3N+6) residual of solve_embedding at Y, a
    (3, ntheta, nphi) stack, by the dense matrices."""
    c = np.column_stack([analyze(grid, Y[k]) for k in range(3)])
    T = np.stack([(grid.dtheta_matrix @ c).T, (grid.dphi_matrix @ c).T])
    gaps, _ = emb._metric_mismatch(T, h)
    M = c[_IDX1, :]
    gauge = [*c[0, :], *(M[a, b] - M[b, a] for a, b in _ROT_PAIRS)]
    sw = np.sqrt(grid.weights.ravel())
    return T, gaps, c, np.concatenate([sw * gaps[0], sw * gaps[1], sw * gaps[2], gauge])


def library_gradient(grid, T, gaps, c):
    """J^T R of the library's linearization at T, as a (K, 3) block."""
    return emb._metric_linearization(grid, T)[1](gaps, c)


def library_normal(grid, T):
    """The normal operator J^T J of the library's linearization at T."""
    return emb._metric_linearization(grid, T)[0]


def dense_embedding_step(grid, T, gradient):
    """Gauss-Newton step by Cholesky of the dense J^T J at tangent rows T,
    for the gradient J^T R given as a (K, 3) block."""
    J = dense_metric_jacobian(grid, T)
    step = -cho_solve(cho_factor(J.T @ J), gradient.T.ravel())
    return step.reshape(3, grid.n_coeffs).T


def dense_uniformize_step(grid, f, rc):
    """uniformize's Newton step off degree one from its dense K x K Jacobian."""
    ls, _ = coeff_degrees(grid.L)
    lam = -(ls * (ls + 1.0))
    S = grid.synthesis_matrix
    A = S.T * grid.weights.ravel()[None, :]
    J = np.diag(lam) + 2.0 * (A * f.ravel()[None, :]) @ S
    keep = np.flatnonzero(ls != 1)
    step = np.zeros(grid.n_coeffs)
    step[keep] = np.linalg.solve(J[np.ix_(keep, keep)], -rc[keep])
    return step


def jittered(grid, seed=11, size=0.002):
    """A smooth random log-radius field of sup size about `size`."""
    rng = np.random.default_rng(seed)
    return size * synthesize(
        grid, rng.normal(0.0, 1.0, grid.n_coeffs) / (1.0 + np.arange(grid.n_coeffs))
    )


@pytest.fixture(scope="module")
def g16():
    return nr.build_grid(16)


@pytest.fixture(scope="module")
def g24():
    return nr.build_grid(24)


@pytest.fixture(scope="module")
def kerr():
    return nr.kerr_slice(1.0, 0.5)


@pytest.fixture(scope="module")
def kerr_records(g16, kerr):
    """Kerr coordinate spheres r in {20, 40, 80} at L=16."""
    return {r: fundamental_forms(coordinate_sphere(r, g16), kerr) for r in (20.0, 40.0, 80.0)}


@pytest.fixture(scope="module")
def kerr_sweep(kerr_records):
    """Embeddings of `kerr_records`."""
    return {r: emb.embed(fd) for r, fd in kerr_records.items()}


@pytest.fixture(scope="module")
def pert_records(g16):
    """Coordinate spheres r in {20, 40, 80} of a conformally perturbed
    metric, tau=0.6, at L=16."""
    pert = nr.conformal_perturbed(1.0, 0.2, 2, 1, 0.6)
    return {r: fundamental_forms(coordinate_sphere(r, g16), pert) for r in (20.0, 40.0, 80.0)}


@pytest.fixture(scope="module")
def pert_sweep(pert_records):
    """General-route embeddings of `pert_records`."""
    return {r: emb.embed(fd) for r, fd in pert_records.items()}


# ---------------------------------------------------------------------------
# Uniformization
# ---------------------------------------------------------------------------


def test_uniformize_constant_curvature(g16):
    u, diag = emb.uniformize(g16, np.ones(g16.shape))
    assert np.max(np.abs(u)) == 0.0
    assert diag.iterations == 0
    assert diag.residual <= 1e-15
    assert diag.kernel_defect <= 1e-15


def test_uniformize_regime_violation(g16):
    with pytest.raises(emb.RegimeViolation):
        emb.uniformize(g16, np.full(g16.shape, 1.8))


def test_uniformize_shape_mismatch(g16):
    with pytest.raises(ValueError):
        emb.uniformize(g16, np.ones((3, 3)))


@pytest.mark.parametrize("L", [16, 24])
def test_uniformize_manufactured_recovery(L):
    grid = nr.build_grid(L)
    u_star, K_star = manufactured_factor(grid)
    u, diag = emb.uniformize(grid, K_star)
    assert diag.residual <= 1e-10
    # K_star is exactly attainable, so no degree-one obstruction survives
    assert diag.kernel_defect <= 1e-12
    # compare in the centered gauge on both sides
    ug, _ = center_gauge(grid, u)
    ug_star, _ = center_gauge(grid, u_star)
    assert np.max(np.abs(ug - ug_star)) <= 1e-10


def normalized_lumpy_curvature(grid):
    s = lumpy_surface(grid)
    fd = fundamental_forms(s)
    r0 = nr.best_fit_sphere(fd).radius
    return fd.gauss_curvature * r0**2


def test_uniformize_underresolved_curvature_raises(g16, g24):
    # a generic surface's curvature is not band limited; at L=16 the nodal
    # residual floor sits near 2e-8, far above the default target
    with pytest.raises(emb.UniformizationError, match="not resolved"):
        emb.uniformize(g16, normalized_lumpy_curvature(g16))
    _, d16 = emb.uniformize(g16, normalized_lumpy_curvature(g16), tol=1e-7)
    _, d24 = emb.uniformize(g24, normalized_lumpy_curvature(g24))
    assert d24.residual <= 1e-10
    # the degree-one defect is a property of the data, not the resolution
    assert d16.kernel_defect == pytest.approx(d24.kernel_defect, rel=1e-2)
    assert 1e-5 < d24.kernel_defect < 1e-3


@pytest.mark.parametrize("case", ["lumpy", "jittered", "round"])
@pytest.mark.parametrize("L", [8, 16])
def test_uniformize_step_matches_dense_oracle(L, case):
    # lumpy curvature at u = 0 (the first step), lumpy curvature at a
    # jittered u, and constant curvature at a jittered u
    grid = nr.build_grid(L)
    K = np.ones(grid.shape) if case == "round" else normalized_lumpy_curvature(grid)
    u = np.zeros(grid.shape) if case == "lumpy" else jittered(grid, size=0.05)
    ls, _ = coeff_degrees(L)
    f = K * np.exp(2.0 * u)
    rc = -(ls * (ls + 1.0)) * analyze(grid, u) + analyze(grid, f)
    rc[0] -= np.sqrt(4.0 * np.pi)
    dense = dense_uniformize_step(grid, f, rc)
    step = emb._uniformize_step(grid, f, rc)
    assert np.max(np.abs(dense)) > 1e-3
    assert np.all(step[ls == 1] == 0.0)
    assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)


def test_uniformize_norm_tracks_curvature_deviation(g16, kerr_records):
    # sup|u| <= C sup|K-1| with one constant across the family
    for fd in kerr_records.values():
        u, diag = emb.uniformize(g16, normalized_curvature(fd))
        gauged, _ = center_gauge(g16, u)
        ratio = np.max(np.abs(gauged)) / diag.curvature_deviation
        assert 0.05 <= ratio <= 0.35


# ---------------------------------------------------------------------------
# Metric matching
# ---------------------------------------------------------------------------


def test_solve_embedding_round_identity(g16):
    imm, rel, _ = emb.solve_embedding(g16, round_metric(g16))
    assert rel <= 1e-12
    assert np.max(np.abs(imm.Y - unit_rows(g16))) <= 1e-12


def test_solve_embedding_rejects_a_node_major_target(g16):
    # the target is packed (3, ntheta, nphi) like a record's forms; the
    # same metric as (ntheta, nphi, 2, 2) matrices is refused
    matrices = round_metric(g16)[[[0, 1], [1, 2]]].transpose(2, 3, 0, 1)
    assert matrices.shape == g16.shape + (2, 2)
    with pytest.raises(ValueError, match="does not match grid"):
        emb.solve_embedding(g16, matrices)


def test_solve_embedding_recovers_band_limited_surface(g16):
    s = lumpy_surface(g16)
    h = fundamental_forms(s).induced_metric
    imm, rel, _ = emb.solve_embedding(g16, h)
    assert rel <= 1e-8
    _, rms = rigid_align(g16, imm.Y, s.Y)
    assert rms <= 1e-9


@pytest.mark.parametrize("k", [1, 5, 17])
def test_solve_embedding_rolled_target_gives_the_rolled_image(g16, kerr, k):
    # rolling phi by k nodes permutes the nodes exactly, so the rolled target
    # metric has the rolled image.  A convex metric has one image up to rigid
    # motion, and the solve from the unit sphere, whose gauge the roll does
    # not respect, must reach it; the Brown-York mass of the rolled record,
    # the same surface, is the same number
    s = lumpy_surface(g16, 20.0)
    fd = fundamental_forms(s, kerr)
    h = fd.induced_metric / 400.0
    base, _, _ = emb.solve_embedding(g16, h)
    img, rel, _ = emb.solve_embedding(g16, np.roll(h, k, axis=2))
    assert rel <= 1e-8
    _, rms = rigid_align(g16, img.Y, np.roll(base.Y, k, axis=2))
    assert rms <= 1e-10
    rolled = fundamental_forms(Immersion(g16, np.roll(s.Y, k, axis=2)), kerr)
    by, by_rolled = (mass.brown_york_mass(f, emb.embed(f)) for f in (fd, rolled))
    assert abs(by_rolled - by) <= 1e-13 * abs(by)


def test_solve_embedding_gauge_is_pinned(g16):
    s = lumpy_surface(g16)
    h = fundamental_forms(s).induced_metric
    imm, _, _ = emb.solve_embedding(g16, h)
    c = analyze(g16, imm.Y)
    # centroid: the constant coefficient of each component vanishes
    assert np.max(np.abs(c[0, :])) <= 1e-10
    # rotations: degree-one cross-component block is symmetric
    idx = [coeff_index(1, 1), coeff_index(1, -1), coeff_index(1, 0)]
    M = c[idx, :]
    assert np.max(np.abs(M - M.T)) <= 1e-10


@pytest.mark.parametrize("case", ["lumpy", "jittered", "round"])
@pytest.mark.parametrize("L", [8, 16])
def test_embedding_step_matches_dense_oracle(L, case):
    # the lumpy metric from the round start (the system of solve_embedding's
    # first step, which _round_step solves) and from a jittered start, and
    # the round metric from a jittered start
    grid = nr.build_grid(L)
    h = round_metric(grid) if case == "round" else fundamental_forms(lumpy_surface(grid)).induced_metric
    u = np.zeros(grid.shape) if case == "lumpy" else jittered(grid, size=0.02)
    T, gaps, c, R = embedding_state(grid, h, np.exp(u) * unit_rows(grid))
    J = dense_metric_jacobian(grid, T)
    dense = dense_embedding_step(grid, T, (J.T @ R).reshape(3, -1).T)
    step = emb._embedding_step(library_normal(grid, T), library_gradient(grid, T, gaps, c), 1e-12)
    assert np.max(np.abs(dense)) > 1e-3
    assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)


@pytest.mark.parametrize("case", ["lumpy", "jittered", "round"])
@pytest.mark.parametrize("L", [8, 16])
def test_inexact_embedding_step_meets_its_forcing_term(L, case):
    # at the forcing term solve_embedding starts from, the step solves the
    # normal equations of the dense Jacobian to eta relative to J^T R
    grid = nr.build_grid(L)
    h = round_metric(grid) if case == "round" else fundamental_forms(lumpy_surface(grid)).induced_metric
    u = np.zeros(grid.shape) if case == "lumpy" else jittered(grid, size=0.02)
    T, gaps, c, R = embedding_state(grid, h, np.exp(u) * unit_rows(grid))
    J = dense_metric_jacobian(grid, T)
    eta = emb._FORCING
    # the library's J^T R is the dense one
    gradient = J.T @ R
    library = library_gradient(grid, T, gaps, c).T.ravel()
    assert np.linalg.norm(library - gradient) <= 1e-12 * np.linalg.norm(gradient)
    step = emb._embedding_step(library_normal(grid, T), library_gradient(grid, T, gaps, c), eta)
    s = step.T.ravel()  # the dense Jacobian's columns are component-major
    assert np.linalg.norm(J.T @ (J @ s) + gradient) <= eta * np.linalg.norm(gradient)
    assert np.linalg.norm(step) > 0.0


def class_order(L):
    """The class order of the rotated entries, from its definition: by
    class size, then charge label, then flat index."""
    labels = emb._charge_labels(L).ravel()
    return np.lexsort((np.arange(labels.size), labels, np.bincount(labels)[labels]))


@pytest.mark.parametrize("L", [1, 2, 4, 8, 16])
def test_round_normal_matrix_is_block_diagonal_by_charge(L):
    grid = nr.build_grid(L)
    K = grid.n_coeffs
    into, out_of, sizes, counts = emb._class_order(L)
    # the gather into class order is the charge rotation, then the class
    # permutation; the gather back is its transpose
    Q = emb._gather(into, np.eye(3 * K))
    assert np.array_equal(emb._gather(out_of, np.eye(3 * K)), Q.T)
    assert np.max(np.abs(Q @ Q.T - np.eye(3 * K))) <= 1e-15
    c0 = analyze(grid, unit_rows(grid))
    J0 = dense_metric_jacobian(grid, np.stack([(grid.dtheta_matrix @ c0).T, (grid.dphi_matrix @ c0).T]))
    # reorder columns to the row-major (K, 3) flattening the solver uses
    J0 = J0[:, (np.arange(3)[None, :] * K + np.arange(K)[:, None]).ravel()]
    normal = J0.T @ J0
    scale = np.max(np.abs(normal))
    rotated = Q @ normal @ Q.T
    # classes are consecutive runs of their sizes; each run is one label
    run = np.repeat(np.arange(counts.sum()), np.repeat(sizes, counts))
    labels = emb._charge_labels(L).ravel()[class_order(L)]
    assert all(len(set(labels[run == k])) == 1 for k in range(counts.sum()))
    assert len(set(labels)) == counts.sum()
    assert np.max(np.abs(rotated[run[:, None] != run[None, :]])) <= 1e-13 * scale
    groups = emb._round_normal_blocks(grid)
    assert [blocks.shape[1] for blocks in groups] == list(sizes)
    assert groups[-1].shape[1] == (3 * L) // 2 + 1
    start = 0
    for blocks in groups:
        for block in blocks:
            dense = rotated[start : start + len(block), start : start + len(block)]
            assert np.max(np.abs(block - dense)) <= 1e-13 * scale
            start += len(block)
    r = np.random.default_rng(L).standard_normal((K, 3))
    z = emb._round_preconditioner(r)
    exact = np.linalg.solve(normal, r.ravel()).reshape(K, 3)
    assert np.linalg.norm(z - exact) <= 1e-10 * np.linalg.norm(exact)


@pytest.mark.parametrize("L", [8, 16])
def test_round_preconditioner_matches_scipy_cholesky(L):
    # the preconditioner's numpy-built block inverses against scipy's
    # cho_factor/cho_solve on the same blocks, read off the table in the
    # charge basis; two backward-stable inversions agree to a small multiple
    # of cond * eps
    groups = emb._round_normal_blocks(nr.build_grid(L))
    table = emb._round_inverse_blocks(L)
    eps = np.finfo(float).eps
    for blocks, inverses in zip(groups, table, strict=True):
        assert blocks.shape == inverses.shape
        eye = np.eye(blocks.shape[1])
        for normal, block in zip(blocks, inverses):
            inverse = cho_solve(cho_factor(normal), eye)
            bound = 10.0 * np.linalg.cond(normal) * eps * np.max(np.abs(inverse))
            assert np.max(np.abs(block - inverse)) <= bound


def pairwise_charge_rotation(v):
    # the turn as it was written before the gather table: copy the block,
    # then overwrite each (x_{l,m}, y_{l,-m}) pair, m != 0
    K = v.shape[0]
    _, ms = coeff_degrees(round(np.sqrt(K)) - 1)
    k = np.flatnonzero(ms)
    x, y, sign = 3 * k, 3 * (k - 2 * ms[k]) + 1, np.sign(ms[k])[:, None]
    flat = v.reshape(3 * K, -1)
    out = flat.copy()
    out[x] = (sign * flat[x] + flat[y]) / np.sqrt(2.0)
    out[y] = (flat[x] - sign * flat[y]) / np.sqrt(2.0)
    return out.reshape(v.shape)


@pytest.mark.parametrize("L", [16, 32, 48, 64])
def test_charge_rotation_is_bitwise_the_pairwise_turn(L):
    # into class order: the pairwise turn, then the permutation; back: the
    # inverse permutation, then the turn, bit for bit either way
    K = (L + 1) ** 2
    into, out_of, _, _ = emb._class_order(L)
    order = class_order(L)
    rng = np.random.default_rng(L)
    for tail in ((), (5,)):
        v = rng.standard_normal((K, 3) + tail)
        turned = emb._gather(into, v.reshape((3 * K,) + tail))
        assert turned.tobytes() == pairwise_charge_rotation(v).reshape((3 * K,) + tail)[order].tobytes()
        w = rng.standard_normal((3 * K,) + tail)
        placed = np.empty_like(w)
        placed[order] = w
        back = emb._gather(out_of, w).reshape(v.shape)
        assert back.tobytes() == pairwise_charge_rotation(placed.reshape(v.shape)).tobytes()


@pytest.mark.parametrize("L", [16, 32])
def test_round_inverse_blocks_are_stored_at_their_true_sizes(L):
    # one (count, s, s) stack per distinct class size, no padding: the
    # stored inverse entries are the sum of the squared class sizes, and
    # the stacks cover the 3 K entries once, in class order
    sizes = np.unique(emb._charge_labels(L), return_counts=True)[1]
    table = emb._round_inverse_blocks(L)
    assert [inverse.shape[1] for inverse in table] == sorted(set(sizes))
    assert sum(inverse.size for inverse in table) == np.sum(sizes**2)
    assert sum(inverse.shape[0] * inverse.shape[1] for inverse in table) == 3 * (L + 1) ** 2
    for inverse in table:
        assert inverse.shape[1] == inverse.shape[2]
        assert inverse.flags.c_contiguous


@pytest.mark.parametrize("L,limit_mb", [(32, 8.0), (48, 24.0)])
def test_round_preconditioner_build_peak_memory(L, limit_mb):
    # the probes go through J0^T J0 in small batches, so a cold build of
    # the table stays a few times its own size (the grid's other tables
    # of L are built first and kept)
    emb._round_inverse_blocks(L)
    emb._round_inverse_blocks.cache_clear()
    tracemalloc.start()
    try:
        emb._round_inverse_blocks(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6


@pytest.mark.parametrize("L", [24, 32, 48])
def test_round_preconditioner_inverts_round_normal_matrix(L):
    grid = nr.build_grid(L)
    round_tangents = synth_gradient(grid, analyze(grid, unit_rows(grid))).reshape(2, 3, -1)
    normal, _ = emb._metric_linearization(grid, round_tangents)
    r = np.random.default_rng(L).standard_normal((grid.n_coeffs, 3))
    back = normal(emb._round_preconditioner(r))
    assert np.linalg.norm(back - r) <= 2e-9 * np.linalg.norm(r)


def test_cho_factor_rejects_indefinite_block():
    blocks = np.stack([np.eye(3), np.diag([1.0, -1e-3, 1.0]), 2.0 * np.eye(3)])
    with pytest.raises(np.linalg.LinAlgError):
        emb.cho_factor(blocks)
    lower = emb.cho_factor(blocks[[0, 2]])
    assert np.allclose(lower @ np.swapaxes(lower, 1, 2), blocks[[0, 2]], rtol=0, atol=1e-15)


def test_band_limit_tables_are_shared_and_read_only():
    # two grids of one band limit are one value: every table that depends
    # on L alone is built once, shared, and cannot be written
    a, b = sphere.SphereGrid(12), nr.build_grid(12)
    assert a == b and a is not b
    for name in ("mu", "theta", "phi", "weights", "unit_vectors"):
        assert getattr(a, name) is getattr(b, name), name
    into, out_of, sizes, counts = emb._class_order(a.L)
    tables = {
        "unit vectors": (a.unit_vectors,),
        "legendre rows": (sphere._legendre_rows(a.L),),
        "phi tables": (sphere._phi_table(a.L),),
        "amplitude layout": sphere._amplitude_layout(a.L, 3),
        "coeff_degrees": coeff_degrees(a.L),
        "gauge rows": emb._gauge_rows(a.L),
        "unit sphere": emb._unit_sphere(a.L),
        "class order": into + out_of + (sizes, counts),
        "preconditioner blocks": emb._round_inverse_blocks(a.L),
    }
    assert sphere._legendre_rows(b.L) is tables["legendre rows"][0]
    assert emb._round_inverse_blocks(b.L) is emb._round_inverse_blocks(a.L)
    for arrays in tables.values():
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]


def test_warm_studies_build_band_limit_tables_once(monkeypatch):
    # a second study at the same band limit factors no preconditioner and
    # evaluates no Legendre table, and reports the same numbers
    emb._round_inverse_blocks.cache_clear()
    sphere._legendre_rows.cache_clear()
    factored = []

    def counted(blocks):
        factored.append(blocks.shape)
        return np.linalg.cholesky(blocks)

    monkeypatch.setattr(emb, "cho_factor", counted)
    cfg = nr.StudyConfig(
        metric="schwarzschild_standard m=1", family="radial-perturbed", l=3, m_order=2,
        amplitude=0.1, decay=1.0, schedule=(20.0, 40.0, 80.0), band_limit=16,
    )
    first, second = nr.run_masses(cfg), nr.run_masses(cfg)
    assert all(not row.flags for row in first.rows)
    assert first.render() == second.render()
    # one batched factorisation per distinct charge-class size at L=16
    assert len(factored) == 17
    assert sphere._legendre_rows.cache_info().misses == 1


def test_pcg_identical_across_blas_threads():
    # inner products and norms of 12,675 entries, where BLAS dot splits the
    # sum between threads
    code = (
        "import numpy as np\n"
        "from nearlyround.embedding import _pcg\n"
        "rng = np.random.default_rng(3)\n"
        "d = 1.0 + rng.random((4225, 3))\n"
        "apply = lambda v: d * v - 0.45 * (np.roll(v, 1) + np.roll(v, -1))\n"
        "x = _pcg(apply, rng.standard_normal((4225, 3)), lambda r: r / d, 1e-12)\n"
        "print(x.tobytes().hex())\n"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(outputs[0]) > 12675 * 16
    assert outputs[0] == outputs[1]


def test_lumpy_study_conjugate_gradient_work_is_pinned():
    # _pcg calls and their operator applications over one study of the
    # benchmark's lumpy L=32 workload per m_order, and of its Kerr L=24
    # workload with its embed_axisymmetric calls.  Every record starts from
    # the unit sphere, whose first step needs no _pcg call, and the later
    # steps stop their conjugate gradients at eta = min(1e-3, max(rel,
    # 0.1 tol / rel)); at eta = min(1e-3, rel) from the unit sphere the
    # lumpy studies took 6 calls and 24 (m_order 2) and 14 (m_order 3)
    # applications, and a 1e-12 stop took 58 and 33.  The preconditioner
    # runs once per record's round first step and once per operator
    # application, none on a converged residual
    code = (
        "import json, nearlyround as nr\n"
        "from nearlyround import embedding as emb\n"
        "pcg, axisymmetric, work = emb._pcg, emb.embed_axisymmetric, [0, 0, 0, 0]\n"
        "precondition = emb._round_preconditioner\n"
        "def counted(apply, *args):\n"
        "    work[0] += 1\n"
        "    def apply_counted(v):\n"
        "        work[1] += 1\n"
        "        return apply(v)\n"
        "    return pcg(apply_counted, *args)\n"
        "def revolution(*args):\n"
        "    work[2] += 1\n"
        "    return axisymmetric(*args)\n"
        "def preconditioned(r):\n"
        "    work[3] += 1\n"
        "    return precondition(r)\n"
        "emb._pcg, emb.embed_axisymmetric = counted, revolution\n"
        "emb._round_preconditioner = preconditioned\n"
        "schedule = (20.0, 40.0, 80.0)\n"
        "studies = {\n"
        "    m_order: dict(metric='schwarzschild_standard m=1', family='radial-perturbed',\n"
        "                  l=3, m_order=m_order, amplitude=0.1, decay=1.0, band_limit=32)\n"
        "    for m_order in (2, 3)\n"
        "}\n"
        "studies['kerr'] = dict(metric='kerr_slice m=1 a=0.5', family='coordinate-spheres',\n"
        "                       band_limit=24)\n"
        "counts = {}\n"
        "for name, fields in studies.items():\n"
        "    work[:] = [0, 0, 0, 0]\n"
        "    rows = nr.run_masses(nr.StudyConfig(schedule=schedule, **fields)).rows\n"
        "    assert all(not row.flags for row in rows)\n"
        "    counts[name] = list(work)\n"
        "print(json.dumps(counts))\n"
    )
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        # name: [_pcg calls, operator applications, embed_axisymmetric calls,
        # preconditioner applications]
        assert proc.stdout.strip() == (
            '{"2": [3, 18, 0, 21], "3": [3, 9, 0, 12], "kerr": [1, 1, 0, 4]}'
        ), threads


@pytest.mark.parametrize("study", ["lumpy-m2", "lumpy-m3", "kerr"])
def test_warm_study_linearizes_each_iterate_once(monkeypatch, study):
    # the benchmark's lumpy L=32 and Kerr L=24 workloads: each Gauss-Newton
    # iterate builds one _metric_linearization, whose transpose gives the
    # right-hand side and whose normal operator the step, so a warm study
    # (the round preconditioner's own build is cached per L) builds as many
    # as it takes steps
    lumpy = dict(metric="schwarzschild_standard m=1", family="radial-perturbed", l=3,
                 amplitude=0.1, decay=1.0, band_limit=32)
    fields = {
        "lumpy-m2": dict(lumpy, m_order=2),
        "lumpy-m3": dict(lumpy, m_order=3),
        "kerr": dict(metric="kerr_slice m=1 a=0.5", family="coordinate-spheres", band_limit=24),
    }[study]
    cfg = nr.StudyConfig(schedule=(20.0, 40.0, 80.0), **fields)
    nr.run_masses(cfg)
    linearize, embed, builds, steps = emb._metric_linearization, mass.embed, [], []

    def linearization(grid, T):
        builds.append(grid.L)
        return linearize(grid, T)

    def counted_embed(fd, **kwargs):
        e = embed(fd, **kwargs)
        steps.append(e.steps)
        return e

    monkeypatch.setattr(emb, "_metric_linearization", linearization)
    monkeypatch.setattr(mass, "embed", counted_embed)
    assert all(not row.flags for row in nr.run_masses(cfg).rows)
    assert len(builds) == sum(steps) == {"lumpy-m2": 6, "lumpy-m3": 6, "kerr": 4}[study]


def test_solve_embedding_reports_nonconvergence(g16, monkeypatch):
    monkeypatch.setattr(emb, "_EMBED_MAX_ITER", 0)
    with pytest.raises(emb.EmbeddingError) as info:
        emb.solve_embedding(g16, round_metric(g16, radius=2.0))
    assert info.value.residual > 0.1


# ---------------------------------------------------------------------------
# Surfaces of revolution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("L,tol", [(16, 1e-12), (48, 1e-13), (64, 1e-13)])
def test_axisymmetric_round_profiles_give_unit_sphere(L, tol):
    grid = nr.build_grid(L)
    E = np.ones(grid.ntheta)
    G = np.sin(grid.theta) ** 2
    imm = emb.embed_axisymmetric(grid, E, G)
    assert np.max(np.abs(imm.Y - unit_rows(grid))) <= tol


def test_axisymmetric_seed_needs_no_harmonic_transform(monkeypatch, g16):
    # the profiles are interpolated in cos(theta) alone: no 2-D analysis
    # and no evaluation of a full (l, m) expansion
    calls = []

    def counted(name):
        fn = getattr(emb, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("analyze", "synth_at"):
        monkeypatch.setattr(emb, name, counted(name))
    st = np.sin(g16.theta)
    imm = emb.embed_axisymmetric(g16, 1.0 + 0.2 * st**2, ((1.0 + 0.1 * st**2) * st) ** 2)
    assert calls == []
    assert np.all(np.isfinite(imm.Y))


@pytest.mark.parametrize("L,k_tol,m_tol", [(16, 1e-8, 1e-8), (24, 1e-9, 1e-11)])
def test_axisymmetric_oblate_curvature_match(L, k_tol, m_tol):
    grid = nr.build_grid(L)
    st = np.sin(grid.theta)
    E = 1.0 + 0.2 * st**2
    G = ((1.0 + 0.1 * st**2) * st) ** 2
    imm = emb.embed_axisymmetric(grid, E, G)
    fd = fundamental_forms(imm)
    assert np.max(np.abs(fd.gauss_curvature - revolution_curvature(grid, E, G))) <= k_tol
    h = np.zeros((3,) + grid.shape)
    h[0] = E[:, None]
    h[2] = G[:, None]
    assert emb._metric_mismatch(imm.tangents().reshape(2, 3, -1), h)[1] <= m_tol


def test_axisymmetric_rejects_nonembeddable_profiles(g16):
    st = np.sin(g16.theta)
    E = np.ones(g16.ntheta)
    G = ((1.0 + 0.5 * st**2) * st) ** 2  # parallel slope exceeds meridian speed
    with pytest.raises(emb.EmbeddabilityError):
        emb.embed_axisymmetric(g16, E, G)


def test_axisymmetric_rejects_bad_profiles(g16):
    with pytest.raises(emb.EmbeddabilityError):
        emb.embed_axisymmetric(g16, -np.ones(g16.ntheta), np.sin(g16.theta) ** 2)


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


def test_embed_schwarzschild_standard_round_data(g16):
    # the radial factor of this chart does not touch the sphere tangents,
    # so the induced metric is exactly round, the unit sphere already
    # matches it and everything has closed form
    std = nr.schwarzschild_standard(1.0)
    s = coordinate_sphere(10.0, g16)
    e = emb.embed(fundamental_forms(s, std))
    assert e.steps == 0
    assert e.radius == pytest.approx(10.0, abs=1e-10)
    assert np.max(np.abs(e.image_data.mean_curvature - 0.2)) <= 1e-9
    assert np.max(np.abs(e.support - 10.0)) <= 1e-9
    assert e.volume == pytest.approx(4000.0 * np.pi / 3.0, rel=1e-10)
    assert e.metric_residual <= 1e-10


def test_embed_kerr_high_resolution(g24, kerr):
    s = coordinate_sphere(40.0, g24)
    fd = fundamental_forms(s, kerr)
    e = emb.embed(fd)
    # the exact round step, then no conjugate-gradient step
    assert e.steps == 1
    assert e.metric_residual <= 1e-8
    # realized intrinsic curvature agrees with the requested one
    assert np.max(np.abs(e.image_data.gauss_curvature - fd.gauss_curvature)) <= 1e-10
    assert e.h0_deviation * 40.0**2 <= 0.05


def test_embed_kerr_sweep_decay(kerr_sweep):
    radii = sorted(kerr_sweep)
    h0_scaled = [kerr_sweep[r].h0_deviation * r**2 for r in radii]
    supp = [kerr_sweep[r].support_deviation for r in radii]
    assert all(c <= 0.05 for c in h0_scaled)
    assert h0_scaled == sorted(h0_scaled, reverse=True)
    assert all(c <= 0.01 for c in supp)
    assert supp == sorted(supp, reverse=True)
    for e in kerr_sweep.values():
        assert e.metric_residual <= 1e-8


@pytest.mark.parametrize("L", [16, 24, 32])
def test_embed_matches_the_surface_of_revolution(kerr, L):
    # Kerr coordinate spheres carry phi-independent metrics, whose one image
    # up to rigid motion is the surface of revolution of the profile
    # quadrature; the solve from the unit sphere lands on it
    grid = nr.build_grid(L)
    for r in (20.0, 40.0, 80.0):
        fd = fundamental_forms(coordinate_sphere(r, grid), kerr)
        e = emb.embed(fd, tol=1e-12)
        h = fd.induced_metric / e.radius**2
        exact = emb.embed_axisymmetric(grid, h[0, :, 0], h[2, :, 0])
        _, rms = rigid_align(grid, e.image.Y, e.radius * exact.Y)
        assert e.steps >= 1 and rms <= 1e-8, (r, rms)


def unit_sphere_state(L):
    """Grid, unit-sphere tangent rows, the library's J^T R and the dense
    solve_embedding residual R of the lumpy metric at the unit sphere,
    where solve_embedding's first step is one preconditioner application."""
    grid = nr.build_grid(L)
    h = fundamental_forms(lumpy_surface(grid)).induced_metric
    c, T = emb._unit_sphere(L)
    gradient = library_gradient(grid, T, emb._metric_mismatch(T, h)[0], c)
    return grid, T, gradient, embedding_state(grid, h, unit_rows(grid))[3]


@pytest.mark.parametrize("L", [8, 16, 24])
def test_round_step_is_the_conjugate_gradient_solve(L):
    # at the unit sphere J^T J is the normal matrix the preconditioner
    # inverts, so its one application is the step conjugate gradients
    # reach.  (From L = 32 on, a 1e-12 stop runs past the first iterate and
    # both steps move by cond(J^T J) eps, 9e-11 at L = 32.)
    grid, T, gradient, _ = unit_sphere_state(L)
    step = -emb._round_preconditioner(gradient)
    solved = emb._embedding_step(library_normal(grid, T), gradient, 1e-12)
    assert np.max(np.abs(solved)) > 1e-3
    assert np.linalg.norm(step - solved) <= 1e-12 * np.linalg.norm(solved)


@pytest.mark.parametrize("L", [8, 16])
def test_round_step_is_the_least_squares_step(L):
    # against a dense least-squares solve the round step keeps the accuracy
    # of a normal-equations solve, cond(J)^2 eps
    grid, T, gradient, R = unit_sphere_state(L)
    J = dense_metric_jacobian(grid, T)
    sv = np.linalg.svd(J, compute_uv=False)
    exact = np.linalg.lstsq(J, -R, rcond=None)[0].reshape(3, -1).T
    step = -emb._round_preconditioner(gradient)
    bound = (sv[0] / sv[-1]) ** 2 * np.finfo(float).eps
    assert np.linalg.norm(step - exact) <= bound * np.linalg.norm(exact)


def test_matrix_free_steps_off_regime_match_dense_oracle(monkeypatch):
    # decay 0: the bump keeps its relative size at every radius, so the
    # surfaces never approach the round sphere the preconditioners model
    cfg = nr.StudyConfig(
        metric="schwarzschild_standard m=1", family="radial-perturbed",
        schedule=(20.0, 40.0, 80.0), band_limit=16, amplitude=0.05, l=2,
        m_order=1, decay=0.0,
    )
    rows = nr.run_masses(cfg).rows
    for row in rows:
        assert row.flags == ()
        assert row.embed_residual <= cfg.tol
    # the step solves at the iterate last linearized
    linearize, linearized = emb._metric_linearization, []

    def linearization(grid, T):
        linearized.append((grid, T))
        return linearize(grid, T)

    monkeypatch.setattr(emb, "_metric_linearization", linearization)
    monkeypatch.setattr(
        emb, "_embedding_step",
        lambda normal, gradient, eta: dense_embedding_step(*linearized[-1], gradient),
    )
    dense_rows = nr.run_masses(cfg).rows
    for row, dense in zip(rows, dense_rows):
        assert row.brown_york == pytest.approx(dense.brown_york, rel=1e-12, abs=0.0)


def test_embed_perturbed_family_decay(pert_sweep):
    tau = 0.6
    radii = sorted(pert_sweep)
    supp = [pert_sweep[r].support_deviation * r ** (tau - 1.0) for r in radii]
    h0 = [pert_sweep[r].h0_deviation * r ** (1.0 + tau) for r in radii]
    assert all(c <= 0.6 for c in supp)
    assert supp == sorted(supp, reverse=True)
    assert all(c <= 1.6 for c in h0)
    assert h0 == sorted(h0, reverse=True)
    for e in pert_sweep.values():
        assert e.metric_residual <= 1e-8


def test_normalized_bounds_share_one_constant(kerr_records, kerr_sweep, pert_records, pert_sweep):
    # |X.n - 1| <= C |K-1| and |H0 - 2| <= C |K-1| on the normalized scale,
    # a single C across both families
    for records, sweep in ((kerr_records, kerr_sweep), (pert_records, pert_sweep)):
        for r, e in sweep.items():
            dev = np.max(np.abs(normalized_curvature(records[r]) - 1.0))
            assert e.support_deviation / e.radius <= 0.5 * dev
            assert e.h0_deviation * e.radius <= 1.2 * dev


def test_embed_flat_surface_roundtrip(g16):
    # embedding the induced metric of a Euclidean surface must reproduce
    # the surface itself up to a rigid motion (rigidity of convex surfaces)
    s = lumpy_surface(g16, scale=10.0)
    e = emb.embed(fundamental_forms(s))
    assert e.metric_residual <= 1e-8
    _, rms = rigid_align(g16, e.image.Y, s.Y)
    assert rms <= 1e-8


def test_embed_image_carries_the_solve_coefficients_and_tangents(g16, kerr_sweep, monkeypatch):
    # the image is the solve's position, coefficients and tangents scaled by
    # r0, so its fundamental forms transform only the normal, and the
    # carried fields agree with a fresh transform of its positions
    e = kerr_sweep[40.0]
    c = analyze(g16, e.image.Y)
    assert np.max(np.abs(e.image.component_coeffs() - c)) <= 1e-12 * e.radius
    for carried, fresh in zip(e.image.tangents(), synth_gradient(g16, c)):
        assert np.max(np.abs(carried - fresh)) <= 1e-12 * e.radius
    calls = []
    for name in ("analyze", "synth_gradient"):
        fn = getattr(surfaces, name)
        monkeypatch.setattr(surfaces, name, lambda *args, fn=fn: calls.append(fn) or fn(*args))
    fundamental_forms(e.image)
    carried = len(calls)
    fundamental_forms(Immersion(g16, e.image.Y))
    assert (carried, len(calls) - carried) == (2, 4)


def test_embed_requires_nearly_round_curvature(g16):
    prof = np.repeat(1.0 + 0.45 * np.cos(g16.theta)[:, None] ** 2, g16.nphi, axis=1)
    s = immerse_radial(prof, g16)
    with pytest.raises(emb.RegimeViolation):
        emb.embed(fundamental_forms(s))


def test_embed_runs_no_conformal_solve(monkeypatch, g16, kerr):
    # the metric alone fixes the image up to a rigid motion, so no
    # embedding, mass row or verify table uniformizes or centres a
    # conformal factor
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for fn in (emb.uniformize, sphere.center_gauge, sphere.conformal_moments):
        for module in (nr, emb, sphere, mass, harness):
            if hasattr(module, fn.__name__):
                monkeypatch.setattr(module, fn.__name__, counted(fn))
    e_kerr = emb.embed(fundamental_forms(coordinate_sphere(40.0, g16), kerr))
    assert calls == []
    e_lumpy = emb.embed(fundamental_forms(lumpy_surface(g16, scale=10.0)))
    assert e_kerr.steps >= 1 and e_lumpy.steps >= 1
    assert nr.assemble_mass_row(lumpy_surface(g16, scale=20.0), kerr).flags == ()
    assert nr.run_verify(nr.StudyConfig(metric="kerr_slice m=1 a=0.5", schedule=(20.0, 40.0, 80.0))).passed
    assert calls == []


# ---------------------------------------------------------------------------
# Integral identities, volume, alignment, export
# ---------------------------------------------------------------------------


def test_minkowski_identities_quadrature_exact(kerr_sweep):
    mk = emb.minkowski_residuals(kerr_sweep[40.0])
    assert mk.first_identity <= 1e-13
    assert mk.second_identity <= 1e-13


def test_minkowski_identities_on_general_route(g16):
    s = lumpy_surface(g16, scale=10.0)
    e = emb.embed(fundamental_forms(s))
    mk = emb.minkowski_residuals(e)
    assert mk.first_identity <= 1e-12
    assert mk.second_identity <= 1e-12


def claim_residual(e, tau=1.0):
    """| oint H0 - 4 pi r0 - Area/r0 | * r0^(2 tau - 1): the total mean
    curvature of the image against that of a round sphere of its area."""
    data = e.image_data
    total_h, r0 = data.integrate(data.mean_curvature), e.radius
    return abs(total_h - 4.0 * np.pi * r0 - data.area / r0) * r0 ** (2.0 * tau - 1.0)


def test_minkowski_claim_scaling(kerr_sweep):
    claims = [claim_residual(kerr_sweep[r]) for r in (20.0, 40.0, 80.0)]
    assert all(c <= 2e-4 for c in claims)
    assert claims == sorted(claims, reverse=True)


def test_claim_bounded_for_critical_decay(g16):
    # tau = 1 is the critical rate: the scaled claim stays bounded, not small
    p1 = nr.conformal_perturbed(1.0, 0.3, 2, 1, 1.0)
    claims = []
    for r in (20.0, 40.0, 80.0):
        s = coordinate_sphere(r, g16)
        e = emb.embed(fundamental_forms(s, p1))
        claims.append(claim_residual(e, tau=1.0))
    assert max(claims) <= 13.0
    assert max(claims) / min(claims) <= 1.1


def test_volume_cross_check_embeddings(g16, kerr_sweep):
    assert emb.volume_cross_check(kerr_sweep[40.0]) <= 1e-6
    s = lumpy_surface(g16, scale=10.0)
    assert emb.volume_cross_check(emb.embed(fundamental_forms(s))) <= 1e-6


def test_volume_cross_check_round_sphere(g16):
    e = emb.embed(fundamental_forms(coordinate_sphere(3.0, g16)))
    assert e.volume == pytest.approx(4.0 * np.pi * 27.0 / 3.0, rel=1e-10)
    assert emb.volume_cross_check(e) <= 1e-8


def test_gauge_moments_vanish_after_centering(g16, pert_records):
    for fd in pert_records.values():
        u, _ = emb.uniformize(g16, normalized_curvature(fd))
        gauged, _ = center_gauge(g16, u)
        assert np.max(np.abs(conformal_moments(g16, gauged))) <= 1e-9


def test_rigid_align_recovers_motion(g16):
    s = lumpy_surface(g16)
    ang = 0.3
    R = np.array(
        [
            [np.cos(ang), -np.sin(ang), 0.0],
            [np.sin(ang), np.cos(ang), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    moved = np.einsum("ij,jtp->itp", R, s.Y) + np.array([0.4, -0.2, 0.7])[:, None, None]
    aligned, rms = rigid_align(g16, moved, s.Y)
    assert rms <= 1e-12
    assert np.max(np.abs(aligned - s.Y)) <= 1e-11


def test_obj_export_counts(tmp_path, g16, kerr_sweep):
    path = tmp_path / "surface.obj"
    emb.write_embedding_obj(kerr_sweep[40.0], path)
    lines = path.read_text().splitlines()
    nv = sum(1 for ln in lines if ln.startswith("v "))
    nf = sum(1 for ln in lines if ln.startswith("f "))
    assert nv == g16.n_nodes + 2
    assert nf == 2 * g16.nphi + 2 * (g16.ntheta - 1) * g16.nphi
    # faces reference declared vertices only
    for ln in lines:
        if ln.startswith("f "):
            ids = [int(tok) for tok in ln.split()[1:]]
            assert all(1 <= i <= nv for i in ids)
