"""Test-side views of the metric jets and an independent route to the
surface geometry.

The library assembles sigma = g - delta and dg only, as packed node-last
rows, and keeps the closed form sigma = sum of S I and S (V x)(V x)^T
terms.  Here live:

* node_major and packed_rows, between the library's rows and the
  (N, 3, 3) / (N, 3, 3, 3) node-major tensors the index-notation oracles
  read (node_major forms g = delta + sigma for them);
* the tensor ddg[n, i, j, k, l] = d_k d_l g_ij rebuilt from the terms,
  which the finite-difference, symbolic, decay and curvature tests
  compare against, and sigma and dg rebuilt from them by dense products;
* a rotated chart whose jets rotate those terms;
* a second route to the surface geometry, by stacked (N, 2|3, 3)
  products on node-major tensors: the full Christoffel symbols, the
  Gauss term contracted with them and the full ddg, and the fundamental
  forms of a surface (fundamental_forms_oracle), which the library's
  node-last row algebra is compared against.
"""

import numpy as np

from nearlyround import metrics as M
from nearlyround.metrics import _DIAG, _PACK, _PI, _PJ
from nearlyround.sphere import analyze, synth_gradient

# the row of the packed (6 kl, 6 ij) accumulator behind each entry of ddg
_DDG_UNPACK = (_PACK[:, :, None, None] + 6 * _PACK).ravel()


def node_major(jets):
    """(g (N, 3, 3), dg (N, 3, 3, 3)) of a JetBatch, g = delta + sigma and
    dg[n, i, j, k] = d_k g_ij."""
    return (
        np.ascontiguousarray(M.unpack(jets.sigma + M.DELTA).transpose(2, 0, 1)),
        np.ascontiguousarray(M.unpack(jets.dg).transpose(3, 1, 2, 0)),
    )


def packed_rows(sigma, dg):
    """Node-major sigma and dg as the packed rows sigma (6, N) and dg
    (3, 6, N) of a JetBatch."""
    return (
        np.ascontiguousarray(sigma[:, _PI, _PJ].T),
        np.ascontiguousarray(dg[:, _PI, _PJ].transpose(2, 1, 0)),
    )


def full_ddg(jets):
    """ddg[n, i, j, k, l] = d_k d_l g_ij of a JetBatch, rebuilt from its terms.

    Accumulated node-last and packed, (6 kl, 6 ij, N), then gathered
    node-major: term S I adds hess S on the diagonal pairs, and term
    S vv with v = V x adds dd S vv + d_k S d_l vv + d_l S d_k vv + S dd vv,
    summed in that order, one (k, l) at a time.
    """
    points = jets.points
    n = len(points)
    ddg = np.zeros((6, 6, n))
    for S, V in jets.terms:
        if V is None:
            ddg[:, _DIAG] += S.h[:, None]
            continue
        v = V @ points.T
        vv = v[_PI] * v[_PJ]
        dvv = V[_PI].T[:, :, None] * v[_PJ] + v[_PI] * V[_PJ].T[:, :, None]
        ddvv = V[_PI][:, _PI] * V[_PJ][:, _PJ] + V[_PI][:, _PJ] * V[_PJ][:, _PI]
        t, term = np.empty((2, 6, n))
        for b, (k, l) in enumerate(zip(_PI, _PJ)):
            np.multiply(S.h[b], vv, out=t)
            t += np.multiply(S.d[k], dvv[l], out=term)
            t += np.multiply(S.d[l], dvv[k], out=term)
            t += np.multiply(S.v, ddvv[:, b, None], out=term)
            ddg[b] += t
    return np.take(ddg.reshape(36, n).T, _DDG_UNPACK, axis=1).reshape(n, 3, 3, 3, 3)


def dense_sigma_dg(jets):
    """(sigma, dg) of a JetBatch rebuilt from its terms, packed, with dvv
    formed in full by products with the 0/+-1 pattern of each V and summed
    as S.d vv + S.v dvv, the arithmetic that the library's table of
    nonzero dvv rows must reproduce bit for bit."""
    points = jets.points
    n = len(points)
    sigma, dg = np.zeros((6, n)), np.zeros((3, 6, n))
    for S, V in jets.terms:
        if V is None:
            sigma[_DIAG], dg[:, _DIAG] = S.v, S.d[:, None]
            continue
        v = V @ points.T
        vv = v[_PI] * v[_PJ]
        dvv = V[_PI].T[:, :, None] * v[_PJ] + v[_PI] * V[_PJ].T[:, :, None]
        sigma += S.v * vv
        dg += S.d[:, None] * vv + S.v * dvv
    return sigma, dg


def rotated_jets(base, Q, points):
    """The jets at `points` of the pullback g'(x) = Q g(Q^T x) Q^T, from the
    jets `base` of g at the source points Q^T x.

    Each term S (V x)(V x)^T becomes S' (Q V Q^T x)(Q V Q^T x)^T with
    S'(x) = S(Q^T x): grad S' = Q grad S and hess S' = Q hess S Q^T.
    """
    sigma = np.einsum("ki,lj,ijn->nkl", Q, Q, M.unpack(base.sigma), optimize=True)
    dg = np.einsum("ki,lj,mp,nijp->nklm", Q, Q, Q, node_major(base)[1], optimize=True)
    terms = []
    for S, V in base.terms:
        hess = np.einsum("ki,ijn,lj->kln", Q, S.h[_PACK], Q, optimize=True)
        S_rotated = M._Jet(S.v, Q @ S.d, hess[_PI, _PJ])
        terms.append((S_rotated, None if V is None else Q @ V @ Q.T))
    return M.JetBatch(*packed_rows(sigma, dg), tuple(terms), points)


class RotatedChart:
    """Pullback of a metric under a rigid rotation Q of the Cartesian chart,
    g'(x) = Q g(Q^T x) Q^T: a duck-typed AFMetric stand-in.  A permutation
    of the axes is the rotation with Q = P^T."""

    def __init__(self, metric, Q):
        self.metric = metric
        self.Q = np.asarray(Q, dtype=float)
        self.family = metric.family
        self.tau = metric.tau

    def spec(self):
        return self.metric.spec() + " rotated"

    def jets(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return rotated_jets(self.metric.jets(points @ self.Q), self.Q, points)


# ---------------------------------------------------------------------------
# Surface geometry by stacked node-major products
# ---------------------------------------------------------------------------


def christoffel_node_major(ginv, dg):
    """Christoffel symbols of the second kind, Gamma[n, k, i, j] = Gamma^k_ij,
    from the inverse metric ginv (N, 3, 3) and dg[n, i, j, k] = d_k g_ij."""
    n = len(dg)
    # T[n, l, i, j] = d_j g_il + d_i g_jl - d_l g_ij
    T = (
        np.einsum("nilj->nlij", dg)
        + np.einsum("njli->nlij", dg)
        - np.einsum("nijl->nlij", dg)
    )
    return 0.5 * (ginv @ T.reshape(n, 3, 9)).reshape(n, 3, 3, 3)


def node_major_form(form):
    """A packed (3, ntheta, nphi) 2x2 form of a record as (N, 2, 2) matrices."""
    return form.reshape(3, -1)[[[0, 1], [1, 2]]].transpose(2, 0, 1)


def node_major_gradient(nabla):
    """The (2, 2, 2, ntheta, nphi) tracefree gradient as (N, 2, 2, 2)."""
    return nabla.reshape(2, 2, 2, -1).transpose(3, 0, 1, 2)


def riemann_contraction(g, ddg, Gam, X, Y):
    """R(X, Y, X, Y) by the coordinate formula (Landau & Lifshitz, section 92)
    on the full second-derivative tensor, all node-major: each d_U d_W g
    block is the ddg contraction, Gam(U, W) the connection's."""

    def dd(U, W):
        return np.einsum("nijkl,nk,nl->nij", ddg, U, W)

    def gam(U, W):
        return np.einsum("nkij,ni,nj->nk", Gam, U, W)

    def form(A, U, W):
        return np.einsum("nij,ni,nj->n", A, U, W)

    return (
        form(dd(X, Y), X, Y)
        - 0.5 * (form(dd(X, X), Y, Y) + form(dd(Y, Y), X, X))
        + form(g, gam(X, Y), gam(X, Y))
        - form(g, gam(X, X), gam(Y, Y))
    )


def fundamental_forms_oracle(s, ambient=None):
    """The fields of fundamental_forms by stacked (N, 2|3, 3) products on
    node-major tensors: LAPACK's g^-1, the full Gamma^k_ij, the covariant
    derivative of the normal d_a nu + Gamma(T_a, nu) lowered by g T, and
    K from the Gauss equation with the full ddg.  Returns a dict keyed by
    the FundamentalData field names, in the record's layout: each 2x2 form
    its (00, 01, 11) components packed (3, ntheta, nphi)."""
    grid = s.grid
    pts = s.points
    N = len(pts)
    shp = grid.shape
    T = s.tangents().reshape(2, 3, N).transpose(2, 0, 1)
    Tt = T.transpose(0, 2, 1)
    flat = ambient is None or ambient.family == "euclidean"
    if flat:
        gT = T
    else:
        jets = ambient.jets(pts)
        g, dg = node_major(jets)
        ginv = np.linalg.inv(g)
        Gam = christoffel_node_major(ginv, dg)
        gT = T @ g
    h = gT @ Tt
    deth = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] ** 2
    hinv = np.linalg.inv(h)
    cross = np.cross(T[:, 0], T[:, 1])
    if flat:
        nu = cross / np.linalg.norm(cross, axis=1)[:, None]
    else:
        nu = (ginv @ cross[:, :, None])[:, :, 0]
        nu /= np.sqrt(np.einsum("ni,ni->n", nu, cross))[:, None]
    dnu = synth_gradient(grid, analyze(grid, nu.T.reshape((3,) + shp)))
    cov = dnu.reshape(2, 3, N).transpose(2, 0, 1)  # cov[a, i] = d_a nu^i + Gamma^i_kl T_a^k nu^l
    if not flat:
        Gnu = (Gam.reshape(N, 9, 3) @ nu[:, :, None]).reshape(N, 3, 3)
        cov = cov + T @ Gnu.transpose(0, 2, 1)
    A = cov @ gT.transpose(0, 2, 1)
    A = 0.5 * (A + A.transpose(0, 2, 1))
    H = np.einsum("nab,nab->n", hinv, A)
    Aring = A - 0.5 * H[:, None, None] * h
    detA = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] ** 2
    K = detA
    if not flat:
        K = K + riemann_contraction(g, full_ddg(jets), Gam, T[:, 0], T[:, 1])
    K = K / deth
    J = np.sqrt(deth).reshape(shp) / np.sin(grid.theta)[:, None]

    def packed(F):
        return np.stack([F[:, 0, 0], F[:, 0, 1], F[:, 1, 1]]).reshape((3,) + shp)

    return {
        "induced_metric": packed(h),
        "induced_metric_inv": packed(hinv),
        "second_form": packed(A),
        "tracefree_second_form": packed(Aring),
        "mean_curvature": H.reshape(shp),
        "gauss_curvature": K.reshape(shp),
        "normal": nu.T.reshape((3,) + shp),
        "area_jacobian": J,
        "area": grid.integrate(J),
    }
