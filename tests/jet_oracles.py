"""Test-side views of the metric jets: the full second-derivative tensor
rebuilt from a batch's closed-form terms, g and dg rebuilt from them by
dense products, and a rotated chart whose jets rotate those terms.

The library assembles g and dg only and keeps the closed form g = sum of
S I and S (V x)(V x)^T terms; the tensor ddg[n, i, j, k, l] = d_k d_l g_ij
lives on here, as the oracle that the finite-difference, symbolic, decay
and curvature tests compare against.
"""

import numpy as np

from nearlyround import metrics as M
from nearlyround.metrics import _DG_UNPACK, _DIAG, _G_UNPACK, _PACK, _PI, _PJ

# the row of the packed (6 kl, 6 ij) accumulator behind each entry of ddg
_DDG_UNPACK = (_PACK[:, :, None, None] + 6 * _PACK).ravel()


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


def dense_g_dg(jets):
    """(g, dg) of a JetBatch rebuilt from its terms, node-major, with dvv
    formed in full by products with the 0/+-1 pattern of each V and summed
    as S.d vv + S.v dvv, the arithmetic that the library's table of
    nonzero dvv rows must reproduce bit for bit."""
    points = jets.points
    n = len(points)
    g, dg = np.zeros((6, n)), np.zeros((3, 6, n))
    for S, V in jets.terms:
        if V is None:
            g[_DIAG], dg[:, _DIAG] = S.v, S.d[:, None]
            continue
        v = V @ points.T
        vv = v[_PI] * v[_PJ]
        dvv = V[_PI].T[:, :, None] * v[_PJ] + v[_PI] * V[_PJ].T[:, :, None]
        g += S.v * vv
        dg += S.d[:, None] * vv + S.v * dvv
    return (
        np.take(g.T, _G_UNPACK, axis=1).reshape(n, 3, 3),
        np.take(dg.reshape(18, n).T, _DG_UNPACK, axis=1).reshape(n, 3, 3, 3),
    )


def rotated_jets(base, Q, points):
    """The jets at `points` of the pullback g'(x) = Q g(Q^T x) Q^T, from the
    jets `base` of g at the source points Q^T x.

    Each term S (V x)(V x)^T becomes S' (Q V Q^T x)(Q V Q^T x)^T with
    S'(x) = S(Q^T x): grad S' = Q grad S and hess S' = Q hess S Q^T.
    """
    g = np.einsum("ki,lj,nij->nkl", Q, Q, base.g, optimize=True)
    dg = np.einsum("ki,lj,mp,nijp->nklm", Q, Q, Q, base.dg, optimize=True)
    terms = []
    for S, V in base.terms:
        hess = np.einsum("ki,ijn,lj->kln", Q, S.h[_PACK], Q, optimize=True)
        S_rotated = M._Jet(S.v, Q @ S.d, hess[_PI, _PJ])
        terms.append((S_rotated, None if V is None else Q @ V @ Q.T))
    return M.JetBatch(g, dg, tuple(terms), points)


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
