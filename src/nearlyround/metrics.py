"""Catalog of asymptotically flat 3-metrics with exact derivative jets.

Each metric is presented in a global Cartesian chart as g_ij = delta_ij +
sigma_ij with |sigma| + r|d sigma| + r^2|dd sigma| = O(r^-tau).  Families:

* ``euclidean`` - flat space.
* ``schwarzschild_isotropic m=..`` - conformally flat phi^4 delta with
  phi = 1 + m/(2r).
* ``schwarzschild_standard m=..`` - areal-radius form, g = delta +
  2m/(r-2m) n (x) n.
* ``kerr_slice m=.. a=..`` - constant-time slice of the rotating black hole
  in its standard stationary coordinates, mapped to Cartesian by the plain
  spherical-coordinates map so coordinate spheres are the surfaces of
  interest.
* ``conformal_perturbed m=.. eps=.. l=.. m_order=.. tau_extra=..`` -
  phi = 1 + m/(2r) + eps * Y_{l,m_order} * r^-tau_extra; the angular
  perturbation leaves the total mass unchanged for l >= 1.

Every family has the form g = B I + F x (x) x + E w (x) w with w = (-y, x, 0)
and closed-form scalars B, F, E; their exact jets come from product-rule
arithmetic, and one assembly turns them into (g, dg, ddg).  Finite
differences and symbolic derivations appear only in the test suite as
independent oracles.

Index conventions: ``dg[i, j, k] = d_k g_ij``; ``ddg[i, j, k, l] =
d_k d_l g_ij``; batched arrays carry a leading node axis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sphere import SphereGrid


class PointInsideExclusionRadius(ConfigError):
    """A jet was requested inside the metric's excluded ball."""


class UnknownMetricFamily(ConfigError):
    """The metric specification names no family of the catalog."""


class QuadratureUnderresolved(UserWarning):
    """Doubling the band limit moved a surface integral more than tolerance."""


class NonMonotoneFluxTail(UserWarning):
    """Mass-flux values do not settle monotonically along the radius schedule."""


@dataclass(frozen=True)
class MetricJet:
    """Metric value and first two derivative arrays at one point."""

    g: np.ndarray
    dg: np.ndarray
    ddg: np.ndarray

    @property
    def sigma(self) -> np.ndarray:
        return self.g - np.eye(3)


@dataclass(frozen=True)
class JetBatch:
    """Stacked jets at N points: g (N,3,3), dg (N,3,3,3), ddg (N,3,3,3,3)."""

    g: np.ndarray
    dg: np.ndarray
    ddg: np.ndarray

    @property
    def sigma(self) -> np.ndarray:
        return self.g - np.eye(3)[None, :, :]

    def __getitem__(self, n: int) -> MetricJet:
        return MetricJet(self.g[n], self.dg[n], self.ddg[n])


class AFMetric:
    """Asymptotically flat metric: family tag, parameters, decay order tau.

    ``exclusion_radius`` is twice the natural singular radius of the family;
    jet evaluation raises PointInsideExclusionRadius inside it.
    """

    def __init__(self, family, params, tau, exclusion_radius, jet_fn, known_mass):
        self.family = family
        self.params = dict(params)
        self.tau = float(tau)
        self.exclusion_radius = float(exclusion_radius)
        self._jet_fn = jet_fn
        self.known_mass = known_mass

    def jets(self, points: np.ndarray) -> JetBatch:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        radii = np.linalg.norm(points, axis=1)
        if np.any(radii <= self.exclusion_radius):
            raise PointInsideExclusionRadius(
                f"{self.family}: point at radius {radii.min():.6g} inside "
                f"exclusion radius {self.exclusion_radius:.6g}"
            )
        g, dg, ddg = self._jet_fn(points)
        return JetBatch(g, dg, ddg)

    def jet(self, x: np.ndarray) -> MetricJet:
        return self.jets(np.asarray(x, dtype=float)[None, :])[0]

    def __repr__(self):
        return f"AFMetric({self.spec()!r})"

    def spec(self) -> str:
        """Canonical parseable text form, stable for report metadata."""
        if not self.params:
            return self.family
        parts = [f"{k}={self.params[k]:g}" for k in sorted(self.params)]
        return " ".join([self.family] + parts)


# ---------------------------------------------------------------------------
# Scalar jets and the closed-form assembly
# ---------------------------------------------------------------------------


class _Jet:
    """A scalar field at N points: value v (N,), gradient d (N,3), Hessian h (N,3,3).

    Arithmetic follows the product and chain rules, so a closed form
    written with these objects carries its exact first and second
    derivatives.  Plain numbers act as constants.
    """

    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, v, d, h):
        self.v, self.d, self.h = v, d, h

    @classmethod
    def constant(cls, c, n):
        return cls(np.full(n, float(c)), np.zeros((n, 3)), np.zeros((n, 3, 3)))

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.v + other.v, self.d + other.d, self.h + other.h)
        return _Jet(self.v + other, self.d, self.h)

    __radd__ = __add__

    def __neg__(self):
        return _Jet(-self.v, -self.d, -self.h)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            return _Jet(other * self.v, other * self.d, other * self.h)
        cross = self.d[:, :, None] * other.d[:, None, :]
        return _Jet(
            self.v * other.v,
            self.d * other.v[:, None] + self.v[:, None] * other.d,
            self.h * other.v[:, None, None]
            + self.v[:, None, None] * other.h
            + cross
            + cross.transpose(0, 2, 1),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * other**-1.0

    def __rtruediv__(self, other):
        return other * self**-1.0

    def __pow__(self, p):
        d1 = p * self.v ** (p - 1.0)
        d2 = p * (p - 1.0) * self.v ** (p - 2.0)
        return _Jet(
            self.v**p,
            d1[:, None] * self.d,
            d1[:, None, None] * self.h
            + d2[:, None, None] * self.d[:, :, None] * self.d[:, None, :],
        )


def _coordinates(points):
    """Jets of the Cartesian coordinates x, y, z and of the radius r."""
    n = len(points)
    eye = np.eye(3)
    zero = np.zeros((n, 3, 3))
    x, y, z = (_Jet(points[:, i], np.broadcast_to(eye[i], (n, 3)), zero) for i in range(3))
    r = np.linalg.norm(points, axis=1)
    nhat = points / r[:, None]
    nn = nhat[:, :, None] * nhat[:, None, :]
    return x, y, z, _Jet(r, nhat, (eye - nn) / r[:, None, None])


def _solid_harmonic(x, y, z, l: int, m: int) -> _Jet:
    """r^l Y_{l,m} from the coordinate jets x, y, z: a harmonic polynomial.

    These are the recurrences of sphere.normalized_legendre multiplied
    through by r^l: (x + i y)^|m| carries sin^|m| theta times cos or
    sin(|m| phi), and the three-term recurrence in the degree, with
    r cos theta = z and r^2 = x^2 + y^2 + z^2, the rest.  Normalization and
    signs match the sphere module (sqrt(2) cos / sin for m > 0 / m < 0).
    """
    am = abs(m)
    re, im = _Jet.constant(1.0, len(x.v)), 0.0
    c = np.sqrt(1.0 / (4.0 * np.pi))
    for k in range(1, am + 1):
        re, im = re * x - im * y, re * y + im * x
        c *= np.sqrt((2.0 * k + 1.0) / (2.0 * k))
    r2 = x * x + y * y + z * z
    prev, radial = 0.0, c  # the factors of degree n - 2 and n - 1 below
    for n in range(am + 1, l + 1):
        a = np.sqrt((4.0 * n * n - 1.0) / (n * n - am * am))
        b = np.sqrt(((n - 1.0) ** 2 - am * am) / (4.0 * (n - 1.0) ** 2 - 1.0))
        prev, radial = radial, a * (z * radial - b * (r2 * prev))
    if m == 0:
        return re * radial
    return np.sqrt(2.0) * ((re if m > 0 else im) * radial)


# d_k w_i for the rotation field w = (-y, x, 0)
_ROTATION = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _assemble(points, B, F=None, E=None):
    """(g, dg, ddg) of g = B I + F x (x) x + E w (x) w from scalar jets.

    Every catalog metric has this form; F and E default to zero.
    """
    eye = np.eye(3)
    g = B.v[:, None, None] * eye
    dg = np.einsum("nk,ij->nijk", B.d, eye)
    ddg = np.einsum("nkl,ij->nijkl", B.h, eye)
    for S, V in ((F, eye), (E, _ROTATION)):
        if S is None:
            continue
        # v = V x has the constant Jacobian d_k v_i = V_ik
        v = points @ V.T
        vv = v[:, :, None] * v[:, None, :]
        dvv = np.einsum("ik,nj->nijk", V, v) + np.einsum("ni,jk->nijk", v, V)
        ddvv = np.einsum("ik,jl->ijkl", V, V) + np.einsum("il,jk->ijkl", V, V)
        g += S.v[:, None, None] * vv
        dg += np.einsum("nk,nij->nijk", S.d, vv) + S.v[:, None, None, None] * dvv
        ddg += (
            np.einsum("nkl,nij->nijkl", S.h, vv)
            + np.einsum("nk,nijl->nijkl", S.d, dvv)
            + np.einsum("nl,nijk->nijkl", S.d, dvv)
            + S.v[:, None, None, None, None] * ddvv
        )
    return g, dg, ddg


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------


def euclidean() -> AFMetric:
    def jets(points):
        return _assemble(points, _Jet.constant(1.0, len(points)))

    return AFMetric("euclidean", {}, 1.0, 0.0, jets, 0.0)


def schwarzschild_isotropic(m: float) -> AFMetric:
    if m <= 0:
        raise ConfigError("mass must be positive")

    def jets(points):
        r = _coordinates(points)[3]
        return _assemble(points, (1.0 + (m / 2.0) / r) ** 4)

    return AFMetric("schwarzschild_isotropic", {"m": m}, 1.0, m, jets, m)


def conformal_perturbed(
    m: float,
    eps: float,
    l: int = 2,
    m_order: int = 0,
    tau_extra: float = 1.0,
) -> AFMetric:
    """phi = 1 + m/(2r) + eps Y_{l,m_order} r^-tau_extra, l >= 1.

    The angular term integrates away from the mass aspect, so the total
    mass stays m.  Decay order is min(1, tau_extra).
    """
    if m <= 0:
        raise ConfigError("mass must be positive")
    if l < 1:
        raise ConfigError("perturbation degree l must be >= 1")
    if abs(m_order) > l:
        raise ConfigError("|m_order| must be <= l")
    if tau_extra <= 0.5:
        raise ConfigError("tau_extra must exceed 1/2 for a finite mass")
    beta = l + tau_extra  # Y r^-tau_extra = (r^l Y) r^-beta

    def jets(points):
        x, y, z, r = _coordinates(points)
        s = _solid_harmonic(x, y, z, l, m_order)
        phi = 1.0 + (m / 2.0) / r + eps * s * r ** (-beta)
        return _assemble(points, phi**4)

    params = {"m": m, "eps": eps, "l": l, "m_order": m_order, "tau_extra": tau_extra}
    return AFMetric(
        "conformal_perturbed", params, min(1.0, tau_extra), m, jets, m
    )


def schwarzschild_standard(m: float) -> AFMetric:
    """Areal-radius form g = delta + u(r) n (x) n with u = 2m/(r-2m)."""
    if m <= 0:
        raise ConfigError("mass must be positive")

    def jets(points):
        r = _coordinates(points)[3]
        one = _Jet.constant(1.0, len(points))
        return _assemble(points, one, F=2.0 * m / ((r - 2.0 * m) * r * r))

    return AFMetric("schwarzschild_standard", {"m": m}, 1.0, 4.0 * m, jets, m)


def kerr_slice(m: float, a: float) -> AFMetric:
    """Constant-time slice in the axis-regular closed form
    g = B I + (A - B) n (x) n + E w (x) w, with
    Sigma = r^2 + a^2 z^2 / r^2, Delta = r^2 - 2 m r + a^2,
    A = Sigma/Delta, B = Sigma/r^2, E = a^2 (Sigma + 2 m r)/(Sigma r^4),
    w = (-y, x, 0); every scalar is smooth away from the excluded ball,
    poles included.
    """
    if m <= 0:
        raise ConfigError("mass must be positive")
    if abs(a) >= m:
        raise ConfigError("need |a| < m for a regular horizon")
    r_plus = m + np.sqrt(m * m - a * a)

    def jets(points):
        x, y, z, r = _coordinates(points)
        r2 = x * x + y * y + z * z
        Sigma = r2 + a * a * z * z / r2
        Delta = r2 - 2.0 * m * r + a * a
        B = Sigma / r2
        F = (Sigma / Delta - B) / r2
        E = a * a * (Sigma + 2.0 * m * r) / (Sigma * r2 * r2)
        return _assemble(points, B, F, E)

    return AFMetric("kerr_slice", {"m": m, "a": a}, 1.0, 2.0 * r_plus, jets, m)


_FACTORIES = {
    "euclidean": (euclidean, ()),
    "schwarzschild_isotropic": (schwarzschild_isotropic, ("m",)),
    "schwarzschild_standard": (schwarzschild_standard, ("m",)),
    "kerr_slice": (kerr_slice, ("m", "a")),
    "conformal_perturbed": (
        conformal_perturbed,
        ("m", "eps", "l", "m_order", "tau_extra"),
    ),
}


def parse_metric(text: str) -> AFMetric:
    """Build a catalog metric from its text form, e.g. ``kerr_slice m=1 a=0.5``."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise UnknownMetricFamily("empty metric specification")
    family, kv = tokens[0], tokens[1:]
    if family not in _FACTORIES:
        raise UnknownMetricFamily(f"unknown metric family {family!r}")
    factory, names = _FACTORIES[family]
    params = {}
    for tok in kv:
        if "=" not in tok:
            raise ConfigError(f"malformed parameter {tok!r} (expected key=value)")
        key, val = tok.split("=", 1)
        if key not in names:
            raise ConfigError(f"unknown parameter {key!r} for family {family!r}")
        try:
            params[key] = int(val) if key in ("l", "m_order") else float(val)
        except ValueError as exc:
            raise ConfigError(f"bad value {val!r} for parameter {key!r}") from exc
        if not np.isfinite(params[key]):
            raise ConfigError(f"parameter {key!r} must be finite, got {val!r}")
    return factory(**params)


# ---------------------------------------------------------------------------
# Connection and curvature
# ---------------------------------------------------------------------------


def christoffel(jets: JetBatch) -> np.ndarray:
    """Christoffel symbols of the second kind, Gamma[n, k, i, j] = Gamma^k_ij."""
    ginv = np.linalg.inv(jets.g)
    dg = jets.dg  # dg[n, i, j, k] = d_k g_ij
    # T[n, l, i, j] = d_j g_il + d_i g_jl - d_l g_ij
    T = (
        np.einsum("nilj->nlij", dg)
        + np.einsum("njli->nlij", dg)
        - np.einsum("nijl->nlij", dg)
    )
    return 0.5 * np.einsum("nkl,nlij->nkij", ginv, T)


def christoffel_derivative(jets: JetBatch) -> np.ndarray:
    """dGamma[n, k, i, j, m] = d_m Gamma^k_ij from the second-derivative jet."""
    ginv = np.linalg.inv(jets.g)
    dg, ddg = jets.dg, jets.ddg
    T = (
        np.einsum("nilj->nlij", dg)
        + np.einsum("njli->nlij", dg)
        - np.einsum("nijl->nlij", dg)
    )
    # dT[l, i, j, m]
    dT = (
        np.einsum("niljm->nlijm", ddg)
        + np.einsum("njlim->nlijm", ddg)
        - np.einsum("nijlm->nlijm", ddg)
    )
    # d_m g^{kl} = -g^{ka} (d_m g_ab) g^{bl}
    dginv = -np.einsum("nka,nabm,nbl->nklm", ginv, dg, ginv)
    return 0.5 * (
        np.einsum("nklm,nlij->nkijm", dginv, T)
        + np.einsum("nkl,nlijm->nkijm", ginv, dT)
    )


def riemann_lowered(jets: JetBatch, Gam: np.ndarray | None = None) -> np.ndarray:
    """Covariant curvature tensor R[n, i, j, k, l] with R(X,Y,Z,W) =
    g(R(X,Y)Z, W) and the sign convention fixed so that round spheres in the
    catalog reproduce K = 1/r^2 through the Gauss equation.  `Gam` is
    christoffel(jets), computed here when not given."""
    Gam = christoffel(jets) if Gam is None else Gam
    dGam = christoffel_derivative(jets)  # dGam[n, k, i, j, m] = d_m Gamma^k_ij
    # R^r_{s m q} = d_m Gamma^r_{q s} - d_q Gamma^r_{m s}
    #             + Gamma^r_{m l} Gamma^l_{q s} - Gamma^r_{q l} Gamma^l_{m s}
    # term_a[r, s, m, q] = d_m Gamma^r_{q s} = dGam[r, q, s, m]
    term_a = np.einsum("nrqsm->nrsmq", dGam)
    # term_b[r, s, m, q] = d_q Gamma^r_{m s} = dGam[r, m, s, q]
    term_b = np.einsum("nrmsq->nrsmq", dGam)
    # term_c[r, s, m, q] = Gamma^r_{m l} Gamma^l_{q s}
    term_c = np.einsum("nrml,nlqs->nrsmq", Gam, Gam)
    # term_d[r, s, m, q] = Gamma^r_{q l} Gamma^l_{m s}
    term_d = np.einsum("nrql,nlms->nrsmq", Gam, Gam)
    Rup = term_a - term_b + term_c - term_d
    return np.einsum("nra,nasmq->nrsmq", jets.g, Rup)


def ricci(jets: JetBatch) -> np.ndarray:
    """Ricci tensor Ric[n, s, q]."""
    ginv = np.linalg.inv(jets.g)
    R = riemann_lowered(jets)
    # Ric_{sq} = g^{rm} R_{r s m q}
    return np.einsum("nrm,nrsmq->nsq", ginv, R)


def scalar_curvature(metric: AFMetric, points: np.ndarray) -> np.ndarray:
    """Scalar curvature at an (N, 3) array of points."""
    jets = metric.jets(np.atleast_2d(points))
    ginv = np.linalg.inv(jets.g)
    return np.einsum("nsq,nsq->n", ginv, ricci(jets))


def sectional_curvature(jets: JetBatch, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Sectional curvature of span(e1, e2), e1 and e2 g-orthonormal."""
    R = riemann_lowered(jets)
    return np.einsum("nrsmq,nr,ns,nm,nq->n", R, e1, e2, e1, e2)


# ---------------------------------------------------------------------------
# Total-mass surface integrals
# ---------------------------------------------------------------------------


def adm_surface_integral(
    metric: AFMetric,
    radius: float,
    band_limit: int = 16,
    center: np.ndarray | None = None,
    check_resolution: bool = True,
    resolution_tol: float = 1e-9,
) -> float:
    """Mass flux (1/16 pi) oint (d_i g_ij - d_j g_ii) nu_j over the coordinate
    sphere of the given radius, Euclidean normal and measure."""

    def flux(L):
        grid = SphereGrid(L)
        nhat = grid.unit_vectors.reshape(-1, 3)
        pts = radius * nhat
        if center is not None:
            pts = pts + np.asarray(center, dtype=float)
        dg = metric.jets(pts).dg
        div = np.einsum("niji->nj", dg)  # d_i g_ij
        grad_tr = np.einsum("niij->nj", dg)  # d_j g_ii
        integrand = np.einsum("nj,nj->n", div - grad_tr, nhat)
        return (
            radius**2
            * np.sum(grid.weights.ravel() * integrand)
            / (16.0 * np.pi)
        )

    value = flux(band_limit)
    if check_resolution:
        refined = flux(2 * band_limit)
        if abs(refined - value) > resolution_tol * max(1.0, abs(value)):
            warnings.warn(
                f"surface integral moved {abs(refined - value):.3e} when the "
                f"band limit doubled from {band_limit}",
                QuadratureUnderresolved,
                stacklevel=2,
            )
    return value


@dataclass(frozen=True)
class AdmEstimate:
    """Extrapolated total mass with the power-law fit that produced it."""

    value: float
    rate: float
    coefficient: float
    residual: float
    radii: tuple
    fluxes: tuple

    def __iter__(self):
        yield self.value
        yield self.residual


def adm_mass(
    metric: AFMetric,
    radii,
    band_limit: int = 16,
) -> AdmEstimate:
    """Extrapolate the mass flux against c0 + c1 r^-p with p fitted.

    Needs at least three strictly increasing radii outside the exclusion
    radius.  Warns when the flux tail is not settling monotonically.
    """
    radii = tuple(float(r) for r in radii)
    if len(radii) < 3:
        raise ConfigError("need at least three radii to fit the flux model")
    if not np.all(np.isfinite(radii)):
        raise ConfigError("radii must be finite")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ConfigError("radii must be strictly increasing")
    fluxes = tuple(
        adm_surface_integral(metric, r, band_limit, check_resolution=False)
        for r in radii
    )
    diffs = np.diff(fluxes)
    if len(diffs) >= 2:
        settling = np.all(np.abs(diffs[1:]) <= np.abs(diffs[:-1]) * (1.0 + 1e-12))
        same_sign = np.all(diffs >= 0) or np.all(diffs <= 0)
        if not (settling and same_sign):
            warnings.warn(
                "flux values do not approach a limit monotonically",
                NonMonotoneFluxTail,
                stacklevel=2,
            )
    r = np.asarray(radii)
    F = np.asarray(fluxes)

    def solve_for(p):
        X = np.stack([np.ones_like(r), r**-p], axis=1)
        coef, *_ = np.linalg.lstsq(X, F, rcond=None)
        rss = float(np.sum((X @ coef - F) ** 2))
        return coef, rss

    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda p: solve_for(p)[1],
        bounds=(0.25, 4.0),
        method="bounded",
        options={"xatol": 1e-13},
    )
    p = float(res.x)
    (c0, c1), rss = solve_for(p)
    return AdmEstimate(
        value=float(c0),
        rate=p,
        coefficient=float(c1),
        residual=float(np.sqrt(rss / len(radii))),
        radii=radii,
        fluxes=fluxes,
    )
