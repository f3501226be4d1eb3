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

Every family has the form g = delta + sigma with sigma = beta I + F x (x) x
+ E w (x) w, w = (-y, x, 0), and closed-form scalars beta, F, E, built by
product-rule arithmetic from the exact polynomial jet of r^2 (_squares);
one assembly turns them into (sigma, dg) and the closed form's terms.
sigma is never formed as g - delta, nor any scalar as a difference of
nearly equal terms.  Finite differences and symbolic derivations appear
only in the test suite as independent oracles.

Layout: the node axis is last everywhere, so each per-node product runs
its inner loop over the nodes, and a symmetric index pair is stored
once, packed as the six entries of an upper triangle.  A JetBatch
carries sigma (6, N) and dg (3, 6, N), with dg[k, a] = d_k g_ij at
(i, j) = (_PI[a], _PJ[a]), C-contiguous as the assembly accumulates
them, and the closed form as its terms: (beta, None) for beta I and
(S, V) for each S (V x)(V x)^T, V = I for F and V the rotation
generator for E, with the scalar jets S (_Jet, Hessian packed (6, N)).
unpack turns a packed pair into a full 3x3 pair where a contraction
needs one.  No second derivative of g is assembled: sectional_curvature
takes the three it needs from the terms by the product rule, and is the
terms' only reader; a surface record keeps sigma and dg alone.  The
connection is read only as its lowered symbols (christoffel_lowered); a
reader of g^-1 Gamma applies g^-1 to the vector it contracts them with.

adm_mass extrapolates mass fluxes to the total mass.  It reads numbers:
the flux of a surface is surfaces.mass_flux, over the surface's records.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError


class PointInsideExclusionRadius(ConfigError):
    """A jet was requested inside the metric's excluded ball."""


class UnknownMetricFamily(ConfigError):
    """The metric specification names no family of the catalog."""


class NonFiniteJets(SolverError):
    """A jet entry overflowed a float at a point outside the exclusion radius."""


class NonMonotoneFluxTail(UserWarning):
    """Mass-flux values do not settle monotonically along the radius schedule."""


# the ends of the one radius rule: det h = r^4 sin^2 theta on a coordinate
# sphere, and r^4 is a normal float strictly between them
MIN_RADIUS = float(np.finfo(float).tiny) ** 0.25
MAX_RADIUS = float(np.finfo(float).max) ** 0.25


def check_radii(radii) -> tuple:
    """The radii as floats, each strictly between MIN_RADIUS and MAX_RADIUS:
    the one radius rule of every schedule, fit and surface."""
    radii = tuple(float(r) for r in radii)
    if not all(MIN_RADIUS < r < MAX_RADIUS for r in radii):
        raise ConfigError(
            f"radii must be positive, above {MIN_RADIUS:.4g}, where their fourth power underflows, "
            f"and below {MAX_RADIUS:.4g}, where their fourth power overflows: {radii}"
        )
    return radii


def check_schedule(radii) -> tuple:
    """check_radii's radii, at least three and strictly increasing: the schedule rule."""
    radii = check_radii(radii)
    if len(radii) < 3:
        raise ConfigError(f"a schedule needs at least three radii, got {radii}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError(f"a schedule must be strictly increasing: {radii}")
    return radii


@dataclass(frozen=True)
class JetBatch:
    """The metric g = delta + sigma at N points, node axis last and packed:
    sigma (6, N) and dg (3, 6, N), dg[k, a] = d_k g_ij at (i, j) = (_PI[a],
    _PJ[a]); and the closed form of sigma.

    terms is the closed form sigma = sum of its terms: (S, None) stands
    for S I and (S, V) for S (V x)(V x)^T, with S a scalar _Jet (node axis
    last) and V a constant (3, 3) matrix; points (N, 3) are the nodes x.
    """

    sigma: np.ndarray
    dg: np.ndarray
    terms: tuple
    points: np.ndarray


class AFMetric:
    """Asymptotically flat metric g = delta + sigma: family tag, parameters,
    decay order tau.  jets(points) gives the catalog's sigma and dg.

    ``exclusion_radius`` is twice the natural singular radius of the family;
    jet evaluation raises PointInsideExclusionRadius inside it, and
    NonFiniteJets where an entry overflows.  The closed forms run at unit
    scale (jets), so an entry overflows only where its value does, as a
    term's Hessian (about m / r^5) can near and below MIN_RADIUS.
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
        # hypot scales its arguments: a radius stays finite, with no overflow
        # warning, where its square overflows
        radii = np.hypot(np.hypot(points[:, 0], points[:, 1]), points[:, 2])
        if np.any(radii <= self.exclusion_radius):
            raise PointInsideExclusionRadius(
                f"{self.family}: point at radius {radii.min():.6g} inside "
                f"exclusion radius {self.exclusion_radius:.6g}"
            )
        # the closed form runs at unit scale: on the points and lengths times s = 2^-e,
        # e the largest radius's binary exponent; dg and the terms come back by powers of s
        s = np.ldexp(1.0, -np.frexp(radii.max())[1])
        with np.errstate(all="ignore"):
            sigma, dg, unit_terms = self._jet_fn(points * s, s)
            dg *= s
            terms = []
            for S, V in unit_terms:
                p = 0 if V is None else 2  # S is a pure number in beta I, a length^-2 otherwise
                terms.append((_Jet(S.v * s**p, S.d * s ** (p + 1), S.h * s ** (p + 2)), V))
        arrays = [sigma, dg] + [a for S, _ in terms for a in (S.v, S.d, S.h)]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise NonFiniteJets(
                f"{self.family}: metric jets overflow at radius up to {radii.max():.6g}"
            )
        return JetBatch(sigma, dg, tuple(terms), points)

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


# a symmetric 3x3 tensor packed as its upper triangle: entry a holds (i, j) =
# (_PI[a], _PJ[a]), in the order 00 01 02 11 12 22; _PACK maps (i, j) back to a
_PI, _PJ = np.triu_indices(3)
_PACK = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_DIAG = _PACK.diagonal()
DELTA = np.array([[1.0], [0.0], [0.0], [1.0], [0.0], [1.0]])  # the identity, packed (6, 1)


def unpack(packed: np.ndarray) -> np.ndarray:
    """A packed symmetric pair (..., 6, N) as the full pair (..., 3, 3, N)."""
    return packed[..., _PACK, :]


def pack(full: np.ndarray) -> np.ndarray:
    """The upper triangle of a symmetric pair (3, 3, ...), packed (6, ...)."""
    return full[_PI, _PJ]


class _Jet:
    """A scalar field at N points: value v (N,), gradient d (3, N) and the
    packed symmetric Hessian h (6, N), h[a] = d_i d_j at (i, j) = (_PI[a], _PJ[a]).

    The node axis is last, so every product below runs its inner loop
    over the N points.  Arithmetic follows the product and chain rules,
    so a closed form written with these objects carries its exact first
    and second derivatives.  Plain numbers act as constants.
    """

    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, v, d, h):
        self.v, self.d, self.h = v, d, h

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.v + other.v, self.d + other.d, self.h + other.h)
        return _Jet(self.v + other, self.d, self.h)

    __radd__ = __add__

    def __neg__(self):
        return _Jet(-self.v, -self.d, -self.h)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            return _Jet(other * self.v, other * self.d, other * self.h)
        # the cross term d_i self d_j other + d_j self d_i other, packed
        return _Jet(
            self.v * other.v,
            self.d * other.v + self.v * other.d,
            self.h * other.v + self.v * other.h
            + self.d[_PI] * other.d[_PJ] + self.d[_PJ] * other.d[_PI],
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * other**-1.0

    def __rtruediv__(self, other):
        return other * self**-1.0

    def __pow__(self, p):
        d1 = p * self.v ** (p - 1.0)
        d2 = p * (p - 1.0) * self.v ** (p - 2.0)
        # (d2 d_i) d_j, not d2 (d_i d_j): the reports' order of rounding
        return _Jet(self.v**p, d1 * self.d, d1 * self.h + (d2 * self.d)[_PI] * self.d[_PJ])


def _coordinates(points):
    """Jets of the Cartesian coordinates x, y, z."""
    n = len(points)
    eye = np.eye(3)
    zero = np.zeros((6, n))
    return tuple(_Jet(points[:, i], np.broadcast_to(eye[i][:, None], (3, n)), zero) for i in range(3))


# the constant Hessians of r^2 and z^2, packed: 2 delta and 2 e_z e_z
_HESS_R2 = 2.0 * DELTA
_HESS_Z2 = np.array([[0.0], [0.0], [0.0], [0.0], [0.0], [2.0]])


def _squares(points):
    """The jet of r^2 = x.x, exact as the polynomial it is: gradient 2x, constant Hessian."""
    n = len(points)
    xt = np.ascontiguousarray(points.T)
    return _Jet(np.einsum("in,in->n", xt, xt), 2.0 * xt, np.broadcast_to(_HESS_R2, (6, n)))


def _solid_harmonic(x, y, z, l: int, m: int) -> _Jet:
    """r^l Y_{l,m} from the jets x, y, z: a harmonic polynomial (Y_00 at l = 0).

    These are the recurrences of sphere.normalized_legendre multiplied
    through by r^l: (x + i y)^|m| carries sin^|m| theta times cos or
    sin(|m| phi), and the three-term recurrence in the degree, with
    r cos theta = z and r^2 = x^2 + y^2 + z^2, the rest.  Normalization and
    signs match the sphere module (sqrt(2) cos / sin for m > 0 / m < 0).
    """
    am = abs(m)
    re, im = 1.0, 0.0
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


def _dvv_table(V):
    """The nonzero entries of the jet of vv for v = V x: d_k (v_i v_j) =
    V_ik v_j + v_i V_jk is coef v[src] at (k, a), (i, j) = (_PI[a], _PJ[a]).
    Returns (k, a, coef, src); no (k, a) has two sources for I (9 of 18
    entries) or _ROTATION (6), the two V of the catalog."""
    C = np.zeros((3, 6, 3))  # [k, a, src]
    for a, (i, j) in enumerate(zip(_PI, _PJ)):
        C[:, a, j] += V[i]
        C[:, a, i] += V[j]
    k, a, src = np.nonzero(C)
    return k, a, C[k, a, src][:, None], src


_V_TERMS = ((np.eye(3), _dvv_table(np.eye(3))), (_ROTATION, _dvv_table(_ROTATION)))


def _assemble(points, beta=None, F=None, E=None):
    """(sigma, dg, terms) of sigma = beta I + F x (x) x + E w (x) w, from jets.

    Every catalog metric has this form; beta, F and E default to zero.
    sigma and dg are accumulated in place, node-last and packed: a
    symmetric pair (i, j) is stored once, sigma as (6, N) and dg as
    (k, 6, N).  terms is the closed form itself, for JetBatch: (beta, None),
    (F, I) and (E, _ROTATION), each where given.
    """
    n = len(points)
    sigma, dg = np.zeros((6, n)), np.zeros((3, 6, n))
    terms = []
    if beta is not None:
        sigma[_DIAG], dg[:, _DIAG] = beta.v, beta.d[:, None]
        terms.append((beta, None))
    for S, (V, (k, a, coef, src)) in zip((F, E), _V_TERMS):
        if S is None:
            continue
        # v = V x has the constant Jacobian d_k v_i = V_ik; the term S vv
        # (6 ij, N) has the derivative S.d vv + S.v dvv, and dvv is
        # nonzero only at the entries of _dvv_table
        v = V @ points.T
        vv = v[_PI] * v[_PJ]
        sigma += S.v * vv
        t = S.d[:, None] * vv
        t[k, a] += (coef * v[src]) * S.v
        dg += t
        terms.append((S, V))
    return sigma, dg, tuple(terms)


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------


def euclidean() -> AFMetric:
    def jets(points, s):
        return _assemble(points)

    return AFMetric("euclidean", {}, 1.0, 0.0, jets, 0.0)


def schwarzschild_isotropic(m: float) -> AFMetric:
    if m <= 0:
        raise ConfigError("mass must be positive")

    def jets(points, s):
        u = (m * s / 2.0) * _squares(points) ** -0.5
        w = u * (2.0 + u)  # phi^2 - 1, phi = 1 + u
        return _assemble(points, beta=w * (2.0 + w))

    return AFMetric("schwarzschild_isotropic", {"m": m}, 1.0, m, jets, m)


# the highest perturbation degree, sphere.MAX_BAND_LIMIT: no grid resolves
# a higher one, and the catalog reads no grid module
_MAX_DEGREE = 128


def conformal_perturbed(
    m: float,
    eps: float,
    l: int = 2,
    m_order: int = 0,
    tau_extra: float = 1.0,
) -> AFMetric:
    """phi = 1 + m/(2r) + eps Y_{l,m_order} r^-tau_extra, l >= 1.

    The angular term integrates away from the mass aspect, so the total
    mass stays m.  Decay order is min(1, tau_extra).  Y_{l,m_order} is the
    solid harmonic evaluated on the unit-vector jets x / r, so no power
    r^l is formed and the jets stay finite at any degree and radius.
    """
    if m <= 0:
        raise ConfigError("mass must be positive")
    if not 1 <= l <= _MAX_DEGREE:
        raise ConfigError(f"perturbation degree l must be between 1 and {_MAX_DEGREE}, got {l}")
    if abs(m_order) > l:
        raise ConfigError("|m_order| must be <= l")
    if tau_extra <= 0.5:
        raise ConfigError("tau_extra must exceed 1/2 for a finite mass")

    def jets(points, s):
        x, y, z = _coordinates(points)
        r2 = _squares(points)
        inv = r2**-0.5
        angular = _solid_harmonic(x * inv, y * inv, z * inv, l, m_order)
        u = (m * s / 2.0) * inv + eps * s**tau_extra * angular * r2 ** (-0.5 * tau_extra)
        w = u * (2.0 + u)  # phi^2 - 1, phi = 1 + u
        return _assemble(points, beta=w * (2.0 + w))

    params = {"m": m, "eps": eps, "l": l, "m_order": m_order, "tau_extra": tau_extra}
    return AFMetric(
        "conformal_perturbed", params, min(1.0, tau_extra), m, jets, m
    )


def schwarzschild_standard(m: float) -> AFMetric:
    """Areal-radius form g = delta + u(r) n (x) n with u = 2m/(r-2m)."""
    if m <= 0:
        raise ConfigError("mass must be positive")

    def jets(points, s):
        r2 = _squares(points)
        return _assemble(points, F=2.0 * m * s / ((r2**0.5 - 2.0 * m * s) * r2))

    return AFMetric("schwarzschild_standard", {"m": m}, 1.0, 4.0 * m, jets, m)


def kerr_slice(m: float, a: float) -> AFMetric:
    """Constant-time slice in the axis-regular closed form
    g = B I + (A - B) n (x) n + E w (x) w, with
    Sigma = r^2 + a^2 z^2 / r^2, Delta = r^2 - 2 m r + a^2,
    A = Sigma/Delta, B = Sigma/r^2, E = a^2 (Sigma + 2 m r)/(Sigma r^4),
    w = (-y, x, 0); every scalar is smooth away from the excluded ball,
    poles included.

    The jets use forms that cancel nothing: with q = 2m/r - a^2/r^2 and
    D = Delta/r^2 = 1 - q, beta = B - 1 = a^2 z^2/r^4,
    F = (A - B)/r^2 = B q/(D r^2) and E = a^2 (1 + 2m/(r B))/r^4.
    """
    if m <= 0:
        raise ConfigError("mass must be positive")
    if abs(a) >= m:
        raise ConfigError("need |a| < m for a regular horizon")
    r_plus = m + np.sqrt(m * m - a * a)

    def jets(points, s):
        a2, two_m = (a * s) * (a * s), 2.0 * (m * s)
        # the jet of z^2, exact as _squares builds r^2: gradient 2z e_z
        z = points[:, 2]
        dz2 = np.zeros((3, len(points)))
        dz2[2] = 2.0 * z
        z2 = _Jet(z * z, dz2, np.broadcast_to(_HESS_Z2, (6, len(points))))
        r2 = _squares(points)
        inv2 = r2**-1.0
        inv4 = inv2 * inv2
        inv1 = r2**-0.5
        beta = a2 * (z2 * inv4)
        B = 1.0 + beta
        q = two_m * inv1 - a2 * inv2
        F = (B * q) * (1.0 - q) ** -1.0 * inv2
        E = a2 * ((1.0 + two_m * (inv1 / B)) * inv4)
        return _assemble(points, beta, F, E)

    return AFMetric("kerr_slice", {"m": m, "a": a}, 1.0, 2.0 * r_plus, jets, m)


_FACTORIES = {
    f.__name__: f
    for f in (
        euclidean, schwarzschild_isotropic, schwarzschild_standard, kerr_slice,
        conformal_perturbed,
    )
}


def parse_metric(text: str) -> AFMetric:
    """Build a catalog metric from its text form, e.g. ``kerr_slice m=1 a=0.5``.

    The family names its constructor in _FACTORIES, whose signature is the
    grammar: each key is a parameter, given once, converted by its
    annotation (int or float) and finite; a parameter without a default
    must be given.
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise UnknownMetricFamily("empty metric specification")
    family, kv = tokens[0], tokens[1:]
    if family not in _FACTORIES:
        raise UnknownMetricFamily(f"unknown metric family {family!r}")
    factory = _FACTORIES[family]
    grammar = inspect.signature(factory).parameters
    params = {}
    for tok in kv:
        if "=" not in tok:
            raise ConfigError(f"malformed parameter {tok!r} (expected key=value)")
        key, val = tok.split("=", 1)
        if key not in grammar:
            raise ConfigError(f"unknown parameter {key!r} for family {family!r}")
        if key in params:
            raise ConfigError(f"parameter {key!r} given twice")
        try:
            params[key] = int(val) if grammar[key].annotation == "int" else float(val)
        except ValueError as exc:
            raise ConfigError(f"bad value {val!r} for parameter {key!r}") from exc
        if not np.isfinite(params[key]):
            raise ConfigError(f"parameter {key!r} must be finite, got {val!r}")
    missing = [k for k, p in grammar.items() if p.default is p.empty and k not in params]
    if missing:
        raise ConfigError(f"metric family {family!r} needs parameter {', '.join(map(repr, missing))}")
    return factory(**params)


# ---------------------------------------------------------------------------
# Connection and curvature
# ---------------------------------------------------------------------------


def symmetric_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a packed (6, N) stack of symmetric
    matrices, packed: the adjugate over the determinant, one row per entry."""
    g00, g01, g02, g11, g12, g22 = g
    c00 = g11 * g22 - g12 * g12
    c01 = g02 * g12 - g01 * g22
    c02 = g01 * g12 - g02 * g11
    c11 = g00 * g22 - g02 * g02
    c12 = g01 * g02 - g00 * g12
    c22 = g00 * g11 - g01 * g01
    det = g00 * c00 + g01 * c01 + g02 * c02
    return np.stack([c00, c01, c02, c11, c12, c22]) / det


# the rows of dg, read as (18, N), behind the three terms of
# Gamma_l,ij = (d_j g_il + d_i g_jl - d_l g_ij) / 2, each indexed [l, i, j]
_GAMMA_ROWS = np.array([
    [[[6 * j + _PACK[i, l] for j in range(3)] for i in range(3)] for l in range(3)],
    [[[6 * i + _PACK[j, l] for j in range(3)] for i in range(3)] for l in range(3)],
    [[[6 * l + _PACK[i, j] for j in range(3)] for i in range(3)] for l in range(3)],
])


def christoffel_lowered(dg: np.ndarray) -> np.ndarray:
    """Christoffel symbols of the first kind, Gamma[l, i, j, n] = Gamma_l,ij,
    from the packed dg (3, 6, N).  Contracted with a vector pair they are
    the lowered symbols Gamma_l(U, W) = (d_U g_lW + d_W g_lU - d_l g(U, W)) / 2;
    no inverse metric enters."""
    d = dg.reshape(18, -1)
    gam = d[_GAMMA_ROWS[0]]
    gam += d[_GAMMA_ROWS[1]]
    gam -= d[_GAMMA_ROWS[2]]
    gam *= 0.5
    return gam


def sectional_curvature(
    jets: JetBatch, ginv: np.ndarray, lowered: np.ndarray, X: np.ndarray, Y: np.ndarray
) -> np.ndarray:
    """R(X, Y, X, Y) at each point for any pair of (3, N) vector fields: the
    sectional curvature of span(X, Y) times |X ^ Y|^2 = g(X,X) g(Y,Y) -
    g(X,Y)^2.  ginv is the packed inverse metric of the jets and lowered
    their symbols of the first kind (christoffel_lowered).  The sign is
    the one under which the Gauss equation K = (R(T0, T1, T0, T1) + det A)
    / det h gives K = 1/r^2 on the round spheres of the catalog.

    The coordinate formula (Landau & Lifshitz, section 92)
        R_iklm = (d_k d_l g_im + d_i d_m g_kl - d_k d_m g_il - d_i d_l g_km) / 2
                 + g^np (Gam_n,kl Gam_p,im - Gam_n,km Gam_p,il)
    is contracted with X and Y first, so only three second directional
    derivatives of g and three lowered symbols Gam_l(U, W), (U, W) in
    {(X, X), (X, Y), (Y, Y)}, are formed, and g^-1 enters only through
    their products:
        R(X,Y,X,Y) = d_X d_Y g(X, Y) - (d_X d_X g(Y, Y) + d_Y d_Y g(X, X)) / 2
                     + g^-1(Gam(X,Y), Gam(X,Y)) - g^-1(Gam(X,X), Gam(Y,Y)).
    The derivatives of g come from the jets' terms (_gauss_second_derivatives).
    """
    n = X.shape[1]
    xy = np.stack([X, Y])
    # the outer products U (x) W for (U, W) = (X, X), (X, Y), (Y, Y)
    outer = np.empty((3, 3, 3, n))
    for pair, (u, w) in enumerate(((0, 0), (0, 1), (1, 1))):
        np.multiply(xy[u][:, None], xy[w][None, :], out=outer[pair])
    gam = np.einsum("lijn,pijn->pln", lowered, outer)  # [pair, l, n]
    raised = np.einsum("lmn,pmn->pln", unpack(ginv), gam[1:])  # Gam(X,Y), Gam(Y,Y)
    return (
        _gauss_second_derivatives(jets, xy, outer)
        + np.einsum("ln,ln->n", gam[1], raised[0])
        - np.einsum("ln,ln->n", gam[0], raised[1])
    )


def _gauss_second_derivatives(jets: JetBatch, xy: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """d_X d_Y g(X, Y) - (d_X d_X g(Y, Y) + d_Y d_Y g(X, X)) / 2, summed over
    the jets' terms, for the fields X and Y taken as constants.  xy (2, 3, n)
    holds X and Y node-last, outer (3, 3, 3, n) their outer products
    X (x) X, X (x) Y and Y (x) Y.

    With S_U = U . grad S and S_UW = U^T (hess S) W, a term S I gives
        S_XY (X.Y) - (S_XX (Y.Y) + S_YY (X.X)) / 2.
    A term S (V x)(V x)^T, with p = (V x).X, q = (V x).Y and a_UW =
    (V^T U).W, the derivative of (V x).U along W and constant in x, gives
    by the product rule
        d_X d_Y g(X, Y) = S_XY p q + S_X (a_XY q + p a_YY) + S_Y (a_XX q + p a_YX)
                          + S (a_XX a_YY + a_XY a_YX),
        d_X d_X g(Y, Y) = S_XX q^2 + 4 S_X a_YX q + 2 S a_YX^2,
        d_Y d_Y g(X, X) = S_YY p^2 + 4 S_Y a_XY p + 2 S a_XY^2.
    """
    total = np.zeros(xy.shape[2])
    for S, V in jets.terms:
        s_xx, s_xy, s_yy = np.einsum("ijn,pijn->pn", unpack(S.h), outer)
        if V is None:
            (x_x, x_y), (_, y_y) = np.einsum("uin,win->uwn", xy, xy)
            total += s_xy * x_y - 0.5 * (s_xx * y_y + s_yy * x_x)
            continue
        p, q = np.einsum("in,uin->un", V @ jets.points.T, xy)
        (a_xx, a_xy), (a_yx, a_yy) = np.einsum("uin,win->uwn", xy, V @ xy)
        s_x, s_y = np.einsum("in,uin->un", S.d, xy)
        d_xy = (
            s_xy * p * q
            + s_x * (a_xy * q + p * a_yy)
            + s_y * (a_xx * q + p * a_yx)
            + S.v * (a_xx * a_yy + a_xy * a_yx)
        )
        d_xx = s_xx * q * q + 4.0 * s_x * a_yx * q + 2.0 * S.v * a_yx**2
        d_yy = s_yy * p * p + 4.0 * s_y * a_xy * p + 2.0 * S.v * a_xy**2
        total += d_xy - 0.5 * (d_xx + d_yy)
    return total


# ---------------------------------------------------------------------------
# Total-mass extrapolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmEstimate:
    """Extrapolated total mass with the power-law fit that produced it."""

    value: float
    rate: float
    coefficient: float
    residual: float
    radii: tuple
    fluxes: tuple


def adm_mass(radii, fluxes) -> AdmEstimate:
    """Extrapolate mass fluxes against c0 + c1 r^-p with p fitted.

    fluxes[k] is the mass flux through the surface of radius radii[k]
    (surfaces.mass_flux).  The radii are a schedule under check_schedule's
    rule, the one of the studies, with one finite flux per radius; p comes
    from a golden-section search on [0.25, 4] to 1e-13.  A constant flux
    fits every p, so it has no rate: rate is nan and the coefficient 0.
    Warns when the flux tail is not settling monotonically.
    """
    radii = check_schedule(radii)
    fluxes = tuple(float(f) for f in fluxes)
    if len(fluxes) != len(radii):
        raise ConfigError(f"{len(fluxes)} fluxes for {len(radii)} radii")
    if not np.all(np.isfinite(fluxes)):
        raise ConfigError(f"fluxes must be finite: {fluxes}")
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
    if len(set(fluxes)) == 1:
        return AdmEstimate(
            value=float(fluxes[0]), rate=np.nan, coefficient=0.0, residual=0.0,
            radii=radii, fluxes=fluxes,
        )
    # fitted in radii over 2^e, e the binary exponent of the first radius, so
    # in any unit alike; c1 goes back to the caller's unit (inf past the floats)
    e = np.frexp(radii[0])[1]
    r = np.ldexp(radii, -e)
    F = np.asarray(fluxes)

    def solve_for(p):
        X = np.stack([np.ones_like(r), r**-p], axis=1)
        coef, *_ = np.linalg.lstsq(X, F, rcond=None)
        rss = float(np.sum((X @ coef - F) ** 2))
        return coef, rss

    lo, hi, g = 0.25, 4.0, (np.sqrt(5.0) - 1.0) / 2.0  # golden section (Kiefer, 1953)
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = solve_for(a)[1], solve_for(b)[1]
    while hi - lo > 1e-13:
        if fa <= fb:  # the minimum lies in [lo, b]
            hi, b, fb, a = b, a, fa, b - g * (b - lo)
            fa = solve_for(a)[1]
        else:
            lo, a, fa, b = a, b, fb, a + g * (hi - a)
            fb = solve_for(b)[1]
    p = 0.5 * (lo + hi)
    (c0, c1), rss = solve_for(p)
    with np.errstate(over="ignore"):
        c1 *= np.exp2(e * p)
    return AdmEstimate(
        value=float(c0),
        rate=p,
        coefficient=float(c1),
        residual=float(np.sqrt(rss / len(radii))),
        radii=radii,
        fluxes=fluxes,
    )
