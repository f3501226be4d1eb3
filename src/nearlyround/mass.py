"""Quasi-local mass functionals evaluated on nearly round surfaces.

Two functionals are provided.  The Hawking mass needs only the mean
curvature of the surface in its ambient.  The Brown-York mass compares
that mean curvature against the mean curvature of an isometric embedding
of the same induced metric into Euclidean space, so it requires a
converged embedding and positive Gauss curvature.

Both integrals use the quadrature rule of the source surface; the
embedded reference curvature is read off at the shared parameter nodes,
never reinterpolated.  The embedding realizes its metric only to the
solver's residual, so the Brown-York value carries the first-order
correction in that metric gap (see brown_york_mass) and is exact to second
order in it.

assemble_mass_row degrades a row instead of raising when the embedding
leg ends in a SolverError (see nearlyround.errors): the Hawking value
stays, Brown-York is absent and the row is flagged with the error class.
Bad input (ConfigError) and defects of the program propagate.  A row
holds the masses of its surface alone; the ADM reference they approach
is the study's, kept once on its report (harness.MassReport).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .metrics import euclidean
from .surfaces import (
    FundamentalData,
    Immersion,
    best_fit_sphere,
    fundamental_forms,
    trace_pairing,
)
from .embedding import IsometricEmbedding, RegimeViolation, embed

__all__ = [
    "MassValues",
    "assemble_mass_row",
    "brown_york_mass",
    "hawking_mass",
]

_SIXTEEN_PI = 16.0 * math.pi


def hawking_mass(fd: FundamentalData) -> float:
    """Hawking mass of a closed surface from its area and mean curvature.

    Computed as sqrt(Area / 16 pi) * (16 pi - integral of H^2) / (16 pi).
    Zero on Euclidean round spheres; equal to the central mass on any
    centered sphere of a spherically symmetric slice.
    """
    flux = fd.integrate(fd.mean_curvature**2)
    return float(math.sqrt(fd.area / _SIXTEEN_PI) * (_SIXTEEN_PI - flux) / _SIXTEEN_PI)


def brown_york_mass(fd: FundamentalData, e: IsometricEmbedding) -> float:
    """Brown-York mass: reference minus physical mean curvature, integrated.

    `e` must be a converged isometric embedding of the induced metric of
    the same surface on the same grid; its mean curvature plays the role
    of the Euclidean reference H0.  The functional is (1/8 pi) times the
    integral of (H0 - H) against the physical area measure, plus the
    first-order term (1/16 pi) times the integral of A0^{ab} rho_ab, where
    A0 is the image's second fundamental form with indices raised by the
    surface's h^-1 and rho = e.metric_gap is the realized minus the
    requested metric.  The first variation of the total mean curvature of
    a convex surface is half the integral of <H0 h - A0, delta h> (Reilly),
    and the image's H0 is integrated against the requested measure, so the
    term removes the part of H0 that is linear in rho: the value is
    exact to second order in the embedding's metric residual.

    Raises RegimeViolation when the Gauss curvature of the surface is not
    strictly positive (the functional is defined for convex data only)
    and ValueError when the embedding is missing or on a different grid.
    """
    if e is None:
        raise ValueError(
            "an isometric embedding of the surface is required; "
            "run embed() on the same fundamental data first"
        )
    k_min = float(fd.gauss_curvature.min())
    if k_min <= 0.0:
        raise RegimeViolation(
            f"Gauss curvature must be strictly positive for the Brown-York "
            f"functional; minimum over nodes is {k_min:.3e}"
        )
    reference = e.image_data.mean_curvature
    if reference.shape != fd.mean_curvature.shape:
        raise ValueError(
            f"embedding grid {reference.shape} does not match the surface "
            f"grid {fd.mean_curvature.shape}; both integrands must share "
            f"one parametrization"
        )
    # A0^{ab} rho_ab = tr(h^-1 A0 h^-1 rho)
    gap_term = trace_pairing(fd.induced_metric_inv, e.image_data.second_form, e.metric_gap)
    return float(fd.integrate(reference - fd.mean_curvature + 0.5 * gap_term) / (8.0 * math.pi))


@dataclass(frozen=True)
class MassValues:
    """One row of a mass study: a surface and its masses.

    brown_york and embed_residual are None when the embedding step failed;
    the failure kind is then recorded in flags.  area must be positive and
    every present value finite.
    """

    r_label: float
    area: float
    hawking: float
    brown_york: float | None
    embed_residual: float | None = None
    flags: tuple = ()

    def __post_init__(self):
        if not (self.area > 0.0):
            raise ValueError(f"area must be positive, got {self.area}")
        present = [self.r_label, self.area, self.hawking]
        if self.brown_york is not None:
            present.append(self.brown_york)
        if self.embed_residual is not None:
            present.append(self.embed_residual)
        if not all(np.isfinite(v) for v in present):
            raise ValueError(f"mass row contains non-finite entries: {self}")


def assemble_mass_row(
    s: Immersion,
    ambient,
    *,
    r_label: float | None = None,
    tol: float = 1e-8,
) -> MassValues:
    """Evaluate both masses of one surface and package them as a row.

    Computes the fundamental forms in the ambient, the Hawking mass, and
    the isometric embedding of that one record with its Brown-York mass.
    A SolverError of the embedding leaves brown_york/embed_residual as None
    and adds the marker embedding-failed:<class> to flags rather than
    raising, so sweeps can continue past bad radii.  embed refuses any
    record with |K r0^2 - 1| > 1/2, so brown_york_mass finds K > 0.

    ambient None means the flat background, as for fundamental_forms.
    r_label defaults to the best-fit sphere radius of the Euclidean shape.
    """
    ambient = euclidean() if ambient is None else ambient
    fd = fundamental_forms(s, ambient)
    if r_label is None:
        flat = fd if fd.ambient == "euclidean" else fundamental_forms(s)
        r_label = best_fit_sphere(flat).radius

    hawking = hawking_mass(fd)

    brown_york = None
    residual = None
    flags = ()
    try:
        e = embed(fd, tol=tol)
    except SolverError as exc:
        flags = (f"embedding-failed:{type(exc).__name__}",)
    else:
        residual = e.metric_residual
        brown_york = brown_york_mass(fd, e)

    return MassValues(
        r_label=float(r_label),
        area=fd.area,
        hawking=hawking,
        brown_york=brown_york,
        embed_residual=residual,
        flags=flags,
    )
