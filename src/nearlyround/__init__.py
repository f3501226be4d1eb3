"""Quasi-local masses of nearly round surfaces in asymptotically flat 3-manifolds.

A numerical laboratory: analytic metric catalog with exact derivative jets,
a spectral sphere substrate, surface geometry in flat and curved ambients,
a Weyl isometric-embedding pipeline, Brown-York and Hawking masses, and a
study harness that measures their convergence to the ADM mass.
"""

import types

from .embedding import (
    EmbeddabilityError,
    EmbeddingError,
    IsometricEmbedding,
    MinkowskiResiduals,
    RegimeViolation,
    SelfIntersectionError,
    UniformizationDiagnostics,
    UniformizationError,
    embed,
    embed_axisymmetric,
    minkowski_residuals,
    solve_embedding,
    uniformize,
    volume_cross_check,
    write_embedding_obj,
)
from .errors import ConfigError, NearlyRoundError, SolverError
from .harness import (
    MassReport,
    RateFit,
    RowFailure,
    StudyConfig,
    VerifyCheck,
    VerifyReport,
    fit_rate,
    load_config,
    run_masses,
    run_verify,
)
from .mass import (
    MassValues,
    assemble_mass_row,
    brown_york_mass,
    hawking_mass,
)
from .metrics import (
    AFMetric,
    AdmEstimate,
    adm_mass,
    conformal_perturbed,
    euclidean,
    kerr_slice,
    parse_metric,
    schwarzschild_isotropic,
    schwarzschild_standard,
)
from .sphere import (
    SphereGrid,
    analyze,
    build_grid,
    center_gauge,
    coeff_index,
    mobius_map,
    synth_at,
    synth_gradient,
    synthesize,
)
from .surfaces import (
    FundamentalData,
    Immersion,
    best_fit_sphere,
    coordinate_sphere,
    fundamental_forms,
    immerse_radial,
    mass_flux,
    nearly_round_diagnostics,
)

__version__ = "0.1.0"

# every public name imported above; the submodules are not exported
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
