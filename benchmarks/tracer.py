"""Outside-in tracer for the layers of nearlyround.

Each probe wraps one or more functions of the program and records calls,
inclusive time and self time (inclusive time minus the time of wrapped
calls made inside it).  A wrapped function is rebound in every
``nearlyround`` module that holds it, because ``from .x import y``
copies the name into the importing module; methods and properties are
replaced on their class.  ``uninstall`` restores every original binding.

Nothing inside the program is changed or instrumented; the probes only
see what crosses the public call boundaries listed in PROBES.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# (probe name, defining module, attribute); "Class.attr" targets a method
# or property.  Several targets may share one probe name.
PROBES = (
    ("harness.study", "nearlyround.harness", "run_masses"),
    ("harness.study", "nearlyround.harness", "run_verify"),
    ("harness.family_surfaces", "nearlyround.harness", "family_surfaces"),
    ("mass.assemble_mass_row", "nearlyround.mass", "assemble_mass_row"),
    ("metrics.jets", "nearlyround.metrics", "AFMetric.jets"),
    ("metrics.adm_mass", "nearlyround.metrics", "adm_mass"),
    ("sphere.analyze", "nearlyround.sphere", "analyze"),
    ("sphere.synthesize", "nearlyround.sphere", "synthesize"),
    ("sphere.synth_gradient", "nearlyround.sphere", "synth_gradient"),
    ("sphere.synth_at", "nearlyround.sphere", "synth_at"),
    ("sphere.basis", "nearlyround.sphere", "SphereGrid.synthesis_matrix"),
    ("sphere.basis", "nearlyround.sphere", "SphereGrid.dtheta_matrix"),
    ("sphere.basis", "nearlyround.sphere", "SphereGrid.dphi_matrix"),
    ("surfaces.fundamental_forms", "nearlyround.surfaces", "fundamental_forms"),
    ("surfaces.best_fit_sphere", "nearlyround.surfaces", "best_fit_sphere"),
    ("surfaces.diameter", "nearlyround.surfaces", "_graph_diameter"),
    ("surfaces.nearly_round_diagnostics", "nearlyround.surfaces", "nearly_round_diagnostics"),
    ("surfaces.distance_hessian", "nearlyround.surfaces", "distance_hessian_residual"),
    ("surfaces.nearest_point", "nearlyround.surfaces", "_signed_distances"),
    ("surfaces.identity_residuals", "nearlyround.surfaces", "divergence_identity_gap"),
    ("surfaces.identity_residuals", "nearlyround.surfaces", "second_form_transform_residual"),
    ("surfaces.identity_residuals", "nearlyround.surfaces", "mean_curvature_expansion_residual"),
    ("surfaces.identity_residuals", "nearlyround.surfaces", "mean_curvature_integral_residual"),
    ("embedding.embed", "nearlyround.embedding", "embed"),
    ("embedding.uniformize", "nearlyround.embedding", "uniformize"),
    ("embedding.center_gauge", "nearlyround.sphere", "center_gauge"),
    ("embedding.solve_embedding", "nearlyround.embedding", "solve_embedding"),
    ("embedding.cho_factor", "nearlyround.embedding", "cho_factor"),
    ("embedding.embed_axisymmetric", "nearlyround.embedding", "embed_axisymmetric"),
    ("embedding.minkowski", "nearlyround.embedding", "minkowski_residuals"),
)

PROBE_NAMES = tuple(dict.fromkeys(name for name, _, _ in PROBES))

# counters kept besides calls/total/self; the *_mb ones are computed from
# array shapes, not measured
COUNTERS = (
    "embedding.gn_steps",
    "embedding.uniformize_iters",
    "embedding.jacobian_mb",
    "sphere.basis_builds",
    "sphere.basis_mb",
    "metrics.jets_nodes",
)

_MB = 1e6
_F8 = 8  # bytes per float64


class Tracer:
    """Call, time and counter accounting for the probes in PROBES."""

    def __init__(self):
        self.calls = dict.fromkeys(PROBE_NAMES, 0)
        self.total = dict.fromkeys(PROBE_NAMES, 0.0)
        self.self_time = dict.fromkeys(PROBE_NAMES, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self._stack: list[float] = []  # child time of each open call
        # grids whose basis was requested, by id; SphereGrid is unhashable
        self._grids: dict[int, weakref.ref] = {}
        self._undo: list = []

    # -- accounting hooks, called with the wrapped call's arguments ----------

    def _after(self, name, args, kwargs, result):
        c = self.counters
        if name == "embedding.cho_factor":
            c["embedding.gn_steps"] += 1
        elif name == "embedding.uniformize":
            c["embedding.uniformize_iters"] += result[1].iterations
        elif name == "embedding.solve_embedding":
            grid = args[0]
            rows, cols = 3 * grid.n_nodes + 6, 3 * grid.n_coeffs
            c["embedding.jacobian_mb"] = max(
                c["embedding.jacobian_mb"], rows * cols * _F8 / _MB
            )
        elif name == "sphere.basis":
            grid = args[0]
            seen = self._grids.get(id(grid))
            if seen is None or seen() is not grid:
                self._grids[id(grid)] = weakref.ref(grid)
                c["sphere.basis_builds"] += 1
                # synthesis, d/dtheta and d/dphi matrices, nodes x coeffs each
                mb = 3 * grid.n_nodes * grid.n_coeffs * _F8 / _MB
                c["sphere.basis_mb"] = max(c["sphere.basis_mb"], mb)
        elif name == "metrics.jets":
            points = args[1] if len(args) > 1 else kwargs["points"]
            c["metrics.jets_nodes"] += len(points)

    def _wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
            self._after(name, args, kwargs, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        """Rebind every probe target; returns self for use with ``with``."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "nearlyround" or n.startswith("nearlyround."))
        ]
        for name, modname, attr in PROBES:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[member]
                if isinstance(orig, property):
                    new = property(self._wrap(name, orig.fget))
                else:
                    new = self._wrap(name, orig)
                self._rebind(cls, member, orig, new)
                continue
            orig = getattr(owner, attr)
            new = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, orig, new)
        return self

    def _rebind(self, owner, key, orig, new):
        setattr(owner, key, new)
        self._undo.append((owner, key, orig))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------------

    def per_study(self, n_studies: int) -> dict:
        """Every probe's calls, total and self time, and every counter,
        divided by the number of studies traced (the *_mb sizes are maxima
        and are not divided)."""
        out = {}
        for name in PROBE_NAMES:
            out[f"{name}_s"] = self.total[name] / n_studies
            out[f"{name}_self_s"] = self.self_time[name] / n_studies
            out[f"{name}_calls"] = self.calls[name] / n_studies
        for key, value in self.counters.items():
            out[key] = value if key.endswith("_mb") else value / n_studies
        return out
