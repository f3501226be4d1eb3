"""Tour of the isometric-embedding pipeline on a bumpy surface.

Starts from a radially perturbed sphere in the isotropic Schwarzschild
slice, pulls its induced metric into one FundamentalData record, and
realizes that metric as a convex surface in Euclidean space: normalize by
the metric's areal radius, check that the curvature is nearly round, then
correct the unit sphere by Gauss-Newton steps until the induced metrics
agree.  The embedding reads the record alone and computes
no conformal factor; the metric fixes the image up to a rigid motion.  Prints the
diagnostics a user would look at before trusting a Brown-York number, and
leaves an OBJ mesh of the image surface for inspection.
"""

import numpy as np

import nearlyround as nr

grid = nr.build_grid(16)
metric = nr.schwarzschild_isotropic(1.0)

# bump the radius with a degree-2 harmonic, decaying with the sphere size
r = 20.0
c = np.zeros(grid.n_coeffs)
c[nr.coeff_index(2, 0)] = 1.0
profile = r * (1.0 + 0.1 * (1.0 / r) * nr.synthesize(grid, c))
s = nr.immerse_radial(profile, grid)
fd = nr.fundamental_forms(s, metric)

print(f"surface: perturbed sphere, r = {r:g}, area = {fd.area:.4f}")
# the best-fit sphere describes the coordinate shape, so it reads the
# flat-ambient record rather than the curved one
best = nr.best_fit_sphere(nr.fundamental_forms(s))
print(f"best-fit sphere: radius {best.radius:.6f}, center offset {np.linalg.norm(best.center):.2e}")

e = nr.embed(fd)
print(f"Gauss-Newton steps: {e.steps}, metric residual {e.metric_residual:.2e}")
print(f"areal radius sqrt(Area / 4 pi) of the metric: {e.radius:.6f}")

mk = nr.minkowski_residuals(e)
gap = nr.volume_cross_check(e)
print(f"Minkowski identity residuals: {mk.first_identity:.2e}, {mk.second_identity:.2e}")
print(f"enclosed volume {e.volume:.4f} (divergence-theorem gap {gap:.2e})")

print(f"Hawking mass:     {nr.hawking_mass(fd):.10f}")
print(f"Brown-York mass:  {nr.brown_york_mass(fd, e):.10f}")

out = "embedded_surface.obj"
nr.write_embedding_obj(e, out)
print(f"wrote image surface mesh to {out}")
