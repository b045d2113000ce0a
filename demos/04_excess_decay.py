"""Mass, excess over optimal planes, and the decay law.

For w^Q = z^p the cylindrical excess over the horizontal plane is exactly
p r^(2(p/Q - 1)), so the fitted log-log slope should land on 2(p/Q - 1).
"""

import numpy as np

import qbranch as qb

grid = qb.default_grid()
f = qb.make_multigraph(qb.CurveSpec(2, 3), grid)

print("mass of the (2,3) graph over B_1:", qb.graph_mass(f, 1.0),
      " (5 pi =", 5 * np.pi, ")")

print("\nexcess against the closed form 3 r:")
for r in (0.5, 0.25, 0.125, 0.0625):
    rec = qb.spherical_excess(f, r)
    print(f"  E({r:<7}) = {rec.excess:.8f}   (3r = {3 * r})")

print("\noptimal planes:")
res = qb.optimal_plane(f, 0.25)
print(f"  (2,3) at r = 1/4: tilt norm {res['plane'].tilt_norm:.2e} "
      f"(horizontal by symmetry), excess {res['excess']:.8f}")

pert = qb.make_multigraph(qb.CurveSpec(2, 5, (0, 0, 0.5)), grid)
for r in (0.5, 0.125):
    res = qb.optimal_plane(pert, r)
    print(f"  perturbed (2,5) at r = {r}: tilt norm "
          f"{res['plane'].tilt_norm:.2e}")

print("\ndecay fits over optimal planes:")
radii = [2.0 ** -k for k in range(9, 2, -1)]
for (q, p) in [(2, 3), (3, 4)]:
    g = qb.make_multigraph(qb.CurveSpec(q, p), grid)
    fit = qb.excess_decay_fit(g, radii)
    print(f"  ({q},{p}): exponent = {fit['exponent']:.5f} "
          f"(2(p/Q - 1) = {2 * (p / q - 1):.5f}), r^2 = {fit['r2']:.6f}")

print("\nexcess table CSV for (2,3):")
recs = [qb.spherical_excess(f, r) for r in radii]
print("\n".join(qb.excess_table_csv(recs).splitlines()[:5]))

print("\narea-formula Taylor control at r = 1:")
out = qb.mass_expansion_residual(f, 1.0)
print(f"  |mass - Q pi - Dir/2| = {out['lhs']:.3e}, "
      f"quartic gradient integral = {out['quartic']:.3e}, "
      f"measured constant = {out['ratio']:.3e}")
