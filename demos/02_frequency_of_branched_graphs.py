"""Smoothed frequency of exactly-known branched graphs.

The graph of w^Q = z^p carries the frequency p/Q at every scale.  This
script measures it at unit scale against the closed forms, sweeps a profile
over two octaves, compares the ramp cutoff with the sharp one, and shows
the first-variation residuals separating minimizers from impostors.
"""

import numpy as np

import qbranch as qb

grid = qb.default_grid()
f = qb.make_multigraph(qb.CurveSpec(2, 3), grid)

# the quantities at one scale are the fields of its record
unit = qb.frequency_profile(f, [1.0]).records[0]
print("closed forms at unit scale for (Q, p) = (2, 3):")
print(f"  D(0,1) = {unit.D:.10f}   (45 pi/16 = {45 * np.pi / 16:.10f})")
print(f"  H(0,1) = {unit.H:.10f}   (15 pi/8  = {15 * np.pi / 8:.10f})")
print(f"  I(0,1) = {unit.I:.10f}   (p/Q      = 1.5)")

radii = qb.default_profile_radii(grid, octaves=2.0)
prof = qb.frequency_profile(f, radii=radii)
I = [rec.I for rec in prof.valid_records()]
print(f"\nprofile over two octaves: I in [{min(I):.6f}, {max(I):.6f}]")

sharp = qb.frequency_profile(f, radii=radii, cutoff=qb.SHARP)
lim_ramp = qb.frequency_limit(prof)
lim_sharp = qb.frequency_limit(sharp)
print(f"extrapolated limit, ramp cutoff : {lim_ramp['estimate']:.6f}")
print(f"extrapolated limit, sharp cutoff: {lim_sharp['estimate']:.6f}")

print("\nhomogeneous maps read their degree off the frequency:")
for alpha in (0.5, 1.0, 5 / 3, 2.0):
    h = qb.homogeneous_map(alpha, grid=grid)
    I_half = qb.frequency_profile(h, [0.5]).records[0].I
    print(f"  alpha = {alpha:<18} I(0, 1/2) = {I_half:.8f}")

print("\nfirst-variation residuals (relative):")
rec = qb.frequency_profile(f, [0.5]).records[0]
print(f"  branched minimizer : outer {rec.res_outer:.2e}, "
      f"inner {rec.res_inner:.2e}")
bad = qb.homogeneous_map(1.0, boundary=qb.constant_profile(
    [[1, 0], [-1, 0]]), grid=grid)
rec = qb.frequency_profile(bad, [0.5]).records[0]
print(f"  pair {{|x| e, -|x| e}}: outer {rec.res_outer:.2e}, "
      f"inner {rec.res_inner:.2e}  <- not a minimizer, I = {rec.I:.4f}")

print("\nprofile CSV (first three rows):")
print("\n".join(prof.to_csv().splitlines()[:4]))
