"""Singularity degrees through normalized blow-ups.

The estimator subtracts the sheet average, reads the degree as half the
leading exponent of the part's ring profile, checked against its frequency
limit, and reports the frequency limit of every step of the blow-up along
a geometric sequence of radii with a unit-norm normalization.  On
w^Q = z^p it recovers p/Q to rounding; on a perturbed curve
(w - z^2)^2 = z^5 the average-free part still carries 5/2 while the full
graph only touches its tangent plane to order 2, and the estimate comes
back flagged."""

import qbranch as qb

grid = qb.default_grid()

print("exact branched curves:")
for (q, p) in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]:
    f = qb.make_multigraph(qb.CurveSpec(q, p), grid)
    est = qb.singularity_degree(f)
    print(f"  (Q, p) = ({q}, {p}):  degree = {est.value:.5f}  "
          f"(p/Q = {p / q:.5f}), spread = {est.spread:.1e}, "
          f"converged = {est.converged}")

print("\nperturbed curve (w - z^2)^2 = z^5:")
pert = qb.make_multigraph(qb.CurveSpec(2, 5, (0, 0, 1)), grid)
est = qb.singularity_degree(pert)
print(f"  average-free degree = {est.value:.5f}")
print(f"  full-graph contact order = {est.notes['reference_degree']}")
print(f"  discrepancy flagged = {est.notes.get('discrepancy', False)}")
print("  per-step values:")
for (k, r, I) in est.per_step_I[:6]:
    print(f"    k = {k:<3} r = {r:<12.6g} I = {I:.6f}")

print("\nhomogeneity checks:")
f23 = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
print(f"  (2,3) against alpha = 1.5 : {qb.homogeneity_check(f23, 1.5):.2e}")
print(f"  (2,3) against alpha = 1.4 : {qb.homogeneity_check(f23, 1.4):.2e}")

print("\nthe radial functional that forces degree >= 1:")
for alpha in (1.0, 1.5, 0.8):
    h = qb.homogeneous_map(alpha, grid=grid) if alpha != 1.0 else \
        qb.homogeneous_map(1.0, boundary=qb.constant_profile(
            [[1, 0], [-1, 0]]), grid=grid)
    out = qb.hardt_simon_check(h, rho_inner=2.0 ** -8)
    print(f"  alpha = {alpha}: integral = {out.integral:.6g}, "
          f"divergent = {out.divergent}")
