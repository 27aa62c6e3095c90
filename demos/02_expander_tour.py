"""Tour of a Joyce-Lee-Tsui expander: the soliton identity and its invariant.

Adding a Gaussian factor e^{alpha x^2} to the Lawlor polynomial turns the
special-Lagrangian neck into a mean-curvature-flow expander H = alpha F_perp.
The angles now sum below pi and the angle function theta runs from 0 to
sum(phi) - pi.  The potential is the Lawlor one, f = Int dx / (2 sqrt(P)) with
df = lambda|_L, and the soliton identity integrates to theta = -2 alpha f.  So
the invariant A, the area integral, equals the closed form
(pi - sum phi)/(2 alpha), and is recovered here from the potential limits.
"""

import numpy as np

from slaglab import JLTExpander, LawlorNeck, jlt_invert

np.set_printoptions(precision=10, suppress=True)

alpha = 1.0
a = [1.0, 2.0, 3.0]
expander = JLTExpander(alpha, a)

print(f"alpha                  : {expander.alpha}")
print(f"angles                 : {expander.phis}")
print(f"angle sum (< pi)       : {expander.angle_sum:.10f}")
print(f"A (area integral)      : {expander.A:.10f}")
print(f"A (closed form)        : {(np.pi - expander.angle_sum) / (2 * alpha):.10f}")
print(f"A (potential limits)   : {expander.invariant_from_potential_limits():.10f}")

y_far = 0.9 * expander.cutoff
print(f"theta limits           : {expander.theta(-y_far):+.3e} -> "
      f"{expander.theta(y_far):+.10f}   (0 and sum phi - pi)")

print("\nsoliton identity |dtheta/dy + 2 alpha lambda(d/dy)| along the profile:")
rng = np.random.default_rng(0)
for y in (-2.0, -0.5, 0.0, 0.7, 3.0):
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    print(f"  y = {y:+.1f}: residual = {expander.expander_identity_residual(y, x):.2e}")

tilde = expander.tilde()
print(f"\nrotated variant: angle sum = {tilde.angle_sum:.6f} "
      f"in ((m-1) pi, m pi), invariant = {tilde.invariant:+.6f} (< 0)")

print("\nthe Lawlor family is the alpha -> 0 limit:")
small = JLTExpander(1e-3, a)
neck = LawlorNeck(a)
print(f"  angles at alpha = 1e-3 : {small.phis}")
print(f"  Lawlor angles          : {neck.phis}")
print(f"  max gap                : {np.max(np.abs(small.phis - neck.phis)):.2e}")

print("\ninverting the angle map at fixed alpha:")
result = jlt_invert(alpha, expander.phis)
print(f"  recovered a = {result.a}")
print(f"  residual {result.residual_norm:.2e} after {result.iterations} iterations")
