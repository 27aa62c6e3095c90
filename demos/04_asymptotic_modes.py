"""Asymptotic modes of the linearized expander equation.

Decaying solutions separate into spherical harmonics times radial factors
A_k(t), t = r^{-2}, solving a singular ODE.  The solution is Tricomi's
confluent hypergeometric function, A(t) = z^a U(a, b, z) at z = alpha/(2t),
evaluated from its integral form by the library's quadrature.  The Taylor
series at t = 0 is asymptotic (factorially divergent); summed to its
smallest term, it checks the closed form to ~1e-15 on a window near 0.
"""

import numpy as np

from slaglab import (
    ExpansionMode,
    expansion_field,
    harmonic_basis,
    solve_radial_mode,
    solve_separation_radial,
    taylor_c1,
)
from slaglab.graphs import linearized_expander_residual

np.set_printoptions(precision=8, suppress=True)

m, k, alpha = 3, 5, 1.0
solution = solve_radial_mode(m, k, alpha, t_max=2.0)
print(f"radial hierarchy (m={m}, k={k}, alpha={alpha}):")
print(f"  eigenvalue K = k(m+k-2)    : {solution.eigenvalue}")
print(f"  c1 = A'(0)                 : {taylor_c1(m, k, alpha)}")
print(f"  series-check window        : t in [{solution.t_switch / 10}, {solution.t_switch}]")
print(f"  overlap disagreement       : {solution.overlap_disagreement():.2e}")
print(f"  log-derivative bound       : {solution.log_derivative_bound()}")
print("  t, A(t), A'(t)/A(t):")
for t in (0.0, 0.25, 0.5, 1.0, 2.0):
    a_val = solution.value(t)
    ratio = solution.derivative(t) / a_val
    print(f"    {t:4.2f}  {a_val:14.6e}  {ratio:10.6f}")

print("\nharmonic bases (dimension of degree-k harmonics on R^3):")
for kk in range(5):
    print(f"  k = {kk}: dim = {len(harmonic_basis(3, kk))}")

print("\nassembled single modes solve the linearized soliton equation:")
rng = np.random.default_rng(1)
for kk in (0, 2, 4):
    radial = solve_separation_radial(m, kk, alpha, t_max=1.0)
    poly = harmonic_basis(m, kk)[0]
    field = expansion_field([ExpansionMode(poly, radial)])
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(m)
        x *= rng.uniform(2.0, 6.0) / np.linalg.norm(x)
        worst = max(worst, abs(linearized_expander_residual(field, alpha, x)))
    print(f"  k = {kk}: max residual over 20 points = {worst:.2e}")
