"""The grading calculus: characteristic angles, Maslov degrees, windows.

A transverse pair of Lagrangian planes is simultaneously diagonalized by the
eigenvalues e^{2 i phi_k} of W W^T, W = U_A^dagger U_B.  Together with phase
lifts the angles give the integer degree of a graded intersection point; the
degree windows below are what force special Lagrangians and expanders with
matching data to intersect in constrained degrees.
"""

import numpy as np

from slaglab import (
    GradedPointPair,
    LagrangianPlane,
    characteristic_angles,
    degree_window_check,
    maslov_degree,
    strip_area,
)
from slaglab.geometry import random_unitary

np.set_printoptions(precision=8, suppress=True)
rng = np.random.default_rng(7)

print("model pair: real plane vs diag(e^{i phi}) with phi = (pi/4, pi/4, pi/2)")
plane_a = LagrangianPlane.real_plane(3)
plane_b = LagrangianPlane.from_angles([np.pi / 4, np.pi / 4, np.pi / 2])
angles = characteristic_angles(plane_a, plane_b)
print(f"  recovered angles: {angles.phis}  (sum = {angles.total:.6f})")

pair = GradedPointPair(theta_l=0.0, theta_lp=np.pi)
mu = maslov_degree(angles, pair)
print(f"  degree with gradings (0, pi): mu = {mu}")

print("\nrandom transverse pairs: the complement rule mu + mu' = m")
for _ in range(3):
    plane_a = LagrangianPlane(random_unitary(4, rng))
    plane_b = LagrangianPlane(random_unitary(4, rng))
    angles = characteristic_angles(plane_a, plane_b)
    theta_l = float(rng.uniform(-3, 3))
    theta_lp = theta_l + angles.total - 2 * np.pi
    mu = maslov_degree(angles, GradedPointPair(theta_l, theta_lp))
    mu_swap = maslov_degree(
        characteristic_angles(plane_b, plane_a),
        GradedPointPair(theta_lp, theta_l),
    )
    print(f"  mu = {mu}, swapped mu' = {mu_swap}, sum = {mu + mu_swap}")

print("\ndegree windows:")
sl_pair = GradedPointPair(0.0, 0.0)
print(f"  special-Lagrangian pair, mu = 2, m = 3: {degree_window_check(sl_pair, 2, 0.0, 3)}")
print(f"  special-Lagrangian pair, mu = 0, m = 3: {degree_window_check(sl_pair, 0, 0.0, 3)}")
exp_pair = GradedPointPair(0.0, -np.pi / 2, 0.0, np.pi / 4)
print(f"  expander pair (alpha = 1, f' - f = pi/4), mu = 1: "
      f"{degree_window_check(exp_pair, 1, 1.0, 3)}")

print("\nstrip areas from potentials:")
p = GradedPointPair(0.0, 0.0, f_l=0.0, f_lp=0.0)
q = GradedPointPair(0.0, 0.0, f_l=2.5, f_lp=0.0)
print(f"  area(p -> q) = {strip_area(p, q)}   (the invariant-A bookkeeping pattern)")
