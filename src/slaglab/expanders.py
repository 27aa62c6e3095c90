"""Joyce-Lee-Tsui expanders: explicit Lagrangian MCF solitons H = alpha F_perp.

The construction follows the Lawlor neck recipe with one change: for
alpha > 0 the defining polynomial acquires a Gaussian factor,

    P(x) = (e^{alpha x^2} prod_k (1 + a_k x^2) - 1) / x^2,
    P(0) = alpha + a_1 + ... + a_m,

and the same integrals produce angles phi_k in (0, pi) now summing to a value
strictly below pi (at alpha = 0 the sum is exactly pi and the family reduces
to the Lawlor necks).  An expander is the member alpha > 0 of
`lawlor.NeckFamily`, built only as the class `JLTExpander(alpha, a)`: the
submanifold L built there is a graded Lagrangian expander with angle function

    theta(y) = sum_k psi_k(y) + arg(-y - i P(y)^{-1/2}),

which tends to 0 on the flat end (y -> -inf) and to sum(phi) - pi on the
rotated end (y -> +inf); the arg term stays in (-pi, 0), so its principal
branch already is the continuous lift pinned at the flat end.

Grading and potential are proportional for expanders.  The potential is the
one of every family member, f(y) = Int_{-inf}^y dx / (2 sqrt(P)), the
primitive of lambda|_L vanishing on the flat end, with the ambient Liouville
form lambda = -1/2 Im sum z_j dzbar_j.  The soliton identity reads

    d theta = -2 alpha lambda|_L,   integrated: theta = -2 alpha f.

`expander_identity_residual` checks the first form pointwise, pairing the
closed-form derivative of theta against the Liouville form evaluated on the
numerically assembled tangent vector.  At the ends the second gives the
closed form A = (pi - sum phi)/(2 alpha) > 0 of the invariant, the area
integral; it loses digits as alpha -> 0, where pi - sum phi cancels.

For fixed alpha > 0 the angle map a -> phi is a diffeomorphism onto
{phi in (0,pi)^m : 0 < sum phi < pi}; `jlt_invert` inverts it by damped
Newton on log(a).  Its Jacobian comes from the same build as the angles:
with r_k = a_k/(1 + a_k x^2), I = P^{-1/2} and g = x^2/(-expm1(-s)), s =
alpha x^2 + sum log1p(a_k x^2), the entry dphi_k/dlog a_j integrates

    I (delta_jk r_k/(1 + a_k x^2) - g r_j r_k / 2),

which decays like r_k I, times the same Gaussian, so the expander's cutoff
and panels serve it (see `lawlor`).
"""

from __future__ import annotations

import math
import os

import numpy as np

from ._newton import InversionResult, damped_newton_log
from .errors import GradingError
from .geometry import liouville_form
from .lawlor import NeckFamily, _target_angles

_FAULT_ENV = "SLAG_FAULT_DTHETA"


class JLTExpander(NeckFamily):
    """A single expander: the family member at alpha > 0, whose invariant
    equals the closed form A = (pi - sum phi)/(2 alpha)."""

    def __init__(self, alpha: float, a, *, _jacobian: bool = False):
        if not alpha > 0.0:
            raise ValueError("alpha must be positive; at alpha = 0 use LawlorNeck")
        super().__init__(alpha, a, _jacobian=_jacobian)
        # test hook: a nonzero SLAG_FAULT_DTHETA biases the grading and its
        # derivative, so `slaglab verify --only expander` must fail
        self._fault_bias = float(os.environ.get(_FAULT_ENV) or 0.0)
        if not self.angle_sum < np.pi:
            raise GradingError("angle sum came out >= pi; invalid parameters")

    def expander_identity_residual(self, y: float, x_unit=None) -> float:
        """|d theta/dy + 2 alpha lambda(d/dy)| = |d theta/dy + 2 alpha df/dy|.

        d theta/dy is the closed-form angle derivative; lambda is evaluated
        geometrically on the assembled tangent vector, so the residual
        cross-checks the profile quadrature, the parametrization, and the
        grading against each other.  Near zero exactly when the family
        satisfies H = alpha F_perp.
        """
        if x_unit is None:
            x_unit = np.full(self.m, 1.0 / math.sqrt(self.m))
        point, tangent = self.radial_tangent(y, x_unit)
        lam = liouville_form(point, tangent)
        return abs(self.dtheta_dy(y) + 2.0 * self.alpha * lam)


def jlt_invert(alpha: float, target_phis, tol=1e-9, max_iter=30,
               initial=None) -> InversionResult:
    """Recover a from target angles at fixed alpha by damped Newton on log(a).

    Requires phi_k in (0, pi) and 0 < sum(phi) < pi.  The residual's
    Jacobian is the angle rows of the member's exact one, from the same build.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    phis = _target_angles(target_phis)
    total = float(np.sum(phis))
    if not total < np.pi:
        raise GradingError("target angle sum must lie strictly in (0, pi)")

    def residual(a):
        expander = JLTExpander(alpha, a, _jacobian=True)
        return expander.phis - phis, expander._jacobian[:-1]

    if initial is None:
        # Lawlor-shape guess rescaled so the Gaussian factor's share of the
        # angle deficit is plausible
        a0 = np.tan(0.5 * phis * (np.pi / max(total, 1e-9))) ** 2
        a0 = np.clip(a0 * (total / np.pi) ** 2, 1e-8, 1e8)
    else:
        a0 = np.asarray(initial, dtype=float)
    return damped_newton_log(residual, a0, tol=tol, max_iter=max_iter)
