"""Joyce-Lee-Tsui expanders: explicit Lagrangian MCF solitons H = alpha F_perp.

The construction follows the Lawlor neck recipe with one change: for
alpha > 0 the defining polynomial acquires a Gaussian factor,

    P(x) = (e^{alpha x^2} prod_k (1 + a_k x^2) - 1) / x^2,
    P(0) = alpha + a_1 + ... + a_m,

and the same integrals produce angles phi_k in (0, pi) now summing to a value
strictly below pi (at alpha = 0 the sum is exactly pi and the family reduces
to the Lawlor necks).  The submanifold

    L = { (z_1(y) x_1, ..., z_m(y) x_m) : y real, |x| = 1 },
    z_k(y) = e^{i psi_k(y)} sqrt(1/a_k + y^2),

is a graded Lagrangian expander with angle function

    theta(y) = sum_k psi_k(y) + arg(-y - i P(y)^{-1/2}),

which tends to 0 on the flat end (y -> -inf) and to sum(phi) - pi on the
rotated end (y -> +inf); the arg term stays in (-pi, 0), so its principal
branch already is the continuous lift pinned at the flat end.

Grading and potential are proportional for expanders.  We normalize the
potential as f = -2 theta / alpha, the unique primitive vanishing on the flat
end; with the ambient Liouville form lambda = -1/2 Im sum z_j dzbar_j this
normalization satisfies df = 4 lambda|_L, and the soliton identity reads

    d theta = -2 alpha lambda|_L        (equivalently d theta = -(alpha/2) df).

`expander_identity_residual` checks it pointwise, pairing the closed-form
derivative of theta against the Liouville form evaluated on the numerically
assembled tangent vector.  The invariant is A = 2 (pi - sum phi)/alpha > 0,
which `invariant_from_potential_limits` recovers from the phase limits.

For fixed alpha > 0 the angle map a -> phi is a diffeomorphism onto
{phi in (0,pi)^m : 0 < sum phi < pi}; `jlt_invert` inverts it by damped
Newton on log(a).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from . import quadrature
from ._newton import InversionResult, damped_newton_log
from .errors import DimensionMismatchError, GradingError
from .geometry import LagrangianSample, TangentFrame, liouville_form
from .lawlor import (
    RotatedNeck,
    _log_P,
    _profile_rows,
    _tangent_columns,
    _unit_direction,
    _validate_a,
)

_TAIL_MASS = 1e-15
_FAULT_ENV = "SLAG_FAULT_DTHETA"


def jlt_P(alpha: float, a, x: float) -> float:
    """P(x) = (e^{alpha x^2} prod(1 + a_k x^2) - 1)/x^2, P(0) = alpha + sum a."""
    a = np.asarray(a, dtype=float)
    if x == 0.0:
        return float(alpha + np.sum(a))
    s = alpha * x * x + float(np.sum(np.log1p(a * x * x)))
    if s > 700.0:
        # work with logs; the -1 is far below the floating point resolution
        log_p = s - 2.0 * math.log(abs(x))
        return math.exp(log_p) if log_p < 709.0 else math.inf
    return math.expm1(s) / (x * x)


@dataclass(frozen=True)
class JltAngles:
    """Angles with 0 < sum < pi and the invariant A = 2 (pi - sum)/alpha."""

    phis: np.ndarray
    alpha: float
    A: float

    @property
    def total(self) -> float:
        return float(np.sum(self.phis))


class JLTExpander:
    """A single expander, caching angles, invariant, and profile integrals."""

    def __init__(self, alpha: float, a):
        if not alpha > 0.0:
            raise ValueError("alpha must be positive; at alpha = 0 use LawlorNeck")
        self.alpha = float(alpha)
        self.a = _validate_a(a)
        self.m = self.a.shape[0]
        self._cutoff = self._tail_cutoff()
        self._scales = np.append(1.0 / np.sqrt(self.a), 1.0 / math.sqrt(self.alpha))
        self._fault_bias = _fault_bias()
        # the integrands are even: twice the half-line integrals
        self.phis = 2.0 * self._integrate(0.0, math.inf)
        self.angle_sum = float(np.sum(self.phis))
        if not self.angle_sum < np.pi:
            raise GradingError("angle sum came out >= pi; invalid parameters")
        self.A = 2.0 * (np.pi - self.angle_sum) / self.alpha

    # -- scalar profile data --------------------------------------------------

    def log_P(self, x: float) -> float:
        return float(_log_P(self.alpha, self.a, x))

    def inv_sqrt_P(self, x: float) -> float:
        return math.exp(-0.5 * self.log_P(x))

    def _tail_cutoff(self) -> float:
        prod_a = float(np.prod(self.a))
        m = self.m
        x_poly = (math.sqrt(2.0 / prod_a) / (2.0 * (m - 2) * _TAIL_MASS)) ** (
            1.0 / (m - 2)
        )
        x_gauss = math.sqrt(100.0 / self.alpha)
        x_scale = 10.0 / math.sqrt(float(np.min(self.a)))
        return max(min(x_poly, x_gauss), x_scale, 50.0)

    def _rows(self, x: np.ndarray) -> np.ndarray:
        """The m angle integrands at abscissae x."""
        return _profile_rows(self.alpha, self.a, x, area=False)

    def _integrate(self, lower: float, upper: float) -> np.ndarray:
        return quadrature.integrate_rows(
            self._rows, lower, upper, self._cutoff, self._scales
        )

    def _angle_integrand(self, k):
        """Scalar angle integrand, the input of the independent oracle rules."""
        ak = float(self.a[k])

        def g(x):
            return ak / (1.0 + ak * x * x) * self.inv_sqrt_P(x)

        return g

    def psi(self, y: float) -> np.ndarray:
        return self._integrate(-math.inf, y)

    # -- grading and potential --------------------------------------------------

    def theta(self, y: float) -> float:
        """Angle function at profile parameter y (continuous lift, -> 0 as
        y -> -inf).  The arg term has strictly negative imaginary part, so the
        principal branch is already the continuous lift."""
        return self._theta(y, self.psi(y))

    def _theta(self, y: float, psis: np.ndarray) -> float:
        value = float(np.sum(psis)) + math.atan2(-self.inv_sqrt_P(y), -y)
        if self._fault_bias:
            value += self._fault_bias * math.tanh(y)
        return value

    def dtheta_dy(self, y: float) -> float:
        """Closed-form derivative of the angle function.

        Termwise: sum_k psi_k'(y) plus the derivative of
        arg(-y - i P^{-1/2}), which simplifies against P' to
        -(alpha + sum_k a_k/(1 + a_k y^2)) / sqrt(P).
        """
        inv_sqrt_p = self.inv_sqrt_P(y)
        rational = float(np.sum(self.a / (1.0 + self.a * y * y)))
        psi_term = rational * inv_sqrt_p
        arg_term = -(self.alpha + rational) * inv_sqrt_p
        value = psi_term + arg_term
        if self._fault_bias:
            value += self._fault_bias / math.cosh(y) ** 2
        return value

    def theta_minus_limit(self) -> float:
        return 0.0

    def theta_plus_limit(self) -> float:
        return self.angle_sum - np.pi

    def potential(self, y: float) -> float:
        """f(y) = -2 theta(y)/alpha, the primitive of 4 lambda|_L vanishing on
        the flat end."""
        return -2.0 * self.theta(y) / self.alpha

    # -- pointwise geometry ------------------------------------------------------

    def point(self, y: float, x_unit) -> LagrangianSample:
        x_unit = _unit_direction(x_unit, self.m)
        psis = self.psi(y)
        cols, z, _ = _tangent_columns(self.a, y, x_unit, psis, self.inv_sqrt_P(y))
        frame = TangentFrame(z * x_unit, cols).orthonormalized()
        theta = self._theta(y, psis)
        return LagrangianSample(z * x_unit, frame, theta, -2.0 * theta / self.alpha)

    def radial_tangent(self, y: float, x_unit):
        """Ambient point and (unnormalized) tangent vector along d/dy."""
        x_unit = np.asarray(x_unit, dtype=float).reshape(-1)
        _, z, dz = _tangent_columns(self.a, y, x_unit, self.psi(y),
                                    self.inv_sqrt_P(y))
        return z * x_unit, dz * x_unit

    def expander_identity_residual(self, y: float, x_unit=None) -> float:
        """|d theta/dy + 2 alpha lambda(d/dy)| = |d theta/dy + (alpha/2) df/dy|.

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

    def invariant_from_potential_limits(self, y_limit: float | None = None) -> float:
        """A(L) = f(+inf) - f(-inf) from the phase limits of the lift."""
        y_big = y_limit if y_limit is not None else 0.9 * self._cutoff
        return self.potential(y_big) - self.potential(-y_big)

    def angles(self) -> JltAngles:
        return JltAngles(self.phis.copy(), self.alpha, self.A)

    def tilde(self) -> RotatedNeck:
        """diag(e^{i phi_k}) . L with angle sum in ((m-1) pi, m pi) and
        invariant 2 ((m-1) pi - sum phi)/alpha < 0."""
        tilde_phis = np.pi - self.phis
        tilde_sum = float(np.sum(tilde_phis))
        invariant = 2.0 * ((self.m - 1) * np.pi - tilde_sum) / self.alpha
        return RotatedNeck(self, tilde_phis, invariant)


def _fault_bias() -> float:
    """Test hook: a nonzero SLAG_FAULT_DTHETA biases the angle derivative so
    the expander-identity check must fail (used by `slaglab verify`).  Read
    once per expander, at construction."""
    raw = os.environ.get(_FAULT_ENV)
    return float(raw) if raw else 0.0


def jlt_angles(alpha: float, a) -> JltAngles:
    """Angles and closed-form invariant of the expander (alpha, a)."""
    return JLTExpander(alpha, a).angles()


def jlt_point(alpha: float, a, y: float, x_unit) -> LagrangianSample:
    """Pointwise sample of the expander (see JLTExpander.point)."""
    return JLTExpander(alpha, a).point(y, x_unit)


def jlt_expander_residual(alpha: float, a, y: float, x_unit=None) -> float:
    """Soliton identity residual at one profile parameter."""
    return JLTExpander(alpha, a).expander_identity_residual(y, x_unit)


def jlt_invariant_A(alpha: float, a):
    """Closed form and potential-limit evaluation of A; they must agree."""
    expander = JLTExpander(alpha, a)
    return expander.A, expander.invariant_from_potential_limits()


def jlt_tilde(alpha: float, a) -> RotatedNeck:
    """Rotated variant with negative invariant."""
    return JLTExpander(alpha, a).tilde()


def jlt_invert(alpha: float, target_phis, tol=1e-9, max_iter=30,
               initial=None) -> InversionResult:
    """Recover a from target angles at fixed alpha by damped Newton on log(a).

    Requires phi_k in (0, pi) and 0 < sum(phi) < pi.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    phis = np.asarray(target_phis, dtype=float).reshape(-1)
    if phis.shape[0] < 3:
        raise DimensionMismatchError("need m >= 3 target angles")
    if np.any(phis <= 0.0) or np.any(phis >= np.pi):
        raise GradingError("target angles must lie in (0, pi)")
    total = float(np.sum(phis))
    if not 0.0 < total < np.pi:
        raise GradingError("target angle sum must lie strictly in (0, pi)")

    def residual(a):
        return JLTExpander(alpha, a).phis - phis

    if initial is None:
        # Lawlor-shape guess rescaled so the Gaussian factor's share of the
        # angle deficit is plausible
        a0 = np.tan(0.5 * phis * (np.pi / max(total, 1e-9))) ** 2
        a0 = np.clip(a0 * (total / np.pi) ** 2, 1e-8, 1e8)
    else:
        a0 = np.asarray(initial, dtype=float)
    return damped_newton_log(residual, a0, tol=tol, max_iter=max_iter)
