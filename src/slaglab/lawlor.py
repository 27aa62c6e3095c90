"""Lawlor necks: explicit special-Lagrangian necks asymptotic to a plane pair.

Given m >= 3 and positive a_1..a_m, set

    p(x) = (1 + a_1 x^2) ... (1 + a_m x^2) - 1,      P(x) = p(x) / x^2,

with the removable value P(0) = a_1 + ... + a_m.  The elementary integrals

    phi_k = a_k Int dx / ((1 + a_k x^2) sqrt(P)),    A = Int dx / (2 sqrt(P))

over the real line give angles phi_k in (0, pi) summing exactly to pi
(substitute w = sqrt(p)), and an area invariant A > 0.  The neck itself is

    L = { (z_1(y) x_1, ..., z_m(y) x_m) : y real, |x| = 1 },
    z_k(y) = e^{i psi_k(y)} sqrt(1/a_k + y^2),
    psi_k(y) = a_k Int_{-inf}^y dx / ((1 + a_k x^2) sqrt(P)),

a special Lagrangian diffeomorphic to S^{m-1} x R, asymptotic to the plane
pair R^m and diag(e^{i phi_k}) R^m.  The restriction of the Liouville form is
dy / (2 sqrt(P(y))), so the potential normalized to vanish on the flat end is
f(y) = Int_{-inf}^y dx / (2 sqrt(P)), and the end-to-end potential difference
recovers A.

The correspondence a -> (phi, A) is a bijection onto {phi in (0,pi)^m,
sum phi = pi, A > 0}; `lawlor_invert` realizes the inverse by damped Newton
on log(a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from . import quadrature
from ._newton import InversionResult, damped_newton_log
from .errors import DimensionMismatchError, GradingError
from .geometry import LagrangianSample, TangentFrame, phase_of_frame

ANGLE_SUM_TOL = 1e-8
_TAIL_MASS = 1e-15


def _validate_a(a):
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.shape[0] < 3:
        raise DimensionMismatchError("need m >= 3 coefficients")
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("a_k must be positive")
    return a


def lawlor_P(a, x: float) -> float:
    """P(x) = (prod(1 + a_k x^2) - 1)/x^2, with P(0) = sum(a_k)."""
    a = np.asarray(a, dtype=float)
    if x == 0.0:
        return float(np.sum(a))
    return math.expm1(float(np.sum(np.log1p(a * x * x)))) / (x * x)


def oriented_sphere_basis(x_unit: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to x_unit, oriented so
    that det [x_unit | basis] = +1.  Keeps neck frame phases consistent
    across directions."""
    basis = null_space(x_unit.reshape(1, -1))
    if np.linalg.det(np.column_stack([x_unit, basis])) < 0.0:
        basis = basis.copy()
        basis[:, 0] = -basis[:, 0]
    return basis


def _log_P(alpha: float, a: np.ndarray, x):
    """log P(x) for P(x) = (e^{alpha x^2} prod(1 + a_k x^2) - 1)/x^2,
    elementwise in x, with P(0) = alpha + sum(a_k).

    With s = alpha x^2 + sum log1p(a_k x^2), log(e^s - 1) is evaluated as
    s + log(-expm1(-s)), which keeps full relative precision for every s > 0;
    the form s + log1p(-exp(-s)) loses digits when s is small.
    """
    xx = np.square(x)
    s = alpha * xx + np.sum(np.log1p(np.multiply.outer(xx, a)), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = s + np.log(-np.expm1(-s)) - np.log(xx)
    # s == 0 only where x^2 underflows against every a_k
    return np.where(s > 0.0, log_p, math.log(alpha + float(np.sum(a))))


def _profile_rows(alpha: float, a: np.ndarray, x: np.ndarray, area: bool):
    """Angle integrands a_k/((1 + a_k x^2) sqrt(P)), one row per k, at
    abscissae x; with area, one more row 1/(2 sqrt(P))."""
    inv_sqrt_p = np.exp(-0.5 * _log_P(alpha, a, x))
    col = a[:, None]
    rows = col / (1.0 + col * np.square(x)) * inv_sqrt_p
    if area:
        rows = np.vstack((rows, 0.5 * inv_sqrt_p))
    return rows


def _unit_direction(x_unit, m: int) -> np.ndarray:
    x_unit = np.asarray(x_unit, dtype=float).reshape(-1)
    if x_unit.shape[0] != m:
        raise DimensionMismatchError("direction vector has wrong length")
    if abs(float(np.linalg.norm(x_unit)) - 1.0) > 1e-12:
        raise ValueError("direction vector must be a unit vector")
    return x_unit


def _tangent_columns(a, y: float, x_unit, psis, inv_sqrt_p: float):
    """Raw tangent vectors of a neck or expander at (y, x_unit), given its
    phases psi(y): the profile direction, then sphere directions.  Returns
    (columns, z, dz/dy).

    The profile direction enters with a minus sign; this orientation makes
    the frame phase vanish identically along a Lawlor neck.
    """
    radii = np.sqrt(1.0 / a + y * y)
    phase = np.exp(1j * psis)
    z = radii * phase
    dpsi = a / (1.0 + a * y * y) * inv_sqrt_p
    dz = (y / radii + 1j * dpsi * radii) * phase

    m = a.shape[0]
    cols = np.empty((m, m), dtype=complex)
    cols[:, 0] = -dz * x_unit
    cols[:, 1:] = z[:, None] * oriented_sphere_basis(x_unit)
    return cols, z, dz


@dataclass(frozen=True)
class LawlorAngles:
    """Angle tuple and area invariant (phi_1..phi_m, A) of a neck."""

    phis: np.ndarray
    A: float

    @property
    def total(self) -> float:
        return float(np.sum(self.phis))


class LawlorNeck:
    """A single neck, caching its angles, invariant, and radial profiles."""

    def __init__(self, a):
        self.a = _validate_a(a)
        self.m = self.a.shape[0]
        self._cutoff = self._tail_cutoff()
        self._scales = 1.0 / np.sqrt(self.a)
        # the integrands are even: twice the half-line integrals
        half = self._integrate(0.0, math.inf)
        self.phis = 2.0 * half[:-1]
        self.A = 2.0 * float(half[-1])
        self.angle_sum = float(np.sum(self.phis))

    # -- scalar profile data ------------------------------------------------

    def log_P(self, x: float) -> float:
        return float(_log_P(0.0, self.a, x))

    def P(self, x: float) -> float:
        return math.exp(self.log_P(x))

    def inv_sqrt_P(self, x: float) -> float:
        return math.exp(-0.5 * self.log_P(x))

    def _tail_cutoff(self) -> float:
        # beyond the cutoff, 1/sqrt(P) <= sqrt(2/prod a) x^{1-m}; the weakest
        # tail is the area integrand ~ x^{1-m}, integrable since m >= 3
        prod_a = float(np.prod(self.a))
        m = self.m
        x_tail = (math.sqrt(2.0 / prod_a) / (2.0 * (m - 2) * _TAIL_MASS)) ** (
            1.0 / (m - 2)
        )
        x_scale = 10.0 / math.sqrt(float(np.min(self.a)))
        return max(x_tail, x_scale, 50.0)

    def _rows(self, x: np.ndarray) -> np.ndarray:
        """The m angle integrands, then the area integrand, at abscissae x."""
        return _profile_rows(0.0, self.a, x, area=True)

    def _integrate(self, lower: float, upper: float) -> np.ndarray:
        return quadrature.integrate_rows(
            self._rows, lower, upper, self._cutoff, self._scales
        )

    # scalar integrands, the input of the independent oracle rules

    def _angle_integrand(self, k):
        ak = float(self.a[k])

        def g(x):
            return ak / (1.0 + ak * x * x) * self.inv_sqrt_P(x)

        return g

    def _area_integrand(self, x):
        return 0.5 * self.inv_sqrt_P(x)

    def psi(self, y: float) -> np.ndarray:
        """Component phases psi_k(y); increasing from 0 to phi_k."""
        return self._integrate(-math.inf, y)[:-1]

    def potential(self, y: float) -> float:
        """f(y) = Int_{-inf}^y dx/(2 sqrt(P)); increasing, f(-inf) = 0."""
        return float(self._integrate(-math.inf, y)[-1])

    def profile(self, y: float):
        """Radial profile (z_1(y)..z_m(y), psi_1(y)..psi_m(y))."""
        psis = self.psi(y)
        radii = np.sqrt(1.0 / self.a + y * y)
        return radii * np.exp(1j * psis), psis

    # -- pointwise geometry ---------------------------------------------------

    def point(self, y: float, x_unit) -> LagrangianSample:
        """Ambient point, orthonormal tangent frame, phase, and potential."""
        x_unit = _unit_direction(x_unit, self.m)
        partial = self._integrate(-math.inf, y)
        cols, z, _ = _tangent_columns(self.a, y, x_unit, partial[:-1],
                                      self.inv_sqrt_P(y))
        frame = TangentFrame(z * x_unit, cols).orthonormalized()
        theta = phase_of_frame(frame, branch_hint=0.0)
        return LagrangianSample(z * x_unit, frame, theta, float(partial[-1]))

    def radial_tangent(self, y: float, x_unit):
        """Ambient point and (unnormalized) tangent vector along d/dy."""
        x_unit = np.asarray(x_unit, dtype=float).reshape(-1)
        _, z, dz = _tangent_columns(self.a, y, x_unit, self.psi(y),
                                    self.inv_sqrt_P(y))
        return z * x_unit, dz * x_unit

    def invariant_from_potential_limits(self) -> float:
        """A(L) = lim f(+inf) - lim f(-inf), assembled from a finite-interval
        potential evaluation plus the quadrature of the remaining tail."""
        y_big = 0.25 * self._cutoff
        head = self.potential(y_big)
        tail = float(self._integrate(y_big, math.inf)[-1])
        return head + tail

    def angles(self) -> LawlorAngles:
        return LawlorAngles(self.phis.copy(), self.A)

    def tilde(self) -> "RotatedNeck":
        """The rotated neck diag(e^{i phi_k}) . L with the end roles swapped:
        angle tuple pi - phi (summing to (m-1) pi) and invariant -A."""
        tilde_phis = np.pi - self.phis
        return RotatedNeck(self, tilde_phis, -self.A)


@dataclass(frozen=True)
class RotatedNeck:
    """diag(e^{i phi_k}) . base, asymptotic to the same plane pair with the
    ends exchanged; the invariant changes sign."""

    base: object
    phis: np.ndarray
    invariant: float

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def angle_sum(self) -> float:
        return float(np.sum(self.phis))

    @property
    def rotation(self) -> np.ndarray:
        return np.exp(1j * self.phis)

    def point(self, y: float, x_unit) -> LagrangianSample:
        sample = self.base.point(y, x_unit)
        rot = self.rotation
        frame = TangentFrame(rot * sample.point, rot[:, None] * sample.frame.vectors)
        theta = sample.theta - self._base_theta_limit()
        potential = self._potential(sample)
        return LagrangianSample(rot * sample.point, frame, theta, potential)

    def _base_theta_limit(self) -> float:
        # grading normalized to vanish on the end that the rotation carries
        # to the flat plane (the base's y -> +inf end)
        limit = getattr(self.base, "theta_plus_limit", None)
        return limit() if limit is not None else 0.0

    def _potential(self, sample: LagrangianSample) -> float:
        total = getattr(self.base, "A", None)
        if total is None:
            total = -self.invariant
        return sample.potential - total


def lawlor_angles(a) -> LawlorAngles:
    """Angles and area invariant of the neck with coefficients a."""
    return LawlorNeck(a).angles()


def lawlor_profile(a, y: float):
    """Profile (z_k(y), psi_k(y)) of the neck with coefficients a."""
    return LawlorNeck(a).profile(y)


def lawlor_point(a, y: float, x_unit) -> LagrangianSample:
    """Pointwise sample of the neck (see LawlorNeck.point)."""
    return LawlorNeck(a).point(y, x_unit)


def lawlor_invariant_A(a) -> float:
    """Potential-limit evaluation of the invariant A(L)."""
    return LawlorNeck(a).invariant_from_potential_limits()


def lawlor_tilde(a) -> RotatedNeck:
    """Rotated variant with angle sum (m-1) pi and invariant -A."""
    return LawlorNeck(a).tilde()


def _initial_guess(phis, A):
    """Shape from tan(phi/2)^2, then one rescale: a -> t a keeps the angles
    and sends A -> A/t."""
    a0 = np.tan(0.5 * np.asarray(phis)) ** 2
    a0 = np.clip(a0, 1e-8, 1e8)
    trial = LawlorNeck(a0)
    return a0 * (trial.A / A)


def lawlor_invert(target_phis, target_A, tol=1e-9, max_iter=30,
                  initial=None) -> InversionResult:
    """Recover a from target angles and invariant by damped Newton on log(a).

    Requires phi_k in (0, pi), sum(phi) = pi within 1e-6, and A > 0.  The
    residual drops the last angle (the angle sum is an identity) and matches
    A in relative terms.
    """
    phis = np.asarray(target_phis, dtype=float).reshape(-1)
    if phis.shape[0] < 3:
        raise DimensionMismatchError("need m >= 3 target angles")
    if np.any(phis <= 0.0) or np.any(phis >= np.pi):
        raise GradingError("target angles must lie in (0, pi)")
    if abs(float(np.sum(phis)) - np.pi) > 1e-6:
        raise GradingError("target angles must sum to pi")
    if not target_A > 0.0:
        raise GradingError("target invariant A must be positive")

    def residual(a):
        neck = LawlorNeck(a)
        return np.concatenate(
            [neck.phis[:-1] - phis[:-1], [(neck.A - target_A) / target_A]]
        )

    a0 = _initial_guess(phis, target_A) if initial is None else np.asarray(initial, float)
    return damped_newton_log(residual, a0, tol=tol, max_iter=max_iter)
