"""Lawlor necks, the alpha = 0 members of one neck family.

Given m >= 3, positive a_1..a_m and alpha >= 0, set

    P(x) = (e^{alpha x^2} prod_k (1 + a_k x^2) - 1) / x^2,

with the removable value P(0) = alpha + a_1 + ... + a_m.  The elementary
integrals

    phi_k = a_k Int dx / ((1 + a_k x^2) sqrt(P)),    A = Int dx / (2 sqrt(P))

over the real line give angles phi_k in (0, pi) and an area A > 0.  The
member (alpha, a) of the family, `NeckFamily`, is

    L = { (z_1(y) x_1, ..., z_m(y) x_m) : y real, |x| = 1 },
    z_k(y) = e^{i psi_k(y)} sqrt(1/a_k + y^2),
    psi_k(y) = a_k Int_{-inf}^y dx / ((1 + a_k x^2) sqrt(P)),

a Lagrangian diffeomorphic to S^{m-1} x R, asymptotic to the plane pair R^m
and diag(e^{i phi_k}) R^m, and graded by theta(y) = sum_k psi_k(y) +
arg(-y - i P(y)^{-1/2}).  The members at alpha > 0 are the Joyce-Lee-Tsui
expanders of `expanders`.  On every member the Liouville form restricts to
dy / (2 sqrt(P(y))), so the potential vanishing on the flat end, f(y) =
Int_{-inf}^y dx / (2 sqrt(P)), has df = lambda|_L and rises by A.

A Lawlor neck is the member at alpha = 0: the angles sum exactly to pi
(substitute w = sqrt(x^2 P)), theta vanishes, and L is special Lagrangian.

The correspondence a -> (phi, A) is a bijection onto {phi in (0,pi)^m,
sum phi = pi, A > 0}; `lawlor_invert` realizes the inverse by damped Newton
on log(a), with the exact Jacobian.  With p = P x^2, r_k = a_k/(1 + a_k x^2),
I = P^{-1/2} and g = (p + 1)/P = x^2/(-expm1(-s)), where s = alpha x^2 +
sum log1p(a_k x^2) and g(0) = 1/P(0), the logarithmic derivatives
dP/dlog a_j = g r_j P give the Jacobian integrands

    d(r_k I)/dlog a_j = I (delta_jk r_k/(1 + a_k x^2) - g r_j r_k / 2),
    d(I/2)/dlog a_j   = -g r_j I / 4.

Each decays like the integrand it differentiates, so the member's cutoff and
panels serve them too, and one quadrature pass yields the angles, the area
and all of their derivatives, each row under the rule's own error check.

A member is built only as a class, `NeckFamily(alpha, a)`, `LawlorNeck(a)` or
`expanders.JLTExpander(alpha, a)`, and read through its attributes and methods.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from ._newton import InversionResult, damped_newton_log
from .errors import DimensionMismatchError, GradingError
from .geometry import LagrangianSample, TangentFrame

_TAIL_MASS = 1e-15


def _validate_a(a):
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.shape[0] < 3:
        raise DimensionMismatchError("need m >= 3 coefficients")
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("a_k must be positive")
    return a


def oriented_sphere_basis(x_unit: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to x_unit, oriented so
    that det [x_unit | basis] = +1.  Keeps neck frame phases consistent
    across directions.

    The reflection H = I - 2 v v^T/(v^T v), v = x_unit + s e_1, s = sign(x_0),
    maps x_unit to -s e_1, so det [x_unit | H e_2 .. H e_m] = -s det H = s.
    """
    s = 1.0 if x_unit[0] >= 0.0 else -1.0
    v = x_unit.astype(float)
    v[0] += s
    basis = -(2.0 / float(v @ v)) * np.outer(v, v[1:])
    basis[1:] += np.eye(x_unit.shape[0] - 1)
    basis[:, 0] *= s
    return basis


def _log_P(alpha: float, a: np.ndarray, x):
    """log P(x) for P(x) = (e^{alpha x^2} prod(1 + a_k x^2) - 1)/x^2,
    elementwise in x, with P(0) = alpha + sum(a_k)."""
    return _log_P_terms(alpha, a, x)[2]


def _log_P_terms(alpha: float, a: np.ndarray, x):
    """(x^2, s, log P(x)) elementwise in x, with s = alpha x^2 +
    sum log1p(a_k x^2) = log(x^2 P + 1).

    log(e^s - 1) is evaluated as s + log(-expm1(-s)), which keeps full
    relative precision for every s > 0; the form s + log1p(-exp(-s)) loses
    digits when s is small.  Where x^2 overflows, P is +inf.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        xx = np.square(x)
        s = alpha * xx + np.sum(np.log1p(np.multiply.outer(xx, a)), axis=-1)
        log_p = s + np.log(-np.expm1(-s)) - np.log(xx)
    # s == 0 only where x^2 underflows against every a_k
    log_p = np.where(s > 0.0, log_p, math.log(alpha + float(np.sum(a))))
    log_p[xx == math.inf] = math.inf
    return xx, s, log_p


class NeckFamily:
    """The member (alpha, a), alpha >= 0, of the neck family, caching its
    angles, invariant, and radial profiles.  `cutoff` is where its
    integrals stop: the integrand mass beyond it is below an analytic bound.
    `LawlorNeck` and `expanders.JLTExpander` pin alpha = 0 and alpha > 0."""

    # bias of the grading and its derivative; only JLTExpander sets it
    _fault_bias = 0.0

    def __init__(self, alpha: float, a, *, _jacobian: bool = False):
        if not 0.0 <= alpha < math.inf:
            raise ValueError("alpha must be finite and >= 0")
        self.alpha = float(alpha)
        self.a = _validate_a(a)
        self.m = self.a.shape[0]
        self.cutoff = self._tail_cutoff()
        self._scales = 1.0 / np.sqrt(self.a)
        if self.alpha > 0.0:
            self._scales = np.append(self._scales, 1.0 / math.sqrt(self.alpha))
        # the integrands are even: twice the half-line integrals
        half = 2.0 * self._integrate(0.0, math.inf, jacobian=_jacobian)
        m = self.m
        self.phis = half[:m]
        self.A = float(half[m])
        self.angle_sum = float(np.sum(self.phis))
        # d(phi_1..phi_m, A)/dlog(a_1..a_m), carried only by builds that ask
        self._jacobian = half[m + 1:].reshape(m + 1, m) if _jacobian else None

    # -- scalar profile data ------------------------------------------------

    def log_P(self, x: float) -> float:
        return float(_log_P(self.alpha, self.a, x))

    def P(self, x: float) -> float:
        """P(x); inf where it overflows a float."""
        log_p = self.log_P(x)
        return math.exp(log_p) if log_p < 709.0 else math.inf

    def inv_sqrt_P(self, x: float) -> float:
        return math.exp(-0.5 * self.log_P(x))

    def _tail_cutoff(self) -> float:
        # beyond the cutoff, 1/sqrt(P) <= sqrt(2/prod a) x^{1-m}; the weakest
        # tail is the area integrand ~ x^{1-m}, integrable since m >= 3.  At
        # alpha > 0 the factor e^{-alpha x^2/2} is below e^{-50} sooner.
        prod_a = float(np.prod(self.a))
        m = self.m
        x_poly = (math.sqrt(2.0 / prod_a) / (2.0 * (m - 2) * _TAIL_MASS)) ** (
            1.0 / (m - 2)
        )
        x_gauss = math.sqrt(100.0 / self.alpha) if self.alpha > 0.0 else math.inf
        x_scale = 10.0 / math.sqrt(float(np.min(self.a)))
        return max(min(x_poly, x_gauss), x_scale, 50.0)

    def _rows(self, x: np.ndarray, jacobian: bool = False) -> np.ndarray:
        """The m angle integrands r_k I, r_k = a_k/(1 + a_k x^2), I = P^{-1/2},
        then the area integrand I/2, at abscissae x.  With jacobian, then the
        derivatives of those m + 1 rows in log a_1..log a_m, row by row: the
        derivative of row i in log a_j is row (i + 1) m + 1 + j."""
        m = self.m
        xx, s, log_p = _log_P_terms(self.alpha, self.a, x)
        inv_sqrt_p = np.exp(-0.5 * log_p)
        col = self.a[:, None]
        r = col / (1.0 + col * xx)
        rows = np.empty(((m + 1) * (m + 1 if jacobian else 1), x.shape[0]))
        np.multiply(r, inv_sqrt_p, out=rows[:m])
        np.multiply(0.5, inv_sqrt_p, out=rows[m])
        if jacobian:
            # g r_j = dlog P/dlog a_j; every row i gains -(g r_j / 2) row_i,
            # and angle row j also delta r_j I/(1 + a_j x^2) = r_j^2 I / a_j
            with np.errstate(divide="ignore", invalid="ignore"):
                g = np.where(s > 0.0, xx / -np.expm1(-s),
                             1.0 / (self.alpha + float(np.sum(self.a))))
            g[xx == math.inf] = 0.0  # I vanishes there; g r_j would be inf * 0
            deriv = rows[m + 1:].reshape(m + 1, m, x.shape[0])
            np.multiply(rows[:m + 1, None, :], -0.5 * g * r, out=deriv)
            deriv[np.arange(m), np.arange(m)] += np.square(r) * inv_sqrt_p / col
        return rows

    def _integrate(self, lower: float, upper: float, jacobian: bool = False) -> np.ndarray:
        rows = functools.partial(self._rows, jacobian=True) if jacobian else self._rows
        return quadrature.integrate_rows(
            rows, lower, upper, self.cutoff, self._scales
        )

    def psi(self, y: float) -> np.ndarray:
        """Component phases psi_k(y); increasing from 0 to phi_k."""
        return self._integrate(-math.inf, y)[:-1]

    def profile(self, y: float):
        """Radial profile (z_1(y)..z_m(y), psi_1(y)..psi_m(y))."""
        psis = self.psi(y)
        radii = np.sqrt(1.0 / self.a + y * y)
        return radii * np.exp(1j * psis), psis

    # -- grading and potential ------------------------------------------------

    def theta(self, y: float) -> float:
        """Grading at profile parameter y (continuous lift, -> 0 as
        y -> -inf); identically 0 at alpha = 0."""
        return self._theta(y, self.psi(y))

    def _theta(self, y: float, psis: np.ndarray) -> float:
        value = float(np.sum(psis)) + math.atan2(-self.inv_sqrt_P(y), -y)
        if self._fault_bias:
            value += self._fault_bias * math.tanh(y)
        return value

    def dtheta_dy(self, y: float) -> float:
        """Closed-form derivative of the grading.

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

    def potential(self, y: float) -> float:
        """Potential f(y) = Int_{-inf}^y dx / (2 sqrt(P)), the primitive of
        lambda|_L vanishing on the flat end; increasing from 0 to A."""
        return float(self._integrate(-math.inf, y)[-1])

    def invariant_from_potential_limits(self, y_limit: float | None = None) -> float:
        """A(L) = lim f(+inf) - lim f(-inf), from the rise of the potential
        between -y_limit and y_limit (default 0.9 of the tail cutoff), one
        area integral."""
        y_big = y_limit if y_limit is not None else 0.9 * self.cutoff
        return float(self._integrate(-y_big, y_big)[-1])

    # -- pointwise geometry ---------------------------------------------------

    def _tangent_columns(self, y: float, x_unit, psis):
        """Raw tangent vectors at (y, x_unit), given the phases psi(y): the
        profile direction, then sphere directions.  Returns (columns, z, dz/dy).

        The profile direction enters with a minus sign; this orientation makes
        the frame phase equal the grading theta.
        """
        a = self.a
        radii = np.sqrt(1.0 / a + y * y)
        phase = np.exp(1j * psis)
        z = radii * phase
        dpsi = a / (1.0 + a * y * y) * self.inv_sqrt_P(y)
        dz = (y / radii + 1j * dpsi * radii) * phase

        cols = np.empty((self.m, self.m), dtype=complex)
        cols[:, 0] = -dz * x_unit
        cols[:, 1:] = z[:, None] * oriented_sphere_basis(x_unit)
        return cols, z, dz

    def _direction(self, x_unit) -> np.ndarray:
        """x_unit as a flat array, checked to be a unit vector of R^m."""
        x_unit = np.asarray(x_unit, dtype=float).reshape(-1)
        if x_unit.shape[0] != self.m:
            raise DimensionMismatchError("direction vector has wrong length")
        if abs(float(np.linalg.norm(x_unit)) - 1.0) > 1e-12:
            raise ValueError("direction vector must be a unit vector")
        return x_unit

    def point(self, y: float, x_unit) -> LagrangianSample:
        """Ambient point, orthonormal tangent frame, grading, and potential."""
        x_unit = self._direction(x_unit)
        partial = self._integrate(-math.inf, y)
        psis = partial[:-1]
        cols, z, _ = self._tangent_columns(y, x_unit, psis)
        frame = TangentFrame(z * x_unit, cols).orthonormalized()
        return LagrangianSample(z * x_unit, frame, self._theta(y, psis),
                                float(partial[-1]))

    def radial_tangent(self, y: float, x_unit):
        """Ambient point and (unnormalized) tangent vector along d/dy."""
        x_unit = self._direction(x_unit)
        _, z, dz = self._tangent_columns(y, x_unit, self.psi(y))
        return z * x_unit, dz * x_unit

    def tilde(self) -> "RotatedNeck":
        """The rotated member diag(e^{i phi_k}) . L with the end roles swapped:
        angles pi - phi, summing to (m-1) pi at alpha = 0 and into
        ((m-1) pi, m pi) at alpha > 0, and invariant -A."""
        return RotatedNeck(self, np.pi - self.phis, -self.A)


class LawlorNeck(NeckFamily):
    """A single Lawlor neck: the family member at alpha = 0."""

    def __init__(self, a, *, _jacobian: bool = False):
        super().__init__(0.0, a, _jacobian=_jacobian)


@dataclass(frozen=True)
class RotatedNeck:
    """diag(e^{i phi_k}) . base, asymptotic to the same plane pair with the
    ends exchanged; the invariant changes sign."""

    base: NeckFamily
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
        # grading and potential renormalized to vanish on the end that the
        # rotation carries to the flat plane (the base's y -> +inf end)
        theta = sample.theta - (self.base.angle_sum - np.pi)
        potential = sample.potential - self.base.A
        return LagrangianSample(rot * sample.point, frame, theta, potential)


def _target_angles(target_phis) -> np.ndarray:
    """Target angles of an inversion, checked to be m >= 3 values in (0, pi)."""
    phis = np.asarray(target_phis, dtype=float).reshape(-1)
    if phis.shape[0] < 3:
        raise DimensionMismatchError("need m >= 3 target angles")
    if np.any(phis <= 0.0) or np.any(phis >= np.pi):
        raise GradingError("target angles must lie in (0, pi)")
    return phis


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
    A in relative terms; its Jacobian is the matching rows of the member's
    exact one, from the same build.
    """
    phis = _target_angles(target_phis)
    if abs(float(np.sum(phis)) - np.pi) > 1e-6:
        raise GradingError("target angles must sum to pi")
    if not target_A > 0.0:
        raise GradingError("target invariant A must be positive")

    def residual(a):
        neck = LawlorNeck(a, _jacobian=True)
        value = np.append(neck.phis[:-1] - phis[:-1], (neck.A - target_A) / target_A)
        jac = np.delete(neck._jacobian, -2, axis=0)  # the last angle's row
        jac[-1] /= target_A
        return value, jac

    a0 = _initial_guess(phis, target_A) if initial is None else np.asarray(initial, float)
    return damped_newton_log(residual, a0, tol=tol, max_iter=max_iter)
