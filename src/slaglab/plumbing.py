"""Compactification charts closing plane-pair Lagrangians into spheres.

Fix angles phi_k in (0, pi).  The shear

    x_j = Re z_j - cot(phi_j) Im z_j,     y_j = Im z_j,

is a global Darboux chart on C^m (omega = sum dx_j ^ dy_j) in which the flat
plane becomes {y = 0} and the rotated plane diag(e^{i phi}) R^m becomes
{x = 0}.  Each plane is closed into a topological m-sphere by one added point
at infinity, using the radius reparametrization

    xt_j = F(r) x_j / r,       F(r) = 1 / log(1 + r^2),

whose slow decay converts any O(r^rho), rho < 0, graph function into one that
extends smoothly over the added point with value 0 (all derivative decay like
exp(rho/(2 rt)) beats every power of rt).

The ambient Liouville form is modified by an exact term so it matches the
cotangent-bundle forms of both sphere factors outside a compact set:

    lambda_tilde = lambda + dh,
    h = -1/2 eta(sum x^2 - sum y^2) (sum x_j y_j),

where eta is -1 below -2T, 0 on [-T, T], +1 above 2T, with |eta'| = O(1/T)
(a quintic smoothstep on each transition band, odd about the origin).  Then
d(lambda_tilde) = omega everywhere, lambda_tilde = lambda on the middle
region, and lambda_tilde equals -sum y_j dx_j / +sum x_j dy_j on the outer
regions, so both spheres are exact Lagrangians with vanishing potential.

Potentials of a compactified Lagrangian take the value f + h at interior
points, 0 at the added point of the flat end, and the invariant A at the
added point of the rotated end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GradingError
from .geometry import AngleVector


def _smoothstep_quintic(u):
    """C^2 ramp on [0, 1]: 6u^5 - 15u^4 + 10u^3, clamped to 0 and 1 outside.

    Scalars or arrays; the polynomial is exactly 0 at u = 0 and 1 at u = 1,
    so clipping the argument gives the constant pieces bit for bit.
    """
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _smoothstep_quintic_prime(u):
    u = np.clip(u, 0.0, 1.0)
    return 30.0 * u * u * (1.0 - u) ** 2


@dataclass(frozen=True)
class PlumbingChart:
    """Darboux chart data: angles, bump cutoff T, and the bump profile eta."""

    phis: AngleVector
    T: float = 100.0

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError("cutoff T must be positive")

    @property
    def m(self) -> int:
        return self.phis.m

    @property
    def cot_phis(self) -> np.ndarray:
        return 1.0 / np.tan(self.phis.phis)

    def eta(self, t):
        """-1 below -2T, 0 on [-T, T], +1 above 2T; odd, C^2.  Elementwise
        on arrays."""
        return np.copysign(_smoothstep_quintic((np.abs(t) - self.T) / self.T), t)

    def eta_prime(self, t):
        # eta is odd, so its derivative is even in t
        return _smoothstep_quintic_prime((np.abs(t) - self.T) / self.T) / self.T


@dataclass(frozen=True)
class DarbouxCoords:
    """Plumbing Darboux coordinates of a point of C^m."""

    x: np.ndarray
    y: np.ndarray

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def quadratic_gap(self) -> float:
        """sum x^2 - sum y^2, the bump's argument."""
        return float(self.x @ self.x - self.y @ self.y)


def to_darboux(z, chart: PlumbingChart) -> DarbouxCoords:
    """x_j = Re z_j - cot(phi_j) Im z_j,  y_j = Im z_j."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape[0] != chart.m:
        raise DimensionMismatchError("point has wrong dimension for the chart")
    y = np.imag(z)
    x = np.real(z) - chart.cot_phis * y
    return DarbouxCoords(x, y)


def from_darboux(coords: DarbouxCoords, chart: PlumbingChart) -> np.ndarray:
    """Inverse of to_darboux."""
    if coords.m != chart.m:
        raise DimensionMismatchError("coordinates have wrong dimension")
    return coords.x + chart.cot_phis * coords.y + 1j * coords.y


def darboux_tangent(v, chart: PlumbingChart):
    """Push a tangent vector of C^m to the (linear) Darboux chart."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    vy = np.imag(v)
    vx = np.real(v) - chart.cot_phis * vy
    return vx, vy


def sphere_chart(x) -> np.ndarray:
    """Compactifying coordinates xt = F(r) x / r, F(r) = 1/log(1 + r^2).

    Strictly radius-decreasing with rt -> 0 as r -> infinity; the added point
    at infinity is represented by xt = 0.  Undefined at x = 0.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise ValueError("chart covers the sphere minus the origin")
    return x / (r * math.log1p(r * r))


def sphere_chart_inverse(x_tilde) -> np.ndarray:
    """Inverse map: r = sqrt(e^{1/rt} - 1) along the same ray."""
    x_tilde = np.asarray(x_tilde, dtype=float).reshape(-1)
    rt = float(np.linalg.norm(x_tilde))
    if rt == 0.0:
        raise ValueError("xt = 0 is the added point at infinity, not a chart point")
    r = math.sqrt(math.expm1(1.0 / rt))
    return x_tilde * (r / rt)


def compactified_graph_value(func, rho: float, x_tilde) -> float:
    """Value at xt of the compactified graph function of func = O(r^rho).

    Requires rho < 0; with the slow chart decay the function extends over
    xt = 0 with value 0, which is returned exactly there.
    """
    if rho >= 0.0:
        raise GradingError(
            "graph functions with nonnegative growth need not extend over "
            "the added point; require rho < 0"
        )
    x_tilde = np.asarray(x_tilde, dtype=float).reshape(-1)
    if float(np.linalg.norm(x_tilde)) == 0.0:
        return 0.0
    return float(func(sphere_chart_inverse(x_tilde)))


def bump_h(coords: DarbouxCoords, chart: PlumbingChart) -> float:
    """h = -1/2 eta(sum x^2 - sum y^2) (sum x_j y_j)."""
    return -0.5 * chart.eta(coords.quadratic_gap) * float(coords.x @ coords.y)


def liouville_ambient(coords: DarbouxCoords, vx, vy) -> float:
    """lambda = 1/2 sum (x_j dy_j - y_j dx_j) in Darboux coordinates (equal to
    the ambient Liouville form; the shear leaves it invariant)."""
    return 0.5 * float(coords.x @ vy - coords.y @ vx)


def liouville_tilde(coords: DarbouxCoords, vx, vy, chart: PlumbingChart) -> float:
    """lambda_tilde = lambda + dh on a tangent vector (vx, vy).

    Equals lambda on |gap| <= T, -sum y_j dx_j on gap >= 2T, and
    +sum x_j dy_j on gap <= -2T.
    """
    vx = np.asarray(vx, dtype=float).reshape(-1)
    vy = np.asarray(vy, dtype=float).reshape(-1)
    gap = coords.quadratic_gap
    s = float(coords.x @ coords.y)
    eta = chart.eta(gap)
    eta_p = chart.eta_prime(gap)
    d_gap = 2.0 * float(coords.x @ vx - coords.y @ vy)
    d_s = float(coords.y @ vx + coords.x @ vy)
    dh = -0.5 * (eta_p * d_gap * s + eta * d_s)
    return liouville_ambient(coords, vx, vy) + dh


def compactified_potential(f_interior: float, h: float, which: str, A: float) -> float:
    """Potential of a compactified Lagrangian: f + h at interior points, 0 at
    the flat end's added point, A at the rotated end's added point."""
    if which == "interior":
        return f_interior + h
    if which == "infty0":
        return 0.0
    if which == "inftyPhi":
        return A
    raise ValueError("which must be one of: interior, infty0, inftyPhi")


def omega_darboux(vx1, vy1, vx2, vy2) -> float:
    """omega = sum dx_j ^ dy_j on two Darboux tangent vectors."""
    vx1 = np.asarray(vx1, float)
    vy1 = np.asarray(vy1, float)
    vx2 = np.asarray(vx2, float)
    vy2 = np.asarray(vy2, float)
    return float(vx1 @ vy2 - vx2 @ vy1)


def _liouville_tilde_components(q, chart: PlumbingChart) -> np.ndarray:
    """lambda_tilde(e_a) for every Darboux basis vector e_a (columns, the x
    directions first) at every row (x, y) of q, an (n, 2m) array.

    The same terms as `liouville_tilde`, with d_gap = 2x, d_s = y on e_{x_j}
    and d_gap = -2y, d_s = x on e_{y_j}.
    """
    m = chart.m
    x, y = q[:, :m], q[:, m:]
    gap = np.sum(x * x, axis=1) - np.sum(y * y, axis=1)
    s = np.sum(x * y, axis=1)[:, None]
    eta = chart.eta(gap)[:, None]
    eta_p = chart.eta_prime(gap)[:, None]
    on_x = 0.5 * -y - 0.5 * (eta_p * (2.0 * x) * s + eta * y)
    on_y = 0.5 * x - 0.5 * (eta_p * (-2.0 * y) * s + eta * x)
    return np.concatenate([on_x, on_y], axis=1)


def exterior_derivative_residual(coords: DarbouxCoords, chart: PlumbingChart,
                                 step: float = 1e-4) -> float:
    """Max |(d lambda_tilde - omega)(e_a, e_b)| at a point, with the exterior
    derivative from fourth-order central differences of the components.

    The components at all 8m stencil points are evaluated in one pass.
    """
    m = chart.m
    dim = 2 * m
    q0 = np.concatenate([coords.x, coords.y])
    h = step * (1.0 + float(np.linalg.norm(q0)))
    eye = np.eye(dim)
    steps = np.concatenate([2 * h * eye, h * eye, -h * eye, -2 * h * eye])
    p2, p1, m1, m2 = _liouville_tilde_components(q0 + steps, chart).reshape(4, dim, dim)
    # partials[a, b] = d lam_b / d q_a
    partials = (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)
    d_lambda = partials - partials.T
    omega = np.eye(dim, k=m)  # omega(e_{x_j}, e_{y_j}) = 1
    upper = np.triu_indices(dim, 1)
    return float(np.max(np.abs(d_lambda - omega)[upper]))
