"""Independent oracles that the tests compare the library against.

None of these run on a production path.  The quadrature oracles are two
rules algorithmically independent of the library's fixed Gauss-Legendre
rule: adaptive Gauss-Kronrod (scipy.integrate.quad, imported on use) and a
fixed-order tanh-sinh rule, run at doubled node counts.  They integrate the
scalar angle and area integrands of a neck family, evaluated one abscissa at
a time through the family's `inv_sqrt_P`.  The harmonic-polynomial oracles
are the sphere moment of a monomial one at a time, the sphere inner product
as a double loop over terms, the Laplacian of a polynomial's coefficients,
and the integer matrix of the flat Laplacian, whose rank gives the dimension
of the degree-k harmonics.  The Jacobian oracles are finite differences in
log coordinates: the forward-difference Jacobian the neck inverters used
before they carried the exact one, a damped Newton driven by it, and a
central difference.
"""

from __future__ import annotations

import math

import numpy as np

from slaglab.errors import QuadratureError
from slaglab.modes import monomials
from slaglab.quadrature import DEFAULT_EPSABS, DEFAULT_EPSREL

_QUAD_LIMIT = 400


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integrate_segment(f, lower, upper, cutoff, epsabs=DEFAULT_EPSABS,
                      epsrel=DEFAULT_EPSREL):
    """Adaptive oracle: integrate a scalar f over
    [max(lower, -cutoff), min(upper, cutoff)] via x = sinh(u)."""
    from scipy.integrate import quad

    lo = max(lower, -cutoff)
    hi = min(upper, cutoff)
    if hi <= lo:
        return 0.0

    def transformed(u):
        return f(math.sinh(u)) * math.cosh(u)

    value, err = quad(transformed, math.asinh(lo), math.asinh(hi),
                      epsabs=epsabs, epsrel=epsrel, limit=_QUAD_LIMIT)
    if err > max(100.0 * epsabs, 1e-9 * max(1.0, abs(value))):
        raise QuadratureError(
            f"adaptive quadrature error estimate {err:.3e} exceeds tolerance"
        )
    return value


def tanh_sinh_nodes(order, half_width=3.3):
    """Symmetric tanh-sinh abscissae and weights on (-1, 1).

    order is the number of positive nodes; the rule has 2*order + 1 points.
    """
    h = half_width / order
    nodes = []
    half_pi = 0.5 * math.pi
    for k in range(-order, order + 1):
        t = k * h
        sh = math.sinh(t)
        x = math.tanh(half_pi * sh)
        w = h * half_pi * math.cosh(t) / math.cosh(half_pi * sh) ** 2
        nodes.append((x, w))
    return nodes


def tanh_sinh(f, a, b, order=60):
    """Fixed tanh-sinh rule for a smooth integrand on a finite interval."""
    if a == b:
        return 0.0
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for x, w in tanh_sinh_nodes(order):
        total += w * f(mid + half * x)
    return total * half


def tanh_sinh_real_line(f, cutoff, order=120):
    """tanh-sinh rule over [-cutoff, cutoff] (oracle use).

    The rule is applied to the sinh-transformed integrand, split at its peak
    u = 0 so the endpoint-clustered nodes land where the mass sits.
    """
    return tanh_sinh_partial(f, math.inf, cutoff, order=order)


def tanh_sinh_partial(f, upper, cutoff, order=120):
    """tanh-sinh rule over [-cutoff, min(upper, cutoff)] (oracle use)."""
    if upper <= -cutoff:
        return 0.0
    u_lo = -math.asinh(cutoff)
    u_hi = math.asinh(min(upper, cutoff))

    def transformed(u):
        return f(math.sinh(u)) * math.cosh(u)

    if u_lo < 0.0 < u_hi:
        return (tanh_sinh(transformed, u_lo, 0.0, order=order)
                + tanh_sinh(transformed, 0.0, u_hi, order=order))
    return tanh_sinh(transformed, u_lo, u_hi, order=order)


# scalar integrands of a neck family, the input of the oracle rules

def angle_integrand(family, k):
    """x -> a_k/((1 + a_k x^2) sqrt(P(x))) for the family member."""
    ak = float(family.a[k])

    def g(x):
        return ak / (1.0 + ak * x * x) * family.inv_sqrt_P(x)

    return g


def area_integrand(family):
    """x -> 1/(2 sqrt(P(x))) for the family member."""

    def g(x):
        return 0.5 * family.inv_sqrt_P(x)

    return g


# ---------------------------------------------------------------------------
# Jacobians in log coordinates
# ---------------------------------------------------------------------------

def forward_difference_jacobian(fn, a, step=1e-6, value=None):
    """d fn/d log a at a by forward differences; value is fn(a) if known."""
    a = np.asarray(a, dtype=float)
    value = np.asarray(fn(a) if value is None else value, dtype=float)
    jac = np.empty((value.size, a.size))
    for j in range(a.size):
        shifted = a.copy()
        shifted[j] *= math.exp(step)
        jac[:, j] = (np.asarray(fn(shifted)) - value) / step
    return jac


def central_difference_jacobian(fn, a, step=1e-6):
    """d fn/d log a at a by central differences."""
    a = np.asarray(a, dtype=float)
    cols = []
    for j in range(a.size):
        up, down = a.copy(), a.copy()
        up[j] *= math.exp(step)
        down[j] *= math.exp(-step)
        cols.append((np.asarray(fn(up)) - np.asarray(fn(down))) / (2.0 * step))
    return np.column_stack(cols)


def forward_difference_newton(residual_fn, a0, **kwargs):
    """`damped_newton_log` on the residual of residual_fn, with the
    forward-difference Jacobian in place of the exact one it returns."""
    from slaglab._newton import damped_newton_log

    def values(a):
        return residual_fn(a)[0]

    def with_fd_jacobian(a):
        value = values(a)
        return value, forward_difference_jacobian(values, a, value=value)

    return damped_newton_log(with_fd_jacobian, a0, **kwargs)


# ---------------------------------------------------------------------------
# harmonic polynomials
# ---------------------------------------------------------------------------

def sphere_monomial_moment(beta) -> float:
    """Integral of x^beta over the unit sphere S^{m-1}.

    Zero unless every exponent is even; otherwise
    2 prod_i Gamma((beta_i + 1)/2) / Gamma((|beta| + m)/2).
    """
    beta = tuple(int(b) for b in beta)
    if any(b % 2 for b in beta):
        return 0.0
    m = len(beta)
    log_num = sum(math.lgamma(0.5 * (b + 1)) for b in beta)
    log_den = math.lgamma(0.5 * (sum(beta) + m))
    return 2.0 * math.exp(log_num - log_den)


def sphere_inner(poly, other) -> float:
    """L^2(S^{m-1}) inner product of two polynomials, term by term."""
    total = 0.0
    for beta, c in poly.coeffs.items():
        for gamma, d in other.coeffs.items():
            merged = tuple(b + g for b, g in zip(beta, gamma))
            total += c * d * sphere_monomial_moment(merged)
    return total


def laplacian_coeffs(poly) -> dict:
    """Monomial coefficients of the flat Laplacian of a polynomial."""
    out: dict = {}
    for beta, c in poly.coeffs.items():
        for i in range(poly.m):
            if beta[i] >= 2:
                target = list(beta)
                target[i] -= 2
                key = tuple(target)
                out[key] = out.get(key, 0.0) + c * beta[i] * (beta[i] - 1)
    return out


def max_laplacian_coeff(poly) -> float:
    lap = laplacian_coeffs(poly)
    return max((abs(v) for v in lap.values()), default=0.0)


def laplacian_matrix(m: int, k: int) -> np.ndarray:
    """Matrix of the flat Laplacian from degree-k to degree-(k-2) monomials."""
    cols = monomials(m, k)
    rows = monomials(m, k - 2) if k >= 2 else []
    row_index = {beta: i for i, beta in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, beta in enumerate(cols):
        for i in range(m):
            if beta[i] >= 2:
                target = list(beta)
                target[i] -= 2
                mat[row_index[tuple(target)], j] += beta[i] * (beta[i] - 1)
    return mat
