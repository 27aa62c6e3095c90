"""Quadrature for smooth even-tailed integrands on the real line.

The improper integrals here have integrands decaying either algebraically,
like |x|^-q with q >= 2, or like a Gaussian.  The substitution x = sinh(u)
turns both into exponentially decaying integrands in u.  The caller truncates
at a cutoff chosen from an analytic tail bound, so the discarded mass is
below the requested tolerance.

`integrate_rows` is the production rule.  It integrates every row of a
vectorized integrand f(x) -> (rows, len(x)) in one numpy pass, with a
composite Gauss-Legendre rule in u.  The panel ends are u = 0, then +-asinh
of a ratio-4 geometric ladder spanning the length scales the caller names
and x = 1, then tail panels whose width in u doubles out to the cutoff.  Each panel
carries N and 2N nodes.  The gap between the two sums is the error estimate:
the 2N sum is returned when the gap is within tolerance; otherwise N doubles
up to a cap, and past the cap the rule raises `QuadratureError`.  A value is
never returned unchecked.

Two algorithmically independent rules stay as oracles for the tests:
`integrate_segment`, adaptive Gauss-Kronrod (scipy.integrate.quad, imported
on use), and a fixed-order tanh-sinh rule, which the verification suites run
at doubled node counts.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureError

DEFAULT_EPSABS = 1e-13
DEFAULT_EPSREL = 1e-12
_QUAD_LIMIT = 400

_BASE_NODES = 24        # N: nodes per panel of the coarse sum
_MAX_NODES = 192        # cap on 2N
_LADDER_RATIO = 4.0


def integrate_rows(f, lower, upper, cutoff, scales):
    """Integrate each row of f over [max(lower, -cutoff), min(upper, cutoff)].

    f maps a 1-D array of abscissae x to an array (rows, len(x)); scales are
    the positive length scales of the integrand, which place the panel ends.
    Returns the rows' integrals as an array (rows,).  Raises QuadratureError
    when a row's N/2N gap exceeds DEFAULT_EPSABS + DEFAULT_EPSREL |value| at
    the largest N.
    """
    u_lo = math.asinh(max(lower, -cutoff))
    u_hi = math.asinh(min(upper, cutoff))
    ends = _panel_ends(cutoff, float(np.min(scales)), float(np.max(scales)))
    ends = ends[(ends > u_lo) & (ends < u_hi)]
    ends = np.concatenate(([u_lo], ends, [u_hi])) if u_hi > u_lo else ends[:0]
    left, right = ends[:-1], ends[1:]

    n = _BASE_NODES
    coarse, fine = _panel_sums(f, left, right, (n, 2 * n))
    while True:
        value = fine.sum(axis=1)
        gap = np.abs(fine - coarse).sum(axis=1)
        if np.all(gap <= DEFAULT_EPSABS + DEFAULT_EPSREL * np.abs(value)):
            return value
        n *= 2
        if 2 * n > _MAX_NODES:
            raise QuadratureError(
                f"Gauss-Legendre N/2N gap {float(np.max(gap)):.3e} exceeds "
                f"tolerance at N = {n // 2} nodes per panel"
            )
        coarse, (fine,) = fine, _panel_sums(f, left, right, (2 * n,))


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n):
    return np.polynomial.legendre.leggauss(n)


@functools.lru_cache(maxsize=256)
def _panel_ends(cutoff, smallest, largest):
    """Panel ends in u, symmetric about 0, from the ladder over the length
    scales [smallest, largest] and the tail.

    The ladder also spans x = 1, where sinh turns from linear to exponential,
    so the tail panels only meet integrands that decay exponentially in u.
    """
    u_max = math.asinh(cutoff)
    lo, hi = min(smallest, 1.0), max(largest, 1.0)
    rungs = math.ceil(math.log(hi / lo) / math.log(_LADDER_RATIO))
    ladder = np.arcsinh(lo * _LADDER_RATIO ** np.arange(rungs + 1))
    width = math.log(_LADDER_RATIO)
    tail = [float(ladder[-1])]
    while tail[-1] + width < u_max:
        tail.append(tail[-1] + width)
        width *= 2.0
    positive = np.concatenate((ladder, tail[1:]))
    ends = np.concatenate((-positive[::-1], [0.0], positive))
    ends.setflags(write=False)
    return ends


def _panel_sums(f, left, right, orders):
    """Per-panel integrals (rows, panels) in u of f(sinh u) cosh u, one array
    per rule order, from a single evaluation of f."""
    rules = [_gauss_legendre(n) for n in orders]
    half = 0.5 * (right - left)
    u = (0.5 * (left + right))[:, None] + half[:, None] * np.concatenate(
        [t for t, _ in rules])
    values = f(np.sinh(u).ravel()) * np.cosh(u).ravel()
    values = values.reshape(len(values), *u.shape)
    sums = []
    start = 0
    for n, (_, w) in zip(orders, rules):
        sums.append(values[:, :, start:start + n] @ w * half)
        start += n
    return sums


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
