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

The tests check this rule against two algorithmically independent oracles,
adaptive Gauss-Kronrod and a fixed-order tanh-sinh rule; they live in
`tests/oracles.py`, not in the library.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureError

DEFAULT_EPSABS = 1e-13
DEFAULT_EPSREL = 1e-12

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
    ends = _panel_edges(cutoff, float(np.min(scales)), float(np.max(scales)))
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
def _panel_edges(cutoff, smallest, largest):
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
