"""Damped Newton iteration in log coordinates, shared by the neck inverters.

The callback returns the residual together with its exact Jacobian in log
coordinates, both from one family build, so an iterate costs one build and
every trial of the line search carries the Jacobian the next step needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NewtonError


@dataclass
class InversionResult:
    a: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)
    # 2-norm condition number of the Jacobian at the returned iterate
    jacobian_cond: float = math.nan


def damped_newton_log(residual_fn, a0, tol=1e-9, max_iter=30, max_halvings=25):
    """Solve r(a) = 0 for positive a by Newton steps on log(a).

    residual_fn(a) returns (r(a), dr/dlog(a)).  Steps are halved while the
    residual norm fails to decrease; the accepted trial's Jacobian serves
    the next step.  Stops once the residual norm is at most tol.  Raises
    NewtonError with the best iterate when max_iter is exhausted.
    """
    x = np.log(np.asarray(a0, dtype=float))
    r, jac = residual_fn(np.exp(x))
    rnorm = float(np.linalg.norm(r))
    trace = [rnorm]
    best_x, best_norm = x.copy(), rnorm

    for it in range(1, max_iter + 1):
        if rnorm <= tol:
            return _result(x, rnorm, it - 1, trace, jac)
        try:
            step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise NewtonError("singular Jacobian", np.exp(best_x), best_norm, it) from exc
        # keep steps sane in log space
        step_norm = float(np.linalg.norm(step))
        if step_norm > 5.0:
            step *= 5.0 / step_norm

        scale = 1.0
        for _ in range(max_halvings):
            x_new = x + scale * step
            r_new, jac_new = residual_fn(np.exp(x_new))
            rnorm_new = float(np.linalg.norm(r_new))
            if rnorm_new < rnorm:
                break
            scale *= 0.5
        else:
            raise NewtonError(
                f"line search stalled at residual {rnorm:.3e}",
                np.exp(best_x), best_norm, it,
            )
        x, r, jac, rnorm = x_new, r_new, jac_new, rnorm_new
        trace.append(rnorm)
        if rnorm < best_norm:
            best_x, best_norm = x.copy(), rnorm

    if rnorm <= tol:
        return _result(x, rnorm, max_iter, trace, jac)
    raise NewtonError(
        f"no convergence in {max_iter} iterations; best residual {best_norm:.3e}",
        np.exp(best_x), best_norm, max_iter,
    )


def _result(x, rnorm, iterations, trace, jac) -> InversionResult:
    return InversionResult(np.exp(x), rnorm, iterations, True, trace,
                           float(np.linalg.cond(jac)))
