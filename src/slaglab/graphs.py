"""Lagrangian graphs over R^m: residual operators and the inversion transform.

The graph of df over a domain in R^m is special Lagrangian exactly when

    Im det_C(I + i Hess f) = 0,

and is an expander soliton (H = alpha F_perp) exactly when

    arg det_C(I + i Hess f) = alpha (2 f - sum_j x_j df/dx_j) + c.

Linearizing the expander equation at f = 0 (c = 0) gives

    sum_j d^2 f/dx_j^2 + alpha (sum_j x_j df/dx_j - 2 f) = 0,

whose residual operator is exposed separately for the asymptotic-mode tests.

The inversion transform conjugates decaying fields on an outer annulus with
fields on a punctured ball:  F(y) = s^{2-m} f(y/s^2), s = |y|, an involution
on sample points.  Summing its Hessian identity over the diagonal yields

    sum_i d^2 f/dx_i^2 (y/s^2) = s^{m+2} sum_i d^2 F/dy_i^2 (y),

the Laplacian identity verified by `inversion_laplacian_pair`.

Complex determinants are evaluated as log-magnitude and phase by
`numpy.linalg.slogdet`, so large Hessians cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BranchCutError, DimensionMismatchError

FD_STEP_SCALE = 1e-4
BRANCH_CUT_TOL = 1e-6


def monomial_values(points, exponents) -> np.ndarray:
    """x^beta for every row x of points (n, m) and row beta of exponents
    (p, m), as an (n, p) array.

    The powers x_i^d are tabulated once per point and gathered through the
    exponent matrix, so all monomials cost one numpy pass.
    """
    points = np.asarray(points, dtype=float)
    exponents = np.asarray(exponents, dtype=int)
    powers = points[:, :, None] ** np.arange(int(exponents.max(initial=0)) + 1)
    return powers[:, np.arange(points.shape[1]), exponents].prod(axis=2)


def row_sums(terms) -> np.ndarray:
    """Sum each row of a 2-D array from left to right.

    Unlike `@` and `sum(axis=1)`, whose rounding depends on how many rows
    are summed together, a row's sum here is the same in a batch as on its
    own, so batched stencils reproduce point-by-point ones bit for bit.
    """
    terms = np.asarray(terms, dtype=float)
    if terms.shape[1] == 0:
        return np.zeros(terms.shape[0])
    return np.cumsum(terms, axis=1)[:, -1]


def _one_point(batch):
    """The scalar evaluator of a batched one: f(x) is batch([x])[0]."""
    return lambda x: float(batch(np.asarray(x, dtype=float)[None, :])[0])


@dataclass
class ScalarField:
    """A smooth function R^m -> R with derivative access up to order 2+.

    Analytic derivative callables are used when supplied; otherwise central
    finite differences with step h = 1e-4 (1 + |x|): fourth-order stencils
    for gradients and pure second derivatives, second-order cross stencils
    for mixed Hessian entries.  Error model: O(h^4 f^(5)) + O(eps/h) for
    first derivatives, O(h^4 f^(6)) + O(eps/h^2) for pure second derivatives,
    O(h^2 f^(4)) for mixed ones.

    Each stencil is evaluated as one (n, m) array of points: by `batch` in
    one call when the field has a batched evaluator, otherwise by mapping
    `func` over the rows.
    """

    func: Callable[[np.ndarray], float]
    dim: int
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    step_scale: float = FD_STEP_SCALE
    batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def _fd_step(self, x) -> float:
        return self.step_scale * (1.0 + float(np.linalg.norm(x)))

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.dim:
            raise DimensionMismatchError("point has wrong dimension")
        return x

    def value(self, x) -> float:
        return float(self.func(np.asarray(x, dtype=float)))

    def __call__(self, x) -> float:
        return self.value(x)

    def values(self, points) -> np.ndarray:
        """f at every row of an (n, m) array of points."""
        points = np.asarray(points, dtype=float)
        if self.batch is not None:
            return np.asarray(self.batch(points), dtype=float)
        return np.array([float(self.func(p)) for p in points])

    def _stencil(self, x, h, extra=None):
        """f at x + k h e_i for k = 2, 1, -1, -2, then at x + each row of
        extra, in one batch: ((4, m) axis values, values at the extra points)."""
        eye = np.eye(self.dim)
        steps = [2 * h * eye, h * eye, -h * eye, -2 * h * eye]
        if extra is not None:
            steps.append(extra)
        vals = self.values(x + np.concatenate(steps))
        return vals[:4 * self.dim].reshape(4, self.dim), vals[4 * self.dim:]

    def gradient(self, x) -> np.ndarray:
        x = self._point(x)
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        h = self._fd_step(x)
        axis, _ = self._stencil(x, h)
        return _first_derivatives(h, axis)

    def hessian(self, x) -> np.ndarray:
        x = self._point(x)
        if self.hess is not None:
            return np.asarray(self.hess(x), dtype=float)
        h = self._fd_step(x)
        m = self.dim
        eye = np.eye(m)
        rows, cols = np.triu_indices(m, 1)
        ei, ej = h * eye[rows], h * eye[cols]
        axis, rest = self._stencil(x, h, np.concatenate([
            np.zeros((1, m)), ei + ej, ei - ej, -ei + ej, -ei - ej,
        ]))
        pp, pm, mp, mm = rest[1:].reshape(4, rows.size)
        out = np.empty((m, m))
        out[np.diag_indices(m)] = _pure_second_derivatives(h, rest[0], axis)
        out[rows, cols] = out[cols, rows] = (pp - pm - mp + mm) / (4.0 * h * h)
        return out

    def jet(self, x) -> tuple[float, np.ndarray, float]:
        """(value, gradient, Laplacian) at x, equal to `value`, `gradient`
        and `laplacian` bit for bit.

        Without an analytic Hessian all three come from one batch of the
        1 + 4m pure stencil points.
        """
        if self.hess is not None:
            return self.value(x), self.gradient(x), self.laplacian(x)
        x = self._point(x)
        h = self._fd_step(x)
        axis, center = self._stencil(x, h, np.zeros((1, self.dim)))
        f0 = center[0]
        grad = self.gradient(x) if self.grad is not None else _first_derivatives(h, axis)
        return float(f0), grad, float(np.sum(_pure_second_derivatives(h, f0, axis)))

    def laplacian(self, x) -> float:
        """Trace of the Hessian; by finite differences only its diagonal is
        evaluated (1 + 4m points)."""
        if self.hess is not None:
            return float(np.trace(self.hessian(x)))
        return self.jet(x)[2]


def _first_derivatives(h, axis) -> np.ndarray:
    """Fourth-order central first derivatives from the (4, m) axis values."""
    p2, p1, m1, m2 = axis
    return (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)


def _pure_second_derivatives(h, f0, axis) -> np.ndarray:
    """Fourth-order central pure second derivatives from f(x) and the axis
    values."""
    p2, p1, m1, m2 = axis
    return (-p2 + 16.0 * p1 - 30.0 * f0 + 16.0 * m1 - m2) / (12.0 * h * h)


def _differentiate(exponents, coeffs, i):
    """(exponents, coefficients) of d/dx_i of sum_beta c_beta x^beta."""
    lowered = exponents.copy()
    lowered[:, i] = np.maximum(lowered[:, i] - 1, 0)
    return lowered, coeffs * exponents[:, i]


def polynomial_field(coeffs: dict, dim: int) -> ScalarField:
    """ScalarField for sum_beta c_beta x^beta with analytic derivatives.

    coeffs maps multi-index tuples (length dim) to coefficients.  Values,
    gradients and Hessians are sums over exponent matrices (`monomial_values`).
    """
    if any(len(beta) != dim for beta in coeffs):
        raise DimensionMismatchError("multi-index length != dim")
    exponents = np.array(list(coeffs), dtype=int).reshape(len(coeffs), dim)
    c = np.array(list(coeffs.values()), dtype=float)
    first = [_differentiate(exponents, c, i) for i in range(dim)]
    second = [_differentiate(e, dc, j) for e, dc in first for j in range(dim)]
    grad_exps = np.concatenate([e for e, _ in first])
    grad_c = np.concatenate([dc for _, dc in first]).reshape(dim, -1)
    hess_exps = np.concatenate([e for e, _ in second])
    hess_c = np.concatenate([dc for _, dc in second]).reshape(dim * dim, -1)

    def batch(points):
        return row_sums(monomial_values(points, exponents) * c)

    def grad(x):
        terms = monomial_values(np.asarray(x, dtype=float)[None, :], grad_exps)
        return np.sum(terms.reshape(dim, -1) * grad_c, axis=1)

    def hess(x):
        terms = monomial_values(np.asarray(x, dtype=float)[None, :], hess_exps)
        return np.sum(terms.reshape(dim * dim, -1) * hess_c, axis=1).reshape(dim, dim)

    return ScalarField(_one_point(batch), dim, grad=grad, hess=hess, batch=batch)


def complex_det_lu(matrix) -> tuple[float, float]:
    """(log|det|, principal arg in (-pi, pi]) of a complex matrix, from
    `numpy.linalg.slogdet`; (-inf, 0.0) for a singular matrix.  The
    log-magnitude form avoids overflow."""
    sign, log_abs = np.linalg.slogdet(np.asarray(matrix, dtype=complex))
    if sign == 0.0:
        return -math.inf, 0.0
    phase = float(np.angle(sign))
    if phase <= -math.pi:
        phase += 2.0 * math.pi
    return float(log_abs), phase


def sl_graph_residual(field: ScalarField, x) -> float:
    """Im det_C(I + i Hess f) at x; zero iff the graph of df is special
    Lagrangian there."""
    hess = field.hessian(x)
    m = hess.shape[0]
    log_abs, phase = complex_det_lu(np.eye(m) + 1j * hess)
    return float(math.exp(log_abs) * math.sin(phase))


def graph_phase(field: ScalarField, x) -> float:
    """arg det_C(I + i Hess f) at x, principal branch in (-pi, pi].

    Raises BranchCutError within 1e-6 of the cut, where the principal value
    would silently jump.
    """
    hess = field.hessian(x)
    m = hess.shape[0]
    _, phase = complex_det_lu(np.eye(m) + 1j * hess)
    if math.pi - abs(phase) < BRANCH_CUT_TOL:
        raise BranchCutError(
            f"graph phase {phase:.9f} is within {BRANCH_CUT_TOL} of the branch cut"
        )
    return phase


def expander_graph_residual(field: ScalarField, alpha: float, c: float, x) -> float:
    """arg det_C(I + i Hess f) - alpha (2 f - sum x_j df_j) - c at x."""
    x = np.asarray(x, dtype=float)
    phase = graph_phase(field, x)
    grad = field.gradient(x)
    return float(phase - alpha * (2.0 * field.value(x) - float(x @ grad)) - c)


def linearized_expander_residual(field: ScalarField, alpha: float, x) -> float:
    """Residual of the linearized expander equation:
    sum_j d^2 f/dx_j^2 + alpha (sum_j x_j df_j - 2 f)."""
    x = np.asarray(x, dtype=float)
    value, grad, laplacian = field.jet(x)
    return float(laplacian + alpha * (float(x @ grad) - 2.0 * value))


def inversion_transform(field: ScalarField, m: int) -> ScalarField:
    """Conjugate a field by the inversion x -> x/|x|^2 with weight |.|^{2-m}.

    A field f on an outer annulus becomes F(y) = s^{2-m} f(y/s^2) on a
    punctured ball, and the same formula takes F back to f: the transform is
    an involution on sample points.  Evaluation at the origin is undefined
    and raises ValueError.
    """
    if field.dim != m:
        raise DimensionMismatchError("field dimension != m")

    def batch(points):
        s2 = np.sum(points * points, axis=1)
        if np.any(s2 == 0.0):
            raise ValueError("inversion transform is undefined at the origin")
        return s2 ** (0.5 * (2 - m)) * field.values(points / s2[:, None])

    # composite evaluators carry extra rounding noise; a slightly larger
    # step balances it against the stencil truncation error
    return ScalarField(_one_point(batch), m, step_scale=1e-3, batch=batch)


def inversion_laplacian_pair(field_ball: ScalarField, m: int, y) -> tuple[float, float]:
    """Both sides of the inversion Laplacian identity at y != 0.

    With F = field_ball on the punctured ball and f its inversion transform
    f(x) = r^{2-m} F(x/r^2) on the outer annulus:

        lhs = sum_i d^2 f/dx_i^2 evaluated at x = y/s^2   (finite differences),
        rhs = s^{m+2} sum_i d^2 F/dy_i^2 (y).
    """
    y = np.asarray(y, dtype=float)
    s2 = float(y @ y)
    if s2 == 0.0:
        raise ValueError("identity is undefined at the origin")
    field_outer = inversion_transform(field_ball, m)
    lhs = field_outer.laplacian(y / s2)
    rhs = s2 ** (0.5 * (m + 2)) * field_ball.laplacian(y)
    return float(lhs), float(rhs)
