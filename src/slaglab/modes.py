"""Asymptotic modes of the linearized expander equation on an outer annulus.

Decaying solutions of

    sum_j d^2 f/dx_j^2 + alpha (sum_j x_j df_j - 2 f) = 0

separate over the unit sphere.  Writing f = r^{-b} e^{-alpha r^2 / 2}
p(x/r) A(r^{-2}) with p a degree-k homogeneous harmonic polynomial
(eigenvalue K = k (m + k - 2) of the sphere Laplacian), the radial factor
solves a linear ODE singular at t = r^{-2} = 0:

    4 t^2 A'' + 2 (alpha + c1 t) A' + (c0 - K) A - alpha (m + 2 - b) A / t = 0,

with c1 = 2 b - m + 4 and c0 = b (b - m + 2).  The t^{-1} term is absorbed
exactly when the weight exponent is b = m + 2, which is also the decay rate
of the equation's WKB branch; then c1 = m + 8, c0 = 4 (m + 2), and assembled
single modes solve the linearized equation identically
(`solve_separation_radial`, `assemble_expansion`).

The degree-k harmonics come from a closed-form basis with integer
coefficients, orthonormalized on the sphere one parity class of exponents
at a time (`harmonic_basis`).

The hierarchy with damping c1 = m + 6 and constant c0 = 3 (m + 1) (the
weight exponent b = m + 1, whose residual against the full equation is the
lower-order term -alpha f) is exposed as the default of `solve_radial_mode`;
its threshold K > 3 (m + 1) governs the monotonicity and log-derivative
bounds checked by the verification suite.

For either coefficient pair, substituting A = sum c_l t^l gives the
recursion (match the t^l coefficient; 4 t^2 A'' contributes 4 l (l-1) c_l)

    2 alpha (l+1) c_{l+1} = -(4 l^2 + (2 c1 - 4) l + c0 - K) c_l,

so c_0 = 1 and c_1 = (K - c0) / (2 alpha).  The bracket is 4 (l + a)(l - beta)
with (a, beta) = ((k+m+1)/2, (k-3)/2) on the default hierarchy and
((k+m+2)/2, (k-4)/2) on the separation one, so the series is the asymptotic
expansion of z^a U(a, a + beta + 1, z) at z = alpha/(2t) (DLMF 13.7.3), and
A is that Tricomi function exactly.  Its integral form (DLMF 13.4.4) gives,
with s = 2t/alpha and I_p(s) = Int_0^inf e^{-v^2} v^{2a-1} (1 + s v^2)^p dv,

    A(t) = I_beta(s) / I_beta(0),    A'(t) = (2 beta / alpha) J(s) / I_beta(0),
    J(s) = Int_0^inf e^{-v^2} v^{2a+1} (1 + s v^2)^{beta-1} dv,

evaluated by `quadrature.integrate_rows`, which raises past its N/2N error
bound.  When beta is a nonnegative integer, A is a polynomial; otherwise the
c_l grow factorially, and the series summed to its smallest term checks the
closed form near t = 0.

When K > c0, A is strictly increasing from A(0) = 1 and its logarithmic
derivative A'/A stays within [0, (K - c0) / (2 alpha)], with the right
endpoint attained at t = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from . import quadrature
from .errors import DimensionMismatchError
from .graphs import ScalarField, monomial_values, row_sums

SERIES_FLOOR = 1e-22
SERIES_TERMS = 600
_TAIL_MASS = 1e-15


# ---------------------------------------------------------------------------
# homogeneous harmonic polynomials
# ---------------------------------------------------------------------------

def monomials(m: int, k: int):
    """All multi-indices of total degree k in m variables, sorted."""
    if k == 0:
        return [tuple([0] * m)]
    out = set()
    for combo in itertools.combinations_with_replacement(range(m), k):
        beta = [0] * m
        for i in combo:
            beta[i] += 1
        out.add(tuple(beta))
    return sorted(out)


def harmonic_dimension(m: int, k: int) -> int:
    """dim of degree-k harmonics: C(m+k-1, k) - C(m+k-3, k-2)."""
    if k == 0:
        return 1
    if k == 1:
        return m
    return math.comb(m + k - 1, k) - math.comb(m + k - 3, k - 2)


def _laplacian(poly: dict) -> dict:
    """Flat Laplacian of a polynomial stored as {exponents: integer}."""
    out: dict = {}
    for beta, c in poly.items():
        for i, b in enumerate(beta):
            if b >= 2:
                key = beta[:i] + (b - 2,) + beta[i + 1:]
                out[key] = out.get(key, 0) + c * b * (b - 1)
    return out


def _closed_form_harmonics(m: int, k: int):
    """A basis of the degree-k harmonics on R^m with integer coefficients.

    For s in {0, 1} and every monomial q of degree k - s in x' = (x_2..x_m),
    h = sum_j (-1)^j x_1^(2j+s)/(2j+s)! Lap'^j q, where Lap' is the Laplacian
    in x'; here h is scaled by k! to integers.  Then d_1^2 h = -Lap' h, so h
    is harmonic, and these C(m+k-2, k) + C(m+k-3, k-1) polynomials are
    independent (Axler-Bourdon-Ramey, Harmonic Function Theory, ch. 5).
    Every term of h has the exponent parities (s, q mod 2).
    """
    for s in range(min(k, 1) + 1):
        for q in monomials(m - 1, k - s):
            h, term, j = {}, {q: 1}, 0
            while term:
                scale = (-1) ** j * (math.factorial(k) // math.factorial(2 * j + s))
                for beta, c in term.items():
                    h[(2 * j + s,) + beta] = scale * c
                term = _laplacian(term)
                j += 1
            yield h


@dataclass(frozen=True)
class HarmonicPolynomial:
    """Homogeneous harmonic polynomial stored by monomial coefficients."""

    m: int
    degree: int
    coeffs: dict

    @cached_property
    def _table(self):
        exponents = np.array(list(self.coeffs), dtype=int).reshape(-1, self.m)
        return exponents, np.array(list(self.coeffs.values()), dtype=float)

    def evaluate(self, points) -> np.ndarray:
        """p at every row of an (n, m) array of points."""
        exponents, c = self._table
        return row_sums(monomial_values(points, exponents) * c)

    def __call__(self, x) -> float:
        return float(self.evaluate(np.asarray(x, dtype=float)[None, :])[0])


def _sphere_moment_matrix(exponents: np.ndarray) -> np.ndarray:
    """Sphere moments of all products of two monomials of one degree k:
    M[a, b] = int x^beta over S^{m-1}, beta = beta_a + beta_b, which is 0
    unless every beta_i is even and else 2 prod_i Gamma((beta_i + 1)/2) /
    Gamma((|beta| + m)/2), from a table of lgamma at half-integers."""
    merged = exponents[:, None, :] + exponents[None, :, :]
    m = exponents.shape[1]
    total = int(merged[0, 0].sum())
    half_lgamma = np.array([math.lgamma(0.5 * (b + 1)) for b in range(total + 1)])
    log_moment = half_lgamma[merged].sum(axis=2) - math.lgamma(0.5 * (total + m))
    even = np.all(merged % 2 == 0, axis=2)
    return np.where(even, 2.0 * np.exp(log_moment), 0.0)


@lru_cache(maxsize=None)
def harmonic_basis(m: int, k: int) -> tuple:
    """L^2(S^{m-1})-orthonormal basis of the degree-k harmonics on R^m.

    With C the coefficients of `_closed_form_harmonics`, rows scaled to unit
    sphere norm, and M the closed-form sphere moments of monomials, C becomes
    G^{-1/2} C for the Gram matrix G = C M C^T.  Each generator lies in one
    parity class of exponents mod 2, and moments across classes are exactly
    0, so this runs per class; the basis is ordered by class.
    """
    if m < 3:
        raise DimensionMismatchError("m must be >= 3")
    if k < 0:
        raise ValueError("degree must be nonnegative")
    classes: dict = {}
    for h in _closed_form_harmonics(m, k):
        classes.setdefault(tuple(b % 2 for b in next(iter(h))), []).append(h)
    basis = []
    for _, group in sorted(classes.items()):
        cols = sorted(set().union(*group))
        raw = np.array([[h.get(beta, 0) for beta in cols] for h in group], dtype=float)
        gram = raw @ _sphere_moment_matrix(np.array(cols, dtype=int)) @ raw.T
        # unit diagonal first: at (5, 8) this takes the condition number of G
        # from 3e5 to 20, and the orthonormality defect down with it
        scale = np.diag(gram) ** -0.5
        raw *= scale[:, None]
        gram *= np.outer(scale, scale)
        evals, evecs = np.linalg.eigh(gram)
        if np.min(evals) <= 0:
            raise RuntimeError("sphere Gram matrix is not positive definite")
        transform = evecs @ np.diag(evals ** -0.5) @ evecs.T
        coeffs = transform.T @ raw
        support = (transform.T != 0.0) @ (raw != 0.0)
        basis.extend(
            HarmonicPolynomial(m, k, {beta: float(c) for beta, c, used
                                      in zip(cols, row, used_row) if used})
            for row, used_row in zip(coeffs, support)
        )
    return tuple(basis)


# ---------------------------------------------------------------------------
# the singular radial ODE
# ---------------------------------------------------------------------------

def default_damping(m: int) -> int:
    return m + 6


def default_constant(m: int) -> int:
    return 3 * (m + 1)


def separation_damping(m: int) -> int:
    return m + 8


def separation_constant(m: int) -> int:
    return 4 * (m + 2)


def taylor_recursion_bracket(m: int, k: int, l: int, damping=None, constant=None) -> float:
    """Coefficient multiplying c_l in the step to c_{l+1}."""
    damping = default_damping(m) if damping is None else damping
    constant = default_constant(m) if constant is None else constant
    big_k = k * (m + k - 2)
    return 4.0 * l * l + (2.0 * damping - 4.0) * l + constant - big_k


def taylor_c1(m: int, k: int, alpha: float, constant=None) -> float:
    """c_1 = (K - c0) / (2 alpha), the ODE evaluated at t = 0 with A(0) = 1."""
    constant = default_constant(m) if constant is None else constant
    return (k * (m + k - 2) - constant) / (2.0 * alpha)


def _series_coefficients(m, k, alpha, damping, constant) -> np.ndarray:
    """c_0 = 1, c_1, ..., c_SERIES_TERMS of the series at t = 0, cut after
    the first non-finite coefficient."""
    l = np.arange(SERIES_TERMS, dtype=float)
    bracket = taylor_recursion_bracket(m, k, l, damping, constant)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.cumprod(np.concatenate(([1.0], -bracket / (2.0 * alpha * (l + 1.0)))))
    finite = np.isfinite(coeffs)
    return coeffs if finite.all() else coeffs[:int(np.argmin(finite)) + 1]


def _series_sum(coeffs, t, deriv=False):
    """Sum the asymptotic series at t, truncated at its globally smallest
    term; returns (value, size of the last term kept).

    The sum stops early at the first term below SERIES_FLOOR relative to the
    partial sum, or once the terms have grown for four steps to 1e4 times the
    smallest one so far.
    """
    index = np.arange(coeffs.size)
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 past overflow
        if deriv:
            terms = index * coeffs * t ** np.maximum(index - 1, 0)
        else:
            terms = coeffs * t ** index
    finite = np.isfinite(terms)
    if not finite.all():  # past overflow the terms carry no information
        terms = terms[:max(2, int(np.argmin(finite)))]
        index = index[:terms.size]
    partials = np.cumsum(terms)
    mags = np.abs(terms)
    tail, tail_partials = mags[1:], partials[1:]
    smallest = np.fmin.accumulate(tail)
    before = np.concatenate(([math.inf], smallest[:-1]))
    last_new = np.maximum.accumulate(np.where(tail < before, index[1:], 0))
    floor_hit = tail < SERIES_FLOOR * np.maximum(1.0, np.abs(tail_partials))
    grown = (index[1:] - last_new >= 4) & (
        tail > 1e4 * np.maximum(smallest, 1e-300)
    )
    stops = np.flatnonzero(floor_hit | grown)
    if stops.size and floor_hit[stops[0]]:
        return tail_partials[stops[0]], tail[stops[0]]
    window = tail[:stops[0] + 1] if stops.size else tail
    best = 1 + int(np.argmin(window))
    return partials[best], mags[best]


@dataclass
class RadialSolution:
    """Radial factor A(t) = z^a U(a, a + beta + 1, z), z = alpha/(2t), on
    [0, t_max], with integrals cut at `cutoff`.  `coeffs` is the asymptotic
    series at t = 0, which checks the closed form on `overlap_window`."""

    m: int
    k: int
    alpha: float
    damping: float
    constant: float
    t_max: float
    t_switch: float
    coeffs: np.ndarray
    a: float
    beta: float
    cutoff: float

    @property
    def eigenvalue(self) -> int:
        return self.k * (self.m + self.k - 2)

    def log_derivative_bound(self) -> float:
        """Upper bound for A'/A when the eigenvalue exceeds the ODE's
        constant term."""
        if self.eigenvalue <= self.constant:
            raise ValueError(
                "bound requires k (m+k-2) > the constant term; "
                f"got {self.eigenvalue} <= {self.constant}"
            )
        return (self.eigenvalue - self.constant) / (2.0 * self.alpha)

    def series_value(self, t: float, deriv: bool = False) -> float:
        return float(_series_sum(self.coeffs, t, deriv)[0])

    def _integrands(self, s: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The rows e^{-v^2} v^{2a-1} (1 + s v^2)^beta, then the rows
        e^{-v^2} v^{2a+1} (1 + s v^2)^{beta-1}, for every entry of s."""
        vv = v * v
        q = np.multiply.outer(s, vv)
        value = np.exp((2.0 * self.a - 1.0) * np.log(v) - vv + self.beta * np.log1p(q))
        return np.concatenate((value, value * (vv / (1.0 + q))))

    def values(self, t, deriv: bool = False) -> np.ndarray:
        """A (or A' with deriv=True) at every entry of an array of t, from
        one quadrature call over the values, the slopes and the t = 0 row."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0.0):
            raise ValueError("t must be nonnegative")
        if not np.all(t <= self.t_max + 1e-12):
            raise ValueError(f"t = {t.max()} beyond solved range {self.t_max}")
        s = np.concatenate(([0.0], 2.0 * t.ravel() / self.alpha))
        # rows past the float range are inf, so their N/2N gap is NaN and
        # the quadrature raises QuadratureError
        with np.errstate(over="ignore", invalid="ignore"):
            rows = quadrature.integrate_rows(
                partial(self._integrands, s), 0.0, math.inf, self.cutoff,
                (math.sqrt(0.5 * self.alpha / self.t_max), 1.0),
            )
        norm = rows[0]
        if deriv:
            out = rows[s.size + 1:] / norm * (2.0 * self.beta / self.alpha)
        else:
            out = rows[1:s.size] / norm
        return out.reshape(t.shape)

    def value(self, t: float) -> float:
        return float(self.values(t)[0])

    def derivative(self, t: float) -> float:
        return float(self.values(t, deriv=True)[0])

    def __call__(self, t: float) -> float:
        return self.value(t)

    def overlap_window(self, points: int = 7) -> np.ndarray:
        return np.linspace(self.t_switch / 10.0, self.t_switch, points)

    def overlap_disagreement(self, points: int = 7) -> float:
        window = self.overlap_window(points)
        series = np.array([self.series_value(float(t)) for t in window])
        closed = self.values(window)
        return float(np.max(np.abs(series - closed) / np.maximum(1.0, np.abs(series))))


def solve_radial_mode(m: int, k: int, alpha: float, t_max: float = 2.0,
                      damping=None, constant=None) -> RadialSolution:
    """The radial factor of the hierarchy on [0, t_max], in closed form.

    Defaults to the damping/constant pair (m+6, 3(m+1)), whose threshold
    K > 3 (m+1) governs the monotonicity and log-derivative bounds.  The
    series-check window ends at t_switch = min(0.01, alpha/10), halved while
    the smallest term of the value or the derivative series there is not
    yet below 1e-10.  A pair whose bracket has no real roots, or no positive
    a, raises ValueError.
    """
    if m < 3 or k < 0 or not 0.0 < alpha < math.inf or not 0.0 < t_max < math.inf:
        raise ValueError("need m >= 3, k >= 0, finite alpha > 0 and t_max > 0")
    damping = default_damping(m) if damping is None else float(damping)
    constant = default_constant(m) if constant is None else float(constant)
    # the bracket is 4 (l + a)(l - beta): a is the larger root of
    # x^2 - (c1 - 2)/2 x + (c0 - K)/4 and -beta the other
    half_sum = 0.5 * (damping - 2.0)
    disc = half_sum * half_sum - (constant - k * (m + k - 2))
    if disc < 0.0 or half_sum + math.sqrt(disc) <= 0.0:
        raise ValueError("the recursion bracket needs real roots, the larger one positive")
    a = 0.5 * (half_sum + math.sqrt(disc))
    beta = a - half_sum
    # for v >= 1 every row is at most (1 + s_max)^beta+ v^p e^{-v^2} with
    # p = 2a + 1 + 2 beta+; as v^p e^{-v^2/2} <= (p/e)^{p/2} and
    # Int_X^inf e^{-v^2/2} dv <= e^{-X^2/2}/X, the tail past X >= 1 is below
    # (1 + s_max)^beta+ (p/e)^{p/2} e^{-X^2/2} = _TAIL_MASS Gamma(a)/2 at X
    growth = max(beta, 0.0)
    p = 2.0 * a + 1.0 + 2.0 * growth
    log_tail = (growth * math.log1p(2.0 * t_max / alpha) + 0.5 * p * (math.log(p) - 1.0)
                - math.log(0.5 * _TAIL_MASS) - math.lgamma(a))
    coeffs = _series_coefficients(m, k, alpha, damping, constant)
    t_switch = min(0.01, alpha / 10.0)
    for _ in range(40):
        if (_series_sum(coeffs, t_switch)[1] < 1e-10
                and _series_sum(coeffs, t_switch, deriv=True)[1] < 1e-10):
            break
        t_switch *= 0.5
    else:
        raise RuntimeError("series unreliable at every candidate window end")
    return RadialSolution(
        m=m, k=k, alpha=alpha, damping=damping, constant=constant,
        t_max=t_max, t_switch=t_switch, coeffs=coeffs, a=a, beta=beta,
        cutoff=math.sqrt(max(1.0, 2.0 * log_tail)),
    )


def solve_separation_radial(m: int, k: int, alpha: float,
                            t_max: float = 2.0) -> RadialSolution:
    """Radial factor of the exact separation: paired with the weight
    r^{-(m+2)} e^{-alpha r^2/2} and a degree-k harmonic, the assembled mode
    solves the linearized expander equation identically.  Uses the
    damping/constant pair (m+8, 4(m+2)), the unique one whose weight absorbs
    every singular term."""
    return solve_radial_mode(m, k, alpha, t_max,
                             damping=separation_damping(m),
                             constant=separation_constant(m))


# ---------------------------------------------------------------------------
# mode assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionMode:
    """A degree-k harmonic polynomial paired with its radial factor."""

    poly: HarmonicPolynomial
    radial: RadialSolution

    def __post_init__(self):
        if self.poly.degree != self.radial.k or self.poly.m != self.radial.m:
            raise DimensionMismatchError("polynomial and radial factor disagree")

    @property
    def k(self) -> int:
        return self.radial.k

    @property
    def m(self) -> int:
        return self.radial.m

    @property
    def alpha(self) -> float:
        return self.radial.alpha


def assemble_expansion_batch(modes, points) -> np.ndarray:
    """f(x) = r^{-(m+2)} e^{-alpha r^2/2} sum_k p_k(x/r) A_k(r^{-2}) at every
    row x of an (n, m) array of points, one numpy pass per mode.

    All modes must share m and alpha, and their radial factors must belong
    to the separation hierarchy (see `solve_separation_radial`), so that the
    assembled field solves the linearized expander equation; r must be
    positive and inside the radial solutions' solved range.
    """
    modes = list(modes)
    points = np.asarray(points, dtype=float)
    if not modes:
        return np.zeros(points.shape[0])
    m = modes[0].m
    alpha = modes[0].alpha
    for mode in modes:
        if mode.m != m or mode.alpha != alpha:
            raise DimensionMismatchError("modes mix different m or alpha")
        if mode.radial.constant != separation_constant(m) or (
            mode.radial.damping != separation_damping(m)
        ):
            raise ValueError(
                "assembly needs separation-hierarchy radial factors; build "
                "them with solve_separation_radial"
            )
    r = np.linalg.norm(points, axis=1)
    if np.any(r <= 0.0):
        raise ValueError("assembly requires r > 0")
    t = r ** -2
    directions = points / r[:, None]
    total = sum(mode.poly.evaluate(directions) * mode.radial.values(t) for mode in modes)
    return r ** (-(m + 2)) * np.exp(-0.5 * alpha * r * r) * total


def assemble_expansion(modes, x) -> float:
    """The assembled expansion at one point x (see `assemble_expansion_batch`)."""
    return float(assemble_expansion_batch(modes, np.asarray(x, dtype=float)[None, :])[0])


def expansion_field(modes) -> ScalarField:
    """The assembled expansion as a ScalarField (finite-difference
    derivatives, each stencil assembled in one batch), for residual checks
    against the linearized operator."""
    modes = list(modes)
    if not modes:
        raise ValueError("need at least one mode")

    def batch(points):
        return assemble_expansion_batch(modes, points)

    return ScalarField(lambda x: assemble_expansion(modes, x), modes[0].m, batch=batch)
