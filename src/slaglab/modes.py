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

so c_0 = 1 and c_1 = (K - c0) / (2 alpha).  Unless the bracket vanishes at
some integer l (then A is a polynomial), the c_l grow factorially and the
series is asymptotic only; it is summed to its smallest term, which near
t = 0 leaves an exponentially small error.  Away from 0 the linear ODE is
solved by Chebyshev-Lobatto collocation (Trefethen, Spectral Methods in
MATLAB, 2000) on panels whose ends grow geometrically, seeded from the
series deep inside its reliable region; series and collocation must agree
on the overlap window.  The collocation error estimate is the gap between
N and 2N nodes, and a gap above tolerance raises instead of returning an
unchecked value.

When K > c0, A is strictly increasing from A(0) = 1 and its logarithmic
derivative A'/A stays within [0, (K - c0) / (2 alpha)], with the right
endpoint attained at t = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .errors import DimensionMismatchError
from .graphs import ScalarField, monomial_values, row_sums

SERIES_FLOOR = 1e-22
SERIES_TERMS = 600
COLLOCATION_NODES = 24           # N; the error estimate compares N and 2N
COLLOCATION_TOL = 1e-10          # bound on the relative N/2N gap
PANEL_RATIO = 2.0                # panel ends grow geometrically by at most this


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
    term; returns (value, error_estimate).

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


@lru_cache(maxsize=None)
def _lobatto(n: int):
    """Chebyshev-Lobatto nodes on [-1, 1] in ascending order, barycentric
    weights, and the matrices J, J^2 that integrate the degree-n
    interpolant of nodal values once and twice from the left end."""
    x = -np.cos(np.pi * np.arange(n + 1) / n)
    w = (-1.0) ** np.arange(n + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    antiderivative = np.array(
        [chebyshev.chebint(col, lbnd=-1.0) for col in np.eye(n + 1)]
    ).T
    integrate = chebyshev.chebvander(x, n + 1) @ antiderivative @ np.linalg.inv(
        chebyshev.chebvander(x, n)
    )
    integrate[0] = 0.0
    return x, w, integrate, integrate @ integrate


def _collocate(n, ends, seed, m, k, alpha, damping, constant):
    """Values and t-derivatives of A at the n+1 nodes of every panel.

    The unknown on a panel [a, b] is A'' at its nodes.  A' and A are its
    spectral integrals from a, with the left-end slope and value as the
    integration constants, and the ODE is collocated at every node; unlike
    differentiation matrices, the integrals keep the system well
    conditioned.  Every panel is solved for the unit seeds (1, 0) and (0, 1)
    in batched solves; the seed of each panel is the right-end value and
    slope of the panel before it, and the first one comes from the series.
    """
    x, _, integrate, integrate2 = _lobatto(n)
    shift = constant - k * (m + k - 2)
    half = 0.5 * (ends[1:] - ends[:-1])[:, None]
    offset = half * (x + 1.0)                     # t - a at the nodes
    t = ends[:-1, None] + offset
    drift = 2.0 * (alpha + damping * t)
    unit = np.empty((len(half), n + 1, 2))
    unit_slopes = np.empty_like(unit)
    # batches of at most 8192 matrix entries keep every temporary below
    # glibc's 128 KB mmap and trim thresholds; past them each solve at N = 48
    # takes about 230 page faults for fresh pages, more than the batches cost
    chunk = max(1, 8192 // (n + 1) ** 2)
    for c in (slice(p, p + chunk) for p in range(0, len(half), chunk)):
        once = half[c, :, None] * integrate
        twice = (half[c] * half[c])[:, :, None] * integrate2
        system = drift[c, :, None] * once + shift * twice
        system[:, np.arange(n + 1), np.arange(n + 1)] += 4.0 * t[c] * t[c]
        rhs = np.stack([np.full_like(t[c], -shift), -drift[c] - shift * offset[c]], axis=2)
        curvature = np.linalg.solve(system, rhs)
        np.matmul(once, curvature, out=unit_slopes[c])
        np.matmul(twice, curvature, out=unit[c])
    unit_slopes[:, :, 1] += 1.0
    unit[:, :, 0] += 1.0
    unit[:, :, 1] += offset
    seeds = np.empty((len(ends) - 1, 2))
    seeds[0] = seed
    for p in range(1, len(seeds)):
        seeds[p] = unit[p - 1, n] @ seeds[p - 1], unit_slopes[p - 1, n] @ seeds[p - 1]
    values = np.einsum("pij,pj->pi", unit, seeds)
    slopes = np.einsum("pij,pj->pi", unit_slopes, seeds)
    return values, slopes


def _n2n_gap(coarse, fine) -> float:
    """Largest relative gap between the N-node and 2N-node solutions on the
    N nodes (every other 2N node), over values and slopes."""
    gap = 0.0
    for low, high in zip(coarse, fine):
        high = high[:, ::2]
        gap = max(gap, float(np.max(np.abs(low - high) / np.maximum(1.0, np.abs(high)))))
    return gap


def _barycentric(x, w, s, rows):
    """Interpolate rows[i] (values on the nodes x, weights w) at s[i]."""
    diff = s[:, None] - x[None, :]
    exact = diff == 0.0
    diff[exact] = 1.0
    q = w / diff
    out = row_sums(q * rows) / row_sums(q)
    hit = exact.any(axis=1)
    out[hit] = rows[hit][exact[hit]]
    return out


@dataclass
class RadialSolution:
    """Radial factor A: asymptotic series near 0, spectral collocation beyond.

    Evaluation uses the series on [0, t_switch] and barycentric
    interpolation of the collocation solution on [t_switch, t_max];
    `overlap_window` exposes the interval where both representations are
    reliable and must agree.  `panel_count` and `error_estimate` (the
    relative gap between N and 2N collocation nodes) say how the
    collocation part was obtained.
    """

    m: int
    k: int
    alpha: float
    damping: float
    constant: float
    t_max: float
    t_switch: float
    t_seed: float
    coeffs: np.ndarray
    panel_ends: np.ndarray
    node_values: np.ndarray
    node_slopes: np.ndarray
    error_estimate: float

    @property
    def eigenvalue(self) -> int:
        return self.k * (self.m + self.k - 2)

    @property
    def panel_count(self) -> int:
        return len(self.panel_ends) - 1

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

    def _collocated(self, t: np.ndarray, deriv: bool) -> np.ndarray:
        x, w, _, _ = _lobatto(self.node_values.shape[1] - 1)
        ends = self.panel_ends
        panel = np.clip(np.searchsorted(ends, t, side="right") - 1, 0, len(ends) - 2)
        left, right = ends[panel], ends[panel + 1]
        s = np.clip(2.0 * (t - left) / (right - left) - 1.0, -1.0, 1.0)
        rows = (self.node_slopes if deriv else self.node_values)[panel]
        return _barycentric(x, w, s, rows)

    def values(self, t, deriv: bool = False) -> np.ndarray:
        """A (or A' with deriv=True) at every entry of an array of t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0.0):
            raise ValueError("t must be nonnegative")
        near = t <= self.t_switch
        far = t[~near]
        if far.size and far.max() > self.t_max + 1e-12:
            raise ValueError(f"t = {far.max()} beyond solved range {self.t_max}")
        out = np.empty(t.shape)
        out[near] = [self.series_value(float(tt), deriv) for tt in t[near]]
        out[~near] = self._collocated(np.minimum(far, self.t_max), deriv)
        return out

    def value(self, t: float) -> float:
        return float(self.values(t)[0])

    def derivative(self, t: float) -> float:
        return float(self.values(t, deriv=True)[0])

    def __call__(self, t: float) -> float:
        return self.value(t)

    def overlap_window(self, points: int = 7) -> np.ndarray:
        return np.linspace(self.t_seed, self.t_switch, points)

    def overlap_disagreement(self, points: int = 7) -> float:
        window = self.overlap_window(points)
        series = np.array([self.series_value(float(t)) for t in window])
        collocated = self._collocated(window, deriv=False)
        return float(np.max(np.abs(series - collocated) / np.maximum(1.0, np.abs(series))))


def solve_radial_mode(m: int, k: int, alpha: float, t_max: float = 2.0,
                      damping=None, constant=None) -> RadialSolution:
    """Solve the radial hierarchy on [0, t_max] (series + collocation).

    Defaults to the damping/constant pair (m+6, 3(m+1)), whose threshold
    K > 3 (m+1) governs the monotonicity and log-derivative bounds.  The
    handoff point is t_switch = min(0.01, alpha/10), halved while the
    smallest term of the value or the derivative series there is not yet
    below 1e-10.  From t_seed = t_switch/10, deep inside the region where
    the optimally truncated series is reliable, the linear ODE is solved by
    Chebyshev-Lobatto collocation on panels whose ends grow by a ratio of at
    most 2 up to t_max, once with N and once with 2N nodes.  The 2N solution
    is kept; a relative N/2N gap above COLLOCATION_TOL raises RuntimeError.
    """
    if m < 3 or k < 0 or alpha <= 0.0 or t_max <= 0.0:
        raise ValueError("need m >= 3, k >= 0, alpha > 0, t_max > 0")
    damping = default_damping(m) if damping is None else float(damping)
    constant = default_constant(m) if constant is None else float(constant)
    coeffs = _series_coefficients(m, k, alpha, damping, constant)
    t_switch = min(0.01, alpha / 10.0)
    for _ in range(40):
        if (_series_sum(coeffs, t_switch)[1] < 1e-10
                and _series_sum(coeffs, t_switch, deriv=True)[1] < 1e-10):
            break
        t_switch *= 0.5
    else:
        raise RuntimeError("series unreliable at every candidate handoff point")
    t_seed = t_switch / 10.0
    seed = (_series_sum(coeffs, t_seed)[0], _series_sum(coeffs, t_seed, deriv=True)[0])
    t_end = max(t_max, t_switch)
    panels = math.ceil(math.log(t_end / t_seed) / math.log(PANEL_RATIO) - 1e-9)
    ends = t_seed * (t_end / t_seed) ** (np.arange(panels + 1) / panels)
    ends[-1] = t_end
    args = (ends, seed, m, k, alpha, damping, constant)
    coarse = _collocate(COLLOCATION_NODES, *args)
    fine = _collocate(2 * COLLOCATION_NODES, *args)
    gap = _n2n_gap(coarse, fine)
    if not gap <= COLLOCATION_TOL:
        raise RuntimeError(
            f"radial collocation N/2N gap {gap:.3e} exceeds {COLLOCATION_TOL:.0e} "
            f"at (m, k, alpha) = ({m}, {k}, {alpha})"
        )
    return RadialSolution(
        m=m, k=k, alpha=alpha, damping=damping, constant=constant,
        t_max=t_max, t_switch=t_switch, t_seed=t_seed, coeffs=coeffs,
        panel_ends=ends, node_values=fine[0], node_slopes=fine[1],
        error_estimate=gap,
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
