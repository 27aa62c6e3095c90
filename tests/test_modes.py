"""Tests for harmonic polynomial bases and the singular radial ODE."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slaglab import checks
from slaglab.errors import QuadratureError
from slaglab.graphs import linearized_expander_residual
from slaglab.modes import (
    ExpansionMode,
    solve_separation_radial,
    assemble_expansion,
    expansion_field,
    harmonic_basis,
    harmonic_dimension,
    monomials,
    solve_radial_mode,
    taylor_c1,
    taylor_recursion_bracket,
)

from oracles import (
    laplacian_matrix,
    max_laplacian_coeff,
    sphere_inner,
    sphere_monomial_moment,
)


# ---------------------------------------------------------------------------
# harmonic polynomials
# ---------------------------------------------------------------------------

def test_degree_zero_basis_is_constant():
    basis = harmonic_basis(3, 0)
    assert len(basis) == 1
    # normalized against the sphere area 4 pi
    value = basis[0](np.array([0.3, -0.4, 0.5]))
    assert abs(value) == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-12)


def test_degree_one_basis_spans_linear_functions():
    basis = harmonic_basis(4, 1)
    assert len(basis) == 4
    for poly in basis:
        assert all(sum(beta) == 1 for beta in poly.coeffs)


def test_dimension_3_2_is_5():
    assert len(harmonic_basis(3, 2)) == 5


@pytest.mark.parametrize("m,k", [(3, 2), (3, 4), (4, 3), (5, 2), (4, 5)])
def test_dimension_matches_laplacian_rank_oracle(m, k):
    mat = laplacian_matrix(m, k)
    rank = np.linalg.matrix_rank(mat.astype(float))
    expected = len(monomials(m, k)) - rank
    assert harmonic_dimension(m, k) == expected
    assert len(harmonic_basis(m, k)) == expected


def test_basis_is_harmonic_in_coefficients():
    for (m, k) in ((3, 3), (4, 4), (5, 3)):
        for poly in harmonic_basis(m, k):
            scale = max(abs(c) for c in poly.coeffs.values())
            assert max_laplacian_coeff(poly) <= 1e-12 * scale


@pytest.mark.parametrize("k", range(9))
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_basis_dimension_harmonicity_and_parity_classes(m, k):
    # dimension against the rank oracle, harmonicity against the Laplacian
    # matrix and against the termwise Laplacian of each polynomial, and each
    # polynomial inside one parity class of exponents mod 2 with no
    # coefficient that is rounding noise
    basis = harmonic_basis(m, k)
    cols = monomials(m, k)
    lap = laplacian_matrix(m, k)
    rank = np.linalg.matrix_rank(lap.astype(float)) if k >= 2 else 0
    assert len(basis) == harmonic_dimension(m, k) == len(cols) - rank
    index = {beta: i for i, beta in enumerate(cols)}
    coeffs = np.zeros((len(basis), len(cols)))
    for row, poly in zip(coeffs, basis):
        for beta, c in poly.coeffs.items():
            row[index[beta]] = c
    scale = np.max(np.abs(coeffs), axis=1)
    assert np.all(np.abs(lap @ coeffs.T) <= 1e-12 * scale)
    for poly, largest in zip(basis, scale):
        assert max_laplacian_coeff(poly) <= 1e-12 * largest
        assert len({tuple(b % 2 for b in beta) for beta in poly.coeffs}) == 1
        assert min(abs(c) for c in poly.coeffs.values()) >= 1e-12 * largest


def test_basis_is_orthonormal_on_the_sphere():
    basis = harmonic_basis(3, 3)
    n = len(basis)
    for i in range(n):
        for j in range(i, n):
            inner = sphere_inner(basis[i], basis[j])
            assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_sphere_moment_reference_values():
    # surface area of S^2 and the second moment int x^2 = 4 pi / 3
    assert sphere_monomial_moment((0, 0, 0)) == pytest.approx(4 * math.pi, rel=1e-14)
    assert sphere_monomial_moment((2, 0, 0)) == pytest.approx(
        4 * math.pi / 3, rel=1e-14
    )
    assert sphere_monomial_moment((1, 0, 0)) == 0.0


def test_sphere_eigenvalue_by_tangential_differences():
    # for the 0-homogeneous extension u(x) = p(x/|x|) of a degree-k harmonic,
    # the flat Laplacian at |x| = 1 equals -k(m+k-2) p
    rng = np.random.default_rng(0)
    for (m, k) in ((3, 2), (3, 4), (4, 3)):
        lam = k * (m + k - 2)
        for poly in harmonic_basis(m, k)[:3]:
            x = rng.normal(size=m)
            x /= np.linalg.norm(x)
            h = 1e-4
            flat_lap = 0.0
            for i in range(m):
                e = np.zeros(m)
                e[i] = h
                up = poly((x + e) / np.linalg.norm(x + e))
                um = poly((x - e) / np.linalg.norm(x - e))
                flat_lap += (up - 2.0 * poly(x) + um) / (h * h)
            assert flat_lap == pytest.approx(-lam * poly(x), abs=1e-4)


# ---------------------------------------------------------------------------
# the radial ODE
# ---------------------------------------------------------------------------

def _ode_residual_of_series_exact(m, k, alpha_frac, nterms=12):
    """Oracle: plug the truncated series into the ODE with exact rationals
    and return the worst coefficient of t^l for l < nterms - 1."""
    big_k = k * (m + k - 2)
    c = [Fraction(1)]
    for l in range(nterms):
        bracket = Fraction(4 * l * l + (2 * m + 8) * l + 3 * (m + 1) - big_k)
        c.append(-c[l] * bracket / (2 * alpha_frac * (l + 1)))
    worst = Fraction(0)
    for l in range(nterms - 1):
        # coefficient of t^l in 4t^2 A'' + 2(alpha + (m+6)t) A' + (3(m+1)-K) A
        coeff = (
            Fraction(4 * l * (l - 1)) * c[l]
            + 2 * alpha_frac * (l + 1) * c[l + 1]
            + Fraction(2 * (m + 6) * l) * c[l]
            + Fraction(3 * (m + 1) - big_k) * c[l]
        )
        worst = max(worst, abs(coeff))
    return worst


def test_series_recursion_satisfies_ode_exactly():
    for (m, k, alpha) in ((3, 2, Fraction(1)), (4, 5, Fraction(1, 2)), (5, 8, Fraction(2))):
        assert _ode_residual_of_series_exact(m, k, alpha) == 0


def test_c1_matches_ode_at_zero():
    for (m, k, alpha) in ((3, 0, 1.0), (3, 5, 1.0), (5, 8, 0.5)):
        big_k = k * (m + k - 2)
        expected = (big_k - 3 * (m + 1)) / (2 * alpha)
        assert taylor_c1(m, k, alpha) == pytest.approx(expected, rel=1e-15)
        # bracket at l = 0 reproduces -2 alpha c_1
        assert taylor_recursion_bracket(m, k, 0) == pytest.approx(
            -2 * alpha * expected, rel=1e-15
        )


def test_solution_value_at_zero_is_one():
    for (m, k, alpha) in ((3, 1, 0.5), (4, 6, 1.0), (5, 3, 2.0)):
        solution = solve_radial_mode(m, k, alpha)
        assert solution.value(0.0) == 1.0


def test_polynomial_solution_m3_k3_is_constant():
    # eigenvalue 12 equals 3(m+1): the solution is identically 1; at k = 5
    # the series stops after c_1 = 9 and the solution is 1 + 9t
    for k, exact in ((3, lambda t: 1.0), (5, lambda t: 1.0 + 9.0 * t)):
        solution = solve_radial_mode(3, k, 1.0)
        for t in (0.0, 0.3, 1.0, 2.0):
            assert solution.value(t) == pytest.approx(exact(t), abs=1e-11)


def test_series_rk_overlap_agreement():
    worst = 0.0
    for m in (3, 4, 5):
        for k in (0, 3, 5, 8):
            for alpha in (0.5, 1.0, 2.0):
                solution = solve_radial_mode(m, k, alpha)
                worst = max(worst, solution.overlap_disagreement())
    assert worst < 1e-8


def test_increasing_range_when_eigenvalue_large():
    solution = solve_radial_mode(3, 5, 1.0)
    grid = np.linspace(0.0, 1.0, 101)
    values = [solution.value(float(t)) for t in grid]
    assert values[0] == 1.0
    assert all(b > a for a, b in zip(values, values[1:]))
    assert solution.value(1.0) > 1.0


def test_log_derivative_bound_holds():
    solution = solve_radial_mode(3, 5, 1.0)
    grid = np.linspace(0.0, 2.0, 100)
    _, residuals = checks.radial(solution, grid)
    bound = [r for r in residuals if r[1] == "log_derivative_slack"]
    assert bound and checks.passed(bound)


def test_log_derivative_bound_attained_at_zero():
    solution = solve_radial_mode(3, 5, 1.0)
    bound = solution.log_derivative_bound()
    assert taylor_c1(3, 5, 1.0) == pytest.approx(bound, rel=1e-15)
    assert solution.derivative(0.0) == pytest.approx(bound, rel=1e-12)


def test_log_derivative_bound_precondition():
    solution = solve_radial_mode(3, 1, 1.0)
    with pytest.raises(ValueError):
        solution.log_derivative_bound()


def test_radial_check_uses_the_solution_constant():
    # K = 20 is above the default constant 3 (m + 1) = 12 but not above the
    # separation constant 4 (m + 2) = 20, so no log-derivative bound applies
    solution = solve_separation_radial(3, 4, 1.0)
    values, residuals = checks.radial(solution, np.linspace(0.01, 2.0, 50))
    assert "logDerivativeBound" not in values
    assert [key for _, key in residuals] == ["ode_overlap"]
    assert checks.passed(residuals)


# ---------------------------------------------------------------------------
# assembled modes
# ---------------------------------------------------------------------------

def test_assemble_empty_is_zero():
    assert assemble_expansion([], np.array([1.0, 2.0, 2.0])) == 0.0


def test_assembly_is_additive():
    alpha = 1.0
    basis2 = harmonic_basis(3, 2)
    basis3 = harmonic_basis(3, 3)
    mode_a = ExpansionMode(basis2[0], solve_separation_radial(3, 2, alpha, t_max=1.0))
    mode_b = ExpansionMode(basis3[1], solve_separation_radial(3, 3, alpha, t_max=1.0))
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(size=3)
        x *= rng.uniform(2.0, 5.0) / np.linalg.norm(x)
        total = assemble_expansion([mode_a, mode_b], x)
        parts = assemble_expansion([mode_a], x) + assemble_expansion([mode_b], x)
        assert total == pytest.approx(parts, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_single_mode_solves_linearized_equation(k):
    alpha = 1.0
    m = 3
    radial = solve_separation_radial(m, k, alpha, t_max=1.0)
    poly = harmonic_basis(m, k)[0]
    field = expansion_field([ExpansionMode(poly, radial)])
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = rng.normal(size=m)
        x *= rng.uniform(2.0, 6.0) / np.linalg.norm(x)
        assert abs(linearized_expander_residual(field, alpha, x)) < 1e-6


def test_default_hierarchy_residual_is_lower_order_term():
    # with the weight r^{-(m+1)} and the default damping/constant pair the
    # assembled field misses the equation by exactly -alpha f: check it
    alpha, m, k = 1.0, 3, 2
    radial = solve_radial_mode(m, k, alpha, t_max=1.0)
    poly = harmonic_basis(m, k)[0]

    def f(x):
        r = float(np.linalg.norm(x))
        return r ** (-(m + 1)) * math.exp(-0.5 * alpha * r * r) * poly(x / r) * radial.value(r**-2)

    from slaglab.graphs import ScalarField

    field = ScalarField(f, m)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=m)
        x *= rng.uniform(2.0, 4.0) / np.linalg.norm(x)
        residual = linearized_expander_residual(field, alpha, x)
        assert residual == pytest.approx(-alpha * f(x), abs=1e-8)


def test_assembly_rejects_default_hierarchy_radials():
    radial = solve_radial_mode(3, 2, 1.0, t_max=1.0)
    poly = harmonic_basis(3, 2)[0]
    with pytest.raises(ValueError):
        assemble_expansion([ExpansionMode(poly, radial)], np.array([2.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# the closed form against independent oracles
# ---------------------------------------------------------------------------

def _rk_oracle(solution, t_max):
    """DOP853 at rtol 1e-13, seeded from the series at the start of the
    series-check window."""
    from scipy.integrate import solve_ivp

    big_k = solution.eigenvalue

    def rhs(t, y):
        a, ap = y
        app = -(2.0 * (solution.alpha + solution.damping * t) * ap
                + (solution.constant - big_k) * a) / (4.0 * t * t)
        return (ap, app)

    t_seed = float(solution.overlap_window()[0])
    seed = [solution.series_value(t_seed), solution.series_value(t_seed, deriv=True)]
    sol = solve_ivp(rhs, (t_seed, t_max), seed, method="DOP853",
                    rtol=1e-13, atol=1e-15, dense_output=True)
    assert sol.success
    return sol.sol


ORACLE_CASES = [
    (3, 0, 1.0), (4, 3, 2.0), (5, 6, 0.5),
    # edge probes: large k, large alpha, small alpha, steep growth
    (3, 20, 0.1), (3, 2, 10.0), (6, 0, 0.05), (5, 8, 0.5),
]


@pytest.mark.parametrize("separation", [False, True])
@pytest.mark.parametrize("m,k,alpha", ORACLE_CASES)
def test_collocation_matches_runge_kutta_oracle(m, k, alpha, separation):
    # the closed form against DOP853 (named for the solver it first checked)
    solve = solve_separation_radial if separation else solve_radial_mode
    solution = solve(m, k, alpha, t_max=2.0)
    oracle = _rk_oracle(solution, 2.0)
    # at t_switch, the end of the series-check window, the series and the
    # closed form agree in value and derivative
    for deriv in (False, True):
        series = solution.series_value(solution.t_switch, deriv)
        closed = solution.values(np.array([solution.t_switch]), deriv=deriv)[0]
        assert abs(series - closed) <= 1e-9 * max(1.0, abs(closed))
    grid = np.linspace(solution.t_switch, 2.0, 60)
    ref_a, ref_ap = oracle(grid)
    values = np.array([solution.value(float(t)) for t in grid])
    slopes = np.array([solution.derivative(float(t)) for t in grid])
    assert np.all(np.abs(values - ref_a) <= 1e-9 * np.maximum(1.0, np.abs(ref_a)))
    assert np.all(np.abs(slopes - ref_ap) <= 1e-9 * np.maximum(1.0, np.abs(ref_ap)))
    assert solution.overlap_disagreement() < 1e-9


def _tricomi_oracle(a, beta, alpha, t):
    """A = z^a U(a, b, z) and A' = -(a z^a / t)(U(a, b, z) - z U(a+1, b+1, z))
    at z = alpha/(2t), b = a + beta + 1 (DLMF 13.3.22), by mpmath at 30
    digits; at t = 0 the limits 1 and 2 a beta / alpha."""
    import mpmath

    if t == 0.0:
        return 1.0, 2.0 * a * beta / alpha
    with mpmath.workdps(30):
        a, t = mpmath.mpf(a), mpmath.mpf(t)
        b, z = a + beta + 1, mpmath.mpf(alpha) / (2 * t)
        u = mpmath.hyperu(a, b, z)
        value = z ** a * u
        slope = -(a * z ** a / t) * (u - z * mpmath.hyperu(a + 1, b + 1, z))
        return float(value), float(slope)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(3, 8),
    k=st.integers(0, 12),
    log_alpha=st.floats(math.log(0.02), math.log(5.0)),
    separation=st.booleans(),
    t=st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
)
def test_radial_matches_tricomi_u(m, k, log_alpha, separation, t):
    alpha = math.exp(log_alpha)
    if separation:
        solution = solve_separation_radial(m, k, alpha)
        a, beta = (k + m + 2) / 2, (k - 4) / 2
    else:
        solution = solve_radial_mode(m, k, alpha)
        a, beta = (k + m + 1) / 2, (k - 3) / 2
    value, slope = _tricomi_oracle(a, beta, alpha, t)
    assert abs(solution.value(t) - value) <= 1e-12 * max(1.0, abs(value))
    assert abs(solution.derivative(t) - slope) <= 1e-12 * max(1.0, abs(slope))


def test_batched_radial_values_match_scalar_calls():
    solution = solve_separation_radial(4, 3, 1.0)
    grid = np.concatenate([[0.0], solution.overlap_window(), np.linspace(0.02, 2.0, 17)])
    for deriv in (False, True):
        batched = solution.values(grid, deriv=deriv)
        one_by_one = [solution.derivative(t) if deriv else solution.value(t) for t in grid]
        np.testing.assert_array_equal(batched, one_by_one)


def test_radial_quadrature_gap_above_bound_raises(monkeypatch):
    from slaglab import quadrature

    solution = solve_radial_mode(3, 5, 1.0)
    monkeypatch.setattr(quadrature, "DEFAULT_EPSABS", 0.0)
    monkeypatch.setattr(quadrature, "DEFAULT_EPSREL", 0.0)
    with pytest.raises(QuadratureError):
        solution.values(np.array([0.5, 1.0]))


def test_bracket_without_positive_real_roots_rejected():
    # damping 2 and constant K + 1: the roots of x^2 + 1/4 are not real;
    # damping 0 and constant K: the roots are 0 and -1, so a is not positive
    for damping, constant in ((2.0, 31.0), (0.0, 30.0)):
        with pytest.raises(ValueError):
            solve_radial_mode(3, 5, 1.0, damping=damping, constant=constant)


def test_series_derivative_finite_across_overlap_window():
    # the smallest term stays above the floor here, and the terms overflow
    # before they grow by 1e4: the sum must stop at the last finite term
    solution = solve_separation_radial(6, 0, 0.05)
    for t in solution.overlap_window(25):
        assert math.isfinite(solution.series_value(float(t), deriv=True))
        assert math.isfinite(solution.series_value(float(t)))


def test_moment_matrix_matches_sphere_moments():
    from slaglab.modes import _sphere_moment_matrix

    cols = monomials(4, 4)
    matrix = _sphere_moment_matrix(np.array(cols))
    for a, beta in enumerate(cols):
        for b, gamma in enumerate(cols):
            merged = tuple(x + y for x, y in zip(beta, gamma))
            assert matrix[a, b] == pytest.approx(sphere_monomial_moment(merged), rel=1e-13)


def test_larger_basis_is_orthonormal_on_the_sphere():
    basis = harmonic_basis(5, 4)
    for i, j in ((0, 0), (0, 1), (7, 7), (3, 20), (len(basis) - 1, len(basis) - 1)):
        inner = sphere_inner(basis[i], basis[j])
        assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_import_leaves_scipy_integrate_unloaded():
    import subprocess
    import sys

    code = "import sys, slaglab; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _series_sum_loop(coeffs, t, deriv):
    """Reference: the smallest-term truncation rule as a term-by-term loop."""
    partials, mags = [], []
    total, global_min, grown = 0.0, math.inf, 0
    for idx, c in enumerate(coeffs.tolist()):
        term = idx * c * t ** max(idx - 1, 0) if deriv else c * t ** idx
        if idx > 1 and not math.isfinite(term):
            break
        total += term
        partials.append(total)
        mag = abs(term)
        mags.append(mag)
        if idx == 0:
            continue
        if mag < 1e-22 * max(1.0, abs(total)):
            return total, mag
        if mag < global_min:
            global_min, grown = mag, 0
        else:
            grown += 1
        if grown >= 4 and mag > 1e4 * max(global_min, 1e-300):
            break
    best = 1 + int(np.argmin(mags[1:]))
    return partials[best], mags[best]


def test_series_sum_matches_term_by_term_loop():
    from slaglab.modes import _series_coefficients, _series_sum

    for (m, k, alpha, damping, constant) in ((3, 5, 1.0, 9, 12), (5, 8, 0.5, 13, 28),
                                             (6, 0, 0.05, 14, 32), (3, 20, 0.1, 9, 12)):
        coeffs = _series_coefficients(m, k, alpha, damping, constant)
        c, loop = 1.0, [1.0]
        for l in range(len(coeffs) - 1):
            c = -c * taylor_recursion_bracket(m, k, l, damping, constant) / (2.0 * alpha * (l + 1))
            loop.append(c)
        loop = np.array(loop)
        finite = np.isfinite(coeffs) & np.isfinite(loop)
        assert finite.sum() >= len(coeffs) - 2
        np.testing.assert_allclose(coeffs[finite], loop[finite], rtol=1e-12)
        for t in np.concatenate([[0.0], np.geomspace(1e-6, 0.05, 40)]):
            for deriv in (False, True):
                # numpy's power and Python's ** may differ in the last bit
                value, err = _series_sum(coeffs, float(t), deriv)
                ref_value, ref_err = _series_sum_loop(coeffs, float(t), deriv)
                assert value == pytest.approx(ref_value, rel=1e-13, abs=1e-300)
                assert err == pytest.approx(ref_err, rel=1e-13, abs=1e-300)
