"""Tests for graph residual operators and the inversion transform."""

import math

import numpy as np
import pytest

from slaglab.errors import BranchCutError
from slaglab.graphs import (
    ScalarField,
    complex_det_lu,
    expander_graph_residual,
    inversion_laplacian_pair,
    inversion_transform,
    linearized_expander_residual,
    polynomial_field,
    sl_graph_residual,
)


def _random_cubic_coeffs(rng, m):
    from slaglab.modes import monomials

    coeffs = {}
    for degree in (0, 1, 2, 3):
        for beta in monomials(m, degree):
            if rng.uniform() < 0.5:
                coeffs[beta] = float(rng.uniform(-0.5, 0.5))
    return coeffs


def _random_cubic(rng, m):
    return polynomial_field(_random_cubic_coeffs(rng, m), m)


def test_scalar_field_fd_matches_analytic():
    rng = np.random.default_rng(0)
    field = _random_cubic(rng, 3)
    fd_field = ScalarField(field.func, 3)
    for _ in range(10):
        x = rng.normal(size=3)
        np.testing.assert_allclose(
            fd_field.gradient(x), field.gradient(x), atol=1e-8
        )
        np.testing.assert_allclose(
            fd_field.hessian(x), field.hessian(x), atol=1e-6
        )


def test_sl_residual_zero_for_constant():
    field = polynomial_field({(0, 0, 0): 5.0}, 3)
    assert sl_graph_residual(field, np.zeros(3)) == 0.0


def test_sl_residual_conjugate_pair_cancellation():
    # Hessian eigenvalues (1, -1, 0): det (1+i)(1-i)(1) = 2 is real
    field = polynomial_field({(2, 0, 0): 0.5, (0, 2, 0): -0.5}, 3)
    rng = np.random.default_rng(1)
    for _ in range(5):
        assert abs(sl_graph_residual(field, rng.normal(size=3))) < 1e-13


def test_sl_residual_against_direct_determinant():
    rng = np.random.default_rng(2)
    for _ in range(25):
        field = _random_cubic(rng, 3)
        x = rng.normal(size=3)
        hess = field.hessian(x)
        oracle = float(np.imag(np.linalg.det(np.eye(3) + 1j * hess)))
        assert sl_graph_residual(field, x) == pytest.approx(oracle, abs=1e-10)


def test_complex_det_lu_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(25):
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        log_abs, phase = complex_det_lu(mat)
        det = np.linalg.det(mat)
        assert log_abs == pytest.approx(math.log(abs(det)), abs=1e-10)
        delta = (phase - float(np.angle(det))) % (2 * math.pi)
        assert min(delta, 2 * math.pi - delta) < 1e-10


def test_expander_residual_zero_function():
    field = polynomial_field({}, 3)
    assert expander_graph_residual(field, 1.0, 0.0, np.zeros(3)) == 0.0


def test_expander_residual_alpha_zero_constant_phase():
    # an SL graph has phase 0, so the alpha = 0, c = 0 residual vanishes
    field = polynomial_field({(2, 0, 0): 0.5, (0, 2, 0): -0.5}, 3)
    assert abs(expander_graph_residual(field, 0.0, 0.0, np.array([1.0, -2.0, 0.5]))) < 1e-13


def test_expander_residual_linearization():
    # residual(eps g)/eps converges to the linearized operator applied to g
    rng = np.random.default_rng(4)
    coeffs = _random_cubic_coeffs(rng, 3)
    field = polynomial_field(coeffs, 3)
    x = rng.normal(size=3)
    lin = linearized_expander_residual(field, 0.8, x)
    for eps in (1e-3, 1e-4):
        scaled = polynomial_field({b: eps * c for b, c in coeffs.items()}, 3)
        ratio = expander_graph_residual(scaled, 0.8, 0.0, x) / eps
        assert ratio == pytest.approx(lin, abs=50 * eps**2 + 1e-9)


def test_branch_cut_detection():
    # three Hessian angles of pi/3 each put the determinant phase on the cut
    lam = math.tan(math.pi / 3)
    field = polynomial_field(
        {(2, 0, 0): lam / 2, (0, 2, 0): lam / 2, (0, 0, 2): lam / 2}, 3
    )
    with pytest.raises(BranchCutError):
        expander_graph_residual(field, 1.0, 0.0, np.zeros(3))


def test_inversion_constant_becomes_power_law():
    m = 3
    const = polynomial_field({(0,) * m: 2.0}, m)
    field = inversion_transform(const, m)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.normal(size=m)
        r = np.linalg.norm(x)
        assert field.value(x) == pytest.approx(2.0 * r ** (2 - m), rel=1e-12)


def test_inversion_round_trip():
    rng = np.random.default_rng(6)
    m = 4
    field = _random_cubic(rng, m)
    double = inversion_transform(inversion_transform(field, m), m)
    for _ in range(100):
        x = rng.normal(size=m)
        if np.linalg.norm(x) < 0.1:
            continue
        assert double.value(x) == pytest.approx(field.value(x), abs=1e-10)


def test_inversion_rejects_origin():
    field = polynomial_field({(0, 0, 0): 1.0}, 3)
    transformed = inversion_transform(field, 3)
    with pytest.raises(ValueError):
        transformed.value(np.zeros(3))


def test_inversion_laplacian_identity():
    rng = np.random.default_rng(7)
    for m in (3, 4, 5):
        field = _random_cubic(rng, m)
        for _ in range(20):
            y = rng.normal(size=m)
            y *= rng.uniform(0.6, 1.2) / np.linalg.norm(y)
            lhs, rhs = inversion_laplacian_pair(field, m, y)
            assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-8)


# ---------------------------------------------------------------------------
# batched stencils
# ---------------------------------------------------------------------------

def _assert_close_rel(batched, scalar, rel):
    batched, scalar = np.asarray(batched), np.asarray(scalar)
    scale = max(1e-300, float(np.max(np.abs(scalar))))
    assert float(np.max(np.abs(batched - scalar))) <= rel * scale


def _expansion_case():
    from slaglab.modes import (
        ExpansionMode, expansion_field, harmonic_basis, solve_separation_radial,
    )

    m, alpha = 4, 1.0
    modes = [ExpansionMode(harmonic_basis(m, k)[1], solve_separation_radial(m, k, alpha))
             for k in (2, 3)]
    return m, alpha, modes, expansion_field(modes)


def test_expansion_field_batch_matches_independent_formula():
    m, alpha, modes, field = _expansion_case()
    rng = np.random.default_rng(8)
    points = rng.normal(size=(12, m))
    points *= (rng.uniform(1.0, 6.0, 12) / np.linalg.norm(points, axis=1))[:, None]
    expected = []
    for x in points:
        r = float(np.linalg.norm(x))
        total = 0.0
        for mode in modes:
            poly = sum(c * np.prod((x / r) ** np.array(beta))
                       for beta, c in mode.poly.coeffs.items())
            total += poly * mode.radial.value(r ** -2)
        expected.append(r ** (-(m + 2)) * math.exp(-0.5 * alpha * r * r) * total)
    np.testing.assert_allclose(field.values(points), expected, rtol=1e-13)


def test_batched_stencils_match_scalar_stencils():
    rng = np.random.default_rng(9)
    m, _, _, expansion = _expansion_case()
    cubic = _random_cubic(rng, m)
    for field, radius in ((expansion, (2.0, 6.0)),
                          (inversion_transform(cubic, m), (0.8, 1.6))):
        scalar = ScalarField(field.func, m, step_scale=field.step_scale)
        assert scalar.batch is None and field.batch is not None
        for _ in range(5):
            x = rng.normal(size=m)
            x *= rng.uniform(*radius) / np.linalg.norm(x)
            _assert_close_rel(field.gradient(x), scalar.gradient(x), 1e-12)
            _assert_close_rel(field.hessian(x), scalar.hessian(x), 1e-12)


def test_polynomial_field_derivatives_in_closed_form():
    # p = 2 x^2 y^3 z - 3 x z^2 + 5
    field = polynomial_field({(2, 3, 1): 2.0, (1, 0, 2): -3.0, (0, 0, 0): 5.0}, 3)
    x, y, z = 0.7, -1.3, 0.4
    point = np.array([x, y, z])
    assert field.value(point) == pytest.approx(2 * x**2 * y**3 * z - 3 * x * z**2 + 5, rel=1e-14)
    grad = [4 * x * y**3 * z - 3 * z**2, 6 * x**2 * y**2 * z, 2 * x**2 * y**3 - 6 * x * z]
    np.testing.assert_allclose(field.gradient(point), grad, rtol=1e-14)
    hess = [
        [4 * y**3 * z, 12 * x * y**2 * z, 4 * x * y**3 - 6 * z],
        [12 * x * y**2 * z, 12 * x**2 * y * z, 6 * x**2 * y**2],
        [4 * x * y**3 - 6 * z, 6 * x**2 * y**2, -6 * x],
    ]
    np.testing.assert_allclose(field.hessian(point), hess, rtol=1e-14)
    np.testing.assert_allclose(field.values(np.array([point, 2 * point])),
                               [field.value(point), field.value(2 * point)], rtol=1e-15)


def _counting(field):
    """The same field with a record of the number of points per batch call."""
    calls = []

    def batch(points):
        calls.append(len(points))
        return field.values(points)

    return ScalarField(field.func, field.dim, step_scale=field.step_scale, batch=batch), calls


def test_laplacian_and_jet_equal_hessian_trace_gradient_value():
    rng = np.random.default_rng(10)
    m, alpha, _, expansion = _expansion_case()
    cubic = _random_cubic(rng, m)
    wide = _random_cubic(np.random.default_rng(11), 9)  # past numpy's pairwise-sum block
    cases = [
        (expansion, (2.0, 6.0)),
        (inversion_transform(cubic, m), (0.8, 1.6)),
        (ScalarField(cubic.func, m), (0.5, 2.0)),
        (ScalarField(wide.func, 9, batch=wide.batch), (0.5, 2.0)),
        (ScalarField(cubic.func, m, grad=cubic.grad, batch=cubic.batch), (0.5, 2.0)),
        (cubic, (0.5, 2.0)),  # analytic derivatives
    ]
    for field, radius in cases:
        for _ in range(4):
            x = rng.normal(size=field.dim)
            x *= rng.uniform(*radius) / np.linalg.norm(x)
            value, grad, lap = field.jet(x)
            trace = float(np.trace(field.hessian(x)))
            assert field.laplacian(x) == trace
            assert lap == trace
            assert value == field.value(x)
            assert np.array_equal(grad, field.gradient(x))
            expected = trace + alpha * (float(x @ field.gradient(x)) - 2.0 * field.value(x))
            assert linearized_expander_residual(field, alpha, x) == expected


def test_linearized_residual_is_one_batch_of_the_pure_stencil():
    m, alpha, _, expansion = _expansion_case()
    field, calls = _counting(expansion)
    x = np.array([2.0, -1.0, 0.5, 1.5])
    linearized_expander_residual(field, alpha, x)
    assert calls == [1 + 4 * m]
    calls.clear()
    field.laplacian(x)
    assert calls == [1 + 4 * m]
