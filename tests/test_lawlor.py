"""Tests for the Lawlor neck family."""

import math
import subprocess
import sys

import numpy as np
import pytest

from slaglab.errors import GradingError
from slaglab.lawlor import LawlorNeck, lawlor_invert, oriented_sphere_basis

from oracles import (
    angle_integrand,
    area_integrand,
    tanh_sinh_partial,
    tanh_sinh_real_line,
)


def test_P_removable_singularity():
    assert LawlorNeck([1.0, 1.0, 1.0]).P(0.0) == pytest.approx(3.0, abs=1e-15)


def test_P_polynomial_value():
    # (1+1)(1+1)(1+1) - 1 = 7 at x = 1
    assert LawlorNeck([1.0, 1.0, 1.0]).P(1.0) == pytest.approx(7.0, rel=1e-14)


def test_P_against_expanded_polynomial():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a = rng.uniform(0.2, 4.0, size=4)
        x = rng.uniform(-3.0, 3.0)
        if abs(x) < 1e-3:
            continue
        poly = np.prod([1.0 + ak * x * x for ak in a]) - 1.0
        assert LawlorNeck(a).P(x) == pytest.approx(poly / x**2, rel=1e-12)


def test_P_leading_growth():
    a = np.array([0.5, 2.0, 1.5])
    x = 1e4
    leading = np.prod(a) * x ** (2 * len(a) - 2)
    assert LawlorNeck(a).P(x) == pytest.approx(leading, rel=1e-6)


def test_P_is_inf_where_x_squared_overflows():
    neck = LawlorNeck([1.0, 2.0, 3.0])
    for x in (1e100, 1e160, -1e200):
        assert neck.P(x) == math.inf


def test_symmetric_angles():
    neck = LawlorNeck([1.0, 1.0, 1.0])
    np.testing.assert_allclose(neck.phis, np.pi / 3, atol=1e-11)
    assert neck.A > 0


def test_angle_sum_is_pi():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = int(rng.integers(3, 6))
        a = rng.uniform(0.1, 10.0, size=m)
        neck = LawlorNeck(a)
        assert abs(neck.angle_sum - math.pi) < 1e-8
        assert np.all(neck.phis > 0) and np.all(neck.phis < math.pi)


def test_angles_against_tanh_sinh_oracle():
    a = [1.0, 1.0, 4.0]
    neck = LawlorNeck(a)
    for k in range(3):
        oracle = tanh_sinh_real_line(angle_integrand(neck, k), neck.cutoff, order=240)
        assert neck.phis[k] == pytest.approx(oracle, abs=1e-9)
    oracle_a = tanh_sinh_real_line(area_integrand(neck), neck.cutoff, order=240)
    assert neck.A == pytest.approx(oracle_a, abs=1e-9)


def test_profile_half_angle_at_zero():
    neck = LawlorNeck([1.0, 1.0, 1.0])
    _, psis = neck.profile(0.0)
    np.testing.assert_allclose(psis, neck.phis / 2.0, atol=1e-11)


def test_profile_flat_end_asymptote():
    z, _ = LawlorNeck([1.0, 2.0, 3.0]).profile(-60.0)
    assert np.max(np.abs(np.angle(z))) < 1e-3


def test_profile_monotone_increasing_with_limits():
    neck = LawlorNeck([1.0, 2.0, 3.0])
    grid = np.linspace(-4.0, 4.0, 9)
    values = np.array([neck.psi(y) for y in grid])
    assert np.all(np.diff(values, axis=0) > 0)
    # psi_k runs from 0 at the flat end to phi_k at the rotated end
    np.testing.assert_allclose(neck.psi(0.25 * neck.cutoff), neck.phis, atol=1e-8)
    assert np.max(neck.psi(-0.25 * neck.cutoff)) < 1e-8


def test_profile_against_cumulative_oracle():
    a = [1.0, 2.0, 3.0]
    neck = LawlorNeck(a)
    psis = neck.psi(1.0)
    for k in range(3):
        oracle = tanh_sinh_partial(
            angle_integrand(neck, k), 1.0, neck.cutoff, order=240
        )
        assert psis[k] == pytest.approx(oracle, abs=1e-9)


def test_point_symmetric_axis():
    sample = LawlorNeck([1.0, 1.0, 1.0]).point(0.0, np.array([1.0, 0.0, 0.0]))
    assert abs(sample.point[0]) == pytest.approx(1.0, abs=1e-12)
    assert np.angle(sample.point[0]) == pytest.approx(np.pi / 6, abs=1e-11)
    assert sample.point[1] == 0 and sample.point[2] == 0


def test_point_is_special_lagrangian():
    neck = LawlorNeck([1.0, 2.0, 3.0])
    rng = np.random.default_rng(2)
    for _ in range(40):
        y = float(4.0 * rng.standard_normal())
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        sample = neck.point(y, x)
        assert sample.omega_residual() < 1e-8
        assert sample.im_volume_residual() < 1e-8
        assert abs(sample.theta) < 1e-8
        # orthonormal Lagrangian frame: the column matrix is unitary
        vol = np.linalg.det(sample.frame.vectors)
        assert abs(abs(vol) - 1.0) < 1e-10


def test_potential_half_at_symmetric_origin():
    neck = LawlorNeck([2.0, 2.0, 2.0])
    assert neck.potential(0.0) == pytest.approx(neck.A / 2.0, abs=1e-12)


def test_potential_strictly_increasing_with_limits():
    neck = LawlorNeck([0.5, 1.0, 2.0])
    grid = np.linspace(-6.0, 6.0, 13)
    values = [neck.potential(y) for y in grid]
    assert np.all(np.diff(values) > 0)
    assert 0.0 < neck.potential(-1e6) < 1e-5


def test_invariant_matches_angle_normalization():
    for a in ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]):
        neck = LawlorNeck(a)
        assert neck.invariant_from_potential_limits() == pytest.approx(
            neck.A, abs=1e-8
        )
        assert neck.A > 0


def test_invariant_against_oracle():
    neck = LawlorNeck([1.0, 2.0, 3.0])
    oracle = tanh_sinh_real_line(area_integrand(neck), neck.cutoff, order=240)
    assert neck.invariant_from_potential_limits() == pytest.approx(oracle, abs=1e-9)


def test_tilde_angles_and_invariant():
    neck = LawlorNeck([1.0, 2.0, 3.0])
    tilde = neck.tilde()
    assert tilde.angle_sum == pytest.approx((neck.m - 1) * math.pi, abs=1e-8)
    assert tilde.invariant == pytest.approx(-neck.A, abs=1e-12)
    assert tilde.invariant < 0


def test_tilde_pointwise_rotation():
    neck = LawlorNeck([1.0, 2.0, 3.0])
    tilde = neck.tilde()
    rng = np.random.default_rng(3)
    rotation = np.exp(1j * (np.pi - neck.phis))
    for _ in range(100):
        y = float(3.0 * rng.standard_normal())
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        base = neck.point(y, x)
        rotated = tilde.point(y, x)
        np.testing.assert_allclose(rotated.point, rotation * base.point, atol=1e-12)
        assert rotated.frame.max_omega_residual() < 1e-8


def test_tilde_stays_special_lagrangian():
    tilde = LawlorNeck([1.0, 1.0, 2.5]).tilde()
    sample = tilde.point(0.7, np.array([0.6, 0.8, 0.0]))
    vol = np.linalg.det(sample.frame.vectors)
    assert abs(np.imag(vol)) < 1e-8


def test_invert_symmetric_target():
    result = lawlor_invert([np.pi / 3] * 3, 1.0)
    assert result.converged
    assert np.max(result.a) - np.min(result.a) < 1e-8


def test_invert_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = rng.uniform(0.1, 10.0, size=3)
        neck = LawlorNeck(a)
        result = lawlor_invert(neck.phis, neck.A)
        assert result.converged
        np.testing.assert_allclose(result.a, a, atol=1e-6)


def test_invert_rejects_bad_angle_sum():
    with pytest.raises(GradingError):
        lawlor_invert([0.5, 0.5, 0.5], 1.0)
    with pytest.raises(GradingError):
        lawlor_invert([np.pi / 3] * 3, -1.0)


def test_parameter_map_injective_on_samples():
    rng = np.random.default_rng(5)
    seen = []
    for _ in range(8):
        a = rng.uniform(0.2, 5.0, size=3)
        neck = LawlorNeck(a)
        seen.append((a, np.concatenate([neck.phis, [neck.A]])))
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            if np.max(np.abs(seen[i][0] - seen[j][0])) > 1e-3:
                assert np.max(np.abs(seen[i][1] - seen[j][1])) > 1e-8


def test_rejects_nonpositive_coefficients():
    with pytest.raises(ValueError):
        LawlorNeck([1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        LawlorNeck([1.0, 0.0, 1.0])


def test_potential_differential_is_lambda():
    # df/dy = lambda(d/dy) for the area potential f(y) = Int dx / (2 sqrt(P))
    from slaglab.geometry import liouville_form

    neck = LawlorNeck([1.0, 2.0, 0.5])
    x_unit = np.array([0.0, 0.6, 0.8])
    h = 1e-6
    for y in (-2.5, -1.0, 0.0, 0.3, 1.7, 4.0):
        df = (neck.potential(y + h) - neck.potential(y - h)) / (2 * h)
        point, tangent = neck.radial_tangent(y, x_unit)
        assert df == pytest.approx(liouville_form(point, tangent), abs=1e-7)


def test_oriented_sphere_basis_orthonormal_and_oriented():
    rng = np.random.default_rng(6)
    for m in range(3, 13):
        directions = [rng.standard_normal(m) for _ in range(4)]
        for k in range(m):
            for sign in (1.0, -1.0):
                e = np.zeros(m)
                e[k] = sign
                directions.append(e)
        for sign in (0.0, -0.0):
            x = rng.standard_normal(m)
            x[0] = sign
            directions.append(x)
        for x in directions:
            x = x / np.linalg.norm(x)
            basis = oriented_sphere_basis(x)
            frame = np.column_stack([x, basis])
            assert np.max(np.abs(frame.T @ frame - np.eye(m))) < 1e-12
            assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-12)


def test_library_source_imports_no_scipy():
    # every import statement, also those inside functions, in every module
    import ast
    from pathlib import Path

    import slaglab

    files = sorted(Path(slaglab.__file__).parent.rglob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_import_loads_no_scipy():
    code = ("import sys, slaglab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
