"""Tests for the Joyce-Lee-Tsui expander family."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slaglab.checks import TOLERANCES
from slaglab.errors import DimensionMismatchError, GradingError
from slaglab.expanders import JLTExpander, jlt_invert
from slaglab.geometry import liouville_form
from slaglab.lawlor import LawlorNeck, NeckFamily

from oracles import angle_integrand, integrate_segment, tanh_sinh_real_line


def test_P_at_zero():
    assert JLTExpander(1.0, [1.0, 1.0, 1.0]).P(0.0) == pytest.approx(4.0, abs=1e-15)


def test_P_reduces_to_lawlor_at_alpha_zero():
    a = [1.0, 2.0, 3.0]
    family, neck = NeckFamily(0.0, a), LawlorNeck(a)
    for x in (0.3, 1.0, 2.5):
        assert family.P(x) == pytest.approx(neck.P(x), rel=1e-14)


def test_P_against_high_precision_oracle():
    mp.mp.dps = 40
    alpha, a, x = 1.0, [1.0, 2.0, 3.0], 2.0
    oracle = (mp.e ** (alpha * x * x) * mp.fprod(
        [1 + ak * x * x for ak in a]) - 1) / (x * x)
    assert JLTExpander(alpha, a).P(x) == pytest.approx(float(oracle), rel=1e-10)


def test_P_large_argument_no_overflow():
    expander = JLTExpander(2.0, [1.0, 1.0, 1.0])
    value = expander.P(40.0)
    assert math.isinf(value) or value > 1e300  # log-space guard keeps it finite
    assert expander.P(18.0) > 0.0


def test_symmetric_angles_equal():
    expander = JLTExpander(1.0, [2.0, 2.0, 2.0])
    assert np.max(expander.phis) - np.min(expander.phis) < 1e-11


def test_angle_sum_below_pi():
    rng = np.random.default_rng(0)
    for _ in range(8):
        m = int(rng.integers(3, 6))
        alpha = float(rng.uniform(0.3, 2.5))
        a = rng.uniform(0.1, 8.0, size=m)
        expander = JLTExpander(alpha, a)
        assert 0.0 < expander.angle_sum < math.pi
        assert np.all(expander.phis > 0) and np.all(expander.phis < math.pi)


def test_angles_against_tanh_sinh_oracle():
    expander = JLTExpander(1.0, [1.0, 1.0, 1.0])
    for k in range(3):
        oracle = tanh_sinh_real_line(
            angle_integrand(expander, k), expander.cutoff, order=240
        )
        assert expander.phis[k] == pytest.approx(oracle, abs=1e-9)


def test_theta_limits():
    expander = JLTExpander(1.0, [1.0, 2.0, 3.0])
    y_far = 0.9 * expander.cutoff
    assert expander.theta(-y_far) == pytest.approx(0.0, abs=1e-9)
    assert expander.theta(y_far) == pytest.approx(
        expander.angle_sum - math.pi, abs=1e-9
    )


def test_theta_formula_vanishes_on_lawlor():
    # at alpha = 0 the same angle formula must be identically 0 (mod 2 pi)
    neck = LawlorNeck([1.0, 2.0, 3.0])
    for y in (-3.0, -0.5, 0.0, 1.0, 4.0):
        value = float(np.sum(neck.psi(y))) + math.atan2(-neck.inv_sqrt_P(y), -y)
        assert value == pytest.approx(0.0, abs=1e-10)


def test_point_frame_lagrangian_and_potential():
    expander = JLTExpander(1.0, [1.0, 2.0, 3.0])
    rng = np.random.default_rng(1)
    for _ in range(20):
        y = float(2.5 * rng.standard_normal())
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        sample = expander.point(y, x)
        assert sample.omega_residual() < 1e-8
        assert sample.potential == pytest.approx(-sample.theta / (2.0 * 1.0), abs=1e-12)


def test_point_phase_matches_frame_phase():
    expander = JLTExpander(0.7, [0.5, 1.0, 2.0])
    from slaglab.geometry import phase_of_frame

    for y in (-2.0, 0.0, 1.3):
        sample = expander.point(y, np.array([0.6, 0.0, 0.8]))
        frame_theta = phase_of_frame(sample.frame, branch_hint=sample.theta)
        assert frame_theta == pytest.approx(sample.theta, abs=1e-8)


def test_expander_identity_residual_symmetric():
    assert JLTExpander(1.0, [1.0, 1.0, 1.0]).expander_identity_residual(0.0) < 1e-8


def test_expander_identity_residual_random_families():
    rng = np.random.default_rng(2)
    for _ in range(5):
        alpha = float(rng.uniform(0.4, 2.0))
        a = rng.uniform(0.2, 5.0, size=3)
        expander = JLTExpander(alpha, a)
        for _ in range(10):
            y = float(2.0 * rng.standard_normal())
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            assert expander.expander_identity_residual(y, x) < 1e-7


@pytest.mark.parametrize("x_unit, error", [
    ([1.0, 1.0, 1.0], ValueError),  # scales lambda: a false failure
    ([1.0, 0.0], DimensionMismatchError),
], ids=["non-unit", "wrong-length"])
def test_identity_residual_rejects_bad_direction(x_unit, error):
    expander = JLTExpander(1.0, [1.0, 2.0, 3.0])
    with pytest.raises(error):
        expander.expander_identity_residual(0.3, x_unit)


def test_dtheta_matches_finite_difference_oracle():
    expander = JLTExpander(1.3, [0.8, 1.5, 2.2])
    h = 1e-4
    for y in (-1.5, 0.0, 0.4, 2.0):
        fd = (
            -expander.theta(y + 2 * h)
            + 8.0 * expander.theta(y + h)
            - 8.0 * expander.theta(y - h)
            + expander.theta(y - 2 * h)
        ) / (12.0 * h)
        assert expander.dtheta_dy(y) == pytest.approx(fd, abs=1e-8)


def test_perturbed_curve_breaks_identity():
    expander = JLTExpander(1.0, [1.0, 1.0, 1.0])
    x_unit = np.array([1.0, 0.0, 0.0])

    def residual_perturbed(y):
        point, tangent = expander.radial_tangent(y, x_unit)
        point = point.copy()
        tangent = tangent.copy()
        point[0] *= 1.01
        tangent[0] *= 1.01
        lam = liouville_form(point, tangent)
        return abs(expander.dtheta_dy(y) + 2.0 * expander.alpha * lam)

    assert max(residual_perturbed(y) for y in (-1.0, 0.0, 1.0)) > 1e-3


def test_invariant_closed_form():
    # the area integral A equals the closed form (pi - sum phi)/(2 alpha)
    expander = JLTExpander(2.0, [1.0, 1.0, 1.0])
    expected = (math.pi - expander.angle_sum) / (2.0 * 2.0)
    assert expander.A == pytest.approx(expected, rel=1e-14)
    assert expander.A > 0


def test_invariant_limit_agrees_with_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(5):
        alpha = float(rng.uniform(0.4, 2.5))
        a = rng.uniform(0.2, 6.0, size=3)
        expander = JLTExpander(alpha, a)
        closed = (math.pi - expander.angle_sum) / (2.0 * alpha)
        limit = expander.invariant_from_potential_limits()
        assert closed == pytest.approx(limit, abs=1e-7)
        assert closed > 0


def test_potential_differential_is_lambda():
    # df/dy = lambda(d/dy) for the area potential f(y) = Int dx / (2 sqrt(P))
    expander = JLTExpander(0.9, [1.0, 2.0, 0.5])
    x_unit = np.array([0.0, 0.6, 0.8])
    h = 1e-6
    for y in (-1.0, 0.3, 1.7):
        df = (expander.potential(y + h) - expander.potential(y - h)) / (2 * h)
        point, tangent = expander.radial_tangent(y, x_unit)
        lam = liouville_form(point, tangent)
        assert df == pytest.approx(lam, abs=1e-7)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    log_a=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=6),
    alpha=st.one_of(st.floats(1e-3, 20.0), st.just(0.0)),
    y=st.floats(-6.0, 6.0),
)
def test_one_potential_identities(log_a, alpha, y):
    """theta = -2 alpha f on every member, and at alpha > 0 the area
    integral A equals the closed form (pi - sum phi)/(2 alpha)."""
    family = NeckFamily(alpha, 10.0 ** np.array(log_a))
    sample = family.point(y, np.full(family.m, 1.0 / math.sqrt(family.m)))
    assert abs(sample.theta + 2.0 * alpha * sample.potential) <= 1e-9
    if alpha > 0.0:
        closed = (math.pi - family.angle_sum) / (2.0 * alpha)
        assert abs(closed - family.A) < TOLERANCES["invariant_match_jlt"]


def test_tilde_invariant_formula():
    expander = JLTExpander(1.0, [1.0, 2.0, 3.0])
    tilde = expander.tilde()
    m = expander.m
    expected = ((m - 1) * math.pi - tilde.angle_sum) / (2.0 * expander.alpha)
    assert tilde.invariant == pytest.approx(expected, rel=1e-12)
    assert tilde.invariant < 0
    assert tilde.invariant == pytest.approx(-expander.A, rel=1e-12)


def test_tilde_synthetic_invariant_value():
    # angle sum (m-1) pi + pi/2 at alpha = 1/4 gives invariant -pi
    m = 3
    tilde_sum = (m - 1) * math.pi + 0.5 * math.pi
    assert ((m - 1) * math.pi - tilde_sum) / (2.0 * 0.25) == pytest.approx(-math.pi)


def test_tilde_pointwise_rotation():
    expander = JLTExpander(1.0, [1.0, 2.0, 3.0])
    tilde = expander.tilde()
    rng = np.random.default_rng(4)
    rotation = np.exp(1j * (np.pi - expander.phis))
    for _ in range(100):
        y = float(2.0 * rng.standard_normal())
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        base = expander.point(y, x)
        rotated = tilde.point(y, x)
        np.testing.assert_allclose(rotated.point, rotation * base.point, atol=1e-12)


def test_tilde_grading_limits():
    expander = JLTExpander(1.0, [1.0, 1.0, 1.0])
    tilde = expander.tilde()
    y_far = 0.9 * expander.cutoff
    x = np.array([1.0, 0.0, 0.0])
    # flat end of the tilde is the y -> +inf end
    assert tilde.point(y_far, x).theta == pytest.approx(0.0, abs=1e-9)
    expected = tilde.angle_sum - (expander.m - 1) * math.pi
    assert tilde.point(-y_far, x).theta == pytest.approx(expected, abs=1e-9)


def test_invert_symmetric_target():
    expander = JLTExpander(1.0, [2.0, 2.0, 2.0])
    result = jlt_invert(1.0, expander.phis)
    assert result.converged
    assert np.max(result.a) - np.min(result.a) < 1e-8


def test_invert_round_trip():
    rng = np.random.default_rng(5)
    for alpha in (0.5, 1.0, 2.0):
        a = rng.uniform(0.1, 10.0, size=3)
        expander = JLTExpander(alpha, a)
        result = jlt_invert(alpha, expander.phis)
        assert result.converged
        np.testing.assert_allclose(result.a, a, atol=1e-6)


def test_invert_rejects_angle_sum_at_least_pi():
    with pytest.raises(GradingError):
        jlt_invert(1.0, [2.0, 2.0, 2.0])


def test_alpha_zero_rejected():
    with pytest.raises(ValueError):
        JLTExpander(0.0, [1.0, 1.0, 1.0])


def test_alpha_to_zero_continuity():
    a = [1.0, 2.0, 3.0]
    jlt = JLTExpander(1e-3, a)
    lawlor = LawlorNeck(a)
    assert np.max(np.abs(jlt.phis - lawlor.phis)) < 1e-2


def test_alpha_to_zero_invariant_limit():
    # every member's potential is the primitive of lambda|_L, so the
    # expander invariant must approach the Lawlor invariant
    for a in ([1.0, 2.0, 3.0], [0.5, 1.0, 2.0, 4.0]):
        lawlor_A = LawlorNeck(a).A
        gaps = [abs(JLTExpander(alpha, a).A - lawlor_A)
                for alpha in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
        assert np.all(np.diff(gaps) < 0.0)
        assert gaps[-1] < 1e-3


def test_decay_rate_toward_the_cone():
    # distance to the rotated plane decays like exp(-alpha r^2 / 2): on a
    # far-out grid the slope of log(distance) against r^2 is -alpha/2 within
    # 10% (the residual polynomial prefactor accounts for the deviation).
    # Distances come from the angle-tail integrals; the direct route through
    # the ambient point would lose them to floating-point cancellation.
    alpha = 1.0
    expander = JLTExpander(alpha, [1.0, 2.0, 3.0])
    x = np.array([0.5, math.sqrt(0.5), 0.5])
    ys = np.linspace(6.0, 10.0, 9)
    dist = []
    for y in ys:
        tails = np.array(
            [
                integrate_segment(
                    angle_integrand(expander, k), float(y),
                    expander.cutoff, expander.cutoff,
                )
                for k in range(3)
            ]
        )
        radii = np.sqrt(1.0 / expander.a + y * y)
        dist.append(float(np.linalg.norm(radii * np.abs(np.sin(tails)) * x)))
    r_sq = ys**2 + float(np.sum(x**2 / expander.a))
    slope = np.polyfit(r_sq, np.log(dist), 1)[0]
    assert slope == pytest.approx(-0.5 * alpha, rel=0.1)


def test_jlt_point_function():
    sample = JLTExpander(1.0, [1.0, 1.0, 1.0]).point(0.0, np.array([1.0, 0.0, 0.0]))
    assert sample.omega_residual() < 1e-10
