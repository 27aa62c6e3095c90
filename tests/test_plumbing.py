"""Tests for the compactification charts and the modified Liouville form."""

import math

import numpy as np
import pytest

from slaglab.errors import GradingError
from slaglab.geometry import AngleVector, symplectic_form
from slaglab.lawlor import LawlorNeck
from slaglab.plumbing import (
    DarbouxCoords,
    PlumbingChart,
    bump_h,
    compactified_graph_value,
    compactified_potential,
    darboux_tangent,
    exterior_derivative_residual,
    from_darboux,
    liouville_ambient,
    liouville_tilde,
    omega_darboux,
    sphere_chart,
    sphere_chart_inverse,
    to_darboux,
)


def _chart(m=3, T=100.0):
    phis = np.linspace(0.8, 1.3, m)
    return PlumbingChart(AngleVector(phis), T=T)


def test_flat_plane_maps_to_zero_y():
    chart = _chart()
    z = np.array([1.0, -2.0, 0.5], dtype=complex)
    coords = to_darboux(z, chart)
    np.testing.assert_allclose(coords.y, 0.0, atol=1e-15)


def test_rotated_plane_maps_to_zero_x():
    chart = _chart()
    base = np.array([0.7, -1.1, 2.0])
    z = np.exp(1j * chart.phis.phis) * base
    coords = to_darboux(z, chart)
    np.testing.assert_allclose(coords.x, 0.0, atol=1e-12)
    np.testing.assert_allclose(coords.y, np.sin(chart.phis.phis) * base, atol=1e-12)


def test_darboux_round_trip():
    chart = _chart()
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        back = from_darboux(to_darboux(z, chart), chart)
        np.testing.assert_allclose(back, z, atol=1e-12)


def test_omega_is_standard_in_darboux_coordinates():
    # the shear is linear, so the pullback check is exact at any point
    chart = _chart()
    rng = np.random.default_rng(1)
    for _ in range(500):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        ux, uy = darboux_tangent(u, chart)
        vx, vy = darboux_tangent(v, chart)
        assert omega_darboux(ux, uy, vx, vy) == pytest.approx(
            symplectic_form(u, v), abs=1e-10
        )


def test_sphere_chart_reference_radius():
    x = np.array([math.sqrt(math.e - 1.0), 0.0, 0.0])
    xt = sphere_chart(x)
    assert np.linalg.norm(xt) == pytest.approx(1.0, abs=1e-14)


def test_sphere_chart_round_trip_12_decades():
    rng = np.random.default_rng(2)
    for r in np.geomspace(0.5, 1e6, 40):
        x = rng.normal(size=3)
        x *= r / np.linalg.norm(x)
        back = sphere_chart_inverse(sphere_chart(x))
        assert np.max(np.abs(back - x)) / r < 1e-12


def test_sphere_chart_radius_decreasing_to_zero():
    radii = np.geomspace(1.0, 1e8, 17)
    values = [np.linalg.norm(sphere_chart(np.array([r, 0.0, 0.0]))) for r in radii]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.06


def test_compactified_power_law_closed_form():
    # the inverse-radius graph function in the chart: (e^{1/rt} - 1)^{-1/2}
    m = 3
    func = lambda p: float(np.linalg.norm(p)) ** (2 - m)
    for rt in (0.5, 0.2, 0.1):
        xt = np.array([rt, 0.0, 0.0])
        expected = math.expm1(1.0 / rt) ** -0.5
        assert compactified_graph_value(func, 2 - m, xt) == pytest.approx(
            expected, rel=1e-12
        )
    assert compactified_graph_value(func, 2 - m, np.zeros(3)) == 0.0


def test_compactified_value_decays_faster_than_powers():
    # beyond every power: f-tilde / rt^5 is eventually decreasing and < 1
    m = 3
    func = lambda p: float(np.linalg.norm(p)) ** (2 - m)
    ratios = []
    for rt in (0.05, 0.02, 0.01):
        xt = np.array([rt, 0.0, 0.0])
        ratios.append(compactified_graph_value(func, 2 - m, xt) / rt**5)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[1] < 1.0 and ratios[2] < 1.0


def test_compactified_zero_function():
    assert compactified_graph_value(lambda p: 0.0, -1.0, np.array([0.3, 0, 0])) == 0.0


def test_compactified_rejects_nonnegative_rate():
    with pytest.raises(GradingError):
        compactified_graph_value(lambda p: 1.0, 0.0, np.array([0.3, 0, 0]))


def test_monotone_decay_of_value_and_gradient():
    m = 3
    func = lambda p: float(np.linalg.norm(p)) ** (2 - m)
    values = []
    grads = []
    h = 1e-6
    for rt in (0.2, 0.1, 0.05):
        xt = np.array([rt, 0.0, 0.0])
        values.append(compactified_graph_value(func, 2 - m, xt))
        grad = np.zeros(m)
        for i in range(m):
            e = np.zeros(m)
            e[i] = h
            grad[i] = (
                compactified_graph_value(func, 2 - m, xt + e)
                - compactified_graph_value(func, 2 - m, xt - e)
            ) / (2 * h)
        grads.append(float(np.linalg.norm(grad)))
    assert values[0] > values[1] > values[2] > 0
    assert grads[0] > grads[1] > grads[2] > 0


def _coords_with_gap(rng, m, gap, scale):
    x = rng.standard_normal(m)
    y = rng.standard_normal(m)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    base = 0.3 * scale
    if gap >= 0:
        return DarbouxCoords(x * math.sqrt(gap + base * base), y * base)
    return DarbouxCoords(x * base, y * math.sqrt(-gap + base * base))


def test_liouville_tilde_region_formulas():
    chart = _chart(T=50.0)
    rng = np.random.default_rng(3)
    scale = math.sqrt(2 * chart.T)
    for _ in range(20):
        vx = rng.standard_normal(3)
        vy = rng.standard_normal(3)
        # middle region: the ambient form
        coords = _coords_with_gap(rng, 3, float(rng.uniform(-0.9, 0.9)) * chart.T, scale)
        assert liouville_tilde(coords, vx, vy, chart) == pytest.approx(
            liouville_ambient(coords, vx, vy), abs=1e-12
        )
        # outer regions: the two cotangent-bundle forms
        coords = _coords_with_gap(rng, 3, float(rng.uniform(2.1, 5.0)) * chart.T, scale)
        assert liouville_tilde(coords, vx, vy, chart) == pytest.approx(
            -float(coords.y @ vx), abs=1e-10
        )
        coords = _coords_with_gap(rng, 3, -float(rng.uniform(2.1, 5.0)) * chart.T, scale)
        assert liouville_tilde(coords, vx, vy, chart) == pytest.approx(
            float(coords.x @ vy), abs=1e-10
        )


def test_flat_sphere_is_exact_with_zero_potential():
    # y = 0 far out: lambda-tilde vanishes on tangent vectors of {y = 0}
    chart = _chart(T=10.0)
    x = np.array([8.0, 3.0, 1.0])  # sum x^2 = 74 >= 2T
    coords = DarbouxCoords(x, np.zeros(3))
    vx = np.array([1.0, -0.4, 0.2])
    assert liouville_tilde(coords, vx, np.zeros(3), chart) == 0.0


def test_exterior_derivative_is_omega_across_regions():
    chart = _chart(T=100.0)
    rng = np.random.default_rng(4)
    scale = math.sqrt(2 * chart.T)
    worst = 0.0
    gaps = [0.0, 0.5 * chart.T, -0.5 * chart.T, 1.5 * chart.T, -1.5 * chart.T,
            3.0 * chart.T, -3.0 * chart.T]
    for gap in gaps:
        for _ in range(4):
            coords = _coords_with_gap(rng, 3, gap, scale)
            worst = max(
                worst, exterior_derivative_residual(coords, chart, step=1e-5)
            )
    assert worst < 1e-6


def test_liouville_tilde_smooth_across_band_boundaries():
    # values and first finite differences agree across the region boundaries
    chart = _chart(T=50.0)
    rng = np.random.default_rng(5)
    vx = rng.standard_normal(3)
    vy = rng.standard_normal(3)
    scale = math.sqrt(2 * chart.T)
    for boundary in (chart.T, 2 * chart.T, -chart.T, -2 * chart.T):
        for eps in (1e-4, -1e-4):
            inner = _coords_with_gap(rng, 3, boundary - abs(eps), scale)
            # move the same point across the boundary radially in x
            gap_shift = boundary + abs(eps)
            outer = DarbouxCoords(
                inner.x * math.sqrt(
                    max(gap_shift + inner.y @ inner.y, 1e-12) / (inner.x @ inner.x)
                ),
                inner.y,
            )
            v_in = liouville_tilde(inner, vx, vy, chart)
            v_out = liouville_tilde(outer, vx, vy, chart)
            assert v_out == pytest.approx(v_in, abs=1e-4 * (1 + abs(v_in)))


def test_compactified_potential_switch():
    assert compactified_potential(1.25, 0.5, "interior", 9.0) == 1.75
    assert compactified_potential(1.25, 0.5, "infty0", 9.0) == 0.0
    assert compactified_potential(1.25, 0.5, "inftyPhi", 2.5) == 2.5
    with pytest.raises(ValueError):
        compactified_potential(0.0, 0.0, "nowhere", 0.0)


def test_bump_correction_vanishes_along_neck_ends():
    # along the flat end of a Lawlor neck, h -> 0 (slope check on |h|)
    neck = LawlorNeck([1.0, 2.0, 3.0])
    chart = PlumbingChart(AngleVector(neck.phis), T=1.0)
    x_unit = np.array([0.5, math.sqrt(0.5), 0.5])
    values = []
    for y in (-6.0, -12.0, -24.0):
        sample_point = neck.point(y, x_unit).point
        coords = to_darboux(sample_point, chart)
        values.append(abs(bump_h(coords, chart)))
    assert values[0] > values[1] > values[2]


# ---------------------------------------------------------------------------
# the batched Liouville-form stencil against scalar oracles
# ---------------------------------------------------------------------------

def _eta_scalar(t, T):
    """The bump profile written branch by branch."""
    def ramp(u):
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return 1.0
        return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))

    if t >= 0.0:
        return ramp((t - T) / T)
    return -ramp((-t - T) / T)


def _eta_prime_scalar(t, T):
    u = (abs(t) - T) / T
    if u <= 0.0 or u >= 1.0:
        return 0.0
    return 30.0 * u * u * (1.0 - u) ** 2 / T


def test_eta_on_arrays_equals_scalar_branches():
    for T in (1.0, 50.0, 100.0):
        chart = _chart(T=T)
        edges = [0.0, -0.0, T, -T, 2 * T, -2 * T, 1e300, -1e300,
                 np.nextafter(T, 0.0), np.nextafter(2 * T, np.inf)]
        ts = np.concatenate([np.linspace(-3 * T, 3 * T, 1201), edges])
        eta = [_eta_scalar(float(t), T) for t in ts]
        eta_p = [_eta_prime_scalar(float(t), T) for t in ts]
        assert np.array_equal(chart.eta(ts), eta)
        assert np.array_equal(chart.eta_prime(ts), eta_p)
        assert [chart.eta(float(t)) for t in ts] == eta
        assert [chart.eta_prime(float(t)) for t in ts] == eta_p


def _residual_by_scalar_loop(coords, chart, step):
    """d(lambda_tilde) - omega from one `liouville_tilde` call per component
    and stencil point."""
    m = chart.m
    dim = 2 * m

    def components(q):
        c = DarbouxCoords(q[:m], q[m:])
        return np.array([liouville_tilde(c, e[:m], e[m:], chart) for e in np.eye(dim)])

    q0 = np.concatenate([coords.x, coords.y])
    h = step * (1.0 + float(np.linalg.norm(q0)))
    partials = np.empty((dim, dim))
    for a, e in enumerate(np.eye(dim)):
        partials[a] = (-components(q0 + 2 * h * e) + 8.0 * components(q0 + h * e)
                       - 8.0 * components(q0 - h * e) + components(q0 - 2 * h * e)) / (12.0 * h)
    worst = 0.0
    for a in range(dim):
        for b in range(a + 1, dim):
            expected = 1.0 if b == a + m else 0.0
            worst = max(worst, abs(partials[a, b] - partials[b, a] - expected))
    return worst


@pytest.mark.parametrize("m", [3, 5, 8])
def test_batched_exterior_residual_matches_scalar_loop(m):
    rng = np.random.default_rng(20 + m)
    for T in (1.0, 100.0):
        chart = _chart(m, T)
        scale = math.sqrt(2 * T)
        # middle region, both transition bands, both outer regions
        for gap in np.array([0.3, -0.6, 1.3, 1.8, -1.2, -1.7, 2.5, -3.0]) * T:
            coords = _coords_with_gap(rng, m, gap, scale)
            for step in (1e-4, 1e-5):
                batched = exterior_derivative_residual(coords, chart, step=step)
                assert batched == pytest.approx(
                    _residual_by_scalar_loop(coords, chart, step), abs=1e-10)
                assert batched < 1e-6
