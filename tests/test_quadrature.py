"""Tests for the fixed Gauss-Legendre profile rule and the log P it integrates."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slaglab import quadrature
from slaglab.errors import QuadratureError
from slaglab.expanders import JLTExpander
from slaglab.lawlor import LawlorNeck, _log_P

from oracles import angle_integrand, area_integrand, integrate_segment


def _log_P_oracle(alpha, a, x):
    with mp.workdps(50):
        x = mp.mpf(x)
        p = mp.e ** (alpha * x * x) * mp.fprod([1 + mp.mpf(ak) * x * x for ak in a])
        return float(mp.log((p - 1) / (x * x)))


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_log_P_against_high_precision_oracle(alpha):
    a = [1.0, 2.0, 3.0]
    family = LawlorNeck(a) if alpha == 0.0 else JLTExpander(alpha, a)
    xs = np.array([1e-4, 1e-3, 1e-2])
    vectorized = _log_P(alpha, np.array(a), xs)
    for x, value in zip(xs, vectorized):
        oracle = _log_P_oracle(alpha, a, x)
        assert family.log_P(float(x)) == pytest.approx(oracle, rel=1e-14)
        assert value == pytest.approx(oracle, rel=1e-14)


def test_log_P_removable_point_and_underflow():
    a = np.array([1.0, 2.0, 3.0])
    values = _log_P(0.5, a, np.array([0.0, 1e-200, -1e-200]))
    np.testing.assert_allclose(values, math.log(6.5), rtol=1e-15)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_log_P_infinite_where_x_squared_overflows(alpha):
    a = [1.0, 2.0, 3.0]
    family = LawlorNeck(a) if alpha == 0.0 else JLTExpander(alpha, a)
    xs = [1e160, -1e160, 1e300, -1e300]
    for x in xs:
        assert family.log_P(x) == math.inf
        assert family.inv_sqrt_P(x) == 0.0
        assert family.P(x) == math.inf
    np.testing.assert_array_equal(_log_P(alpha, np.array(a), np.array(xs)), math.inf)


def test_integrate_rows_closed_forms():
    # Int dx/(1+x^2) = pi, Int e^{-x^2} dx = sqrt(pi), Int_{-inf}^0 = half
    def rows(x):
        return np.vstack((1.0 / (1.0 + x * x), np.exp(-x * x)))

    cutoff = 1e16
    full = quadrature.integrate_rows(rows, -math.inf, math.inf, cutoff, [1.0])
    np.testing.assert_allclose(full, [math.pi, math.sqrt(math.pi)], atol=1e-13)
    half = quadrature.integrate_rows(rows, -math.inf, 0.0, cutoff, [1.0])
    np.testing.assert_allclose(half, 0.5 * full, atol=1e-14)
    empty = quadrature.integrate_rows(rows, 2.0 * cutoff, math.inf, cutoff, [1.0])
    np.testing.assert_array_equal(empty, [0.0, 0.0])


def test_integrate_rows_raises_rather_than_guess():
    # a kink inside a panel: Gauss-Legendre converges only algebraically, so
    # the N/2N gap stays above tolerance up to the node cap
    def kinked(x):
        return (np.abs(x - 0.3) * np.exp(-x * x))[None, :]

    with pytest.raises(QuadratureError):
        quadrature.integrate_rows(kinked, -math.inf, math.inf, 50.0, [1.0])

    def poisoned(x):
        return np.full((1, x.size), np.nan)

    with pytest.raises(QuadratureError):
        quadrature.integrate_rows(poisoned, -1.0, 1.0, 50.0, [1.0])


def test_families_never_call_adaptive_quad(monkeypatch):
    import scipy.integrate

    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.integrate.quad called on a production path")

    monkeypatch.setattr(scipy.integrate, "quad", forbidden)
    x_unit = np.array([0.6, 0.0, 0.8])
    neck = LawlorNeck([1.0, 2.0, 3.0])
    neck.point(0.4, x_unit)
    neck.invariant_from_potential_limits()
    expander = JLTExpander(1.0, [1.0, 2.0, 3.0])
    expander.point(-0.4, x_unit)
    expander.expander_identity_residual(0.4, x_unit)
    expander.invariant_from_potential_limits()


def test_point_integrates_once(monkeypatch):
    calls = []
    rule = quadrature.integrate_rows

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return rule(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_rows", counted)
    x_unit = np.array([0.6, 0.0, 0.8])
    for family in (LawlorNeck([1.0, 2.0, 3.0]), JLTExpander(1.0, [1.0, 2.0, 3.0])):
        calls.clear()
        family.point(0.4, x_unit)
        assert calls == [(-math.inf, 0.4)]


def test_potential_limits_integrate_once(monkeypatch):
    calls = []
    rule = quadrature.integrate_rows

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return rule(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_rows", counted)
    for family in (LawlorNeck([1.0, 2.0, 3.0]), JLTExpander(1.0, [1.0, 2.0, 3.0])):
        calls.clear()
        family.invariant_from_potential_limits(5.0)
        assert calls == [(-5.0, 5.0)]


def _agree(value, oracle):
    return abs(value - oracle) <= 1e-10 * max(1.0, abs(oracle))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    log_a=st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=8),
    alpha=st.one_of(st.just(0.0), st.floats(1e-6, 50.0)),
    v=st.floats(-8.0, 8.0),
)
def test_fixed_rule_matches_adaptive_oracle(log_a, alpha, v):
    """phi, A and psi(y) from the fixed rule match the adaptive oracle within
    1e-10 (relative above 1), or the rule raises QuadratureError."""
    a = 10.0 ** np.array(log_a)
    y = math.sinh(v)
    try:
        if alpha == 0.0:
            family = LawlorNeck(a)
        else:
            family = JLTExpander(alpha, a)
        psis = family.psi(y)
    except QuadratureError:
        return
    cutoff = family.cutoff
    for k in range(family.m):
        g = angle_integrand(family, k)
        assert _agree(family.phis[k],
                      integrate_segment(g, -math.inf, math.inf, cutoff))
        assert _agree(psis[k], integrate_segment(g, -math.inf, y, cutoff))
    if alpha == 0.0:
        assert _agree(family.A, integrate_segment(
            area_integrand(family), -math.inf, math.inf, cutoff))
        assert abs(family.angle_sum - math.pi) < 1e-12
