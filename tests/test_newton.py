"""The exact Jacobian of the neck family and the Newton inverters built on it."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slaglab import expanders, lawlor, quadrature
from slaglab._newton import damped_newton_log
from slaglab.expanders import JLTExpander, jlt_invert
from slaglab.lawlor import LawlorNeck, NeckFamily, lawlor_invert

from oracles import (
    central_difference_jacobian,
    forward_difference_jacobian,
    forward_difference_newton,
)


def _phis_and_A(alpha, a):
    family = NeckFamily(alpha, a)
    return np.append(family.phis, family.A)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    log_a=st.lists(st.floats(math.log(0.1), math.log(10.0)), min_size=3, max_size=6),
    alpha=st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
)
def test_jacobian_matches_central_difference(log_a, alpha):
    a = np.exp(log_a)
    member = NeckFamily(alpha, a, _jacobian=True)
    plain = NeckFamily(alpha, a)
    np.testing.assert_allclose(member.phis, plain.phis, rtol=0.0, atol=1e-15)
    assert abs(member.A - plain.A) <= 1e-15
    oracle = central_difference_jacobian(lambda b: _phis_and_A(alpha, b), a)
    assert member._jacobian.shape == (a.size + 1, a.size)
    assert np.max(np.abs(member._jacobian - oracle)) < 1e-7


def test_plain_builds_integrate_only_the_value_rows(monkeypatch):
    row_counts = []
    integrate_rows = quadrature.integrate_rows

    def counting(f, *args):
        row_counts.append(f(np.array([1.0])).shape[0])
        return integrate_rows(f, *args)

    monkeypatch.setattr(quadrature, "integrate_rows", counting)
    assert LawlorNeck([1.0, 2.0, 3.0])._jacobian is None
    assert JLTExpander(1.0, [1.0, 2.0, 3.0, 4.0])._jacobian is None
    assert JLTExpander(1.0, [1.0, 2.0, 3.0], _jacobian=True)._jacobian.shape == (4, 3)
    assert row_counts == [4, 5, 16]


# -- residuals of the two inverters, from plain builds (oracle side) ----------

def _lawlor_residual(phis, A):
    def residual(a):
        neck = LawlorNeck(a)
        return np.append(neck.phis[:-1] - phis[:-1], (neck.A - A) / A)
    return residual


def _jlt_residual(alpha, phis):
    return lambda a: JLTExpander(alpha, a).phis - phis


def _criterion_05_targets():
    """The targets of the acceptance suite's inversion round trips."""
    rng = np.random.default_rng(105)
    targets = [(0.0, rng.uniform(0.1, 10.0, size=3)) for _ in range(16)]
    for alpha in (0.5, 1.0, 2.0):
        targets += [(alpha, rng.uniform(0.1, 10.0, size=3)) for _ in range(4)]
    return targets


def _invert(alpha, a):
    member = NeckFamily(alpha, a)
    if alpha == 0.0:
        return lawlor_invert(member.phis, member.A)
    return jlt_invert(alpha, member.phis)


class _Recorder:
    """Counts family builds and records the residual norm of every Newton
    callback call of the inverters."""

    def __init__(self, monkeypatch):
        self.builds = 0
        self.norms = []
        init = NeckFamily.__init__

        def counted_init(family, *args, **kwargs):
            self.builds += 1
            init(family, *args, **kwargs)

        def recording_newton(residual_fn, a0, **kwargs):
            def fn(a):
                r, jac = residual_fn(a)
                self.norms.append(float(np.linalg.norm(r)))
                return r, jac
            return damped_newton_log(fn, a0, **kwargs)

        monkeypatch.setattr(NeckFamily, "__init__", counted_init)
        for module in (lawlor, expanders):
            monkeypatch.setattr(module, "damped_newton_log", recording_newton)

    def rejected_halvings(self, result):
        return sum(1 for norm in self.norms if norm not in result.trace)


@pytest.mark.parametrize("kind", ["lawlor", "jlt"])
def test_one_build_per_newton_trial(monkeypatch, kind):
    recorder = _Recorder(monkeypatch)
    if kind == "lawlor":
        result = lawlor_invert([np.pi / 3] * 3, 1.0)
        guess_builds = 1  # the initial guess's rescaling trial
    else:
        result = jlt_invert(1.0, [0.5, 0.85, 1.15])
        guess_builds = 0
    assert result.converged
    assert len(recorder.norms) == result.iterations + 1 + recorder.rejected_halvings(result)
    assert recorder.builds <= (result.iterations + 1
                               + recorder.rejected_halvings(result) + guess_builds)


def test_exact_newton_needs_no_more_iterations_than_forward_difference(monkeypatch):
    exact = [_invert(alpha, a).iterations for alpha, a in _criterion_05_targets()]
    for module in (lawlor, expanders):
        monkeypatch.setattr(module, "damped_newton_log", forward_difference_newton)
    fd = [_invert(alpha, a).iterations for alpha, a in _criterion_05_targets()]
    assert all(e <= f for e, f in zip(exact, fd)), (exact, fd)


@pytest.mark.parametrize("alpha, a", [(0.0, [0.4, 1.7, 6.0]), (0.0, [1.0, 2.0, 3.0, 4.0]),
                                      (0.5, [2.0, 0.3, 1.1]), (2.0, [1.0, 4.0, 0.5, 0.8])])
def test_jacobian_condition_number_matches_oracle(alpha, a):
    member = NeckFamily(alpha, a)
    if alpha == 0.0:
        result = lawlor_invert(member.phis, member.A)
        residual = _lawlor_residual(member.phis, member.A)
    else:
        result = jlt_invert(alpha, member.phis)
        residual = _jlt_residual(alpha, member.phis)
    oracle = np.linalg.cond(central_difference_jacobian(residual, result.a))
    assert result.jacobian_cond == pytest.approx(oracle, rel=1e-5)


def test_forward_difference_oracle_reproduces_the_exact_jacobian():
    alpha, a = 0.5, np.array([2.0, 0.3, 1.1])
    exact = JLTExpander(alpha, a, _jacobian=True)._jacobian[:-1]
    fd = forward_difference_jacobian(lambda b: JLTExpander(alpha, b).phis, a)
    assert np.max(np.abs(exact - fd)) < 1e-5


def test_inverters_raise_no_floating_point_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lawlor_targets = [([np.pi / 3] * 3, 1.0),
                          ([0.05, 1.0, np.pi - 1.05], 1.0),
                          ([0.05, 0.4, 1.2, np.pi - 1.65], 0.3)]
        for phis, A in lawlor_targets:
            assert lawlor_invert(phis, A).converged
        for alpha, phis in [(1.0, [0.5, 0.85, 1.15]), (0.5, [0.05, 0.9, 1.3]),
                            (3.0, [0.05, 0.3, 0.6, 0.2])]:
            assert jlt_invert(alpha, phis).converged


def test_jacobian_rows_at_zero_and_where_x_squared_overflows():
    alpha, a = 0.5, np.array([1.0, 2.0, 3.0])
    member = NeckFamily(alpha, a)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = member._rows(np.array([0.0, 1e160]), jacobian=True)
    assert np.all(rows[:, 1] == 0.0)
    # at x = 0: r_k = a_k, I = P(0)^{-1/2}, g = 1/P(0)
    p0 = alpha + a.sum()
    inv_sqrt = p0 ** -0.5
    values = np.append(a * inv_sqrt, 0.5 * inv_sqrt)
    expected = -0.5 * np.outer(values, a) / p0
    expected[np.arange(3), np.arange(3)] += a * inv_sqrt
    np.testing.assert_allclose(rows[:4, 0], values, rtol=1e-15)
    np.testing.assert_allclose(rows[4:, 0], expected.ravel(), rtol=1e-14)
