"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not configurable.  Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import math

import numpy as np

from slaglab import (
    GradedPointPair,
    JLTExpander,
    LagrangianPlane,
    LawlorNeck,
    build_complex,
    degree_window_check,
    expected_sphere_cohomology,
    harmonic_basis,
    inversion_laplacian_pair,
    jlt_invert,
    lawlor_invert,
    maslov_degree,
    polynomial_field,
    solve_radial_mode,
    solve_separation_radial,
    taylor_c1,
)
from slaglab import checks
from slaglab.errors import DifferentialError, NewtonError, NonTransverseError
from slaglab.floer import Generator
from slaglab.geometry import characteristic_angles, random_unitary
from slaglab.graphs import linearized_expander_residual
from slaglab.modes import ExpansionMode, expansion_field, monomials
from slaglab.plumbing import (
    AngleVector,
    DarbouxCoords,
    PlumbingChart,
    compactified_graph_value,
    exterior_derivative_residual,
    sphere_chart,
    sphere_chart_inverse,
)


def _report(number: int, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status}: criterion {number} ({label}){suffix}")
    assert passed, f"criterion {number} ({label}) failed: {detail}"


def _unit(rng, m):
    x = rng.standard_normal(m)
    return x / np.linalg.norm(x)


def test_criterion_01_angle_sum_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(3, 6))
        a = rng.uniform(0.1, 10.0, size=m)
        neck = LawlorNeck(a)
        worst = max(worst, abs(neck.angle_sum - math.pi))
    _report(1, "angle sum", worst < 1e-8, f"max |sum phi - pi| = {worst:.3e}")


def test_criterion_02_lawlor_sl_residuals():
    rng = np.random.default_rng(102)
    families = [
        [1.0, 1.0, 1.0],
        [1.0, 2.0, 3.0],
        [0.4, 1.3, 5.0, 0.9],
        [2.0, 0.3, 1.1, 0.7, 3.5],
    ]
    worst_omega = 0.0
    worst_imvol = 0.0
    for a in families:
        neck = LawlorNeck(a)
        for _ in range(200):
            y = float(4.0 * rng.standard_normal())
            sample = neck.point(y, _unit(rng, neck.m))
            worst_omega = max(worst_omega, sample.omega_residual())
            worst_imvol = max(worst_imvol, sample.im_volume_residual())
    _report(
        2, "special Lagrangian residuals",
        worst_omega < 1e-8 and worst_imvol < 1e-8,
        f"omega {worst_omega:.3e}, Im volume {worst_imvol:.3e}",
    )


def test_criterion_03_invariant_consistency():
    rng = np.random.default_rng(103)
    worst_lawlor = 0.0
    for _ in range(6):
        a = rng.uniform(0.2, 6.0, size=int(rng.integers(3, 6)))
        neck = LawlorNeck(a)
        worst_lawlor = max(
            worst_lawlor, abs(neck.invariant_from_potential_limits() - neck.A)
        )
        assert neck.A > 0 and neck.tilde().invariant == -neck.A
    worst_jlt = 0.0
    worst_closed = 0.0
    positive = True
    tilde_negative = True
    for _ in range(20):
        alpha = float(rng.uniform(0.3, 2.5))
        a = rng.uniform(0.15, 8.0, size=int(rng.integers(3, 6)))
        expander = JLTExpander(alpha, a)
        worst_jlt = max(
            worst_jlt, abs(expander.invariant_from_potential_limits() - expander.A)
        )
        closed = (math.pi - expander.angle_sum) / (2.0 * alpha)
        worst_closed = max(worst_closed, abs(closed - expander.A))
        positive = positive and expander.A > 0
        tilde_negative = tilde_negative and expander.tilde().invariant < 0
    _report(
        3, "invariant consistency",
        worst_lawlor < 1e-8 and worst_jlt < 1e-7 and worst_closed < 1e-7
        and positive and tilde_negative,
        f"lawlor {worst_lawlor:.3e}, jlt {worst_jlt:.3e}, "
        f"jlt closed form {worst_closed:.3e}",
    )


def test_criterion_04_expander_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(10):
        alpha = float(rng.uniform(0.3, 2.5))
        a = rng.uniform(0.2, 6.0, size=3)
        expander = JLTExpander(alpha, a)
        for _ in range(50):
            y = float(2.5 * rng.standard_normal())
            worst = max(
                worst, expander.expander_identity_residual(y, _unit(rng, 3))
            )
    _report(4, "expander identity", worst < 1e-7, f"max residual {worst:.3e}")


def test_criterion_05_inversion_round_trips():
    rng = np.random.default_rng(105)
    targets = []
    for _ in range(16):
        targets.append(("lawlor", None, rng.uniform(0.1, 10.0, size=3)))
    for alpha in (0.5, 1.0, 2.0):
        for _ in range(4):
            targets.append(("jlt", alpha, rng.uniform(0.1, 10.0, size=3)))

    first_pass = 0
    recovered = 0
    for kind, alpha, a in targets:
        if kind == "lawlor":
            neck = LawlorNeck(a)
            solve = lambda init=None: lawlor_invert(
                neck.phis, neck.A, max_iter=30, initial=init
            )
        else:
            expander = JLTExpander(alpha, a)
            solve = lambda init=None: jlt_invert(
                alpha, expander.phis, max_iter=30, initial=init
            )
        try:
            result = solve()
            ok_first = True
        except NewtonError:
            ok_first = False
        if ok_first:
            first_pass += 1
        else:
            for _ in range(5):  # perturbed re-runs
                init = a * np.exp(rng.normal(scale=0.3, size=a.size))
                try:
                    result = solve(init)
                    break
                except NewtonError:
                    continue
            else:
                result = None
        if result is not None and np.max(np.abs(result.a - a)) < 1e-6:
            recovered += 1
    rate = first_pass / len(targets)
    _report(
        5, "inversion round trips",
        rate >= 0.95 and recovered == len(targets),
        f"first-pass rate {rate:.2f}, recovered {recovered}/{len(targets)}",
    )


def test_criterion_06_maslov_calculus():
    rng = np.random.default_rng(106)
    complement_ok = True
    window_ok = True
    tested = 0
    while tested < 500:
        m = int(rng.integers(3, 6))
        plane_a = LagrangianPlane(random_unitary(m, rng))
        plane_b = LagrangianPlane(random_unitary(m, rng))
        try:
            angles = characteristic_angles(plane_a, plane_b)
        except NonTransverseError:
            continue
        n = int(rng.integers(-2, 4))
        theta_l = float(rng.uniform(-4, 4))
        pair = GradedPointPair(theta_l, theta_l + angles.total - n * math.pi)
        mu = maslov_degree(angles, pair)
        swapped = characteristic_angles(plane_b, plane_a)
        mu_swap = maslov_degree(
            swapped, GradedPointPair(pair.theta_lp, pair.theta_l)
        )
        complement_ok = complement_ok and (mu + mu_swap == m)
        lower = (pair.theta_l - pair.theta_lp) / math.pi
        window_ok = window_ok and (lower < mu < lower + m)
        tested += 1

    # special Lagrangian pairs: angles summing to an integer multiple of pi
    sl_ok = True
    for _ in range(200):
        m = int(rng.integers(3, 6))
        k = int(rng.integers(1, m))
        while True:
            phis = rng.dirichlet(np.ones(m)) * k * math.pi
            if np.all(phis > 1e-3) and np.all(phis < math.pi - 1e-3):
                break
        angles = characteristic_angles(
            LagrangianPlane.real_plane(m),
            LagrangianPlane.from_angles(phis),
        )
        mu = maslov_degree(angles, GradedPointPair(0.0, 0.0))
        sl_ok = sl_ok and degree_window_check(GradedPointPair(0.0, 0.0), mu, 0.0, m)

    # synthetic expander pairs: potentials from theta = -2 alpha f
    exp_ok = True
    for _ in range(500):
        m = int(rng.integers(3, 6))
        alpha = float(rng.uniform(0.2, 3.0))
        phis = rng.uniform(0.05, math.pi - 0.05, size=m)
        n = int(rng.integers(-2, 4))
        theta_l = float(rng.uniform(-4, 4))
        theta_lp = theta_l + float(np.sum(phis)) - n * math.pi
        pair = GradedPointPair(
            theta_l, theta_lp, -theta_l / (2.0 * alpha), -theta_lp / (2.0 * alpha)
        )
        mu = maslov_degree(AngleVector(np.sort(phis)), pair)
        exp_ok = exp_ok and degree_window_check(pair, mu, alpha, m)

    _report(
        6, "Maslov calculus",
        complement_ok and window_ok and sl_ok and exp_ok,
        "complement rule, strict windows, special-Lagrangian and expander windows",
    )


def test_criterion_07_singular_ode():
    worst_overlap = 0.0
    monotone_ok = True
    bound_ok = True
    c1_ok = True
    for m in (3, 4, 5):
        for k in range(0, 9):
            for alpha in (0.5, 1.0, 2.0):
                solution = solve_radial_mode(m, k, alpha, t_max=2.0)
                worst_overlap = max(worst_overlap, solution.overlap_disagreement())
                big_k = k * (m + k - 2)
                c1 = taylor_c1(m, k, alpha)
                expected_c1 = (big_k - 3 * (m + 1)) / (2 * alpha)
                c1_ok = c1_ok and abs(c1 - expected_c1) <= 1e-12 * max(
                    1.0, abs(expected_c1)
                )
                c1_ok = c1_ok and abs(
                    solution.derivative(0.0) - expected_c1
                ) <= 1e-10 * max(1.0, abs(expected_c1))
                if big_k > 3 * (m + 1):
                    grid = np.linspace(0.0, 2.0, 100)
                    values = [solution.value(float(t)) for t in grid]
                    monotone_ok = monotone_ok and all(
                        b > a for a, b in zip(values, values[1:])
                    )
                    monotone_ok = monotone_ok and min(values) >= 1.0 - 1e-9
                    _, residuals = checks.radial(solution, grid)
                    bound_ok = bound_ok and checks.passed(
                        [r for r in residuals if r[1] == "log_derivative_slack"]
                    )
    _report(
        7, "singular radial hierarchy",
        worst_overlap < 1e-8 and monotone_ok and bound_ok and c1_ok,
        f"overlap {worst_overlap:.3e}",
    )


def test_criterion_08_linearized_modes():
    rng = np.random.default_rng(108)
    alpha, m = 1.0, 3
    worst = 0.0
    for k in range(0, 5):
        radial = solve_separation_radial(m, k, alpha, t_max=1.0)
        for poly in harmonic_basis(m, k):
            field = expansion_field([ExpansionMode(poly, radial)])
            for _ in range(100 // len(harmonic_basis(m, k)) + 1):
                x = _unit(rng, m) * rng.uniform(2.0, 6.0)
                worst = max(
                    worst, abs(linearized_expander_residual(field, alpha, x))
                )
    _report(8, "linearized expander modes", worst < 1e-6, f"max residual {worst:.3e}")


def test_criterion_09_inversion_laplacian_identity():
    rng = np.random.default_rng(109)
    worst = 0.0
    for m in (3, 4, 5):
        for _ in range(10):
            coeffs = {}
            for degree in (0, 1, 2, 3):
                for beta in monomials(m, degree):
                    if rng.uniform() < 0.5:
                        coeffs[beta] = float(rng.uniform(-1.0, 1.0))
            field = polynomial_field(coeffs, m)
            done = 0
            while done < 100:
                y = _unit(rng, m) * rng.uniform(0.7, 1.25)
                lhs, rhs = inversion_laplacian_pair(field, m, y)
                if abs(rhs) < 5e-2:
                    continue  # relative error undefined near zeros of the Laplacian
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
                done += 1
    _report(
        9, "inversion Laplacian identity", worst < 1e-6,
        f"max relative error {worst:.3e}",
    )


def test_criterion_10_plumbing():
    rng = np.random.default_rng(110)
    chart = PlumbingChart(AngleVector(np.array([0.9, 1.05, 1.19])), T=100.0)
    m = 3

    worst_rt = 0.0
    for r in np.geomspace(0.5, 1e6, 40):
        x = _unit(rng, m) * r
        back = sphere_chart_inverse(sphere_chart(x))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - x))) / r)

    worst_fd = 0.0
    scale = math.sqrt(2.0 * chart.T)
    gaps = [0.0, 0.6, -0.6, 1.5, -1.5, 3.0, -3.0]
    for i in range(200):
        gap = gaps[i % len(gaps)] * chart.T
        x = _unit(rng, m)
        y = _unit(rng, m)
        base = 0.3 * scale
        if gap >= 0:
            coords = DarbouxCoords(x * math.sqrt(gap + base**2), y * base)
        else:
            coords = DarbouxCoords(x * base, y * math.sqrt(-gap + base**2))
        worst_fd = max(
            worst_fd, exterior_derivative_residual(coords, chart, step=1e-5)
        )

    func = lambda p: float(np.linalg.norm(p)) ** (2 - m)
    values, grads = [], []
    h = 1e-6
    for rt in (0.2, 0.1, 0.05):
        xt = np.zeros(m)
        xt[0] = rt
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
    decay_ok = (
        values[0] > values[1] > values[2] > 0
        and grads[0] > grads[1] > grads[2] > 0
    )

    _report(
        10, "plumbing charts",
        worst_rt < 1e-12 and worst_fd < 1e-6 and decay_ok,
        f"round trip {worst_rt:.3e}, d lambda-tilde {worst_fd:.3e}",
    )


def test_criterion_11_floer_golden_values():
    zero_ok = build_complex([Generator("p", 0)], {}).cohomology_dims() == {0: 1}
    m_ok = all(
        build_complex([Generator("q", m)], {}).cohomology_dims() == {m: 1}
        for m in (3, 4, 5)
    )
    rejected = False
    try:
        build_complex(
            [Generator("a", 0), Generator("b", 1), Generator("c", 2)],
            {("a", "b"): 1, ("b", "c"): 1},
        )
    except DifferentialError:
        rejected = True
    golden_ok = all(
        expected_sphere_cohomology(m) == {0: 1, m: 1} for m in (3, 4, 5, 7)
    )
    _report(
        11, "Floer golden values",
        zero_ok and m_ok and rejected and golden_ok,
        "one-point complexes, d^2 rejection, sphere pattern",
    )


def test_criterion_12_limit_continuity():
    a = [1.0, 2.0, 3.0]
    jlt = JLTExpander(1e-3, a)
    lawlor = LawlorNeck(a)
    worst = float(np.max(np.abs(jlt.phis - lawlor.phis)))
    _report(
        12, "small-alpha continuity", worst < 1e-2,
        f"max angle gap {worst:.3e}",
    )
