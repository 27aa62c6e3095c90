"""The checks behind `slaglab`'s reports: which residual is held against
which tolerance.

Each property function measures one property on the inputs it is given and
returns ``(values, residuals)``: the measured numbers by report field name,
and a list of ``(residual, key)`` pairs, each held against
``TOLERANCES[key]`` by `passed`.  The single-family subcommands of
`slaglab.cli` run these functions on their command-line inputs; `VERIFY`
runs them on fixed inputs, one row of `slaglab verify` per entry.
"""

from __future__ import annotations

import math

import numpy as np

from . import floer, geometry, graphs, modes, plumbing
from .expanders import JLTExpander, jlt_invert
from .lawlor import LawlorNeck, lawlor_invert

TOLERANCES = {
    "angle_sum": 1e-8,
    "sl_residual": 1e-8,
    "invariant_match_lawlor": 1e-8,
    "invariant_match_jlt": 1e-7,
    "expander_identity": 1e-7,
    "inversion_round_trip": 1e-6,
    "maslov_window_slack": 0.0,
    "ode_overlap": 1e-8,
    "log_derivative_slack": 1e-9,
    "laplacian_identity_rel": 1e-6,
    "chart_round_trip": 1e-12,
    "liouville_tilde_fd": 1e-6,
    "linearized_mode_residual": 1e-6,
    "graph_residual": 1e-10,
}


def passed(residuals) -> bool:
    """Every residual lies below its tolerance; NaN fails."""
    return all(value < TOLERANCES[key] for value, key in residuals)


def _unit_sphere_samples(m: int, count: int, rng) -> np.ndarray:
    x = rng.standard_normal((count, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def _profile_samples(m: int, count: int, rng, y_scale: float):
    """count points (y, x): y normal with deviation y_scale, x uniform on
    the unit sphere; all the y are drawn first."""
    ys = y_scale * rng.standard_normal(count)
    return zip(ys.tolist(), _unit_sphere_samples(m, count, rng))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def lawlor(neck, samples: int, rng):
    """A Lawlor neck: angle sum pi, omega|_L = Im Omega|_L = 0 at `samples`
    random points, and A equal to the potential's end-to-end difference."""
    omega = im_omega = 0.0
    for y, x in _profile_samples(neck.m, samples, rng, 4.0):
        point = neck.point(y, x)
        omega = max(omega, point.omega_residual())
        im_omega = max(im_omega, point.im_volume_residual())
    a_limit = neck.invariant_from_potential_limits()
    values = {"omegaMax": omega, "imOmegaMax": im_omega, "rotatedEnd": a_limit}
    return values, [
        (abs(neck.angle_sum - math.pi), "angle_sum"),
        (omega, "sl_residual"),
        (im_omega, "sl_residual"),
        (abs(a_limit - neck.A), "invariant_match_lawlor"),
    ]


def expander(family, samples: int, rng):
    """A JLT expander at `samples` random points: omega|_L = 0 and the soliton
    identity, as d theta = -2 alpha lambda|_L and as theta = -2 alpha f; the
    grading's limits 0 and sum(phi) - pi near the ends; and A equal to the
    potential's end-to-end difference and to (pi - sum phi)/(2 alpha)."""
    omega = identity = 0.0
    for y, x in _profile_samples(family.m, samples, rng, 3.0):
        point = family.point(y, x)
        omega = max(omega, point.omega_residual())
        identity = max(identity, family.expander_identity_residual(y, x),
                       abs(point.theta + 2.0 * family.alpha * point.potential))
    y_far = 0.9 * family.cutoff
    theta = [family.theta(-y_far), family.theta(y_far)]
    a_limit = family.invariant_from_potential_limits()
    a_closed = (math.pi - family.angle_sum) / (2.0 * family.alpha)
    values = {"expanderResidualMax": identity, "omegaMax": omega,
              "thetaLimits": theta, "A_potentialLimit": a_limit,
              "A_closedForm": a_closed}
    theta_defect = max(abs(theta[0]), abs(theta[1] - (family.angle_sum - math.pi)))
    return values, [
        (identity, "expander_identity"),
        (theta_defect, "expander_identity"),
        (abs(a_limit - family.A), "invariant_match_jlt"),
        (abs(a_closed - family.A), "invariant_match_jlt"),
        (omega, "sl_residual"),
    ]


def radial(solution, grid):
    """A radial factor: its closed form agrees with the asymptotic series on
    the series-check window, and above the threshold K > c0, its constant
    term, 0 <= A'/A <= the log-derivative bound at every grid point."""
    overlap = solution.overlap_disagreement()
    values = {"overlapDisagreement": overlap}
    residuals = [(overlap, "ode_overlap")]
    if solution.eigenvalue > solution.constant:
        bound = solution.log_derivative_bound()
        grid = np.asarray(grid, dtype=float)
        ld = solution.values(grid, deriv=True) / solution.values(grid)
        excess = float(np.max(np.maximum(-ld, ld - bound), initial=-math.inf))
        bound_residual = [(excess, "log_derivative_slack")]
        values.update(logDerivativeBound=bound, boundHolds=passed(bound_residual))
        residuals += bound_residual
    return values, residuals


def chart_round_trip(m: int, radii, rng):
    """The sphere chart and its inverse compose to the identity, relative to
    |x|, at one random direction per radius."""
    worst = 0.0
    for r in radii:
        x = _unit_sphere_samples(m, 1, rng)[0] * r
        back = plumbing.sphere_chart_inverse(plumbing.sphere_chart(x))
        worst = max(worst, float(np.max(np.abs(back - x))) / r)
    return {"chartRoundTripMax": worst}, [(worst, "chart_round_trip")]


def liouville_fd(chart, x, y, gap: float):
    """d(lambda_tilde) = omega by finite differences at the Darboux point of
    directions x and y rescaled so that |x|^2 - |y|^2 = gap."""
    x = x / np.linalg.norm(x)
    y = y / np.linalg.norm(y)
    base = 0.3 * math.sqrt(2.0 * chart.T)
    if gap >= 0.0:
        x, y = x * math.sqrt(gap + base * base), y * base
    else:
        x, y = x * base, y * math.sqrt(-gap + base * base)
    fd = plumbing.exterior_derivative_residual(
        plumbing.DarbouxCoords(x, y), chart, step=1e-5
    )
    return {"liouvilleTildeFd": fd}, [(fd, "liouville_tilde_fd")]


# ---------------------------------------------------------------------------
# the verify battery: one row per entry, each a function of the rng
# ---------------------------------------------------------------------------

def _row(residuals, key: str, largest=None) -> dict:
    """A verify row against the tolerance `key`: whether every residual
    passes, and the largest residual whose tolerance is that row's (unless
    `largest` is given)."""
    if largest is None:
        largest = max(value for value, k in residuals
                      if TOLERANCES[k] == TOLERANCES[key])
    return {"passed": passed(residuals), "maxResidual": largest,
            "tolerance": TOLERANCES[key]}


def _maslov(rng) -> dict:
    # mu(L, L') + mu(L', L) = m exactly, so the defect is an integer held at 0
    defect = 0
    for _ in range(200):
        m = int(rng.integers(3, 6))
        plane_a = geometry.LagrangianPlane(geometry.random_unitary(m, rng))
        plane_b = geometry.LagrangianPlane(geometry.random_unitary(m, rng))
        try:
            angles = geometry.characteristic_angles(plane_a, plane_b)
        except geometry.NonTransverseError:
            continue
        n = int(rng.integers(-2, 3))
        theta_l = float(rng.uniform(-3, 3))
        theta_lp = theta_l + angles.total - n * math.pi
        mu = geometry.maslov_degree(angles, geometry.GradedPointPair(theta_l, theta_lp))
        mu_swap = geometry.maslov_degree(
            geometry.characteristic_angles(plane_b, plane_a),
            geometry.GradedPointPair(theta_lp, theta_l),
        )
        defect = max(defect, abs(mu + mu_swap - m))
    return {"passed": bool(defect == 0), "maxComplementDefect": defect,
            "tolerance": 0}


def _lawlor(rng) -> dict:
    _, residuals = lawlor(LawlorNeck([1.0, 2.0, 3.0]), 50, rng)
    return _row(residuals, "sl_residual")


def _expander(rng) -> dict:
    _, residuals = expander(JLTExpander(1.0, [1.0, 1.0, 1.0]), 20, rng)
    return _row(residuals, "expander_identity")


def _invert(rng) -> dict:
    defect = 0.0
    for alpha in (0.0, 0.0, 0.5, 2.0):
        a = rng.uniform(0.2, 5.0, size=3)
        if alpha == 0.0:
            neck = LawlorNeck(a)
            result = lawlor_invert(neck.phis, neck.A)
        else:
            result = jlt_invert(alpha, JLTExpander(alpha, a).phis)
        defect = max(defect, float(np.max(np.abs(result.a - a))))
    return _row([(defect, "inversion_round_trip")], "inversion_round_trip")


def _modes(rng) -> dict:
    residuals = []
    for m in (3, 4, 5):
        for k in (0, 2, 5):
            solution = modes.solve_radial_mode(m, k, 1.0, t_max=2.0)
            residuals += radial(solution, np.linspace(0.01, 2.0, 50))[1]
    return _row(residuals, "ode_overlap")


def _inversion(rng) -> dict:
    worst = 0.0
    for m in (3, 4, 5):
        coeffs = {}
        for beta in modes.monomials(m, 2) + modes.monomials(m, 3):
            if rng.uniform() < 0.4:
                coeffs[beta] = float(rng.uniform(-1, 1))
        coeffs[tuple([0] * m)] = 1.0
        field = graphs.polynomial_field(coeffs, m)
        for _ in range(20):
            y = _unit_sphere_samples(m, 1, rng)[0] * rng.uniform(0.6, 1.2)
            lhs, rhs = graphs.inversion_laplacian_pair(field, m, y)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return _row([(worst, "laplacian_identity_rel")], "laplacian_identity_rel")


def _plumbing(rng) -> dict:
    chart = plumbing.PlumbingChart(
        geometry.AngleVector(np.array([1.0, 1.0, 1.14159265])), T=100.0
    )
    residuals = chart_round_trip(3, np.geomspace(0.5, 1e6, 13), rng)[1]
    for gap in (-3.0, -1.5, 0.0, 1.5, 3.0):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        residuals += liouville_fd(chart, x, y, gap * chart.T)[1]
    # the round trip is reported on the liouville_tilde_fd scale:
    # 1e6 = TOLERANCES["liouville_tilde_fd"] / TOLERANCES["chart_round_trip"]
    largest = max(v * 1e6 if k == "chart_round_trip" else v for v, k in residuals)
    return _row(residuals, "liouville_tilde_fd", largest)


def _floer(rng) -> dict:
    ok = floer.build_complex([floer.Generator("p", 0)], {}).cohomology_dims() == {0: 1}
    ok = ok and floer.build_complex(
        [floer.Generator("q", 3)], {}).cohomology_dims() == {3: 1}
    try:
        floer.build_complex([floer.Generator("a", 0), floer.Generator("b", 0)],
                            {("a", "b"): 1})
        ok = False
    except floer.DifferentialError:
        pass
    return {"passed": bool(ok), "maxResidual": 0.0 if ok else 1.0, "tolerance": 0}


def _graphs(rng) -> dict:
    field = graphs.polynomial_field({(2, 0, 0): 0.5, (0, 2, 0): -0.5}, 3)
    worst = abs(graphs.sl_graph_residual(field, np.array([0.3, -0.2, 0.9])))
    worst = max(
        worst, abs(graphs.expander_graph_residual(field, 0.0, 0.0, np.zeros(3)))
    )
    return _row([(worst, "graph_residual")], "graph_residual")


VERIFY = {
    "maslov": _maslov,
    "lawlor": _lawlor,
    "expander": _expander,
    "invert": _invert,
    "modes": _modes,
    "inversion": _inversion,
    "plumbing": _plumbing,
    "floer": _floer,
    "graphs": _graphs,
}
