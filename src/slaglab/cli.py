"""Command-line front end: construct families, verify identities, sweep.

Subcommands
-----------
lawlor      angles/invariant/residual report for one neck
expander    the same for a Joyce-Lee-Tsui expander, plus the soliton identity
invert      recover coefficients from target angles (modes: lawlor, jlt)
verify      run the property battery across all modules (exit 1 on failure)
expansion   tables of the radial factors A_k of the asymptotic modes
plumbing    chart round-trip, modified-Liouville, and decay checks
floer       validate a GF(2) complex file and report cohomology dimensions

Conventions: angles are radians; the invariant A carries the ambient area
unit.  Reports are canonical JSON (sorted keys) or CSV for tabular output;
identical configuration and seed give byte-identical JSON.  The environment
variable SLAG_SEED overrides the RNG seed.  Exit codes: 0 pass, 1 check
failure or numerical failure (reported on an `error:` line), 2 usage error.

Complex files for the floer subcommand use the schema

    {"generators": [{"id": str, "degree": int, "fL": float, "fLp": float}],
     "differential": [[p_id, q_id], ...]}

Fault injection (for exercising the harness itself): setting
SLAG_FAULT_DTHETA to a small float biases the expander angle derivative and
must make `verify --only expander` fail.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    DegenerateFrameError,
    GradingError,
    NewtonError,
    NonTransverseError,
)
from . import floer as floer_mod
from . import geometry, graphs, modes, plumbing
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

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2


def _seed(args) -> int:
    env = os.environ.get("SLAG_SEED")
    if env is not None:
        return int(env)
    return int(getattr(args, "seed", 0) or 0)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"could not parse float list {text!r}") from exc


class UsageError(Exception):
    pass


def _report_skeleton(command: str, seed: int) -> dict:
    return {
        "command": command,
        "version": f"slaglab {__version__}",
        "seed": seed,
        "tolerances": TOLERANCES,
    }


def _emit(report: dict, args, table_rows=None, table_header=None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        if table_rows is None:
            raise UsageError("csv format is only available for tabular commands")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table_header)
        writer.writerows(table_rows)
        text = buf.getvalue()
    else:
        raise UsageError(f"unknown format {fmt!r}")
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _unit_sphere_samples(m: int, count: int, rng) -> np.ndarray:
    x = rng.standard_normal((count, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def _neck_residual_sweep(family, count: int, rng, y_scale=4.0):
    ys = y_scale * rng.standard_normal(count)
    xs = _unit_sphere_samples(family.m, count, rng)
    omega_max = 0.0
    im_vol_max = 0.0
    for y, x in zip(ys, xs):
        sample = family.point(float(y), x)
        omega_max = max(omega_max, sample.omega_residual())
        im_vol_max = max(im_vol_max, sample.im_volume_residual())
    return omega_max, im_vol_max


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_lawlor(args) -> int:
    a = _parse_floats(args.a)
    if len(a) < 3:
        raise UsageError("need at least three coefficients (m >= 3)")
    if any(v <= 0 for v in a):
        raise UsageError("a_k must be positive")
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    neck = LawlorNeck(a)
    omega_max, im_vol_max = _neck_residual_sweep(neck, args.samples, rng)
    a_limit = neck.invariant_from_potential_limits()
    report = _report_skeleton("lawlor", seed)
    report.update(
        {
            "a": list(neck.a),
            "phi": list(neck.phis),
            "sumPhi": neck.angle_sum,
            "A": neck.A,
            "potentialLimits": {"flatEnd": 0.0, "rotatedEnd": a_limit},
            "residuals": {"omegaMax": omega_max, "imOmegaMax": im_vol_max},
            "samples": args.samples,
        }
    )
    ok = (
        abs(neck.angle_sum - math.pi) < TOLERANCES["angle_sum"]
        and omega_max < TOLERANCES["sl_residual"]
        and im_vol_max < TOLERANCES["sl_residual"]
        and abs(a_limit - neck.A) < TOLERANCES["invariant_match_lawlor"]
    )
    report["passed"] = ok
    _emit(report, args)
    return EXIT_PASS if ok else EXIT_CHECK_FAILURE


def cmd_expander(args) -> int:
    a = _parse_floats(args.a)
    if len(a) < 3:
        raise UsageError("need at least three coefficients (m >= 3)")
    if any(v <= 0 for v in a):
        raise UsageError("a_k must be positive")
    if args.alpha <= 0:
        raise UsageError("alpha must be positive; use lawlor for the alpha = 0 family")
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    expander = JLTExpander(args.alpha, a)
    omega_max = 0.0
    residual_max = 0.0
    ys = 3.0 * rng.standard_normal(args.samples)
    xs = _unit_sphere_samples(expander.m, args.samples, rng)
    for y, x in zip(ys, xs):
        sample = expander.point(float(y), x)
        omega_max = max(omega_max, sample.omega_residual())
        residual_max = max(
            residual_max, expander.expander_identity_residual(float(y), x)
        )
    a_limit = expander.invariant_from_potential_limits()
    y_far = 0.9 * expander._cutoff
    report = _report_skeleton("expander", seed)
    report.update(
        {
            "a": list(expander.a),
            "alpha": expander.alpha,
            "phi": list(expander.phis),
            "sumPhi": expander.angle_sum,
            "A_closedForm": expander.A,
            "A_potentialLimit": a_limit,
            "expanderResidualMax": residual_max,
            "omegaMax": omega_max,
            "thetaLimits": [expander.theta(-y_far), expander.theta(y_far)],
            "samples": args.samples,
        }
    )
    ok = (
        residual_max < TOLERANCES["expander_identity"]
        and omega_max < TOLERANCES["sl_residual"]
        and abs(a_limit - expander.A) < TOLERANCES["invariant_match_jlt"]
    )
    report["passed"] = ok
    _emit(report, args)
    return EXIT_PASS if ok else EXIT_CHECK_FAILURE


def cmd_invert(args) -> int:
    phis = _parse_floats(args.phi)
    if len(phis) < 3:
        raise UsageError("need at least three target angles (m >= 3)")
    seed = _seed(args)
    report = _report_skeleton("invert", seed)
    report.update({"mode": args.mode, "targetPhi": phis})
    try:
        if args.mode == "lawlor":
            if args.A is None:
                raise UsageError("lawlor inversion needs --A")
            result = lawlor_invert(phis, args.A)
        else:
            if args.alpha is None:
                raise UsageError("jlt inversion needs --alpha")
            result = jlt_invert(args.alpha, phis)
    except GradingError as exc:
        raise UsageError(str(exc)) from exc
    except NewtonError as exc:
        report.update(
            {
                "converged": False,
                "bestResidual": exc.best_residual,
                "iterations": exc.iterations,
            }
        )
        _emit(report, args)
        return EXIT_CHECK_FAILURE
    report.update(
        {
            "converged": True,
            "a": list(result.a),
            "residual": result.residual_norm,
            "iterations": result.iterations,
            "trace": result.trace,
        }
    )
    _emit(report, args)
    return EXIT_PASS


def cmd_expansion(args) -> int:
    seed = _seed(args)
    solution = modes.solve_radial_mode(args.m, args.k, args.alpha, args.t_max)
    grid = np.linspace(0.0, args.t_max, args.points)
    rows = []
    for t in grid:
        a_val = solution.value(float(t))
        ap_val = solution.derivative(float(t))
        rows.append([float(t), a_val, ap_val, ap_val / a_val])
    report = _report_skeleton("expansion", seed)
    report.update(
        {
            "m": args.m,
            "k": args.k,
            "alpha": args.alpha,
            "eigenvalue": solution.eigenvalue,
            "c1": modes.taylor_c1(args.m, args.k, args.alpha),
            "seriesSwitch": solution.t_switch,
            "overlapDisagreement": solution.overlap_disagreement(),
            "collocationPanels": solution.panel_count,
            "collocationErrorEstimate": solution.error_estimate,
            "table": [
                {"t": r[0], "A": r[1], "Aprime": r[2], "logDerivative": r[3]}
                for r in rows
            ],
        }
    )
    ok = report["overlapDisagreement"] < TOLERANCES["ode_overlap"]
    if solution.eigenvalue > 3 * (args.m + 1):
        bound_ok = modes.check_log_derivative_bound(
            solution, grid[1:], TOLERANCES["log_derivative_slack"]
        )
        report["logDerivativeBound"] = solution.log_derivative_bound()
        report["boundHolds"] = bound_ok
        ok = ok and bound_ok
    report["passed"] = ok
    _emit(report, args, table_rows=rows,
          table_header=["t", "A", "Aprime", "logDerivative"])
    return EXIT_PASS if ok else EXIT_CHECK_FAILURE


def cmd_plumbing(args) -> int:
    phis = _parse_floats(args.phi)
    if len(phis) < 3:
        raise UsageError("need at least three angles (m >= 3)")
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    chart = plumbing.PlumbingChart(geometry.AngleVector(np.array(phis)), T=args.T)
    m = chart.m

    round_trip = 0.0
    for r in np.geomspace(0.5, 1e6, 25):
        x = _unit_sphere_samples(m, 1, rng)[0] * r
        xt = plumbing.sphere_chart(x)
        back = plumbing.sphere_chart_inverse(xt)
        round_trip = max(round_trip, float(np.max(np.abs(back - x))) / r)

    scale = math.sqrt(2.0 * chart.T)
    fd_worst = 0.0
    for _ in range(args.points):
        region = rng.integers(0, 5)
        x = rng.standard_normal(m)
        y = rng.standard_normal(m)
        gap_target = {
            0: rng.uniform(-0.8, 0.8) * chart.T,
            1: rng.uniform(1.2, 1.8) * chart.T,
            2: -rng.uniform(1.2, 1.8) * chart.T,
            3: rng.uniform(2.2, 4.0) * chart.T,
            4: -rng.uniform(2.2, 4.0) * chart.T,
        }[int(region)]
        x, y = _with_gap(x, y, gap_target, scale)
        coords = plumbing.DarbouxCoords(x, y)
        fd_worst = max(
            fd_worst, plumbing.exterior_derivative_residual(coords, chart, step=1e-5)
        )

    decay = []
    for rt in (0.2, 0.1, 0.05):
        xt = np.zeros(m)
        xt[0] = rt
        value = plumbing.compactified_graph_value(
            lambda p: float(np.linalg.norm(p)) ** (2 - m), 2 - m, xt
        )
        grad = _chart_gradient(m, rt)
        decay.append({"rTilde": rt, "value": value, "gradientNorm": grad})

    report = _report_skeleton("plumbing", seed)
    report.update(
        {
            "m": m,
            "phi": phis,
            "T": chart.T,
            "chartRoundTripMax": round_trip,
            "liouvilleTildeFdMax": fd_worst,
            "decay": decay,
        }
    )
    mono = all(
        decay[i]["value"] > decay[i + 1]["value"] > 0
        and decay[i]["gradientNorm"] > decay[i + 1]["gradientNorm"] > 0
        for i in range(len(decay) - 1)
    )
    ok = (
        round_trip < TOLERANCES["chart_round_trip"]
        and fd_worst < TOLERANCES["liouville_tilde_fd"]
        and mono
    )
    report["passed"] = ok
    _emit(report, args)
    return EXIT_PASS if ok else EXIT_CHECK_FAILURE


def _with_gap(x, y, gap_target, scale):
    """Rescale unit-ish vectors so sum x^2 - sum y^2 hits the target."""
    x = x / np.linalg.norm(x)
    y = y / np.linalg.norm(y)
    base = 0.3 * scale
    if gap_target >= 0.0:
        return x * math.sqrt(gap_target + base * base), y * base
    return x * base, y * math.sqrt(-gap_target + base * base)


def _chart_gradient(m: int, rt: float, h: float = 1e-6) -> float:
    def value(xt):
        return plumbing.compactified_graph_value(
            lambda p: float(np.linalg.norm(p)) ** (2 - m), 2 - m, xt
        )

    xt = np.zeros(m)
    xt[0] = rt
    grad = np.zeros(m)
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        grad[i] = (value(xt + e) - value(xt - e)) / (2 * h)
    return float(np.linalg.norm(grad))


def cmd_floer(args) -> int:
    seed = _seed(args)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            cx = floer_mod.complex_from_json(fh.read())
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed complex file: {exc}") from exc

    dims = cx.cohomology_dims()
    report = _report_skeleton("floer", seed)
    report.update(
        {
            "input": args.input,
            "chainDims": {str(k): v for k, v in cx.chain_dims().items()},
            "cohomology": {str(k): v for k, v in dims.items()},
            "eulerCharacteristic": cx.euler_characteristic(),
            "degreeZeroIdentity": floer_mod.verify_degree_zero_identity(cx),
        }
    )
    ok = True
    if args.expect_sphere is not None:
        expected = floer_mod.expected_sphere_cohomology(args.expect_sphere)
        ok = dims == expected
        report["expectedSphere"] = {str(k): v for k, v in expected.items()}
        report["matchesSphere"] = ok
    report["passed"] = ok
    _emit(report, args)
    return EXIT_PASS if ok else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# verify battery
# ---------------------------------------------------------------------------

def _check_maslov(rng):
    worst = {"complement": 0, "window": True}
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
        pair = geometry.GradedPointPair(theta_l, theta_lp)
        swapped = geometry.GradedPointPair(theta_lp, theta_l)
        mu = geometry.maslov_degree(angles, pair)
        mu_swap = geometry.maslov_degree(
            geometry.characteristic_angles(plane_b, plane_a), swapped
        )
        worst["complement"] = max(worst["complement"], abs(mu + mu_swap - m))
    passed = worst["complement"] == 0
    return {"name": "maslov", "passed": bool(passed),
            "maxComplementDefect": worst["complement"], "tolerance": 0}


def _check_lawlor(rng):
    neck = LawlorNeck([1.0, 2.0, 3.0])
    omega_max, im_vol_max = _neck_residual_sweep(neck, 50, rng)
    a_limit = neck.invariant_from_potential_limits()
    residual = max(
        abs(neck.angle_sum - math.pi), omega_max, im_vol_max, abs(a_limit - neck.A)
    )
    tol = TOLERANCES["sl_residual"]
    return {"name": "lawlor", "passed": bool(residual < tol),
            "maxResidual": residual, "tolerance": tol}


def _check_expander(rng):
    expander = JLTExpander(1.0, [1.0, 1.0, 1.0])
    ys = 3.0 * rng.standard_normal(20)
    xs = _unit_sphere_samples(3, 20, rng)
    residual = max(
        expander.expander_identity_residual(float(y), x) for y, x in zip(ys, xs)
    )
    y_far = 0.9 * expander._cutoff
    theta_defect = max(
        abs(expander.theta(-y_far)),
        abs(expander.theta(y_far) - (expander.angle_sum - math.pi)),
    )
    invariant_defect = abs(expander.invariant_from_potential_limits() - expander.A)
    worst = max(residual, theta_defect, invariant_defect)
    tol = TOLERANCES["expander_identity"]
    return {"name": "expander", "passed": bool(worst < tol),
            "maxResidual": worst, "tolerance": tol}


def _check_invert(rng):
    defect = 0.0
    for _ in range(2):
        a = rng.uniform(0.2, 5.0, size=3)
        neck = LawlorNeck(a)
        result = lawlor_invert(neck.phis, neck.A)
        defect = max(defect, float(np.max(np.abs(result.a - a))))
    for alpha in (0.5, 2.0):
        a = rng.uniform(0.2, 5.0, size=3)
        expander = JLTExpander(alpha, a)
        result = jlt_invert(alpha, expander.phis)
        defect = max(defect, float(np.max(np.abs(result.a - a))))
    tol = TOLERANCES["inversion_round_trip"]
    return {"name": "invert", "passed": bool(defect < tol),
            "maxResidual": defect, "tolerance": tol}


def _check_modes(rng):
    tol = TOLERANCES["ode_overlap"]
    worst = 0.0
    for m in (3, 4, 5):
        for k in (0, 2, 5):
            solution = modes.solve_radial_mode(m, k, 1.0, t_max=2.0)
            worst = max(worst, solution.overlap_disagreement())
            if solution.eigenvalue > 3 * (m + 1):
                if not modes.check_log_derivative_bound(
                    solution, np.linspace(0.01, 2.0, 50)
                ):
                    return {"name": "modes", "passed": False,
                            "maxResidual": math.inf, "tolerance": tol}
    return {"name": "modes", "passed": bool(worst < tol),
            "maxResidual": worst, "tolerance": tol}


def _check_inversion_identity(rng):
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
    tol = TOLERANCES["laplacian_identity_rel"]
    return {"name": "inversion", "passed": bool(worst < tol),
            "maxResidual": worst, "tolerance": tol}


def _check_plumbing(rng):
    chart = plumbing.PlumbingChart(
        geometry.AngleVector(np.array([1.0, 1.0, 1.14159265])), T=100.0
    )
    worst_rt = 0.0
    for r in np.geomspace(0.5, 1e6, 13):
        x = _unit_sphere_samples(3, 1, rng)[0] * r
        back = plumbing.sphere_chart_inverse(plumbing.sphere_chart(x))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - x))) / r)
    fd_worst = 0.0
    scale = math.sqrt(2.0 * chart.T)
    for gap in (-3.0 * chart.T, -1.5 * chart.T, 0.0, 1.5 * chart.T, 3.0 * chart.T):
        x, y = _with_gap(rng.standard_normal(3), rng.standard_normal(3), gap, scale)
        coords = plumbing.DarbouxCoords(x, y)
        fd_worst = max(
            fd_worst, plumbing.exterior_derivative_residual(coords, chart, step=1e-5)
        )
    tol = TOLERANCES["liouville_tilde_fd"]
    passed = worst_rt < TOLERANCES["chart_round_trip"] and fd_worst < tol
    return {"name": "plumbing", "passed": bool(passed),
            "maxResidual": max(worst_rt * 1e6, fd_worst), "tolerance": tol}


def _check_floer(rng):
    golden = floer_mod.build_complex([floer_mod.Generator("p", 0)], {})
    ok = golden.cohomology_dims() == {0: 1}
    golden_m = floer_mod.build_complex([floer_mod.Generator("q", 3)], {})
    ok = ok and golden_m.cohomology_dims() == {3: 1}
    try:
        floer_mod.build_complex(
            [floer_mod.Generator("a", 0), floer_mod.Generator("b", 0)],
            {("a", "b"): 1},
        )
        ok = False
    except floer_mod.DifferentialError:
        pass
    return {"name": "floer", "passed": bool(ok),
            "maxResidual": 0.0 if ok else 1.0, "tolerance": 0}


def _check_graphs(rng):
    field = graphs.polynomial_field({(2, 0, 0): 0.5, (0, 2, 0): -0.5}, 3)
    worst = abs(graphs.sl_graph_residual(field, np.array([0.3, -0.2, 0.9])))
    worst = max(
        worst, abs(graphs.expander_graph_residual(field, 0.0, 0.0, np.zeros(3)))
    )
    tol = TOLERANCES["graph_residual"]
    return {"name": "graphs", "passed": bool(worst < tol),
            "maxResidual": worst, "tolerance": tol}


_VERIFY_CHECKS = (
    _check_maslov,
    _check_lawlor,
    _check_expander,
    _check_invert,
    _check_modes,
    _check_inversion_identity,
    _check_plumbing,
    _check_floer,
    _check_graphs,
)


def cmd_verify(args) -> int:
    seed = _seed(args)
    selected = []
    for check in _VERIFY_CHECKS:
        name = check.__name__.replace("_check_", "")
        if args.only and args.only not in name:
            continue
        selected.append((name, check))
    if not selected:
        raise UsageError(f"no checks match --only {args.only!r}")
    results = []
    for name, check in selected:
        rng = np.random.default_rng(seed)
        results.append(check(rng))
    report = _report_skeleton("verify", seed)
    report["checks"] = results
    report["passed"] = all(r["passed"] for r in results)
    rows = [[r["name"], r["passed"], r.get("maxResidual"), r.get("tolerance")]
            for r in results]
    _emit(report, args, table_rows=rows,
          table_header=["check", "passed", "maxResidual", "tolerance"])
    return EXIT_PASS if report["passed"] else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slaglab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"slaglab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=True):
        p.add_argument("--seed", type=int, default=0,
                       help="RNG seed (SLAG_SEED overrides)")
        p.add_argument("--output", help="write the report to a file")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("lawlor", help="construct and verify a Lawlor neck")
    p.add_argument("--a", required=True, help="comma-separated positive a_k")
    p.add_argument("--samples", type=int, default=100)
    add_common(p)
    p.set_defaults(func=cmd_lawlor)

    p = sub.add_parser("expander", help="construct and verify a JLT expander")
    p.add_argument("--a", required=True, help="comma-separated positive a_k")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--samples", type=int, default=50)
    add_common(p)
    p.set_defaults(func=cmd_expander)

    p = sub.add_parser("invert", help="recover a from target angles")
    p.add_argument("--mode", choices=("lawlor", "jlt"), required=True)
    p.add_argument("--phi", required=True, help="comma-separated target angles")
    p.add_argument("--A", type=float, help="target invariant (lawlor mode)")
    p.add_argument("--alpha", type=float, help="expander constant (jlt mode)")
    add_common(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("verify", help="run the cross-module property battery")
    p.add_argument("--only", help="run only checks whose name contains this")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("expansion", help="radial factors of asymptotic modes")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t-max", dest="t_max", type=float, default=2.0)
    p.add_argument("--points", type=int, default=21)
    add_common(p)
    p.set_defaults(func=cmd_expansion)

    p = sub.add_parser("plumbing", help="chart and Liouville-form checks")
    p.add_argument("--phi", required=True, help="comma-separated angles in (0, pi)")
    p.add_argument("--T", type=float, default=100.0)
    p.add_argument("--points", type=int, default=50)
    add_common(p)
    p.set_defaults(func=cmd_plumbing)

    p = sub.add_parser("floer", help="validate a GF(2) complex file")
    p.add_argument("--input", required=True, help="complex JSON file")
    p.add_argument("--expect-sphere", dest="expect_sphere", type=int,
                   help="compare cohomology against the m-sphere golden value")
    add_common(p)
    p.set_defaults(func=cmd_floer)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateFrameError, NonTransverseError, RuntimeError) as exc:
        # numerical failure (degenerate frame, non-transverse planes,
        # QuadratureError, NewtonError, radial collocation): not a usage
        # error, although the first two subclass ValueError
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except (ValueError, GradingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
