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

The checks themselves, and the tolerance each residual is held against,
live in `slaglab.checks`: the subcommands and `verify` call the same
functions there.

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
import os
import sys

import numpy as np

from . import __version__, checks
from .checks import TOLERANCES
from .errors import (
    DegenerateFrameError,
    GradingError,
    NewtonError,
    NonTransverseError,
)
from . import floer as floer_mod
from . import geometry, modes, plumbing
from .expanders import JLTExpander, jlt_invert
from .lawlor import LawlorNeck, lawlor_invert

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


def _coefficients(text: str) -> list[float]:
    a = _parse_floats(text)
    if len(a) < 3:
        raise UsageError("need at least three coefficients (m >= 3)")
    if any(v <= 0 for v in a):
        raise UsageError("a_k must be positive")
    return a


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


def _finish(report: dict, args, ok: bool, **table) -> int:
    """Record the verdict, emit the report, and return the exit code."""
    report["passed"] = ok
    _emit(report, args, **table)
    return EXIT_PASS if ok else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_lawlor(args) -> int:
    a = _coefficients(args.a)
    seed = _seed(args)
    neck = LawlorNeck(a)
    values, residuals = checks.lawlor(neck, args.samples, np.random.default_rng(seed))
    report = _report_skeleton("lawlor", seed)
    report.update(
        {
            "a": list(neck.a),
            "phi": list(neck.phis),
            "sumPhi": neck.angle_sum,
            "A": neck.A,
            "potentialLimits": {"flatEnd": 0.0, "rotatedEnd": values["rotatedEnd"]},
            "residuals": {"omegaMax": values["omegaMax"],
                          "imOmegaMax": values["imOmegaMax"]},
            "samples": args.samples,
        }
    )
    return _finish(report, args, checks.passed(residuals))


def cmd_expander(args) -> int:
    a = _coefficients(args.a)
    if args.alpha <= 0:
        raise UsageError("alpha must be positive; use lawlor for the alpha = 0 family")
    seed = _seed(args)
    expander = JLTExpander(args.alpha, a)
    values, residuals = checks.expander(
        expander, args.samples, np.random.default_rng(seed)
    )
    report = _report_skeleton("expander", seed)
    report.update(values)
    report.update(
        {
            "a": list(expander.a),
            "alpha": expander.alpha,
            "phi": list(expander.phis),
            "sumPhi": expander.angle_sum,
            "samples": args.samples,
        }
    )
    return _finish(report, args, checks.passed(residuals))


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
    rows = [
        [float(t), float(a_val), float(ap_val), float(ap_val) / float(a_val)]
        for t, a_val, ap_val in zip(grid, solution.values(grid),
                                    solution.values(grid, deriv=True))
    ]
    values, residuals = checks.radial(solution, grid[1:])
    report = _report_skeleton("expansion", seed)
    report.update(values)
    report.update(
        {
            "m": args.m,
            "k": args.k,
            "alpha": args.alpha,
            "eigenvalue": solution.eigenvalue,
            "c1": modes.taylor_c1(args.m, args.k, args.alpha),
            "seriesSwitch": solution.t_switch,
            "table": [
                {"t": r[0], "A": r[1], "Aprime": r[2], "logDerivative": r[3]}
                for r in rows
            ],
        }
    )
    return _finish(report, args, checks.passed(residuals), table_rows=rows,
                   table_header=["t", "A", "Aprime", "logDerivative"])


def cmd_plumbing(args) -> int:
    phis = _parse_floats(args.phi)
    if len(phis) < 3:
        raise UsageError("need at least three angles (m >= 3)")
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    chart = plumbing.PlumbingChart(geometry.AngleVector(np.array(phis)), T=args.T)
    m = chart.m

    values, residuals = checks.chart_round_trip(m, np.geomspace(0.5, 1e6, 25), rng)
    fd_worst = 0.0
    for _ in range(args.points):
        region = int(rng.integers(0, 5))
        x, y = rng.standard_normal(m), rng.standard_normal(m)
        # every band is drawn, whichever the region picks
        gap = (rng.uniform(-0.8, 0.8), rng.uniform(1.2, 1.8), -rng.uniform(1.2, 1.8),
               rng.uniform(2.2, 4.0), -rng.uniform(2.2, 4.0))[region]
        fd, found = checks.liouville_fd(chart, x, y, gap * chart.T)
        fd_worst = max(fd_worst, fd["liouvilleTildeFd"])
        residuals += found

    decay = [_decay(m, rt) for rt in (0.2, 0.1, 0.05)]
    report = _report_skeleton("plumbing", seed)
    report.update(values)
    report.update(
        {
            "m": m,
            "phi": phis,
            "T": chart.T,
            "liouvilleTildeFdMax": fd_worst,
            "decay": decay,
        }
    )
    mono = all(
        decay[i]["value"] > decay[i + 1]["value"] > 0
        and decay[i]["gradientNorm"] > decay[i + 1]["gradientNorm"] > 0
        for i in range(len(decay) - 1)
    )
    return _finish(report, args, checks.passed(residuals) and mono)


def _decay(m: int, rt: float, h: float = 1e-6) -> dict:
    """Value and central-difference gradient norm, at (rt, 0, ..., 0), of
    the compactified graph of r^{2-m}."""
    def value(xt):
        return plumbing.compactified_graph_value(
            lambda p: float(np.linalg.norm(p)) ** (2 - m), 2 - m, xt
        )

    xt = np.zeros(m)
    xt[0] = rt
    grad = [(value(xt + e) - value(xt - e)) / (2 * h) for e in h * np.eye(m)]
    return {"rTilde": rt, "value": value(xt), "gradientNorm": float(np.linalg.norm(grad))}


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
    return _finish(report, args, ok)


def cmd_verify(args) -> int:
    seed = _seed(args)
    names = [name for name in checks.VERIFY if not args.only or args.only in name]
    if not names:
        raise UsageError(f"no checks match --only {args.only!r}")
    results = [{"name": name, **checks.VERIFY[name](np.random.default_rng(seed))}
               for name in names]
    report = _report_skeleton("verify", seed)
    report["checks"] = results
    rows = [[r["name"], r["passed"], r.get("maxResidual"), r.get("tolerance")]
            for r in results]
    return _finish(report, args, all(r["passed"] for r in results), table_rows=rows,
                   table_header=["check", "passed", "maxResidual", "tolerance"])


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

    def add_common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="RNG seed (SLAG_SEED overrides)")
        p.add_argument("--output", help="write the report to a file")
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
        # option checks that need no numerical work come first
        if args.format == "csv" and args.func not in (cmd_expansion, cmd_verify):
            raise UsageError("csv format is only available for tabular commands")
        if getattr(args, "samples", 1) < 1:
            raise UsageError("--samples must be at least 1")
        # the expansion bound is checked past t = 0, so it needs two points
        min_points = {cmd_expansion: 2, cmd_plumbing: 1}.get(args.func, 0)
        if getattr(args, "points", min_points) < min_points:
            raise UsageError(f"--points must be at least {min_points}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateFrameError, NonTransverseError, RuntimeError) as exc:
        # numerical failure (degenerate frame, non-transverse planes,
        # QuadratureError, NewtonError, an unreliable radial series): not a
        # usage error, although the first two subclass ValueError
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except (ValueError, GradingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
