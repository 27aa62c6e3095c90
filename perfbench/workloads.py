"""Seeded workloads of the slaglab benchmark.

Each workload turns a seed into an endless stream of operation inputs and
runs one operation per input through names exported by the `slaglab`
package.  Every operation checks its own result against the tolerances
below, which are copied here on purpose: loosening the library's tolerance
table cannot make an operation pass.  A miss raises `OracleMiss`.

The discrete parameters that set an operation's cost (dimension, degree,
the neck family) are dealt from a shuffled deck of all their combinations,
reshuffled when it runs out, so that runs with different seeds see the same
mix and the percentiles do not jump between strata.  Everything else is
drawn freely from the seed.

This module imports numpy at load time, so it is imported only after
`slaglab` has been imported and timed.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

SL_RESIDUAL_TOL = 1e-8           # omega and Im Omega on neck samples
ANGLE_SUM_TOL = 1e-8             # Lawlor: sum phi = pi
LAWLOR_INVARIANT_TOL = 1e-8      # potential limits against A
EXPANDER_IDENTITY_TOL = 1e-7
JLT_INVARIANT_TOL = 1e-7
ROUND_TRIP_TOL = 1e-8            # forward rebuild at the inverted coefficients
ODE_OVERLAP_TOL = 1e-8
LOG_DERIVATIVE_SLACK = 1e-9
LINEARIZED_RESIDUAL_TOL = 1e-6
LAPLACIAN_IDENTITY_REL_TOL = 1e-6
LAPLACIAN_RHS_FLOOR = 5e-2       # relative error is undefined near zeros of the Laplacian
CHART_ROUND_TRIP_TOL = 1e-12
LIOUVILLE_TILDE_FD_TOL = 1e-6

NECK_POINTS = 8
FIELD_POINTS = 4
LAPLACIAN_CANDIDATES = 16
PLANE_PAIRS = 20
CHARTS = 5
CHART_T = 100.0
LOG_DERIVATIVE_GRID = np.linspace(0.0, 2.0, 21)


class OracleMiss(AssertionError):
    """An operation's result missed the benchmark's oracle."""


def _check(residual, tol, what):
    if not residual < tol:  # NaN misses too
        raise OracleMiss(f"{what}: {residual:.3e} not below {tol:.0e}")


def _deal(rng, strata):
    """Endless shuffled passes over every stratum."""
    while True:
        for i in rng.permutation(len(strata)):
            yield strata[i]


def _sphere(rng, count, m):
    x = rng.standard_normal((count, m))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


# ---------------------------------------------------------------------------
# necks: build one family, then check it pointwise and through its invariant
# ---------------------------------------------------------------------------

NECK_STRATA = list(itertools.product(range(3, 7), (0.0, 0.5, 1.0, 2.0)))


def neck_input(rng, m, alpha):
    return {
        "m": m,
        "alpha": alpha,
        "a": _log_uniform(rng, 0.2, 5.0, m),
        "ys": 4.0 * rng.standard_normal(NECK_POINTS),
        "xs": _sphere(rng, NECK_POINTS, m),
    }


def neck_op(sl, inp):
    alpha = inp["alpha"]
    if alpha == 0.0:
        family = sl.LawlorNeck(inp["a"])
        _check(abs(family.angle_sum - math.pi), ANGLE_SUM_TOL, "Lawlor angle sum")
    else:
        family = sl.JLTExpander(alpha, inp["a"])
    for y, x in zip(inp["ys"], inp["xs"]):
        y = float(y)
        sample = family.point(y, x)
        _check(sample.omega_residual(), SL_RESIDUAL_TOL, "omega residual")
        # Im(e^{-i theta} Omega) vanishes when the frame's phase is the grading
        volume = sl.holomorphic_volume(sample.frame) * cmath.exp(-1j * sample.theta)
        _check(abs(volume.imag), SL_RESIDUAL_TOL, "Im Omega residual")
        if alpha:
            _check(family.expander_identity_residual(y, x), EXPANDER_IDENTITY_TOL,
                   "expander identity")
    tol = LAWLOR_INVARIANT_TOL if alpha == 0.0 else JLT_INVARIANT_TOL
    _check(abs(family.invariant_from_potential_limits() - family.A), tol,
           "invariant from potential limits")


# ---------------------------------------------------------------------------
# inversion: targets drawn in angle space, checked by an untimed forward build
# ---------------------------------------------------------------------------

INVERSION_STRATA = list(itertools.product((3, 4, 5), (0.0, 0.5, 2.0)))


def inversion_input(rng, m, alpha):
    if alpha == 0.0:
        phis = math.pi * rng.dirichlet(np.full(m, 2.0))
        return {"m": m, "alpha": alpha, "phis": phis,
                "A": float(_log_uniform(rng, 0.2, 5.0))}
    total = rng.uniform(0.3 * math.pi, 0.9 * math.pi)
    return {"m": m, "alpha": alpha, "phis": total * rng.dirichlet(np.full(m, 2.0))}


def inversion_op(sl, inp):
    if inp["alpha"] == 0.0:
        return sl.lawlor_invert(inp["phis"], inp["A"]).a
    return sl.jlt_invert(inp["alpha"], inp["phis"]).a


def inversion_oracle(sl, inp, a):
    if inp["alpha"] == 0.0:
        neck = sl.LawlorNeck(a)
        defect = max(float(np.max(np.abs(neck.phis - inp["phis"]))),
                     abs(neck.A - inp["A"]) / inp["A"])
    else:
        expander = sl.JLTExpander(inp["alpha"], a)
        defect = float(np.max(np.abs(expander.phis - inp["phis"])))
    _check(defect, ROUND_TRIP_TOL, "forward round trip")


# ---------------------------------------------------------------------------
# fields: radial ODE, an assembled mode under FD operators, the Laplacian pair
# ---------------------------------------------------------------------------

# (m, k) sets an op's cost and alpha changes it little, so alpha is drawn per op
FIELD_STRATA = list(itertools.product((3, 4, 5), range(7)))
FIELD_ALPHAS = (0.5, 1.0, 2.0)


def _multi_indices(m, max_degree):
    return [beta for beta in itertools.product(range(max_degree + 1), repeat=m)
            if sum(beta) <= max_degree]


def field_input(rng, m, k):
    alpha = float(rng.choice(FIELD_ALPHAS))
    coeffs = {beta: float(rng.uniform(-1.0, 1.0))
              for beta in _multi_indices(m, 3) if rng.uniform() < 0.5}
    return {
        "m": m,
        "k": k,
        "alpha": alpha,
        "basis_pick": float(rng.uniform()),
        "mode_points": _sphere(rng, FIELD_POINTS, m)
        * rng.uniform(2.0, 6.0, (FIELD_POINTS, 1)),
        "cubic": coeffs,
        "ball_points": _sphere(rng, LAPLACIAN_CANDIDATES, m)
        * rng.uniform(0.7, 1.25, (LAPLACIAN_CANDIDATES, 1)),
    }


def field_op(sl, inp):
    m, k, alpha = inp["m"], inp["k"], inp["alpha"]
    solution = sl.solve_radial_mode(m, k, alpha)
    _check(solution.overlap_disagreement(), ODE_OVERLAP_TOL, "radial overlap")
    big_k = k * (m + k - 2)
    constant = 3 * (m + 1)
    if big_k > constant:
        bound = (big_k - constant) / (2.0 * alpha)
        for t in LOG_DERIVATIVE_GRID:
            ld = solution.derivative(float(t)) / solution.value(float(t))
            _check(max(-ld, ld - bound), LOG_DERIVATIVE_SLACK, f"log-derivative bound at t={t:g}")

    radial = sl.solve_separation_radial(m, k, alpha)
    basis = sl.harmonic_basis(m, k)
    poly = basis[int(inp["basis_pick"] * len(basis))]
    field = sl.expansion_field([sl.ExpansionMode(poly, radial)])
    for x in inp["mode_points"]:
        _check(abs(sl.linearized_expander_residual(field, alpha, x)),
               LINEARIZED_RESIDUAL_TOL, "linearized expander residual")

    ball = sl.polynomial_field(inp["cubic"], m)
    for y in inp["ball_points"]:
        lhs, rhs = sl.inversion_laplacian_pair(ball, m, y)
        if abs(rhs) >= LAPLACIAN_RHS_FLOOR:
            _check(abs(lhs - rhs) / abs(rhs), LAPLACIAN_IDENTITY_REL_TOL,
                   "inversion Laplacian identity")
            break


# ---------------------------------------------------------------------------
# calculus: GF(2) sphere complex, Maslov complement rule, plumbing charts
# ---------------------------------------------------------------------------

# m = 7 is dealt twice, so the median and the 90th percentile fall inside a
# stratum instead of in the gap between two.
CALCULUS_STRATA = [5, 6, 7, 7, 8]


def simplex_boundary(m, rng):
    """Boundary of the (m+1)-simplex as a GF(2) cochain complex.

    The generators are the proper faces, of degree |face| - 1; the
    differential adds one vertex.  Vertex labels and generator order come
    from rng.  Returns (generator dicts, counts) for `build_complex`.
    """
    n = m + 2
    full = (1 << n) - 1
    label = [int(v) for v in rng.permutation(n)]

    def name(face):
        return "s%x" % sum(1 << label[v] for v in range(n) if face >> v & 1)

    faces = range(1, full)
    counts = {(name(face), name(face | 1 << v)): 1
              for face in faces for v in range(n)
              if not face >> v & 1 and face | 1 << v != full}
    gens = [{"id": name(face), "degree": bin(face).count("1") - 1} for face in faces]
    order = rng.permutation(len(gens))
    return [gens[i] for i in order], counts


def check_simplex_boundary(gens, counts, m):
    """The generator's own check: d^2 = 0 and the cohomology of S^m."""
    targets = {}
    for p, q in counts:
        targets.setdefault(p, []).append(q)
    for p, mids in targets.items():
        parity = {}
        for q in mids:
            for r in targets.get(q, ()):
                parity[r] = parity.get(r, 0) ^ 1
        if any(parity.values()):
            raise OracleMiss(f"generated complex has d^2 != 0 at {p}")
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g["degree"], []).append(g["id"])
    bit = {gid: i for ids in by_degree.values() for i, gid in enumerate(ids)}
    rank = {}
    for d, ids in by_degree.items():
        rows = [sum(1 << bit[q] for q in targets.get(p, ())) for p in ids]
        rank[d] = _gf2_rank(rows)
    dims = {d: len(ids) - rank[d] - rank.get(d - 1, 0) for d, ids in by_degree.items()}
    dims = {d: v for d, v in dims.items() if v}
    if dims != {0: 1, m: 1}:
        raise OracleMiss(f"generated complex has cohomology {dims}")


def _gf2_rank(rows):
    pivots = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def _unitary(rng, m):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _plane_pair(rng, m):
    """Two unitaries spanning planes at least 1e-3 from non-transverse,
    with a grading pair of known degree n."""
    while True:
        ua, ub = _unitary(rng, m), _unitary(rng, m)
        w = ua.conj().T @ ub
        two_phi = np.angle(np.linalg.eigvals(w @ w.T))
        phis = 0.5 * np.where(two_phi <= 0.0, two_phi + 2.0 * np.pi, two_phi)
        if min(phis.min(), np.pi - phis.max()) > 1e-3:
            break
    n = int(rng.integers(1, m))
    theta_l = float(rng.uniform(-3.0, 3.0))
    return {"ua": ua, "ub": ub, "n": n, "theta_l": theta_l,
            "theta_lp": theta_l + float(phis.sum()) - n * math.pi}


def _chart_case(rng, m):
    """Angles, a point for the Darboux round trip, a point for the sphere
    chart round trip, and Darboux coordinates in one of the bump regions."""
    phis = rng.uniform(0.2, math.pi - 0.2, m)
    z = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * _log_uniform(rng, 0.1, 100.0)
    x_sphere = _sphere(rng, 1, m)[0] * _log_uniform(rng, 0.5, 1e6)
    gap = CHART_T * rng.choice([rng.uniform(-0.8, 0.8), rng.uniform(1.2, 1.8),
                                -rng.uniform(1.2, 1.8), rng.uniform(2.2, 4.0),
                                -rng.uniform(2.2, 4.0)])
    base = 0.3 * math.sqrt(2.0 * CHART_T)
    u, v = _sphere(rng, 2, m)
    if gap >= 0.0:
        dx, dy = u * math.sqrt(gap + base * base), v * base
    else:
        dx, dy = u * base, v * math.sqrt(-gap + base * base)
    return {"phis": phis, "z": z, "x_sphere": x_sphere, "dx": dx, "dy": dy}


@functools.lru_cache(maxsize=None)
def _verified_simplex(m):
    # labels and order do not change the structure, so one check per m holds
    # for every complex simplex_boundary(m, ...) returns
    check_simplex_boundary(*simplex_boundary(m, np.random.default_rng(0)), m)
    return True


def calculus_input(rng, m):
    _verified_simplex(m)
    gens, counts = simplex_boundary(m, rng)
    return {
        "m": m,
        "gens": gens,
        "counts": counts,
        "planes": [_plane_pair(rng, m) for _ in range(PLANE_PAIRS)],
        "charts": [_chart_case(rng, m) for _ in range(CHARTS)],
    }


def calculus_op(sl, inp):
    m = inp["m"]
    cx = sl.build_complex(inp["gens"], inp["counts"])
    cx = sl.complex_from_json(sl.complex_to_json(cx))
    dims = cx.cohomology_dims()
    if dims != {0: 1, m: 1} or dims != sl.expected_sphere_cohomology(m):
        raise OracleMiss(f"sphere complex cohomology {dims}")

    for pair in inp["planes"]:
        plane_a = sl.LagrangianPlane(pair["ua"])
        plane_b = sl.LagrangianPlane(pair["ub"])
        mu = sl.maslov_degree(sl.characteristic_angles(plane_a, plane_b),
                              sl.GradedPointPair(pair["theta_l"], pair["theta_lp"]))
        mu_swap = sl.maslov_degree(sl.characteristic_angles(plane_b, plane_a),
                                   sl.GradedPointPair(pair["theta_lp"], pair["theta_l"]))
        if mu != pair["n"] or mu + mu_swap != m:
            raise OracleMiss(f"Maslov degrees {mu}, {mu_swap}; expected {pair['n']}, m = {m}")

    for case in inp["charts"]:
        chart = sl.PlumbingChart(sl.AngleVector(case["phis"]), T=CHART_T)
        z = case["z"]
        back = sl.from_darboux(sl.to_darboux(z, chart), chart)
        _check(float(np.max(np.abs(back - z))) / max(1.0, float(np.max(np.abs(z)))),
               CHART_ROUND_TRIP_TOL, "Darboux round trip")
        x = case["x_sphere"]
        back = sl.sphere_chart_inverse(sl.sphere_chart(x))
        _check(float(np.max(np.abs(back - x))) / float(np.linalg.norm(x)),
               CHART_ROUND_TRIP_TOL, "sphere chart round trip")
        # not re-exported by the package; reached through its submodule
        residual = sl.plumbing.exterior_derivative_residual(
            sl.DarbouxCoords(case["dx"], case["dy"]), chart, step=1e-5)
        _check(residual, LIOUVILLE_TILDE_FD_TOL, "d(lambda tilde) - omega")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    strata: list
    draw: Callable            # (rng, *stratum) -> op input
    op: Callable              # (slaglab, input) -> result; timed
    warm_strata: list         # strata of the warm-up operations
    oracle: Optional[Callable] = None   # (slaglab, input, result); untimed
    bases: tuple = ()         # (m, k) harmonic bases built cold in the warm-up

    def inputs(self, rng):
        for stratum in _deal(rng, self.strata):
            yield self.draw(rng, *_as_tuple(stratum))

    def warm_inputs(self, rng):
        return [self.draw(rng, *_as_tuple(s)) for s in self.warm_strata]


def _as_tuple(stratum):
    return stratum if isinstance(stratum, tuple) else (stratum,)


WORKLOADS = {
    w.name: w for w in (
        Workload("necks", NECK_STRATA, neck_input, neck_op, [(3, 0.0), (3, 1.0)]),
        Workload("inversion", INVERSION_STRATA, inversion_input, inversion_op,
                 [(3, 0.0), (3, 0.5)], oracle=inversion_oracle),
        Workload("fields", FIELD_STRATA, field_input, field_op, [(3, 0)],
                 bases=tuple(FIELD_STRATA)),
        Workload("calculus", CALCULUS_STRATA, calculus_input, calculus_op, [5]),
    )
}

