"""Spans and counters around slaglab's public layers, installed from outside.

`Tracer.install` wraps the functions and methods listed in `HOOKS` in the
loaded `slaglab` modules; nothing inside the library is edited.  A wrapped
call records a span [name, layer, start, end, parent, op] in memory while
recording is on.  A hook whose target no longer exists is listed in
`Tracer.absent` instead of failing the run, so renamed internals show up as
absent hooks.

`layer_metrics` turns the spans and counters into the per-layer metrics.  A
layer's busy time is self time: each span's duration minus the time its
child spans cover.  Counts are per operation.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

OP_SPAN = "bench:op"


@dataclass(frozen=True)
class Hook:
    layer: str
    target: str                        # "module:function" or "module:Class.method"; the last part may be a pattern
    span: bool = True                  # False: count calls, record no span
    counter: Optional[str] = None      # counter raised on each call
    amount: Optional[Callable] = None  # (args, result) -> increment; default 1
    integrand: bool = False            # count evaluations of the first argument instead


HOOKS = (
    Hook("quadrature", "quadrature:integrate*", counter="quadrature.integrand_evals",
         integrand=True),
    Hook("lawlor", "lawlor:LawlorNeck.__init__"),
    Hook("lawlor", "lawlor:LawlorNeck.point"),
    Hook("lawlor", "lawlor:LawlorNeck.invariant_from_potential_limits"),
    Hook("expanders", "expanders:JLTExpander.__init__"),
    Hook("expanders", "expanders:JLTExpander.point"),
    Hook("expanders", "expanders:JLTExpander.expander_identity_residual"),
    Hook("expanders", "expanders:JLTExpander.invariant_from_potential_limits"),
    Hook("invert", "lawlor:lawlor_invert", counter="invert.newton_iterations",
         amount=lambda args, result: getattr(result, "iterations", 0)),
    Hook("invert", "expanders:jlt_invert", counter="invert.newton_iterations",
         amount=lambda args, result: getattr(result, "iterations", 0)),
    Hook("modes", "modes:solve_radial_mode"),
    Hook("modes", "modes:solve_separation_radial"),
    Hook("modes", "modes:harmonic_basis"),
    Hook("modes", "modes:assemble_expansion"),
    Hook("graphs", "graphs:ScalarField.value", span=False, counter="graphs.field_evals"),
    Hook("graphs", "graphs:ScalarField.gradient"),
    Hook("graphs", "graphs:ScalarField.hessian"),
    Hook("graphs", "graphs:linearized_expander_residual"),
    Hook("graphs", "graphs:inversion_laplacian_pair"),
    Hook("floer", "floer:build_complex"),
    Hook("floer", "floer:complex_to_json"),
    Hook("floer", "floer:complex_from_json"),
    Hook("floer", "floer:FloerComplexZ2.cohomology_dims", counter="floer.generators",
         amount=lambda args, result: len(getattr(args[0], "generators", ()))),
    Hook("geometry", "geometry:characteristic_angles"),
    Hook("geometry", "geometry:maslov_degree"),
    Hook("geometry", "geometry:phase_of_frame"),
    Hook("geometry", "geometry:holomorphic_volume"),
    Hook("geometry", "geometry:liouville_form"),
    Hook("geometry", "geometry:TangentFrame.orthonormalized"),
    Hook("plumbing", "plumbing:to_darboux"),
    Hook("plumbing", "plumbing:from_darboux"),
    Hook("plumbing", "plumbing:sphere_chart"),
    Hook("plumbing", "plumbing:sphere_chart_inverse"),
    Hook("plumbing", "plumbing:exterior_derivative_residual"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.absent = []
        self.recording = False
        self._stack = []
        self._op = None

    def install(self, package):
        """Wrap every hook target found in the loaded modules of package."""
        for hook in HOOKS:
            targets = _resolve(package.__name__, hook.target)
            if not targets:
                self.absent.append(hook.target)
            for owner, attr, original in targets:
                name = f"{hook.target.split(':')[0]}:{_qualname(owner, attr)}"
                wrapper = self._wrap(hook, name, original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                else:
                    _rebind(package.__name__, original, wrapper)

    @contextmanager
    def operation(self, op):
        """Record the spans of one operation under a root span."""
        record = [OP_SPAN, "bench", 0.0, 0.0, -1, op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._op = op
        self.recording = True
        record[2] = perf_counter()
        try:
            yield
        finally:
            record[3] = perf_counter()
            self.recording = False
            self._stack.pop()

    def _wrap(self, hook, name, fn):
        tracer = self
        if not hook.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.recording:
                    tracer.counters[hook.counter] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            entering = parent < 0 or tracer.spans[parent][1] != hook.layer
            if hook.integrand and entering and args:
                args = (_counting(args[0], tracer.counters, hook.counter),) + args[1:]
            record = [name, hook.layer, 0.0, 0.0, parent, tracer._op]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if hook.counter and not hook.integrand:
                tracer.counters[hook.counter] += (
                    hook.amount(args, result) if hook.amount else 1)
            return result
        return traced


def _counting(f, counters, key):
    def g(*args):
        counters[key] += 1
        return f(*args)
    return g


def _resolve(package, target):
    """[(owner, attribute, original)] for a hook target; [] when absent."""
    module_name, _, path = target.partition(":")
    try:
        module = importlib.import_module(f"{package}.{module_name}")
    except ImportError:
        return []
    owner_name, _, pattern = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        if not isinstance(owner, type):
            return []
        found = [(owner, attr, fn) for attr, fn in vars(owner).items()
                 if fnmatch.fnmatchcase(attr, pattern) and callable(fn)]
    else:
        found = [(module, attr, fn) for attr, fn in vars(module).items()
                 if fnmatch.fnmatchcase(attr, pattern) and callable(fn)
                 and getattr(fn, "__module__", None) == module.__name__]
    return found


def _qualname(owner, attr):
    return f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr


def _rebind(package, original, wrapper):
    """Replace a function under every name the package's modules bind it to,
    so that callers importing it by name see the wrapper too."""
    for name, module in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit); every metric is better lower.
PER_LAYER = (
    ("import.slaglab_s", "s"),
    ("import.scipy_modules", "count"),
    ("quadrature.calls", "count/op"),
    ("quadrature.integrand_evals", "count/op"),
    ("quadrature.busy_s", "s/op"),
    ("lawlor.builds", "count/op"),
    ("lawlor.build_ms_p50", "ms"),
    ("lawlor.point_ms_p50", "ms"),
    ("lawlor.busy_s", "s/op"),
    ("expanders.builds", "count/op"),
    ("expanders.build_ms_p50", "ms"),
    ("expanders.point_ms_p50", "ms"),
    ("expanders.identity_ms_p50", "ms"),
    ("expanders.busy_s", "s/op"),
    ("invert.newton_iterations", "count/op"),
    ("invert.builds_per_inversion", "count/op"),
    ("invert.lawlor_ms_p50", "ms"),
    ("invert.jlt_ms_p50", "ms"),
    ("modes.radial_solves", "count/op"),
    ("modes.radial_ms_p50", "ms"),
    ("modes.assemble_calls", "count/op"),
    ("modes.busy_s", "s/op"),
    ("modes.harmonic_basis_cold_s", "s"),
    ("graphs.field_evals", "count/op"),
    ("graphs.hessian_ms_p50", "ms"),
    ("graphs.laplacian_pair_ms_p50", "ms"),
    ("graphs.busy_s", "s/op"),
    ("floer.generators", "count/op"),
    ("floer.build_ms_p50", "ms"),
    ("floer.cohomology_ms_p50", "ms"),
    ("floer.busy_s", "s/op"),
    ("geometry.characteristic_angles_ms_p50", "ms"),
    ("geometry.busy_s", "s/op"),
    ("plumbing.exterior_residual_ms_p50", "ms"),
    ("plumbing.busy_s", "s/op"),
    ("trace.overhead_frac", "fraction"),
    ("trace.absent_hooks", "count"),
    ("clock.reference_kernel_ms", "ms"),
    ("clock.raw_cpu_ms_per_op", "ms"),
    ("clock.raw_setup_s", "s"),
)

_BUILDS = ("lawlor:LawlorNeck.__init__", "expanders:JLTExpander.__init__")
_INVERTERS = ("lawlor:lawlor_invert", "expanders:jlt_invert")


def layer_metrics(tracer, setup, scale):
    """Per-layer values from a traced pass.

    setup carries the figures from outside the traced operations (import
    time, scipy modules, cold harmonic bases, tracing overhead, raw clock
    figures); scale[op] converts the raw times of operation op to the
    reference speed.
    """
    spans = tracer.spans
    ops = sum(1 for s in spans if s[0] == OP_SPAN) or 1
    child_time = [0.0] * len(spans)
    in_invert = [False] * len(spans)
    for i, (_, layer, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            in_invert[i] = in_invert[parent]
        in_invert[i] = in_invert[i] or layer == "invert"
    busy = Counter()
    durations = {}
    entries = Counter()
    invert_builds = 0
    for i, (name, layer, start, end, parent, op) in enumerate(spans):
        busy[layer] += (end - start - child_time[i]) * scale[op]
        durations.setdefault(name, []).append((end - start) * scale[op])
        if parent < 0 or spans[parent][1] != layer:
            entries[layer] += 1
        if name in _BUILDS and in_invert[i]:
            invert_builds += 1

    def per_op(value):
        return value / ops

    def p50_ms(name):
        values = durations.get(name)
        return 1e3 * statistics.median(values) if values else 0.0

    def calls(name):
        return len(durations.get(name, ()))

    inversions = sum(calls(n) for n in _INVERTERS)
    values = {
        "import.slaglab_s": setup["import_s"],
        "import.scipy_modules": setup["scipy_modules"],
        "quadrature.calls": per_op(entries["quadrature"]),
        "quadrature.integrand_evals": per_op(tracer.counters["quadrature.integrand_evals"]),
        "quadrature.busy_s": per_op(busy["quadrature"]),
        "lawlor.builds": per_op(calls(_BUILDS[0])),
        "lawlor.build_ms_p50": p50_ms(_BUILDS[0]),
        "lawlor.point_ms_p50": p50_ms("lawlor:LawlorNeck.point"),
        "lawlor.busy_s": per_op(busy["lawlor"]),
        "expanders.builds": per_op(calls(_BUILDS[1])),
        "expanders.build_ms_p50": p50_ms(_BUILDS[1]),
        "expanders.point_ms_p50": p50_ms("expanders:JLTExpander.point"),
        "expanders.identity_ms_p50": p50_ms("expanders:JLTExpander.expander_identity_residual"),
        "expanders.busy_s": per_op(busy["expanders"]),
        "invert.newton_iterations": tracer.counters["invert.newton_iterations"] / max(inversions, 1),
        "invert.builds_per_inversion": invert_builds / max(inversions, 1),
        "invert.lawlor_ms_p50": p50_ms(_INVERTERS[0]),
        "invert.jlt_ms_p50": p50_ms(_INVERTERS[1]),
        "modes.radial_solves": per_op(calls("modes:solve_radial_mode")),
        "modes.radial_ms_p50": p50_ms("modes:solve_radial_mode"),
        "modes.assemble_calls": per_op(calls("modes:assemble_expansion")),
        "modes.busy_s": per_op(busy["modes"]),
        "modes.harmonic_basis_cold_s": setup["harmonic_basis_cold_s"],
        "graphs.field_evals": per_op(tracer.counters["graphs.field_evals"]),
        "graphs.hessian_ms_p50": p50_ms("graphs:ScalarField.hessian"),
        "graphs.laplacian_pair_ms_p50": p50_ms("graphs:inversion_laplacian_pair"),
        "graphs.busy_s": per_op(busy["graphs"]),
        "floer.generators": per_op(tracer.counters["floer.generators"]),
        "floer.build_ms_p50": p50_ms("floer:build_complex"),
        "floer.cohomology_ms_p50": p50_ms("floer:FloerComplexZ2.cohomology_dims"),
        "floer.busy_s": per_op(busy["floer"]),
        "geometry.characteristic_angles_ms_p50": p50_ms("geometry:characteristic_angles"),
        "geometry.busy_s": per_op(busy["geometry"]),
        "plumbing.exterior_residual_ms_p50": p50_ms("plumbing:exterior_derivative_residual"),
        "plumbing.busy_s": per_op(busy["plumbing"]),
        "trace.overhead_frac": setup["overhead_frac"],
        "trace.absent_hooks": len(tracer.absent),
        "clock.reference_kernel_ms": setup["reference_kernel_ms"],
        "clock.raw_cpu_ms_per_op": setup["raw_cpu_ms_per_op"],
        "clock.raw_setup_s": setup["raw_setup_s"],
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}
