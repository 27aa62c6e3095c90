#!/usr/bin/env python3
"""Closed-loop benchmark of slaglab.

    python3 perfbench/run.py --workload necks --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  One client issues the next operation when the previous one returns,
on one thread (BLAS and OpenMP pools are pinned to one thread).  Operation
inputs come from the seed only; every operation checks its result against
the oracles in `workloads.py`, and a miss or an exception counts as failed
without stopping the run.  `--seconds` is the operation time of a run.

Times are reported at the reference speed of `reference.py`, because the
speed of a shared machine drifts by more than half over minutes.  A
reference kernel runs in a separate process right before and right after
every operation; an operation's wall (CPU) time is scaled by
reference.KERNEL_MS over the median wall (CPU) time of the kernels around
it and its WINDOW neighbours on each side.  A time in "ms" is therefore the
time on a machine where the kernel takes exactly 1 ms.  The set-up is timed
in PROBES fresh interpreters, this one and others spread over the run, and
the CPU time of each is scaled by that of a bare interpreter started next to
it.  The summary lines print the raw figures too, and a traced run reports
some of them as `clock.*` metrics.

With `--trace 0` the run reports the end-to-end metrics:

    ops_per_s       operations that passed their oracle, per second of op time
    op_ms_p50/p90   time per operation, median and 90th percentile
                    (Harrell-Davis estimates)
    cpu_ms_per_op   process CPU time per operation
    setup_s         CPU time of a fresh interpreter that imports slaglab and
                    warms the workload up; median over the probes
    peak_rss_mb     peak resident memory of this process

failed_frac (failed / attempted) is printed in the summary lines; the result
line carries it as `failed` and `attempted`.

With `--trace 1` the hooks of `tracer.py` are installed and every input
runs twice, once recorded and once not, in alternating order; the run
reports the per-layer metrics and writes the spans to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference  # stdlib only at import; numpy loads after the timed import

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PROBES = 5
PROBE_TIMEOUT_S = 120
WINDOW = 4
WORKLOAD_NAMES = ("necks", "inversion", "fields", "calculus")


def set_up(workload_name):
    """Import slaglab in this (fresh) interpreter and warm the workload up.

    Returns the package, the workload, the warm-up outcomes and the
    timings; CPU times count from the interpreter's start.
    """
    sys.path.insert(0, str(SRC))
    import slaglab
    import_cpu = time.process_time()
    if Path(slaglab.__file__).resolve().parent != SRC / "slaglab":
        raise SystemExit(f"slaglab was imported from {slaglab.__file__}, not {SRC}")
    scipy_modules = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import workloads
    workload = workloads.WORKLOADS[workload_name]
    cold0 = time.process_time()
    for m, k in workload.bases:
        slaglab.harmonic_basis(m, k)
    cold = time.process_time() - cold0
    import numpy as np
    # one fixed warm-up for every seed, so that every run times the same set-up
    warm_rng = np.random.default_rng(0)
    outcomes = [run_op(slaglab, workload, inp).error
                for inp in workload.warm_inputs(warm_rng)]
    timings = {
        "setup_cpu_s": time.process_time(),
        "import_cpu_s": import_cpu,
        "harmonic_basis_cold_cpu_s": cold,
        "scipy_modules": scipy_modules,
    }
    return slaglab, workload, outcomes, timings


class Sample:
    """One operation: error or None, raw wall and CPU seconds, the reference
    kernels timed around it, and (after `at_reference_speed`) its wall and
    CPU seconds at the reference speed."""

    __slots__ = ("error", "wall", "cpu", "kernels", "traced", "wall_ref", "cpu_ref")

    def __init__(self, error, wall, cpu, kernels, traced):
        self.error = error
        self.wall = wall
        self.cpu = cpu
        self.kernels = kernels
        self.traced = traced
        self.wall_ref = self.cpu_ref = None


def run_op(sl, workload, inp, server=None, tracer=None, op_id=None):
    """Time one operation between two reference kernels; the oracle of the
    workload, if any, runs after the second kernel and is not timed."""
    error = None
    span = tracer.operation(op_id) if tracer else contextlib.nullcontext()
    before = server.measure() if server else None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with span:
            result = workload.op(sl, inp)
    except Exception as exc:  # an operation's failure is data, not a crash
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    after = server.measure() if server else None
    if error is None and workload.oracle is not None:
        try:
            workload.oracle(sl, inp, result)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return Sample(error, wall, cpu, (before, after), tracer is not None)


def closed_loop(step, inputs, seconds, pauses):
    """Feed inputs to step until `seconds` of raw operation time have passed.

    step(input) returns a list of samples.  pauses are (op time, callable)
    pairs, called between operations once that much op time has passed;
    any left over run at the end.
    """
    samples = []
    busy = 0.0
    pauses = sorted(pauses, key=lambda p: p[0])
    for inp in inputs:
        if busy >= seconds:
            break
        while pauses and busy >= pauses[0][0]:
            pauses.pop(0)[1]()
        new = step(inp)
        samples.extend(new)
        busy += sum(s.wall for s in new)
    for _, pause in pauses:
        pause()
    return samples


def at_reference_speed(samples):
    """Scale each sample by the median reference kernel of its window."""
    for i, s in enumerate(samples):
        near = [k for t in samples[max(0, i - WINDOW):i + WINDOW + 1] for k in t.kernels]
        s.wall_ref = s.wall * 1e-3 * reference.KERNEL_MS / statistics.median(k[0] for k in near)
        s.cpu_ref = s.cpu * 1e-3 * reference.KERNEL_MS / statistics.median(k[1] for k in near)


def probe_setup(args):
    """(set-up timings of a fresh interpreter, CPU seconds of a bare
    interpreter started right before it)."""
    interpreter = reference.interpreter_cpu_s()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), interpreter


def probed(probes, key):
    """Median of a probed CPU time at the reference speed."""
    return reference.INTERPRETER_S * statistics.median(t[key] / ref for t, ref in probes)


def harrell_davis(np, values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  Operation times cluster by stratum, and a quantile
    often falls between two clusters or in a sparse tail, where a single
    order statistic jumps from one seed to the next."""
    from scipy.special import betainc
    x = np.sort(values)
    n = len(x)
    return float(np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)) @ x)


def end_to_end_metrics(np, samples, probes):
    walls = [s.wall_ref for s in samples]
    ok = sum(s.error is None for s in samples)
    return {
        "ops_per_s": (ok / sum(walls), "1/s"),
        "op_ms_p50": (1e3 * harrell_davis(np, walls, 0.5), "ms"),
        "op_ms_p90": (1e3 * harrell_davis(np, walls, 0.9), "ms"),
        "cpu_ms_per_op": (1e3 * statistics.fmean(s.cpu_ref for s in samples), "ms"),
        "setup_s": (probed(probes, "setup_cpu_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up in this interpreter and print it as JSON")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads, here and in the child processes
        os.environ[var] = "1"

    if args.setup_only:
        *_, timings = set_up(args.workload)
        print(json.dumps(timings))
        return 0

    sl, workload, warm_errors, own = set_up(args.workload)
    probes = [(own, reference.interpreter_cpu_s())]
    import numpy as np
    import scipy
    stream = workload.inputs(np.random.default_rng([args.seed, 0]))
    print(f"slaglab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
          f"{'/'.join(THREAD_VARS)}=1")

    pauses = [(args.seconds * i / (PROBES - 1), lambda: probes.append(probe_setup(args)))
              for i in range(PROBES - 1)]
    with reference.KernelServer() as server:
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install(sl)
            traced_ops = []

            def step(inp):
                op_id = len(traced_ops)
                # alternate the order, so that neither kind always runs first
                order = (None, tracer) if op_id % 2 == 0 else (tracer, None)
                runs = [run_op(sl, workload, inp, server, t, op_id) for t in order]
                traced_ops.append(runs[order.index(tracer)])
                return runs

            samples = closed_loop(step, stream, args.seconds, pauses)
        else:
            samples = closed_loop(lambda inp: [run_op(sl, workload, inp, server)],
                                  stream, args.seconds, pauses)
    at_reference_speed(samples)
    raw_setups = [t["setup_cpu_s"] for t, _ in probes]
    kernel_ms = 1e3 * statistics.median(k[0] for s in samples for k in s.kernels)

    if args.trace:
        plain = [s for s in samples if not s.traced]
        summary = {
            "import_s": probed(probes, "import_cpu_s"),
            "scipy_modules": own["scipy_modules"],
            "harmonic_basis_cold_s": probed(probes, "harmonic_basis_cold_cpu_s"),
            "overhead_frac": 1.0 - (sum(s.wall_ref for s in plain)
                                    / sum(s.wall_ref for s in traced_ops)),
            "reference_kernel_ms": kernel_ms,
            "raw_cpu_ms_per_op": 1e3 * statistics.fmean(s.cpu for s in plain),
            "raw_setup_s": statistics.median(raw_setups),
        }
        metrics = tracing.layer_metrics(tracer, summary,
                                        [s.wall_ref / s.wall for s in traced_ops])
        trace_file = write_trace(tracer, args)
        print(f"ops: {len(plain)} inputs, each run untraced and traced")
        print(f"absent hooks: {', '.join(tracer.absent) or 'none'}")
        print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(HERE.parent)}")
    else:
        metrics = end_to_end_metrics(np, samples, probes)
        p90 = metrics["op_ms_p90"][0] / 1e3
        print(f"ops: {len(samples)} timed samples, "
              f"{sum(s.wall_ref > p90 for s in samples)} beyond p90")
    raw = [s.wall for s in samples]
    print(f"raw: {len(samples) / sum(raw):.4g} ops/s, p50 {1e3 * statistics.median(raw):.4g} ms, "
          f"CPU {1e3 * statistics.fmean(s.cpu for s in samples):.4g} ms/op; "
          f"reference kernel {kernel_ms:.4g} ms; set-up CPU "
          + ", ".join(f"{t:.3f}" for t in raw_setups) + " s; bare interpreter CPU "
          + ", ".join(f"{1e3 * ref:.1f}" for _, ref in probes) + " ms")

    errors = warm_errors + [s.error for s in samples]
    failed = [e for e in errors if e is not None]
    print(f"failed_frac: {len(failed) / len(errors):.6g} ({len(failed)} of {len(errors)}, "
          f"{len(warm_errors)} warm-up included)")
    for error in sorted(set(failed))[:5]:
        print(f"  failure: {error}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(errors),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_trace(tracer, args):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "absent_hooks": tracer.absent,
        "counters": dict(tracer.counters),
        "span_fields": ["name", "layer", "start_s", "end_s", "parent", "op"],
        "spans": [[n, layer, s - origin, e - origin, p, op]
                  for n, layer, s, e, p, op in tracer.spans],
    }
    path.write_text(json.dumps(doc))
    return path


if __name__ == "__main__":
    sys.exit(main())
