"""Reference work that measures how fast the machine is right now.

A shared machine's speed drifts by tens of percent within seconds and by
more than half over minutes, for every process on it, though not for every
kind of work alike.  The benchmark
therefore reports its times at a reference speed: each time is divided by
the time of fixed reference work done close to it, in a process that never
imports slaglab, so that nothing the library leaves in the benchmark's own
process (threads, heap, imported modules) can change the reference.

    python3 perfbench/reference.py

reads one line per request from standard input and answers with the wall
and CPU seconds of one run of `kernel`, a loop of small numpy calls shaped
like the library's integrand callbacks; on an idle 2-vCPU host it takes
about 0.9 ms.  Operation times are scaled by it.

Set-up times are scaled by `interpreter_cpu_s`, the CPU time of starting a
bare interpreter: work of the same kind as importing a package, which the
machine's slow phases slow by about as much, and less than the kernel.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from pathlib import Path

KERNEL_MS = 1.0       # a kernel takes exactly this long at the reference speed
INTERPRETER_S = 0.04  # and a bare interpreter start this much CPU time
TIMEOUT_S = 60


def kernel(np):
    """(wall, CPU) seconds of a fixed loop of small numpy calls."""
    a = np.linspace(0.2, 5.0, 5)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    s = 0.0
    for i in range(200):
        x = i * 1e-2
        s += math.exp(-0.5 * float(np.sum(np.log1p(a * x * x))))
    return time.perf_counter() - t0, time.process_time() - cpu0


class KernelServer:
    """A child process running this file; `measure()` times one kernel in it."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)

    def measure(self):
        self._proc.stdin.write("\n")
        wall, cpu = self._proc.stdout.readline().split()
        return float(wall), float(cpu)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def interpreter_cpu_s():
    """CPU seconds of starting a bare interpreter, measured inside it."""
    proc = subprocess.run([sys.executable, "-c", "import time; print(time.process_time())"],
                          capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
    return float(proc.stdout)


def serve():
    import numpy as np
    for _ in sys.stdin:
        print("%.9f %.9f" % kernel(np), flush=True)


if __name__ == "__main__":
    serve()
