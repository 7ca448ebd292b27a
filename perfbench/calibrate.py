"""Machine-speed calibration for the timed metrics.

The benchmark's host is a shared VM whose speed drifts by a third or more
over tens of seconds, with nothing else running in it: the same fixed work
takes 13 ms in one stretch and 22 ms in the next. A median over one run
inherits that drift, so two runs of the same code can differ by more than
any useful regression bound.

Every timed stretch (a library pass, one CLI command, one set-up) is
therefore bracketed by a fixed unit of calibration work, and the stretch is
rescaled by how fast that unit ran next to it:

    normalized = measured * reference / sqrt(unit_before * unit_after)

``reference`` is a constant per kind of unit (its typical time on the
2-vCPU Xeon VM where the benchmark was written), so a normalized figure
reads as seconds on that machine. A change that makes the program slower
raises the normalized time in the same proportion; only the speed of the
host is divided out. The times as measured are kept beside them in the
results.

The kind of unit is chosen to resemble the work it calibrates, because the
host's slow phases hurt interpreter-bound code, memory-bound code and
process start-up by different amounts, and a unit of the wrong kind adds
noise instead of removing it.
"""

import statistics
import subprocess
import sys
import time

import numpy as np


def _python_work() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def _numpy_work() -> float:
    # Small-array numpy calls: the interpreter-plus-dispatch mix of the
    # autodiff layer on small inputs and of gbtrees.
    a = np.full((16, 16), 0.5)
    b = np.full((16, 16), 0.25)
    for _ in range(750):
        a = np.tanh(a @ b + a) * b - 0.1 * a
    return float(a[0, 0])


def _memory_work() -> float:
    # Fresh 16 MB arrays streamed through memory: the allocation- and
    # bandwidth-bound mix of the neural layers on long series.
    a = np.ones(2_000_000)
    for _ in range(2):
        a = a * 1.0000001 + 0.5
    return float(a[0])


def _startup_work() -> None:
    # A fresh interpreter that imports numpy: process start-up, module
    # loading and shared-library mapping, most of a CLI command. Timed in
    # a child because that is where a command runs; a unit timed in the
    # measuring process tracked the commands worse than no unit at all.
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


# kind -> (the work of one unit, its median time in seconds on the reference VM,
#          how many times the unit is timed, the median kept)
UNITS = {
    "interpreter": ((_python_work, _numpy_work), 0.012, 3),
    "memory": ((_memory_work,), 0.015, 3),
    "startup": ((_startup_work,), 0.14, 1),
}


def unit_s(kind: str = "interpreter") -> float:
    """Median time of one calibration unit of ``kind``, in seconds."""
    work, _, repeats = UNITS[kind]
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        for fn in work:
            fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def scale(before: float, after: float, kind: str = "interpreter") -> float:
    """Factor that rescales a stretch timed between two units of ``kind``."""
    return UNITS[kind][1] / (before * after) ** 0.5
