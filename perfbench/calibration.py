"""A fixed calibration kernel that tracks the host's current speed.

On a shared host the same operation runs up to 1.6 times slower for
stretches of seconds to minutes, and the process's CPU time slows with
its wall time, so no clock hides it.  The benchmark runs this kernel
between its timed slices and scales every time it reports by
``REFERENCE_SECONDS / kernel time``: a time in seconds as the operation
would have taken on a host where the kernel takes ``REFERENCE_SECONDS``.

The kernel is benchmark code and calls nothing in framescale, so a
change to the program cannot move it.  It mixes the three kinds of work
the workloads do: interpreted Python loops (``jacobi_eigh``), many small
numpy calls, and sweeps over arrays a few megabytes wide (the phase
grid).  Each part alone tracks one workload's slowdowns; their sum
tracks all three.
"""

import time

import numpy as np

# the kernel's time on the 2-core Xeon VM the README's numbers come from
REFERENCE_SECONDS = 0.015


class Calibration:
    """The kernel and its inputs; the inputs are allocated once."""

    def __init__(self):
        self.eye = np.eye(3)
        self.vec = np.ones(3)
        self.wide = np.random.default_rng(0).standard_normal(3 << 17)

    def _python(self) -> float:
        acc = []
        s = 0.0
        for i in range(27000):
            s += (i % 7) * 0.5 - s * 1e-3
            acc.append(s)
        table = {}
        for i, v in enumerate(acc):
            table[i & 255] = v
        return table[0]

    def _small_numpy(self) -> float:
        a = self.vec
        for _ in range(700):
            a = self.eye @ a * 0.999 + 1e-3
            np.linalg.norm(a)
        return float(a[0])

    def _wide_numpy(self) -> float:
        total = 0.0
        for _ in range(2):
            total += float(np.abs(self.wide * 1.0001 + 0.5).sum())
        return total

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        t0 = time.perf_counter()
        self._python()
        self._small_numpy()
        self._wide_numpy()
        return time.perf_counter() - t0
