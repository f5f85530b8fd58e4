"""Reference kernel: how fast the host runs at a given moment.

On a shared host the same code runs up to twice as fast at one minute as
at the next, because other tenants load the machine; every op of the
program slows by about the same factor.  The benchmark therefore times
this fixed kernel, which lives here and not in the program, next to every
op, and reports each op's time scaled to a host on which the kernel takes
``REFERENCE_S``:

    reference time = wall time * REFERENCE_S / kernel time

A change to the program moves its ops but not the kernel, so it still
shows in full; a change of host load moves both and cancels.  The kernel
is the same kind of work as the program's hot path: a small statevector
updated gate by gate with numpy fancy indexing from a Python loop.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel time, in seconds, of the reference host: about the fastest this
# kernel ran on the 2-vCPU Xeon the benchmark was built on.
REFERENCE_S = 250e-6
QUBITS = 6
GATES = 30
SAMPLES = 3


def _kernel() -> complex:
    amps = np.zeros(1 << QUBITS, dtype=complex)
    amps[0] = 1.0
    idx = np.arange(amps.size)
    for g in range(GATES):
        target = g % QUBITS
        i0 = idx[((idx >> target) & 1) == 0]
        i1 = i0 | (1 << target)
        a0 = amps[i0]
        a1 = amps[i1]
        amps[i0] = 0.6 * a0 + 0.8j * a1
        amps[i1] = 0.8j * a0 + 0.6 * a1
    return amps[-1]


def kernel_seconds() -> float:
    """The fastest of a few back-to-back kernel runs: the host's pace now."""
    best = float("inf")
    for _ in range(SAMPLES):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def pace(samples: int = 5) -> float:
    """Median of a few ``kernel_seconds``, for timings outside the op loop."""
    return sorted(kernel_seconds() for _ in range(samples))[samples // 2]


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference time for an op between two kernel timings."""
    return REFERENCE_S * 2.0 / (before + after)
