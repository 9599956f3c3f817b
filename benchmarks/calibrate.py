"""Machine-speed probe: a fixed piece of work timed next to every measurement.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes while a process's own calls stay mutually consistent. The probe
mixes the three kinds of work the workloads do (interpreter loops, small 4x4
matrix products, and a large complex contraction in the layout of the
spin-density reduction) and uses none of the package's code, so a change to
the package never changes it. Times scaled by ``REFERENCE_S / probe`` read as
seconds on a machine where the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.2  # typical probe time on the shared 2-vCPU Xeon VM the bounds were set on


def calibrate() -> float:
    """Seconds taken by the fixed probe work."""
    rng = np.random.default_rng(0)
    field = rng.normal(size=(4, 128, 24, 24)) + 1j * rng.normal(size=(4, 128, 24, 24))
    weight = rng.random((128, 24, 24))
    small = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    start = time.perf_counter()
    for _ in range(8):
        np.einsum("urtp,vrtp,rtp->uv", field, field.conj(), weight, optimize=True)
    acc = 0
    for i in range(600_000):
        acc += i * i
    for _ in range(5_000):
        np.trace(small @ small @ small)
    return time.perf_counter() - start
