"""A fixed reference computation, timed next to every timed repetition, so
that the benchmark reports its run times at one nominal host speed.

The benchmark runs on a 2-core virtual machine of a shared host whose speed
drifts by up to 2x for seconds to minutes at a time.  A median over the
repetitions of one run cannot remove a drift that lasts the whole run: over
ten runs of one workload, the wall-clock medians spread by 28% (interquartile
range over the median).  The reference slows down with the host, so a time
`t` measured while the reference took `r` seconds is reported as
``t * NOMINAL_S / r``: seconds on a host where the reference takes NOMINAL_S.
Scaled this way the same runs' spread falls to a few percent.

The reference does not call covcon, so a change to covcon cannot move it.
It mixes the two kinds of work the workloads do: small numpy operations in
Python loops (like the Jacobi sweeps) and vectorised transcendental functions
over a few MB (like sampling and psi_1).  It uses no BLAS call.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds the reference takes at the nominal host speed (its median on an
#: x86_64 2-core shared VM in its usual state); the scale of every reported time.
NOMINAL_S = 0.09

_SYM = np.random.default_rng(0).standard_normal((32, 32))
_SYM = _SYM + _SYM.T
_WIDE = np.random.default_rng(1).standard_normal((64, 8192))


def _work() -> None:
    a = _SYM.copy()
    for _ in range(2):
        for p in range(31):
            for q in range(p + 1, 32):
                row = a[p].copy()
                a[p] = 0.6 * row - 0.8 * a[q]
                a[q] = 0.8 * row + 0.6 * a[q]
    v = _WIDE
    for _ in range(6):
        v = np.exp(-np.abs(v)) + np.sin(v)


def seconds() -> float:
    """Wall seconds of one run of the reference."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each of `times` at the nominal host speed.  ``refs`` has one more
    entry than ``times``: the reference timed before the first span, between
    every two and after the last, and each span is scaled by the mean of the
    two around it."""
    if len(refs) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} reference timings, got {len(refs)}")
    return [t * NOMINAL_S * 2.0 / (before + after) for t, before, after in zip(times, refs, refs[1:])]
