"""Fixed reference computations that gauge how fast the machine runs right now.

The benchmark's host is shared, and its speed drifts by 20-50 % from one
minute to the next with identical inputs; one pure-Python loop can take
anywhere from 57 to 105 ms in a single process.  Each timed job runs its
workload's gauge just before and just after the CLI call, in the same
process, and the benchmark scales the job's times by ``2 * NOMINAL_S[gauge]``
over the two gauge times, so the reported figures are seconds at a fixed
machine speed.

Different work slows down differently when the host is busy, so each
workload uses the gauge that tracked it best in side-by-side runs (the ratio
of job time to gauge time varied least across half-minute windows):

* ``interpreter``: Python-level arithmetic on 101-element vectors, the
  pattern of the per-point bound loops (``bounds-map``);
* ``mixed``: the same with complex exponentials and a small matrix product
  over ~1 400 samples and arithmetic on 16 384-element arrays mixed in
  (``bounds-xl``, ``montecarlo``).

Neither touches ``nfvel``, so a change to the package cannot move them.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Typical time of one gauge call on the machine the baseline was measured on;
# only the ratio of a job's time to its gauge time matters.
NOMINAL_S = {"interpreter": 0.032, "mixed": 0.075}


def _interpreter(passes: int) -> float:
    short = np.arange(101.0)
    acc = 0.0
    for i in range(passes):
        d = 10.0 + i * 1e-3
        r = short / d
        acc += float(np.sum(np.sqrt(1.0 + r * r - 2.0 * r * 0.3)))
        acc += math.hypot(i, d) + math.atan2(i, d)
        acc += len(f"{acc:.12e},{d:.12e}")
    return acc


def _mixed(passes: int) -> float:
    medium = np.linspace(0.0, 1.0, 1414)
    table = np.exp(-1j * np.outer(np.linspace(-1.0, 1.0, 41), medium))
    large = np.arange(16384.0)
    acc = _interpreter(passes)
    for i in range(0, passes, 20):
        d = 10.0 + i * 1e-3
        data = np.exp(1j * medium * d)
        acc += float(np.abs((table * data) @ table[:, ::-1].T).sum())
        r = large / (d * 1e3)
        acc += float(np.sum(np.sqrt(np.maximum(1.0 + r * r - 2.0 * r * 0.3, 0.0))))
    return acc


_WORK = {"interpreter": (_interpreter, 2400), "mixed": (_mixed, 1200)}


def gauge_s(name: str) -> float:
    """Wall time of one call of the named gauge, in seconds, after a warm-up pass."""
    work, passes = _WORK[name]
    work(1)
    start = time.perf_counter()
    acc = work(passes)
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("reference computation lost its result")
    return elapsed
