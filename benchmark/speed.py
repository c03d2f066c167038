"""Fixed reference computations that measure how fast the host runs now.

The host's speed for this single-threaded program swings by up to 1.8x, in
phases that can outlast a run (see README.md). `run.py` times a probe just
before and just after every solve and scales the solve's time by the
probe's REFERENCE_S over the mean of the two: the solve's time at the speed
where the probe takes REFERENCE_S.

Interpreter-bound and memory-bound code slow down by different amounts, so
each workload uses the probe shaped like the layer that takes most of its
time. Neither probe uses the package, so no change to the program changes
them.
"""

from __future__ import annotations

import time

import numpy as np

_N, _RANK, _DEGREE, _SWEEPS = 40, 6, 8, 6
_rng = np.random.default_rng(0)
_START = _rng.standard_normal((_N, _RANK))
_NEIGHBORS = [
    [(int(j), float(a)) for j, a in zip(_rng.integers(0, _N, _DEGREE), _rng.standard_normal(_DEGREE))]
    for _ in range(_N)
]
_INDICES = np.arange(1 << 18, dtype=np.int64)


def ascent() -> float:
    """Seconds for a few sweeps over a fixed 40-variable problem, in the
    shape of the ascent's inner loop in `xor3sdp.sdp`: a Python loop over
    each variable's neighbours that adds small vectors and normalizes."""
    v = _START.copy()
    start = time.perf_counter()
    for _ in range(_SWEEPS):
        for i in range(_N):
            s = np.zeros(_RANK)
            for j, a in _NEIGHBORS[i]:
                s += a * v[j]
            v[i] = s / float(np.linalg.norm(s))
    return time.perf_counter() - start


def vector() -> float:
    """Seconds for bit tests over 2^18 encoded assignments, in the shape of
    `CompiledInstance.values_from_indices`, which `brute_force` runs on."""
    start = time.perf_counter()
    total = np.zeros(_INDICES.shape[0])
    for k in range(12):
        code = ((_INDICES >> k) & 1).astype(np.int32) ^ (k & 1)
        code |= ((_INDICES >> (k + 3)) & 1).astype(np.int32) << 1
        total += code == 2
    return time.perf_counter() - start


PROBES = {"ascent": ascent, "vector": vector}

# Each probe's median time, rounded, over the runs the benchmark was tuned
# with on a shared 2-core virtual machine. The per-run medians there were
# 2.4 to 5.5 ms for `ascent` and 18.3 to 20 ms for `vector`.
REFERENCE_S = {"ascent": 0.0045, "vector": 0.019}
