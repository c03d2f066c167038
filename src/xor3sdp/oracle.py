"""Brute-force exact optimization and exhaustive verification oracles."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .instances import (
    Assignment,
    CapExceeded,
    CompiledInstance,
    Instance,
    Predicate3,
    bits_to_assignment,
)
from .fourier import eval_poly_exact, predicate_fourier

BRUTE_FORCE_CAP = 26
_CHUNK_BITS = 14


@dataclass(frozen=True)
class OracleResult:
    optimum: float
    assignment: Assignment
    count: int  # number of optimal assignments


def brute_force(inst: Instance) -> OracleResult:
    """Exact maximum over all 2^n assignments.

    Enumeration runs in chunks of fixed high-order bits; the returned
    assignment is the optimum with the smallest encoding (bit v of the
    encoding is variable v, 0 meaning +1).
    """
    n = inst.n_vars
    if n > BRUTE_FORCE_CAP:
        raise CapExceeded(f"{n} variables exceed the brute-force cap {BRUTE_FORCE_CAP}")
    comp = CompiledInstance(inst)
    best = -1.0
    best_idx = 0
    count = 0
    chunk = 1 << min(_CHUNK_BITS, n)
    for start in range(0, 1 << n, chunk):
        idx = np.arange(start, start + chunk, dtype=np.int64)
        vals = comp.values_from_indices(idx)
        top = float(vals.max())
        if top > best + 1e-12:
            best = top
            near = vals >= top - 1e-12
            count = int(near.sum())
            best_idx = start + int(np.argmax(near))
        elif top >= best - 1e-12:
            count += int((vals >= best - 1e-12).sum())
    bits = [(best_idx >> v) & 1 for v in range(n)]
    return OracleResult(best, bits_to_assignment(bits, inst.sizes), count)


def exhaustive_poly_check(pred: Predicate3) -> bool:
    """Does the Walsh expansion reproduce the 0/1 indicator at all 8 points?"""
    poly = predicate_fourier(pred)
    for t in product((1, -1), repeat=3):
        a = Assignment((t[0],), (t[1],), (t[2],))
        want = Fraction(1 if pred.accepts(t) else 0)
        if eval_poly_exact(poly, a) != want:
            return False
    return True

