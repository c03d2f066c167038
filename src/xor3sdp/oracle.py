"""Exact optimization by block elimination.

Every monomial of the objective has at most one variable per block, so once
two blocks are fixed the objective is linear in the third, and each of its
variables can take its better sign on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import walsh_terms
from .instances import Assignment, CapExceeded, Instance, bits_to_assignment, evaluate

BRUTE_FORCE_CAP = 26  # on the enumerated variables: the two smallest blocks
_CHUNK_CELLS = 1 << 14  # states x (kept-block products + eliminated variables) per chunk
_TOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    optimum: float
    assignment: Assignment
    count: int  # number of optimal assignments


def brute_force(inst: Instance) -> OracleResult:
    """Exact maximum over all assignments, by eliminating the largest block.

    The states of the two smallest blocks, together at most BRUTE_FORCE_CAP
    variables, are enumerated in chunks. At a state the objective
    (`walsh_terms`) is g_0 + sum_k g_k x_k over the variables x_k of the
    largest block, so its maximum is g_0 + sum_k |g_k|. `count` is the number
    of optimal assignments: an optimal state counts 2^t, t the number of
    eliminated variables with |g_k| <= 5e-13, a gain of 1e-12 W (a variable in
    no constraint is always tied). The returned assignment is the optimum
    with the smallest encoding (bit v is variable v, blocks 1, 2, 3 in
    order, 0 meaning +1), so a tied eliminated variable is +1. `optimum` is
    `evaluate` at that assignment, the evaluator the pipeline reports with.
    """
    sizes = inst.sizes
    elim = max(range(3), key=sizes.__getitem__)
    low, high = (b for b in range(3) if b != elim)
    n_kept = sizes[low] + sizes[high]
    if n_kept > BRUTE_FORCE_CAP:
        raise CapExceeded(
            f"{n_kept} variables in the two smallest blocks exceed the "
            f"brute-force cap {BRUTE_FORCE_CAP}"
        )
    index, coeff = walsh_terms(inst)
    # coefficients by (kept-block product, eliminated variable); index 0 is
    # the product's or the variable's block being absent
    width = sizes[high] + 1
    dense = np.zeros(((sizes[low] + 1) * width, sizes[elim] + 1))
    dense[index[:, low] * width + index[:, high], index[:, elim]] = coeff
    offsets = (0, sizes[0], sizes[0] + sizes[1])
    # columns (block `low`, block `high`, eliminated block) in variable order
    by_variable = np.argsort(
        np.concatenate([offsets[b] + np.arange(sizes[b]) for b in (low, high, elim)])
    )
    n_states = 1 << n_kept
    chunk = max(1, _CHUNK_CELLS // sum(dense.shape))
    best, count, best_bits = -1.0, 0, None
    for start in range(0, n_states, chunk):
        # a state holds block `low` in its low bits and block `high` above them
        states = np.arange(start, min(start + chunk, n_states), dtype=np.int64)
        bits = ((states[:, None] >> np.arange(n_kept)) & 1).astype(np.uint8)
        signs = 1.0 - 2.0 * bits
        one = np.ones((len(states), 1))
        x_low = np.concatenate([one, signs[:, : sizes[low]]], axis=1)
        x_high = np.concatenate([one, signs[:, sizes[low] :]], axis=1)
        g = (x_low[:, :, None] * x_high[:, None, :]).reshape(len(states), -1) @ dense
        vals = g[:, 0] + np.abs(g[:, 1:]).sum(axis=1)
        top = float(vals.max())
        if top > best + _TOL:
            best, count, best_bits = top, 0, None
        elif top < best - _TOL:
            continue
        rows = np.flatnonzero(vals >= best - _TOL)
        gains = g[rows, 1:]
        tied = np.abs(gains) <= _TOL / 2
        count += sum(int(k) << t for t, k in enumerate(np.bincount(tied.sum(axis=1))))
        # the smallest encoding is the least row read from the last variable down
        cand = np.concatenate([bits[rows], (gains < 0) & ~tied], axis=1)[:, by_variable]
        cand = cand[np.lexsort(cand.T)[0]]
        if best_bits is None or cand[::-1].tolist() < best_bits[::-1].tolist():
            best_bits = cand
    assignment = bits_to_assignment(best_bits, sizes)
    return OracleResult(evaluate(inst, assignment), assignment, count)
