"""Exact optimization by block elimination, and exhaustive verification oracles.

Every constraint has one literal per block, so once two blocks are fixed
each variable of the third can take its better sign on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .instances import (
    Assignment,
    CapExceeded,
    Instance,
    Predicate3,
    bits_to_assignment,
    evaluate,
)
from .fourier import eval_poly_exact, predicate_fourier

BRUTE_FORCE_CAP = 26  # on the enumerated variables: the two smallest blocks
_CHUNK_CELLS = 1 << 14  # states x (constraints + variables) per chunk
_TOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    optimum: float
    assignment: Assignment
    count: int  # number of optimal assignments


def brute_force(inst: Instance) -> OracleResult:
    """Exact maximum over all assignments, by eliminating the largest block.

    The states of the two smallest blocks, together at most BRUTE_FORCE_CAP
    variables, are enumerated in chunks; each variable of the largest block
    takes the sign whose accepted weight (its gain) is larger. A state's
    value is the sum of those maxima over W. `count` is the number of
    optimal assignments: an optimal state counts 2^t, t the number of
    eliminated variables whose gains differ by at most 1e-12 W (a variable
    in no constraint is always tied). The returned assignment is the optimum
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
    # (index, sign bit) per literal, read without building Python lists
    lits = np.fromiter(
        (v for c in inst.constraints for lit in c.lits for v in (lit.index - 1, lit.sign < 0)),
        dtype=np.int64,
        count=6 * len(inst.constraints),
    ).reshape(-1, 3, 2)
    masks = np.array([c.pred.mask for c in inst.constraints], dtype=np.uint8)
    # constraints x eliminated variables: each constraint's weight on its variable
    weights = np.zeros((len(masks), sizes[elim]))
    weights[np.arange(len(masks)), lits[:, elim, 0]] = [c.weight for c in inst.constraints]
    # a literal's sign flips its bit of the triple (see `tuple_bit`)
    flips = (lits[:, :, 1] << np.array([2, 1, 0])).sum(axis=1).astype(np.uint8)
    # a state holds block `low` in its low bits and block `high` above them
    pos_low, pos_high = lits[:, low, 0], sizes[low] + lits[:, high, 0]
    offsets = (0, sizes[0], sizes[0] + sizes[1])
    # columns (block `low`, block `high`, eliminated block) in variable order
    by_variable = np.argsort(
        np.concatenate([offsets[b] + np.arange(sizes[b]) for b in (low, high, elim)])
    )
    total_weight = inst.total_weight
    n_states = 1 << n_kept
    chunk = max(1, _CHUNK_CELLS // (len(masks) + inst.n_vars))
    best, count, best_bits = -1.0, 0, None
    for start in range(0, n_states, chunk):
        states = np.arange(start, min(start + chunk, n_states), dtype=np.int64)
        bits = ((states[:, None] >> np.arange(n_kept)) & 1).astype(np.uint8)
        code = ((bits[:, pos_low] << (2 - low)) | (bits[:, pos_high] << (2 - high))) ^ flips
        plus = ((masks >> code) & 1) @ weights
        minus = ((masks >> (code ^ (4 >> elim))) & 1) @ weights
        vals = np.maximum(plus, minus).sum(axis=1) / total_weight
        top = float(vals.max())
        if top > best + _TOL:
            best, count, best_bits = top, 0, None
        elif top < best - _TOL:
            continue
        rows = np.flatnonzero(vals >= best - _TOL)
        plus, minus = plus[rows], minus[rows]
        tied = np.abs(plus - minus) <= _TOL * total_weight
        count += sum(int(k) << t for t, k in enumerate(np.bincount(tied.sum(axis=1))))
        # the smallest encoding is the least row read from the last variable down
        cand = np.concatenate([bits[rows], (minus > plus) & ~tied], axis=1)[:, by_variable]
        cand = cand[np.lexsort(cand.T)[0]]
        if best_bits is None or cand[::-1].tolist() < best_bits[::-1].tolist():
            best_bits = cand
    assignment = bits_to_assignment(best_bits, sizes)
    return OracleResult(evaluate(inst, assignment), assignment, count)


def exhaustive_poly_check(pred: Predicate3) -> bool:
    """Does the Walsh expansion reproduce the 0/1 indicator at all 8 points?"""
    poly = predicate_fourier(pred)
    for t in product((1, -1), repeat=3):
        a = Assignment((t[0],), (t[1],), (t[2],))
        want = Fraction(1 if pred.accepts(t) else 0)
        if eval_poly_exact(poly, a) != want:
            return False
    return True
