"""Walsh expansions of 3-ary predicates and instance objectives.

Every monomial of an instance objective has at most one variable per block.
`walsh_terms` holds the objective as float arrays, one index triple and one
coefficient per monomial; the pipeline and the oracle read these. The exact
form, `instance_objective`, is a sparse multilinear map {monomial ->
Fraction}, where a monomial is a sorted tuple of (block, index) variables;
it is the reference the arrays are tested against, and what the `fourier`
command prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping

import numpy as np

from .instances import Instance, Predicate3, ValidationError

Var = tuple[int, int]
Monomial = tuple[Var, ...]

CONST: Monomial = ()


def mono(*vars_: Var) -> Monomial:
    out = tuple(sorted(vars_))
    if len(set(out)) != len(out):
        raise ValidationError(f"duplicate variable in monomial {vars_}")
    return out


@dataclass(frozen=True)
class MultilinearPoly:
    terms: dict[Monomial, Fraction] = field(default_factory=dict)

    def coeff(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    @property
    def max_degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def variables(self) -> set[Var]:
        return {v for m in self.terms for v in m}

    def is_zero(self) -> bool:
        return not self.terms


def make_poly(terms: Mapping[Monomial, Fraction]) -> MultilinearPoly:
    return MultilinearPoly({m: c for m, c in terms.items() if c != 0})


def predicate_fourier(pred: Predicate3) -> MultilinearPoly:
    """Walsh expansion of the indicator, over variables (1,1),(2,1),(3,1).

    Coefficients are multiples of 1/8; evaluating at any triple reproduces
    the 0/1 indicator exactly.
    """
    accepted = pred.tuples()
    terms: dict[Monomial, Fraction] = {}
    for r in range(4):
        for subset in combinations((0, 1, 2), r):
            s = sum(
                _character(t, subset) for t in accepted
            )
            if s:
                m = mono(*((i + 1, 1) for i in subset))
                terms[m] = Fraction(s, 8)
    return MultilinearPoly(terms)


def _character(triple: tuple[int, int, int], subset: tuple[int, ...]) -> int:
    out = 1
    for i in subset:
        out *= triple[i]
    return out


def instance_objective(inst: Instance) -> MultilinearPoly:
    """Weighted sum of per-constraint expansions, normalized by total weight.

    Literal signs are absorbed into the coefficients, so evaluating at an
    assignment equals the satisfied weight fraction.
    """
    total = sum(Fraction(c.weight) for c in inst.constraints)
    terms: dict[Monomial, Fraction] = {}
    bases: dict[Predicate3, MultilinearPoly] = {}  # one expansion per predicate
    for c in inst.constraints:
        w = Fraction(c.weight) / total
        if w == 0:
            continue
        base = bases.get(c.pred)
        if base is None:
            base = bases[c.pred] = predicate_fourier(c.pred)
        for m, coeff in base.terms.items():
            sign = 1
            vars_ = []
            for block, _ in m:
                lit = c.lits[block - 1]
                sign *= lit.sign
                vars_.append((block, lit.index))
            key = mono(*vars_)
            terms[key] = terms.get(key, Fraction(0)) + sign * w * coeff
    return make_poly(terms)


# _CHARACTER[s, b]: the character of block subset s at the triple of tuple bit b
# (see `tuple_bit`); a subset is coded as a tuple bit is, block 1 at bit 2
_CHARACTER = np.array([[1 - 2 * (bin(s & b).count("1") & 1) for b in range(8)] for s in range(8)])
# _PREDICATE_SUMS[mask, s]: 8 times the Walsh coefficient of subset s of predicate `mask`
_PREDICATE_SUMS = ((np.arange(256)[:, None] >> np.arange(8)) & 1) @ _CHARACTER.T


def walsh_terms(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """The objective as arrays: `index` (m, 3) holds each monomial's block-1,
    -2 and -3 indices, 0 where the block is absent, and `coeff` (m,) its
    coefficient, one row per nonzero monomial, rows sorted by index.

    A coefficient is summed in weight units and divided by 8W once, so it is
    the exact coefficient of `instance_objective` up to float rounding. The
    weights are first scaled by the power of two that brings W into [0.5, 1),
    which is exact and keeps every sum clear of overflow and underflow at any
    finite W.
    """
    cons = inst.constraints
    # (index, sign bit) per literal, read without building Python lists
    lits = np.fromiter(
        (v for c in cons for lit in c.lits for v in (lit.index, lit.sign < 0)),
        dtype=np.int64,
        count=6 * len(cons),
    ).reshape(-1, 3, 2)
    # a literal's sign flips its bit of the triple (see `tuple_bit`)
    flips = (lits[:, :, 1] << np.array([2, 1, 0])).sum(axis=1)
    masks = np.array([c.pred.mask for c in cons])
    _, scale = np.frexp(inst.total_weight)
    # (constraints, 8): each constraint's weighted sum per subset, its signs absorbed
    sums = np.ldexp([c.weight for c in cons], -scale)[:, None] * (
        _PREDICATE_SUMS[masks] * _CHARACTER[:, flips].T
    )
    # each constraint's monomial per subset: its index in the subset's blocks, else 0
    in_subset = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1  # (8, 3)
    index = lits[:, None, :, 0] * in_subset  # (constraints, 8, 3)
    shape = tuple(n + 1 for n in inst.sizes)
    keys, where = np.unique(np.ravel_multi_index(index.reshape(-1, 3).T, shape), return_inverse=True)
    total = np.bincount(where, weights=sums.ravel(), minlength=len(keys))
    keep = total != 0
    index = np.stack(np.unravel_index(keys[keep], shape), axis=1)
    return index, total[keep] / (8 * np.ldexp(inst.total_weight, -scale))


def degree_slice(p: MultilinearPoly, d: int) -> MultilinearPoly:
    if d < 0:
        raise ValidationError("degree must be >= 0")
    return MultilinearPoly({m: c for m, c in p.terms.items() if len(m) == d})


def format_poly(p: MultilinearPoly) -> str:
    """Debug dump, one `coeff : vars` line per monomial, sorted."""
    lines = []
    for m in sorted(p.terms, key=lambda m: (len(m), m)):
        vars_ = " ".join(f"x{b}_{i}" for b, i in m) if m else "1"
        lines.append(f"{p.terms[m]} : {vars_}")
    return "\n".join(lines) + ("\n" if lines else "")
