"""Exact Walsh expansions of 3-ary predicates and instance objectives.

Polynomials are sparse multilinear maps {monomial -> Fraction}. A monomial
is a sorted tuple of (block, index) variables; blocks 1..3 are instance
blocks, other block ids may appear in derived programs (e.g. the pairing
variables the pipeline introduces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .instances import Assignment, Instance, Predicate3, ValidationError

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


def degree_slice(p: MultilinearPoly, d: int) -> MultilinearPoly:
    if d < 0:
        raise ValidationError("degree must be >= 0")
    return MultilinearPoly({m: c for m, c in p.terms.items() if len(m) == d})


def mixed_degree2_terms(p: MultilinearPoly) -> list[Monomial]:
    """Degree-2 monomials, present only for degenerate (non-XOR) predicates."""
    return sorted(m for m in p.terms if len(m) == 2)


def eval_poly_exact(p: MultilinearPoly, a: Assignment) -> Fraction:
    total = Fraction(0)
    for m, coeff in p.terms.items():
        prod = 1
        for block, index in m:
            if block not in (1, 2, 3) or index > a.sizes[block - 1]:
                raise ValidationError(f"unbound variable ({block},{index})")
            prod *= a.value(block, index)
        total += coeff * prod
    return total


def eval_poly(p: MultilinearPoly, a: Assignment) -> float:
    """Exact rational evaluation, surfaced as a float."""
    return float(eval_poly_exact(p, a))


def format_poly(p: MultilinearPoly) -> str:
    """Debug dump, one `coeff : vars` line per monomial, sorted."""
    lines = []
    for m in sorted(p.terms, key=lambda m: (len(m), m)):
        vars_ = " ".join(f"x{b}_{i}" for b, i in m) if m else "1"
        lines.append(f"{p.terms[m]} : {vars_}")
    return "\n".join(lines) + ("\n" if lines else "")
