"""Distributions over {+1,-1}^k: grounds, pairwise independence, disguises.

Probabilities are exact Fractions throughout; verification with tol=0 is an
exact check. `_cumulative` gives the float cumulative table that the
gadget's sample mode draws from.

File format: one `<tuple as +-+> <probability>` line per tuple, the
probability an integer, a decimal or `<num>/<den>`; `#` starts a comment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .instances import FormatError, ValidationError

GTuple = tuple[int, ...]


def _as_fraction(x) -> Fraction:
    # floats convert exactly (every float is a binary rational)
    return x if isinstance(x, Fraction) else Fraction(x)


def plus_first_key(t: GTuple) -> tuple[int, ...]:
    return tuple(int(v == -1) for v in t)


@dataclass(frozen=True)
class TupleDistribution:
    k: int
    probs: dict[GTuple, Fraction]

    def __post_init__(self) -> None:
        total = Fraction(0)
        for t, p in self.probs.items():
            if len(t) != self.k or any(v not in (1, -1) for v in t):
                raise ValidationError(f"tuple {t} not in {{+1,-1}}^{self.k}")
            if p < 0:
                raise ValidationError(f"negative probability for {t}")
            total += p
        if total != 1:
            raise ValidationError(f"probabilities sum to {total}, not 1")

    def prob(self, t: GTuple) -> Fraction:
        return self.probs.get(t, Fraction(0))

    def items(self) -> list[tuple[GTuple, Fraction]]:
        """Support items in lexicographic order under +1 < -1."""
        return sorted(self.probs.items(), key=lambda kv: plus_first_key(kv[0]))


def ground(d: TupleDistribution) -> set[GTuple]:
    """Tuples with strictly positive probability."""
    return {t for t, p in d.probs.items() if p > 0}


def uniform_over(tuples: Iterable[GTuple]) -> TupleDistribution:
    ts = sorted(set(tuples))
    if not ts:
        raise ValidationError("uniform_over needs a nonempty tuple set")
    k = len(ts[0])
    share = Fraction(1, len(ts))
    return TupleDistribution(k, {t: share for t in ts})


def all_tuples(k: int) -> list[GTuple]:
    return list(itertools.product((1, -1), repeat=k))


def product_plus_triples() -> list[GTuple]:
    """The 4 triples with coordinate product +1 (3-XOR accepting set)."""
    return [t for t in all_tuples(3) if t[0] * t[1] * t[2] == 1]


def marginal_prob_one(d: TupleDistribution, i: int) -> Fraction:
    """P[z_i = 1], coordinates 1-based."""
    return sum((p for t, p in d.probs.items() if t[i - 1] == 1), Fraction(0))


def pair_prob_one(d: TupleDistribution, i: int, j: int) -> Fraction:
    """P[z_i = 1, z_j = 1]."""
    return sum(
        (p for t, p in d.probs.items() if t[i - 1] == 1 and t[j - 1] == 1), Fraction(0)
    )


@dataclass(frozen=True)
class Witness:
    coords: tuple[int, ...]  # (i,) or (i, j)
    expected: Fraction
    actual: Fraction

    def describe(self) -> str:
        where = ",".join(str(c) for c in self.coords)
        return f"P[z_{{{where}}}=1] = {self.actual}, expected {self.expected}"


@dataclass(frozen=True)
class PairwiseCheck:
    holds: bool
    witness: Witness | None = None


def check_pairwise_independent(d: TupleDistribution, bias, tol=0) -> PairwiseCheck:
    """Single-coordinate marginals equal `bias`, pair marginals equal bias^2.

    Only the value-1 conditions are checked; the value -1 side follows by
    complement. With tol=0 and exact inputs the verdict is exact.
    """
    b = _as_fraction(bias)
    if not 0 < b < 1:
        raise ValidationError("bias must be strictly between 0 and 1")
    t = _as_fraction(tol)
    for i in range(1, d.k + 1):
        got = marginal_prob_one(d, i)
        if abs(got - b) > t:
            return PairwiseCheck(False, Witness((i,), b, got))
    for i in range(1, d.k + 1):
        for j in range(i + 1, d.k + 1):
            got = pair_prob_one(d, i, j)
            if abs(got - b * b) > t:
                return PairwiseCheck(False, Witness((i, j), b * b, got))
    return PairwiseCheck(True, None)


@dataclass(frozen=True)
class DisguiseSpec:
    """Components (weight, distribution) with pairwise disjoint grounds."""

    components: tuple[tuple[Fraction, TupleDistribution], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValidationError("disguise needs at least one component")
        total = Fraction(0)
        for w, _ in self.components:
            if not w > 0:
                raise ValidationError("disguise weights must be positive")
            total += w
        if total != 1:
            raise ValidationError(f"disguise weights sum to {total}, not 1")


def disguise(spec: DisguiseSpec) -> TupleDistribution:
    """Convex mixture of distributions with disjoint grounds (exact)."""
    k = spec.components[0][1].k
    seen: dict[GTuple, int] = {}
    for idx, (_, comp) in enumerate(spec.components):
        if comp.k != k:
            raise ValidationError("disguise components must share arity")
        for t in ground(comp):
            if t in seen:
                raise ValidationError(
                    f"component grounds overlap at tuple {t} "
                    f"(components {seen[t]} and {idx})"
                )
            seen[t] = idx
    out: dict[GTuple, Fraction] = {}
    for w, comp in spec.components:
        for t, p in comp.probs.items():
            if p:
                out[t] = out.get(t, Fraction(0)) + _as_fraction(w) * p
    return TupleDistribution(k, out)


# -- sampling and parsing --------------------------------------------------------


def _cumulative(d: TupleDistribution) -> tuple[list[GTuple], np.ndarray]:
    items = d.items()
    support = [t for t, _ in items]
    cum = np.cumsum([float(p) for _, p in items])
    cum[-1] = 1.0
    return support, cum


def parse_distribution(text: str) -> TupleDistribution:
    probs: dict[GTuple, Fraction] = {}
    k: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) != 2 or any(ch not in "+-" for ch in toks[0]):
            raise FormatError(lineno, f"malformed distribution line {line!r}")
        t = tuple(1 if ch == "+" else -1 for ch in toks[0])
        if k is None:
            k = len(t)
        elif len(t) != k:
            raise FormatError(lineno, f"tuple arity {len(t)} does not match {k}")
        if t in probs:
            raise FormatError(lineno, f"duplicate tuple {toks[0]}")
        try:
            if "/" in toks[1]:
                num, den = toks[1].split("/")
                p = Fraction(int(num), int(den))
            else:
                p = Fraction(toks[1])
        except (ValueError, ZeroDivisionError):
            raise FormatError(lineno, f"malformed probability {toks[1]!r}") from None
        probs[t] = p
    if k is None:
        raise FormatError(None, "empty distribution file")
    try:
        return TupleDistribution(k, probs)
    except ValidationError as e:
        raise FormatError(None, str(e)) from None
