"""Tripartite weighted Max-C instances over {+1,-1}.

An instance is a list of weighted 3-ary constraints, one literal per block.
A literal carries a sign, which is how folding/negation reaches evaluation:
a constraint with literals (s1*i1, s2*i2, s3*i3) and predicate mask `m`
accepts an assignment `a` iff the signed triple
(s1*a1[i1], s2*a2[i2], s3*a3[i3]) is in the accepted set of `m`.

Text format (LF line endings, one instance per file):

    c <comment>
    p mx3 <M> <N2> <N3> <num_constraints>
    d pred <id> <mask 0..255>
    <weight> <+-i1> <+-j2> <+-k3> <pred-id>

Predicate id 0 is predefined: triples whose coordinate product is +1
(the 3-XOR "even" predicate). Other predicates need a `d pred` line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

BLOCKS = (1, 2, 3)

# Bit index of a triple: +1 -> 0, -1 -> 1, read (z1 z2 z3) as a 3-bit number.
# Triples with product +1 sit at the even-popcount bit positions.
XOR_PLUS_MASK = 0b01101001


class ValidationError(ValueError):
    """A documented invariant or precondition was violated."""


class CapExceeded(ValidationError):
    """A desk-scale cap would be exceeded."""


class FormatError(ValueError):
    """Malformed instance/label-cover/distribution text, with a line number."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        self.bare_message = message
        super().__init__(f"line {line}: {message}" if line is not None else message)


def tuple_bit(triple: tuple[int, int, int]) -> int:
    z1, z2, z3 = triple
    return ((z1 < 0) << 2) | ((z2 < 0) << 1) | (z3 < 0)


def bit_tuple(bit: int) -> tuple[int, int, int]:
    return (1 - 2 * ((bit >> 2) & 1), 1 - 2 * ((bit >> 1) & 1), 1 - 2 * (bit & 1))


@dataclass(frozen=True)
class Predicate3:
    """Accepted subset of {+1,-1}^3, as an 8-bit mask (bit set <=> accepted)."""

    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= 255:
            raise ValidationError(f"predicate mask {self.mask} out of [0,255]")

    def accepts(self, triple: tuple[int, int, int]) -> bool:
        return bool((self.mask >> tuple_bit(triple)) & 1)

    def tuples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(bit_tuple(b) for b in range(8) if (self.mask >> b) & 1)

    @classmethod
    def from_tuples(cls, triples: Iterable[tuple[int, int, int]]) -> "Predicate3":
        mask = 0
        for t in triples:
            mask |= 1 << tuple_bit(t)
        return cls(mask)

    @property
    def density(self) -> float:
        return bin(self.mask).count("1") / 8.0


XOR_PLUS = Predicate3(XOR_PLUS_MASK)


@dataclass(frozen=True)
class Literal:
    block: int
    index: int  # 1-based within its block
    sign: int

    def __post_init__(self) -> None:
        if self.block not in BLOCKS:
            raise ValidationError(f"literal block {self.block} not in {BLOCKS}")
        if self.index < 1:
            raise ValidationError(f"literal index {self.index} must be >= 1")
        if self.sign not in (1, -1):
            raise ValidationError(f"literal sign {self.sign} must be +1 or -1")


@dataclass(frozen=True)
class Constraint:
    lits: tuple[Literal, Literal, Literal]
    weight: float
    pred: Predicate3

    def __post_init__(self) -> None:
        for slot, lit in zip(BLOCKS, self.lits):
            if lit.block != slot:
                raise ValidationError(
                    f"constraint literal in slot {slot} has block {lit.block}"
                )
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValidationError(f"constraint weight {self.weight} must be finite and >= 0")


def canonical_key(c: Constraint) -> tuple:
    k: list = []
    for lit in c.lits:
        k.append(lit.index)
        k.append(0 if lit.sign > 0 else 1)
    k.append(c.pred.mask)
    k.append(c.weight)
    return tuple(k)


@dataclass(frozen=True)
class Instance:
    sizes: tuple[int, int, int]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != 3 or any(s < 1 for s in self.sizes):
            raise ValidationError(f"block sizes {self.sizes} must be three positive ints")
        for c in self.constraints:
            for lit in c.lits:
                if lit.index > self.sizes[lit.block - 1]:
                    raise ValidationError(
                        f"literal index {lit.index} exceeds block-{lit.block} "
                        f"size {self.sizes[lit.block - 1]}"
                    )
        w = self.total_weight
        if not (math.isfinite(w) and w > 0):
            raise ValidationError(f"W = {w} must be finite and positive")

    @property
    def total_weight(self) -> float:
        return float(sum(c.weight for c in self.constraints))

    @property
    def n_vars(self) -> int:
        return sum(self.sizes)


@dataclass(frozen=True)
class Assignment:
    """Deterministic +-1 values, one tuple per block."""

    block1: tuple[int, ...]
    block2: tuple[int, ...]
    block3: tuple[int, ...]

    def __post_init__(self) -> None:
        for vals in (self.block1, self.block2, self.block3):
            if any(v not in (1, -1) for v in vals):
                raise ValidationError("assignment entries must be +1 or -1")

    def block(self, b: int) -> tuple[int, ...]:
        return (self.block1, self.block2, self.block3)[b - 1]

    def value(self, block: int, index: int) -> int:
        return self.block(block)[index - 1]

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (len(self.block1), len(self.block2), len(self.block3))


def evaluate(inst: Instance, a: Assignment) -> float:
    """Satisfied weight fraction in [0,1]."""
    if a.sizes != inst.sizes:
        raise ValidationError(
            f"assignment sizes {a.sizes} do not match instance sizes {inst.sizes}"
        )
    sat = 0.0
    for c in inst.constraints:
        l1, l2, l3 = c.lits
        triple = (
            l1.sign * a.block1[l1.index - 1],
            l2.sign * a.block2[l2.index - 1],
            l3.sign * a.block3[l3.index - 1],
        )
        if c.pred.accepts(triple):
            sat += c.weight
    return sat / inst.total_weight


def bits_to_assignment(bits: Sequence[int], sizes: tuple[int, int, int]) -> Assignment:
    vals = tuple(1 - 2 * int(b) for b in bits)
    m, n2, _ = sizes
    return Assignment(vals[:m], vals[m : m + n2], vals[m + n2 :])


def random_assignment(sizes: tuple[int, int, int], rng: np.random.Generator) -> Assignment:
    bits = rng.integers(0, 2, size=sum(sizes))
    return bits_to_assignment(bits, sizes)


# -- text format ---------------------------------------------------------------


def serialize(inst: Instance, comments: Sequence[str] = ()) -> str:
    """Canonical text: constraints sorted, predicate table in mask order."""
    lines = [f"c {c}" for c in comments]
    extra_masks = sorted({c.pred.mask for c in inst.constraints} - {XOR_PLUS_MASK})
    pred_ids = {XOR_PLUS_MASK: 0}
    for i, m in enumerate(extra_masks, start=1):
        pred_ids[m] = i
    m1, n2, n3 = inst.sizes
    lines.append(f"p mx3 {m1} {n2} {n3} {len(inst.constraints)}")
    for m in extra_masks:
        lines.append(f"d pred {pred_ids[m]} {m}")
    for c in sorted(inst.constraints, key=canonical_key):
        l1, l2, l3 = c.lits
        lines.append(
            f"{c.weight!r} {l1.sign * l1.index} {l2.sign * l2.index} "
            f"{l3.sign * l3.index} {pred_ids[c.pred.mask]}"
        )
    return "\n".join(lines) + "\n"


def parse(text: str) -> Instance:
    sizes: tuple[int, int, int] | None = None
    declared = 0
    header_line = 0
    preds: dict[int, Predicate3] = {0: XOR_PLUS}
    constraints: list[Constraint] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        if toks[0] == "p":
            if sizes is not None:
                raise FormatError(lineno, "duplicate header")
            if len(toks) != 6 or toks[1] != "mx3":
                raise FormatError(lineno, f"malformed header {line!r}")
            try:
                m1, n2, n3, declared = (int(t) for t in toks[2:])
            except ValueError:
                raise FormatError(lineno, f"malformed header {line!r}") from None
            if min(m1, n2, n3) < 1 or declared < 0:
                raise FormatError(lineno, f"malformed header {line!r}")
            sizes = (m1, n2, n3)
            header_line = lineno
            continue
        if toks[0] == "d":
            if len(toks) != 4 or toks[1] != "pred":
                raise FormatError(lineno, f"malformed predicate line {line!r}")
            try:
                pid, mask = int(toks[2]), int(toks[3])
            except ValueError:
                raise FormatError(lineno, f"malformed predicate line {line!r}") from None
            if not 0 <= mask <= 255:
                raise FormatError(lineno, f"predicate mask {mask} out of [0,255]")
            if pid in preds and preds[pid].mask != mask:
                raise FormatError(lineno, f"predicate id {pid} already defined")
            preds[pid] = Predicate3(mask)
            continue
        if sizes is None:
            raise FormatError(lineno, "constraint before header")
        if len(toks) != 5:
            raise FormatError(lineno, f"malformed constraint line {line!r}")
        try:
            weight = float(toks[0])
            raw_lits = [int(t) for t in toks[1:4]]
            pid = int(toks[4])
        except ValueError:
            raise FormatError(lineno, f"malformed constraint line {line!r}") from None
        if weight < 0:
            raise FormatError(lineno, f"negative weight {toks[0]}")
        if pid not in preds:
            raise FormatError(lineno, f"unknown predicate id {pid}")
        lits = []
        for block, rl in zip(BLOCKS, raw_lits):
            idx, sign = abs(rl), (1 if rl > 0 else -1)
            if idx < 1 or idx > sizes[block - 1]:
                raise FormatError(
                    lineno, f"literal {rl} out of range for block {block} size {sizes[block - 1]}"
                )
            lits.append(Literal(block, idx, sign))
        constraints.append(Constraint((lits[0], lits[1], lits[2]), weight, preds[pid]))
    if sizes is None:
        raise FormatError(None, "missing header")
    if len(constraints) != declared:
        raise FormatError(
            header_line, f"header declares {declared} constraints, found {len(constraints)}"
        )
    if sum(c.weight for c in constraints) <= 0:
        raise FormatError(header_line, "W must be positive")
    return Instance(sizes, tuple(constraints))


def load(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as f:
        return parse(f.read())


def save(inst: Instance, path: str, comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(serialize(inst, comments))


# -- instance families ---------------------------------------------------------


def _random_lits(sizes: tuple[int, int, int], rng: np.random.Generator) -> list[Literal]:
    return [
        Literal(b, int(rng.integers(1, sizes[b - 1] + 1)), int(1 - 2 * rng.integers(0, 2)))
        for b in BLOCKS
    ]


def generate_random(
    sizes: tuple[int, int, int], n_constraints: int, seed: int
) -> Instance:
    """Uniform XOR constraints: random indices, random signs, unit weights."""
    if n_constraints < 1:
        raise ValidationError("n_constraints must be >= 1")
    rng = np.random.default_rng(seed)
    cons = [
        Constraint(tuple(_random_lits(sizes, rng)), 1.0, XOR_PLUS)
        for _ in range(n_constraints)
    ]
    return Instance(sizes, tuple(cons))


def generate_planted(
    sizes: tuple[int, int, int], n_constraints: int, corrupt_frac: float, seed: int
) -> tuple[Instance, Assignment]:
    """XOR instance with a hidden assignment; exactly round(frac*m) constraints
    get their third literal's sign flipped so the plant violates them."""
    if n_constraints < 1:
        raise ValidationError("n_constraints must be >= 1")
    if not 0 <= corrupt_frac <= 1:
        raise ValidationError("corrupt_frac must be in [0,1]")
    rng = np.random.default_rng(seed)
    plant = random_assignment(sizes, rng)
    cons = []
    for _ in range(n_constraints):
        lits = _random_lits(sizes, rng)
        prod = 1
        for lit in lits:
            prod *= lit.sign * plant.value(lit.block, lit.index)
        if prod < 0:
            lits[2] = Literal(3, lits[2].index, -lits[2].sign)
        cons.append(Constraint(tuple(lits), 1.0, XOR_PLUS))
    n_corrupt = round(corrupt_frac * n_constraints)
    for i in rng.choice(n_constraints, size=n_corrupt, replace=False):
        c = cons[i]
        flipped = Literal(3, c.lits[2].index, -c.lits[2].sign)
        cons[i] = Constraint((c.lits[0], c.lits[1], flipped), c.weight, c.pred)
    return Instance(sizes, tuple(cons)), plant
