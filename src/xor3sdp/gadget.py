"""Desk-scale Label-Cover instances and dictatorship-test composition.

A Label-Cover instance is a bi-regular bipartite graph whose edges carry
d-to-1 projections from the right alphabet [d*R] onto the left alphabet [R].
Composition turns each edge into a family of weighted 3-ary constraints over
folded long-code points: block 1 holds points of U x G^R, blocks 2 and 3
hold points of V x G^(dR). Folding identifies antipodal points and moves the
sign onto the literal.

Label-Cover text format:

    p lc <R> <d> <nU> <nV> <nE>
    e <u> <v> <pi(1)> ... <pi(dR)>
    a u <u> <label>
    a v <v> <label>

Vertices and labels are 1-based; `a` lines are the optional planted labeling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal as TLiteral

import numpy as np

from .distributions import (
    TupleDistribution,
    GTuple,
    _cumulative,
    ground,
    product_plus_triples,
    check_pairwise_independent,
    uniform_over,
)
from .instances import (
    Assignment,
    CapExceeded,
    Constraint,
    FormatError,
    Instance,
    Literal,
    Predicate3,
    ValidationError,
    canonical_key,
)

MAX_RIGHT_ALPHABET = 12  # d*R cap
MAX_ROW_SUPPORT = 10**6
MAX_BLOCK_SIZE = 4096  # folded variables per block


def uniform_xor_base() -> TupleDistribution:
    """Uniform distribution over the four product-(+1) triples."""
    return uniform_over(product_plus_triples())


@dataclass(frozen=True)
class Edge:
    u: int  # 0-based
    v: int
    proj: tuple[int, ...]  # length d*R, values in 1..R


@dataclass(frozen=True)
class LabelCoverInstance:
    n_labels: int  # left alphabet size (R)
    mult: int  # preimages per label (d)
    n_left: int
    n_right: int
    edges: tuple[Edge, ...]
    labels_left: tuple[int, ...] | None = None
    labels_right: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        r, d = self.n_labels, self.mult
        if r < 1 or d < 1:
            raise ValidationError("label count and multiplicity must be >= 1")
        if d * r > MAX_RIGHT_ALPHABET:
            raise CapExceeded(f"d*R = {d * r} exceeds the cap {MAX_RIGHT_ALPHABET}")
        deg_left = [0] * self.n_left
        deg_right = [0] * self.n_right
        for e in self.edges:
            if not (0 <= e.u < self.n_left and 0 <= e.v < self.n_right):
                raise ValidationError(f"edge ({e.u},{e.v}) out of range")
            if len(e.proj) != d * r:
                raise ValidationError(f"projection length {len(e.proj)} != {d * r}")
            for t in range(1, r + 1):
                if sum(1 for x in e.proj if x == t) != d:
                    raise ValidationError(
                        f"projection of edge ({e.u},{e.v}) is not {d}-to-1 at label {t}"
                    )
            deg_left[e.u] += 1
            deg_right[e.v] += 1
        if self.edges:
            if len(set(deg_left)) != 1 or len(set(deg_right)) != 1:
                raise ValidationError("graph is not bi-regular")
        if (self.labels_left is None) != (self.labels_right is None):
            raise ValidationError("planted labeling must cover both sides")
        if self.labels_left is not None:
            assert self.labels_right is not None
            if len(self.labels_left) != self.n_left or len(self.labels_right) != self.n_right:
                raise ValidationError("planted labeling has wrong length")
            if any(not 1 <= a <= r for a in self.labels_left):
                raise ValidationError("left label out of range")
            if any(not 1 <= a <= d * r for a in self.labels_right):
                raise ValidationError("right label out of range")
            for e in self.edges:
                if e.proj[self.labels_right[e.v] - 1] != self.labels_left[e.u]:
                    raise ValidationError(
                        f"planted labeling does not satisfy edge ({e.u},{e.v})"
                    )

    @property
    def right_alphabet(self) -> int:
        return self.mult * self.n_labels


def make_label_cover(
    n_labels: int, mult: int, n_left: int, n_right: int, degree: int, seed: int
) -> LabelCoverInstance:
    """Bi-regular instance with random d-to-1 projections and a planted
    perfect labeling (projections are patched so the plant satisfies every
    edge)."""
    if n_labels < 1 or mult < 1:
        raise ValidationError("label count and multiplicity must be >= 1")
    if mult * n_labels > MAX_RIGHT_ALPHABET:
        raise CapExceeded(f"d*R = {mult * n_labels} exceeds the cap {MAX_RIGHT_ALPHABET}")
    if degree < 1 or n_left < 1 or n_right < 1:
        raise ValidationError("sizes and degree must be >= 1")
    if (n_left * degree) % n_right != 0:
        raise ValidationError(
            f"bi-regularity infeasible: {n_left} x {degree} edges over {n_right} right vertices"
        )
    rng = np.random.default_rng(seed)
    labels_left = tuple(int(x) for x in rng.integers(1, n_labels + 1, size=n_left))
    labels_right = tuple(
        int(x) for x in rng.integers(1, mult * n_labels + 1, size=n_right)
    )
    base = [t for t in range(1, n_labels + 1) for _ in range(mult)]
    edges = []
    slot = 0
    for u in range(n_left):
        for _ in range(degree):
            v = slot % n_right
            slot += 1
            proj = [int(x) for x in rng.permutation(base)]
            pos = labels_right[v] - 1
            want = labels_left[u]
            if proj[pos] != want:
                other = proj.index(want)
                proj[pos], proj[other] = proj[other], proj[pos]
            edges.append(Edge(u, v, tuple(proj)))
    return LabelCoverInstance(
        n_labels, mult, n_left, n_right, tuple(edges), labels_left, labels_right
    )


# -- text format ----------------------------------------------------------------


def serialize_label_cover(lc: LabelCoverInstance) -> str:
    lines = [
        f"p lc {lc.n_labels} {lc.mult} {lc.n_left} {lc.n_right} {len(lc.edges)}"
    ]
    for e in lc.edges:
        lines.append(f"e {e.u + 1} {e.v + 1} " + " ".join(str(x) for x in e.proj))
    if lc.labels_left is not None and lc.labels_right is not None:
        for u, a in enumerate(lc.labels_left):
            lines.append(f"a u {u + 1} {a}")
        for v, a in enumerate(lc.labels_right):
            lines.append(f"a v {v + 1} {a}")
    return "\n".join(lines) + "\n"


def parse_label_cover(text: str) -> LabelCoverInstance:
    header = None
    edges: list[Edge] = []
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        if toks[0] == "p":
            if header is not None:
                raise FormatError(lineno, "duplicate header")
            if len(toks) != 7 or toks[1] != "lc":
                raise FormatError(lineno, f"malformed header {line!r}")
            try:
                header = tuple(int(t) for t in toks[2:])
            except ValueError:
                raise FormatError(lineno, f"malformed header {line!r}") from None
            continue
        if header is None:
            raise FormatError(lineno, "line before header")
        r, d, n_left, n_right, _ = header
        if toks[0] == "e":
            if len(toks) != 3 + d * r:
                raise FormatError(lineno, f"edge line needs {d * r} projection entries")
            try:
                u, v = int(toks[1]) - 1, int(toks[2]) - 1
                proj = tuple(int(t) for t in toks[3:])
            except ValueError:
                raise FormatError(lineno, f"malformed edge line {line!r}") from None
            edges.append(Edge(u, v, proj))
            continue
        if toks[0] == "a":
            if len(toks) != 4 or toks[1] not in ("u", "v"):
                raise FormatError(lineno, f"malformed assignment line {line!r}")
            try:
                vertex, label = int(toks[2]) - 1, int(toks[3])
            except ValueError:
                raise FormatError(lineno, f"malformed assignment line {line!r}") from None
            (left if toks[1] == "u" else right)[vertex] = label
            continue
        raise FormatError(lineno, f"unknown line {line!r}")
    if header is None:
        raise FormatError(None, "missing header")
    r, d, n_left, n_right, n_edges = header
    if len(edges) != n_edges:
        raise FormatError(None, f"header declares {n_edges} edges, found {len(edges)}")
    labels_left = labels_right = None
    if left or right:
        if sorted(left) != list(range(n_left)) or sorted(right) != list(range(n_right)):
            raise FormatError(None, "planted labeling must cover every vertex")
        labels_left = tuple(left[u] for u in range(n_left))
        labels_right = tuple(right[v] for v in range(n_right))
    try:
        return LabelCoverInstance(
            r, d, n_left, n_right, tuple(edges), labels_left, labels_right
        )
    except ValidationError as e:
        raise FormatError(None, str(e)) from None


def load_label_cover(path: str) -> LabelCoverInstance:
    with open(path, "r", encoding="utf-8") as f:
        return parse_label_cover(f.read())


def save_label_cover(lc: LabelCoverInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(serialize_label_cover(lc))


# -- test-matrix distribution ---------------------------------------------------


def row_distribution(base: TupleDistribution, mult: int) -> TupleDistribution:
    """Exact distribution of one test row (g, a_1..a_d, b_1..b_d).

    g follows the column-1 marginal of `base`; each (a_j, b_j) pair is an
    independent draw of `base` conditioned on its first coordinate being g.
    """
    if base.k != 3:
        raise ValidationError("base distribution must be over triples")
    if mult < 1:
        raise ValidationError("multiplicity must be >= 1")
    cond: dict[int, list[tuple[tuple[int, int], Fraction]]] = {}
    for g in (1, -1):
        pg = sum((p for t, p in base.probs.items() if t[0] == g), Fraction(0))
        if pg == 0:
            continue
        cond[g] = [
            ((t[1], t[2]), p / pg) for t, p in sorted(base.probs.items()) if t[0] == g and p
        ]
    size = sum(len(pairs) ** mult for pairs in cond.values())
    if size > MAX_ROW_SUPPORT:
        raise CapExceeded(f"row support {size} exceeds the cap {MAX_ROW_SUPPORT}")
    probs: dict[GTuple, Fraction] = {}
    for g, pairs in cond.items():
        pg = sum((p for t, p in base.probs.items() if t[0] == g), Fraction(0))
        for combo in itertools.product(pairs, repeat=mult):
            prob = pg
            a_part, b_part = [], []
            for (a, b), cp in combo:
                prob *= cp
                a_part.append(a)
                b_part.append(b)
            probs[(g, *a_part, *b_part)] = probs.get((g, *a_part, *b_part), Fraction(0)) + prob
    return TupleDistribution(1 + 2 * mult, probs)


def noise_convolve(dist: TupleDistribution, noise: float) -> TupleDistribution:
    """Exact law after re-randomizing each coordinate with probability noise."""
    if not 0 <= noise < 1:
        raise ValidationError("noise must be in [0,1)")
    if noise == 0:
        return dist
    eta = Fraction(noise)
    same, diff = 1 - eta / 2, eta / 2
    out: dict[GTuple, Fraction] = {}
    for t, p in dist.probs.items():
        for target in itertools.product((1, -1), repeat=dist.k):
            agree = sum(a == b for a, b in zip(t, target))
            w = p * same**agree * diff ** (dist.k - agree)
            out[target] = out.get(target, Fraction(0)) + w
    return TupleDistribution(dist.k, out)


# -- folding --------------------------------------------------------------------


@dataclass(frozen=True)
class FoldedPoint:
    representative: GTuple
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValidationError("fold sign must be +1 or -1")


def fold(point: GTuple) -> FoldedPoint:
    """Antipodal representative (lex-minimal under +1 < -1) plus sign."""
    if not point:
        raise ValidationError("cannot fold an empty point")
    if point[0] == 1:
        return FoldedPoint(point, 1)
    return FoldedPoint(tuple(-v for v in point), -1)


def _representatives(m: int) -> list[GTuple]:
    return [(1, *rest) for rest in itertools.product((1, -1), repeat=m - 1)]


def _rep_rank(rep: GTuple) -> int:
    rank = 0
    for v in rep[1:]:
        rank = (rank << 1) | (v == -1)
    return rank


# -- composition ----------------------------------------------------------------


def compose(
    lc: LabelCoverInstance,
    base: TupleDistribution,
    noise: float,
    per_edge_budget: int = 4096,
    mode: TLiteral["enumerate", "sample"] = "enumerate",
    seed: int = 0,
) -> Instance:
    """Composed Max-C instance: one constraint per support point of the
    per-edge test-matrix distribution (enumerate mode, exact weights) or per
    empirical sample (sample mode, weights are frequencies).

    Folding signs become literal signs, so per-edge constraint weights sum
    to 1 before instance-level normalization.
    """
    if base.k != 3:
        raise ValidationError("base distribution must be over triples")
    check = check_pairwise_independent(base, Fraction(1, 2), 0)
    if not check.holds:
        assert check.witness is not None
        raise ValidationError(
            f"base distribution is not balanced pairwise independent: "
            f"{check.witness.describe()}"
        )
    if not 0 <= noise < 1:
        raise ValidationError("noise must be in [0,1)")
    if mode not in ("enumerate", "sample"):
        raise ValidationError(f"unknown mode {mode!r}")
    if per_edge_budget < 1:
        raise ValidationError("per_edge_budget must be >= 1")
    r, dr = lc.n_labels, lc.right_alphabet
    size1 = lc.n_left * (1 << (r - 1))
    size23 = lc.n_right * (1 << (dr - 1))
    if size1 > MAX_BLOCK_SIZE or size23 > MAX_BLOCK_SIZE:
        raise CapExceeded(
            f"folded block sizes ({size1},{size23},{size23}) exceed {MAX_BLOCK_SIZE}"
        )
    if not lc.edges:
        raise ValidationError("label cover has no edges")
    pred = Predicate3.from_tuples(ground(base))
    row = row_distribution(base, lc.mult)
    if mode == "enumerate":
        row = noise_convolve(row, noise)
        support = row.items()
        if len(support) ** r > per_edge_budget:
            raise CapExceeded(
                f"enumerate mode needs {len(support) ** r} constraints per edge, "
                f"budget is {per_edge_budget}; use sample mode"
            )
    constraints: list[Constraint] = []
    for e_idx, e in enumerate(lc.edges):
        positions = [
            [p for p in range(dr) if e.proj[p] == t + 1] for t in range(r)
        ]
        if mode == "enumerate":
            constraints.extend(
                _enumerate_edge(e, positions, support, r, lc)
            )
        else:
            rng = np.random.default_rng([seed, e_idx])
            constraints.extend(
                _sample_edge(e, positions, row, noise, per_edge_budget, r, lc, rng)
            )
    pred_cons = [
        Constraint(c, w, pred) for c, w in constraints  # type: ignore[misc]
    ]
    pred_cons.sort(key=canonical_key)
    return Instance((size1, size23, size23), tuple(pred_cons))


def _lits_for_matrix(
    e: Edge,
    x: list[int],
    y: list[int],
    w: list[int],
    lc: LabelCoverInstance,
) -> tuple[Literal, Literal, Literal]:
    r, dr = lc.n_labels, lc.right_alphabet
    f1 = fold(tuple(x))
    f2 = fold(tuple(y))
    f3 = fold(tuple(w))
    i1 = e.u * (1 << (r - 1)) + _rep_rank(f1.representative) + 1
    i2 = e.v * (1 << (dr - 1)) + _rep_rank(f2.representative) + 1
    i3 = e.v * (1 << (dr - 1)) + _rep_rank(f3.representative) + 1
    return (
        Literal(1, i1, f1.sign),
        Literal(2, i2, f2.sign),
        Literal(3, i3, f3.sign),
    )


def _enumerate_edge(e, positions, support, r, lc):
    d = lc.mult
    dr = lc.right_alphabet
    out = []
    for combo in itertools.product(support, repeat=r):
        prob = Fraction(1)
        x = [0] * r
        y = [0] * dr
        w = [0] * dr
        for t, (tup, p) in enumerate(combo):
            prob *= p
            x[t] = tup[0]
            for j, pos in enumerate(positions[t]):
                y[pos] = tup[1 + j]
                w[pos] = tup[1 + d + j]
        out.append((_lits_for_matrix(e, x, y, w, lc), float(prob)))
    return out


def _sample_edge(e, positions, row, noise, budget, r, lc, rng):
    d = lc.mult
    dr = lc.right_alphabet
    tuples, cum = _cumulative(row)
    support = np.array(tuples, dtype=np.int8)
    idx = np.searchsorted(cum, rng.random((budget, r)), side="right")
    rows = support[idx]  # (budget, r, 1+2d)
    if noise > 0:
        mask = rng.random(rows.shape) < noise
        repl = (rng.integers(0, 2, size=rows.shape) * 2 - 1).astype(np.int8)
        rows = np.where(mask, repl, rows)
    counts: dict[tuple, int] = {}
    for s in range(budget):
        x = [0] * r
        y = [0] * dr
        w = [0] * dr
        for t in range(r):
            tup = rows[s, t]
            x[t] = int(tup[0])
            for j, pos in enumerate(positions[t]):
                y[pos] = int(tup[1 + j])
                w[pos] = int(tup[1 + d + j])
        lits = _lits_for_matrix(e, x, y, w, lc)
        counts[lits] = counts.get(lits, 0) + 1
    # compose sorts every constraint, so the order here does not matter
    return [(lits, c / budget) for lits, c in counts.items()]


def dictator_assignment(lc: LabelCoverInstance, inst: Instance) -> Assignment:
    """Long-code dictators induced by the planted labeling: the variable for
    a folded point reads the point's planted coordinate."""
    if lc.labels_left is None or lc.labels_right is None:
        raise ValidationError("label cover has no planted labeling")
    r, dr = lc.n_labels, lc.right_alphabet
    expected = (lc.n_left * (1 << (r - 1)), lc.n_right * (1 << (dr - 1)))
    if inst.sizes != (expected[0], expected[1], expected[1]):
        raise ValidationError(
            f"instance sizes {inst.sizes} do not match this label cover"
        )
    reps_r = _representatives(r)
    reps_dr = _representatives(dr)
    block1 = [
        rep[lc.labels_left[u] - 1]
        for u in range(lc.n_left)
        for rep in reps_r
    ]
    block23 = [
        rep[lc.labels_right[v] - 1]
        for v in range(lc.n_right)
        for rep in reps_dr
    ]
    return Assignment(tuple(block1), tuple(block23), tuple(block23))
