"""Two-round relaxation/rounding pipeline and the gap-experiment harness.

The objective is read once, as the Walsh arrays of `fourier.walsh_terms`:
one (i1, i2, i3) index triple per monomial, 0 marking an absent block, and
one coefficient. Round 1 optimizes the cubic rows with each (i2, i3) pair
collapsed to one variable: a matrix with a row per block-1 variable and a
column per pair. Round 2 freezes the block-1 values from round 1, sums each
pair's cubic coefficients times those values, and optimizes the resulting
quadratic over blocks 2 and 3. Pair values from round 1 are discarded; how
often they agreed with the final products is reported as a consistency
diagnostic.

Each of the `n_seeds` attempts is one seed's path through both rounds, and
the best final value wins. The work runs round by round: round 1's ascent
for every seed in one stack on the one round-1 matrix, then each seed's
rounding and conditioning, then round 2's ascent in one stack per group of
seeds whose conditioned programs share a shape, then each seed's rounding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .fourier import walsh_terms
from .gadget import compose, make_label_cover, uniform_xor_base
from .instances import (
    Assignment,
    CapExceeded,
    Instance,
    ValidationError,
    evaluate,
    generate_planted,
    generate_random,
)
from .oracle import brute_force
from .sdp import (
    GramFactor,
    QuadraticObjective,
    SdpConfig,
    cw_round,
    relaxation_value,
    solve_relaxation,
)


@dataclass(frozen=True)
class PipelineConfig:
    sdp: SdpConfig = field(default_factory=SdpConfig)
    n_seeds: int = 5  # rounding/solve attempts, best final value wins
    oracle: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_seeds < 1:
            raise ValidationError("n_seeds must be >= 1")


@dataclass(frozen=True)
class PipelineReport:
    instance_id: str
    n_vars: int
    n_cons: int
    baseline: float
    sdp1: float | None
    sdp2: float | None
    final: float
    opt: float | None
    consistency: float | None
    seed: int
    ms: float
    degenerate_cubic: bool = False
    f1_plus_frac: float | None = None
    per_seed_finals: tuple[float, ...] = ()
    cubic_at_opt: float | None = None
    # the winning seed's best-factor sweeps per round; converged is false
    # when either of those factors ran to max_sweeps
    sweeps1: int | None = None
    sweeps2: int | None = None
    converged: bool | None = None

    @property
    def margin(self) -> float:
        return self.final - 0.5

    def to_row(self) -> dict:
        return {
            "id": self.instance_id,
            "n_vars": self.n_vars,
            "n_cons": self.n_cons,
            "baseline": self.baseline,
            "sdp1": self.sdp1,
            "sdp2": self.sdp2,
            "final": self.final,
            "opt": self.opt,
            "margin": self.margin,
            "consistency": self.consistency,
            "seed": self.seed,
            "ms": self.ms,
            "sweeps1": self.sweeps1,
            "sweeps2": self.sweeps2,
            "converged": self.converged,
            "per_seed_finals": list(self.per_seed_finals),
            "f1_plus_frac": self.f1_plus_frac,
            "cubic_at_opt": self.cubic_at_opt,
            "degenerate_cubic": self.degenerate_cubic,
        }


def _value_at(index: np.ndarray, coeff: np.ndarray, a: Assignment) -> float:
    """The sum of the given Walsh rows at an assignment."""
    x1, x2, x3 = (np.array((1,) + a.block(b)) for b in (1, 2, 3))  # index 0: block absent
    return float(coeff @ (x1[index[:, 0]] * x2[index[:, 1]] * x3[index[:, 2]]))


def _by_first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `keys` in order of first appearance, and the
    position of each row of `keys` among them."""
    distinct, first, where = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    return distinct[order], position[where.ravel()]


def _block(size: int, present: np.ndarray, signs) -> np.ndarray:
    """One block's signs: the rounded ones at the present indices, +1 elsewhere."""
    out = np.ones(size, dtype=np.int64)
    out[present - 1] = signs
    return out


@dataclass(frozen=True)
class _Attempt:
    """One seed's path through both rounds."""

    seed: int
    assignment: Assignment
    final: float
    sdp1: float
    sdp2: float
    consistency: float
    f1_plus: float
    sweeps: tuple[int, int]
    converged: bool


def _attempts(
    inst: Instance, index: np.ndarray, coeff: np.ndarray, cfg: PipelineConfig
) -> list[_Attempt]:
    cubic = index.all(axis=1)
    i1, c3 = index[cubic, 0], coeff[cubic]
    # round 1: a row per block-1 variable, sorted, and a column per (i2, i3) pair
    rows, row = np.unique(i1, return_inverse=True)
    pairs, col = _by_first_appearance(index[cubic, 1:])
    a1 = np.zeros((len(rows), len(pairs)))
    a1[row, col] = c3
    q1 = QuadraticObjective(a1)
    seeds = [cfg.seed * 1000 + 2 * k for k in range(cfg.n_seeds)]
    g1s = solve_relaxation([q1] * len(seeds), cfg.sdp, seeds)
    signs1 = [np.array(cw_round(g1, q1, replace(cfg.sdp, seed=seed))[0]) for g1, seed in zip(g1s, seeds)]
    f1s = [_block(inst.sizes[0], rows, signs[: len(rows)]) for signs in signs1]
    # round 2: block 2 against block 3, over the pairs whose conditioned entry is nonzero
    q2s, sides = [], []
    for f1 in f1s:
        cond = np.bincount(col, weights=c3 * f1[i1 - 1], minlength=len(pairs))
        live = cond != 0
        left, li = np.unique(pairs[live, 0], return_inverse=True)
        right, ri = np.unique(pairs[live, 1], return_inverse=True)
        a2 = np.zeros((len(left), len(right)))
        a2[li, ri] = cond[live]
        q2s.append(QuadraticObjective(a2))
        sides.append((left, right))
    groups: dict[tuple[int, ...], list[int]] = {}
    for k, q2 in enumerate(q2s):
        groups.setdefault(q2.a.shape, []).append(k)
    g2s: dict[int, GramFactor] = {}
    for members in groups.values():
        solved = solve_relaxation([q2s[k] for k in members], cfg.sdp, [seeds[k] + 1 for k in members])
        g2s.update(zip(members, solved))

    attempts = []
    for k, seed in enumerate(seeds):
        g1, g2, q2, f1, (left, right) = g1s[k], g2s[k], q2s[k], f1s[k], sides[k]
        signs2, achieved2 = cw_round(g2, q2, replace(cfg.sdp, seed=seed + 1))
        f2 = _block(inst.sizes[1], left, signs2[: len(left)])
        f3 = _block(inst.sizes[2], right, signs2[len(left) :])
        assignment = Assignment(tuple(f1.tolist()), tuple(f2.tolist()), tuple(f3.tolist()))
        final = evaluate(inst, assignment)
        # the cubic rows at the assignment are the conditioned quadratic at its
        # blocks 2 and 3, so the full value is the degree<=2 rows plus achieved2
        expected = _value_at(index[~cubic], coeff[~cubic], assignment) + achieved2
        if abs(final - expected) > 1e-9:
            raise AssertionError(
                f"cross-check failed: final {final} != degree<=2 part + achieved = {expected}"
            )
        products = f2[pairs[:, 0] - 1] * f3[pairs[:, 1] - 1]
        attempts.append(
            _Attempt(
                seed,
                assignment,
                final,
                relaxation_value(g1, q1),
                relaxation_value(g2, q2),
                np.count_nonzero(signs1[k][len(rows) :] == products) / len(pairs),
                np.count_nonzero(f1 == 1) / len(f1),
                (g1.sweeps, g2.sweeps),
                all(g.degenerate or g.sweeps < cfg.sdp.max_sweeps for g in (g1, g2)),
            )
        )
    return attempts


def two_round(
    inst: Instance, cfg: PipelineConfig, instance_id: str = "instance"
) -> tuple[Assignment, PipelineReport]:
    """Run the two-round pipeline; value is reported on the full objective."""
    start = time.perf_counter()
    index, coeff = walsh_terms(inst)
    # E[value] under a uniform assignment: every non-constant character
    # averages to 0, and the constant row, if any, is the first
    baseline = float(coeff[0]) if len(coeff) and not index[0].any() else 0.0
    cubic = index.all(axis=1)
    opt = None
    cubic_at_opt = None
    if cfg.oracle:
        res = brute_force(inst)
        opt = res.optimum
        cubic_at_opt = _value_at(index[cubic], coeff[cubic], res.assignment)
    if not cubic.any():
        assignment = Assignment(
            (1,) * inst.sizes[0], (1,) * inst.sizes[1], (1,) * inst.sizes[2]
        )
        final = evaluate(inst, assignment)
        report = PipelineReport(
            instance_id,
            inst.n_vars,
            len(inst.constraints),
            baseline,
            None,
            None,
            final,
            opt,
            None,
            cfg.seed,
            (time.perf_counter() - start) * 1000.0,
            degenerate_cubic=True,
            cubic_at_opt=cubic_at_opt,
        )
        return assignment, report
    attempts = _attempts(inst, index, coeff, cfg)
    best = max(attempts, key=lambda a: a.final)  # the first of equal finals
    if opt is not None and best.final > opt + 1e-9:
        raise AssertionError(f"pipeline value {best.final} exceeds oracle optimum {opt}")
    report = PipelineReport(
        instance_id,
        inst.n_vars,
        len(inst.constraints),
        baseline,
        best.sdp1,
        best.sdp2,
        best.final,
        opt,
        best.consistency,
        best.seed,
        (time.perf_counter() - start) * 1000.0,
        f1_plus_frac=best.f1_plus,
        per_seed_finals=tuple(a.final for a in attempts),
        cubic_at_opt=cubic_at_opt,
        sweeps1=best.sweeps[0],
        sweeps2=best.sweeps[1],
        converged=best.converged,
    )
    return best.assignment, report


# -- experiment families ----------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    kind: str  # planted | random | composed
    count: int = 1
    sizes: tuple[int, int, int] = (4, 4, 4)
    n_constraints: int = 24
    corrupt_frac: float = 0.1
    # composed-gadget parameters
    n_labels: int = 1
    mult: int = 2
    n_left: int = 1
    n_right: int = 1
    degree: int = 1
    noise: float = 0.0
    per_edge_budget: int = 4096
    mode: str = "enumerate"

    def __post_init__(self) -> None:
        if self.kind not in ("planted", "random", "composed"):
            raise ValidationError(f"unknown family {self.kind!r}")
        if self.count < 1:
            raise ValidationError("count must be >= 1")


def build_instance(spec: FamilySpec, index: int, seed: int) -> Instance:
    inst_seed = seed * 10000 + index
    if spec.kind == "planted":
        inst, _ = generate_planted(
            spec.sizes, spec.n_constraints, spec.corrupt_frac, inst_seed
        )
        return inst
    if spec.kind == "random":
        return generate_random(spec.sizes, spec.n_constraints, inst_seed)
    lc = make_label_cover(
        spec.n_labels, spec.mult, spec.n_left, spec.n_right, spec.degree, inst_seed
    )
    return compose(
        lc,
        uniform_xor_base(),
        spec.noise,
        per_edge_budget=spec.per_edge_budget,
        mode=spec.mode,  # type: ignore[arg-type]
        seed=inst_seed,
    )


def gap_experiment(
    spec: FamilySpec, cfg: PipelineConfig
) -> tuple[list[PipelineReport | dict], dict]:
    """Per-instance pipeline reports plus aggregate means.

    Rows that violate a cap become {"id", "error"} entries; the run continues.
    """

    def run(i: int):
        inst_id = f"{spec.kind}-{i:03d}"
        try:
            inst = build_instance(spec, i, cfg.seed)
            row_cfg = replace(cfg, seed=cfg.seed * 100 + i)
            _, report = two_round(inst, row_cfg, inst_id)
            return report
        except (CapExceeded, ValidationError) as e:
            return {"id": inst_id, "error": str(e)}

    rows = [run(i) for i in range(spec.count)]
    good = [r for r in rows if isinstance(r, PipelineReport)]
    aggregate = {
        "count": len(rows),
        "ok": len(good),
        "mean_final": _mean([r.final for r in good]),
        "mean_baseline": _mean([r.baseline for r in good]),
        "mean_margin": _mean([r.margin for r in good]),
        "mean_opt": _mean([r.opt for r in good if r.opt is not None]),
        "mean_consistency": _mean(
            [r.consistency for r in good if r.consistency is not None]
        ),
    }
    return rows, aggregate


def _mean(xs: list) -> float | None:
    return (sum(xs) / len(xs)) if xs else None
