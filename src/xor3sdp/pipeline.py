"""Two-round relaxation/rounding pipeline and the gap-experiment harness.

Round 1 optimizes the pair-collapsed form of the objective's cubic slice
(each product of a block-2 and a block-3 variable becomes one fresh pairing
variable). Round 2 freezes the block-1 values from round 1, conditions the
cubic slice on them, and optimizes the resulting quadratic over blocks 2
and 3. Pairing-variable values from round 1 are discarded; how often they
agreed with the final products is reported as a consistency diagnostic.

Each of the `n_seeds` attempts is one seed's path through both rounds, and
the best final value wins. The work runs round by round: round 1's ascent
for every seed in one stack on the one round-1 matrix, then each seed's
rounding and conditioning, then round 2's ascent in one stack per group of
seeds whose conditioned programs share a shape, then each seed's rounding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping

from .fourier import (
    MultilinearPoly,
    Var,
    degree_slice,
    eval_poly_exact,
    instance_objective,
    make_poly,
    mono,
)
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
    SdpConfig,
    cw_round,
    from_bilinear_poly,
    relaxation_value,
    solve_relaxation,
    variable_order,
)

PAIR_BLOCK = 23  # block id for pairing variables in derived programs


@dataclass(frozen=True)
class BilinearizedProgram:
    quad: MultilinearPoly  # degree-2 poly over block 1 and PAIR_BLOCK
    pair_vars: dict[int, tuple[int, int]]  # pairing index -> (i2, i3)


def bilinearize(cubic: MultilinearPoly) -> BilinearizedProgram:
    """Replace each block-2 x block-3 product with a single fresh variable,
    preserving coefficients. Distinct (i2, i3) pairs get distinct variables."""
    pairs: dict[tuple[int, int], int] = {}
    for m in sorted(cubic.terms):
        blocks = tuple(b for b, _ in m)
        if len(m) != 3 or blocks != (1, 2, 3):
            raise ValidationError(
                f"monomial {m} is not a one-variable-per-block cubic term"
            )
        key = (m[1][1], m[2][1])
        if key not in pairs:
            pairs[key] = len(pairs)
    terms = {}
    for m, coeff in cubic.terms.items():
        key = (m[1][1], m[2][1])
        new_m = mono((1, m[0][1]), (PAIR_BLOCK, pairs[key] + 1))
        terms[new_m] = terms.get(new_m, Fraction(0)) + coeff
    return BilinearizedProgram(make_poly(terms), {i + 1: p for p, i in pairs.items()})


def condition(cubic: MultilinearPoly, block1_values: Mapping[int, int]) -> MultilinearPoly:
    """Substitute fixed block-1 values, leaving a quadratic over blocks 2, 3."""
    terms: dict = {}
    for m, coeff in cubic.terms.items():
        blocks = tuple(b for b, _ in m)
        if len(m) != 3 or blocks != (1, 2, 3):
            raise ValidationError(
                f"monomial {m} is not a one-variable-per-block cubic term"
            )
        i1 = m[0][1]
        if i1 not in block1_values:
            raise ValidationError(f"no block-1 value for index {i1}")
        new_m = (m[1], m[2])
        terms[new_m] = terms.get(new_m, Fraction(0)) + coeff * block1_values[i1]
    return make_poly(terms)


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


def _block_signs(
    signs: list[int], order: Mapping[Var, int], block: int, size: int
) -> tuple[int, ...]:
    """One block's rounded signs; a variable the program lacks gets +1."""
    return tuple(signs[order[(block, i)]] if (block, i) in order else 1 for i in range(1, size + 1))


@dataclass(frozen=True)
class _Attempt:
    """One seed's path through both rounds."""

    seed: int
    assignment: Assignment
    final: float
    sdp1: float
    sdp2: float
    consistency: float | None
    f1_plus: float
    sweeps: tuple[int, int]
    converged: bool


def _attempts(
    inst: Instance,
    low: MultilinearPoly,
    cubic: MultilinearPoly,
    bp: BilinearizedProgram,
    cfg: PipelineConfig,
) -> list[_Attempt]:
    order = variable_order(bp.quad)
    q1 = from_bilinear_poly(bp.quad, order)
    seeds = [cfg.seed * 1000 + 2 * k for k in range(cfg.n_seeds)]
    g1s = solve_relaxation([q1] * len(seeds), cfg.sdp, seeds)
    signs1 = [cw_round(g1, q1, replace(cfg.sdp, seed=seed))[0] for g1, seed in zip(g1s, seeds)]
    f1s = [_block_signs(signs, order, 1, inst.sizes[0]) for signs in signs1]
    conds = [condition(cubic, dict(enumerate(f1, start=1))) for f1 in f1s]
    orders2 = [variable_order(cond) for cond in conds]
    q2s = [from_bilinear_poly(cond, order2) for cond, order2 in zip(conds, orders2)]
    groups: dict[tuple[int, ...], list[int]] = {}
    for k, q2 in enumerate(q2s):
        groups.setdefault(q2.a.shape, []).append(k)
    g2s: dict[int, GramFactor] = {}
    for members in groups.values():
        solved = solve_relaxation([q2s[k] for k in members], cfg.sdp, [seeds[k] + 1 for k in members])
        g2s.update(zip(members, solved))

    attempts = []
    for k, seed in enumerate(seeds):
        g1, g2, q2, f1 = g1s[k], g2s[k], q2s[k], f1s[k]
        signs2, achieved2 = cw_round(g2, q2, replace(cfg.sdp, seed=seed + 1))
        f2 = _block_signs(signs2, orders2[k], 2, inst.sizes[1])
        f3 = _block_signs(signs2, orders2[k], 3, inst.sizes[2])
        assignment = Assignment(f1, f2, f3)
        final = evaluate(inst, assignment)
        # the cubic slice at the assignment is the conditioned quadratic at its
        # blocks 2 and 3, so the full value is the degree<=2 part plus achieved2
        expected = float(eval_poly_exact(low, assignment)) + achieved2
        if abs(final - expected) > 1e-9:
            raise AssertionError(
                f"cross-check failed: final {final} != degree<=2 part + achieved = {expected}"
            )
        consistency = None
        if bp.pair_vars:
            agree = sum(
                signs1[k][order[(PAIR_BLOCK, pair_idx)]] == f2[i2 - 1] * f3[i3 - 1]
                for pair_idx, (i2, i3) in bp.pair_vars.items()
            )
            consistency = agree / len(bp.pair_vars)
        attempts.append(
            _Attempt(
                seed,
                assignment,
                final,
                relaxation_value(g1, q1),
                relaxation_value(g2, q2),
                consistency,
                f1.count(1) / len(f1),
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
    obj = instance_objective(inst)
    cubic = degree_slice(obj, 3)
    # E[value] under a uniform assignment: every non-constant character averages to 0
    baseline = float(obj.coeff(()))
    opt = None
    cubic_at_opt = None
    if cfg.oracle:
        res = brute_force(inst)
        opt = res.optimum
        cubic_at_opt = float(eval_poly_exact(cubic, res.assignment))
    if cubic.is_zero():
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
    low = MultilinearPoly({m: c for m, c in obj.terms.items() if len(m) < 3})
    attempts = _attempts(inst, low, cubic, bilinearize(cubic), cfg)
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
