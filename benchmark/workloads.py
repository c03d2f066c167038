"""Workload definitions: which instances a run solves, and with which seeds.

Each workload solves a fixed set of instances: the ones that
`xor3sdp.pipeline.gap_experiment` builds at its default seed 0, that is
`build_instance(spec, i, 0)`. The run's seed sets the rows' pipeline seeds as
`gap_experiment` sets them, `replace(cfg, seed=seed * 100 + i)`, which start
the ascents and draw the roundings. The work an instance takes is a property
of the instance: over pipeline seeds its sweep count varies by about 1%, but
over instance seeds by 60% or more, with a long tail. Fixing the instances
keeps that out of the spread between runs.

The package is imported inside `build` so that `setup_probe.py` can time
the import on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

INSTANCE_SEED = 0

# name -> (FamilySpec keyword arguments, oracle on, speed probe). Instances
# are small, so that a run solves each one several times. The speed probe
# (speed.py) is the one shaped like the layer that takes most of the time.
WORKLOADS = {
    # Completeness side, oracle off: the sdp ascent is over 90% of the time.
    "planted-sdp": (dict(kind="planted", count=10, sizes=(6, 6, 6), n_constraints=100), False, "ascent"),
    # Soundness side, oracle off: the same ascent, which runs longer here.
    "random-sdp": (dict(kind="random", count=6, sizes=(6, 6, 6), n_constraints=100), False, "ascent"),
    # The paper's reduction instances, sizes (2, 8, 8) with 1024 weighted
    # constraints; brute_force dominates and the optimum is known.
    "composed-exact": (dict(kind="composed", count=3, n_labels=2, mult=2, noise=0.1), True, "vector"),
    # Self-test only: small enough that a traced run takes well under a second.
    "tiny": (dict(kind="planted", count=2, sizes=(3, 3, 3), n_constraints=12), True, "ascent"),
}


@dataclass(frozen=True)
class Row:
    """One instance of a run, with the value the workload compares against."""

    row_id: str
    inst: object  # xor3sdp.Instance
    cfg: object  # xor3sdp.PipelineConfig
    # Divides `final` in approx_ratio_min where the oracle does not run: the
    # planted assignment's value, or 1.0 (no assignment does better) on
    # random instances.
    reference: float


def build(name: str, seed: int) -> list[Row]:
    from xor3sdp.instances import evaluate, generate_planted
    from xor3sdp.pipeline import FamilySpec, PipelineConfig, build_instance

    fields, oracle, _ = WORKLOADS[name]
    spec = FamilySpec(**fields)
    cfg = PipelineConfig(oracle=oracle, seed=seed)
    rows = []
    for i in range(spec.count):
        inst = build_instance(spec, i, INSTANCE_SEED)
        reference = 1.0
        if spec.kind == "planted":
            # The call build_instance makes, repeated for the assignment.
            _, plant = generate_planted(
                spec.sizes, spec.n_constraints, spec.corrupt_frac, INSTANCE_SEED * 10000 + i
            )
            reference = evaluate(inst, plant)
        rows.append(Row(f"{spec.kind}-{i:03d}", inst, replace(cfg, seed=seed * 100 + i), reference))
    return rows
