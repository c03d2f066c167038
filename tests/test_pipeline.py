from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings

from xor3sdp import pipeline
from xor3sdp.instances import (
    Constraint,
    Instance,
    Predicate3,
    XOR_PLUS_MASK,
    bits_to_assignment,
    evaluate,
    generate_planted,
    generate_random,
)
from xor3sdp.pipeline import (
    FamilySpec,
    PipelineConfig,
    build_instance,
    gap_experiment,
    two_round,
)
from xor3sdp.fourier import walsh_terms
from xor3sdp.sdp import QuadraticObjective, SdpConfig, relaxation_value, solve_relaxation

from conftest import instances_strategy, make_constraint, random_instance

SMALL = SdpConfig(max_sweeps=30, trials=5, restarts=1)


def small_config(seed=0, oracle=False):
    return PipelineConfig(sdp=SMALL, n_seeds=2, oracle=oracle, seed=seed)


def exhaustive_mean(inst: Instance) -> float:
    values = [
        evaluate(inst, bits_to_assignment(bits, inst.sizes))
        for bits in product((0, 1), repeat=inst.n_vars)
    ]
    return sum(values) / len(values)


class TestTwoRound:
    @given(instances_strategy(any_pred=True))
    @settings(max_examples=40, deadline=None)
    def test_final_is_evaluate_and_below_optimum(self, inst):
        assignment, report = two_round(inst, small_config(seed=inst.n_vars, oracle=True))
        assert report.final == pytest.approx(evaluate(inst, assignment), abs=1e-9)
        assert report.opt is not None
        assert report.final <= report.opt + 1e-9

    def test_opt_is_final_on_composed(self):
        # Label Cover (2,2,1,1,1) composed at noise 0.1: sizes (2,8,8), where
        # the pipeline reaches the optimum; both are `evaluate` at an assignment
        spec = FamilySpec(kind="composed", n_labels=2, mult=2, noise=0.1)
        inst = build_instance(spec, 0, 0)
        assert inst.sizes == (2, 8, 8)
        _, report = two_round(inst, PipelineConfig(oracle=True, seed=1))
        assert report.opt == report.final

    @pytest.mark.parametrize("weight", [1e308, 3e307, 5e-324])
    def test_extreme_weight(self, weight):
        inst = Instance((1, 1, 1), (make_constraint(1, 1, 1, weight=weight, signs=(1, 1, -1)),))
        assignment, report = two_round(inst, small_config(oracle=True))
        assert report.opt == report.final == evaluate(inst, assignment) == 1.0

    def test_same_seed_same_rows(self):
        spec = FamilySpec(kind="planted", count=3, sizes=(4, 4, 4), n_constraints=30)

        def rows():
            reports, aggregate = gap_experiment(spec, small_config(seed=7, oracle=True))
            return [{k: v for k, v in r.to_row().items() if k != "ms"} for r in reports], aggregate

        assert rows() == rows()

    def test_full_predicate_is_degenerate_cubic(self):
        full = Predicate3(255)
        inst = Instance(
            (2, 2, 2),
            (make_constraint(1, 2, 1, pred=full), make_constraint(2, 1, 2, pred=full)),
        )
        assignment, report = two_round(inst, small_config(oracle=True))
        assert report.degenerate_cubic
        assert report.sdp1 is None and report.sdp2 is None
        assert report.final == evaluate(inst, assignment) == 1.0

    def test_broken_identity_is_caught(self, rng, monkeypatch):
        # a rounding that misreports its value must not pass unnoticed,
        # whatever the predicates
        inst = random_instance(rng, sizes=(3, 3, 3), n_cons=12, any_pred=True)
        real = pipeline.cw_round

        def misreporting(g, q, cfg):
            signs, achieved = real(g, q, cfg)
            return signs, achieved + 0.25

        monkeypatch.setattr(pipeline, "cw_round", misreporting)
        with pytest.raises(AssertionError):
            two_round(inst, small_config())


def without_ms(report):
    return {k: v for k, v in report.to_row().items() if k != "ms"}


class TestStackedSeeds:
    """Stacking every seed's ascent changes no seed's result."""

    def test_first_seed_alone(self):
        inst = generate_random((6, 6, 6), 100, 3)
        _, five = two_round(inst, PipelineConfig(seed=2))
        _, one = two_round(inst, PipelineConfig(seed=2, n_seeds=1))
        assert five.per_seed_finals[0] == one.final

    @pytest.mark.parametrize(
        "inst",
        [
            generate_random((6, 6, 6), 100, 1),
            # the seeds' conditioned programs have shapes (4,4) x4 and (3,4)
            generate_random((3, 4, 4), 10, 2),
        ],
    )
    def test_same_as_one_seed_at_a_time(self, inst, monkeypatch):
        real = pipeline.solve_relaxation
        calls = []

        def recorded(qs, cfg, seeds):
            calls.append(len(qs))
            return real(qs, cfg, seeds)

        def one_at_a_time(qs, cfg, seeds):
            return [real([q], cfg, [seed])[0] for q, seed in zip(qs, seeds)]

        cfg = PipelineConfig(seed=1)
        monkeypatch.setattr(pipeline, "solve_relaxation", recorded)
        stacked = two_round(inst, cfg)
        monkeypatch.setattr(pipeline, "solve_relaxation", one_at_a_time)
        alone = two_round(inst, cfg)
        assert calls[0] == cfg.n_seeds and sum(calls[1:]) == cfg.n_seeds
        if inst.sizes == (3, 4, 4):
            assert len(calls) == 3  # round 2 splits into two shape groups
        assert stacked[0] == alone[0]
        assert without_ms(stacked[1]) == without_ms(alone[1])


    def test_relaxation_values_reproduce(self):
        # sdp1 and sdp2 are the winning seed's ascents, on seeds seed and seed + 1
        inst = generate_random((4, 4, 4), 30, 7)
        assignment, report = two_round(inst, PipelineConfig(seed=3))
        for q, seed, want in (
            (round1_program(inst), report.seed, report.sdp1),
            (round2_program(inst, assignment.block1), report.seed + 1, report.sdp2),
        ):
            [g] = solve_relaxation([q], SdpConfig(), [seed])
            assert relaxation_value(g, q) == want


def cubic_rows(inst):
    index, coeff = walsh_terms(inst)
    return [(tuple(row), c) for row, c in zip(index.tolist(), coeff.tolist()) if all(row)]


def round1_program(inst):
    """A row per block-1 variable, sorted; a column per (i2, i3) pair, in
    order of first appearance."""
    terms = cubic_rows(inst)
    rows = sorted({i1 for (i1, _, _), _ in terms})
    cols: dict = {}
    for (_, i2, i3), _ in terms:
        cols.setdefault((i2, i3), len(cols))
    a = np.zeros((len(rows), len(cols)))
    for (i1, i2, i3), c in terms:
        a[rows.index(i1), cols[i2, i3]] = c
    return QuadraticObjective(a)


def round2_program(inst, block1):
    """Block 2 against block 3, each pair's cubic coefficients summed with
    block 1 fixed; only variables in a nonzero entry."""
    cond: dict = {}
    for (i1, i2, i3), c in cubic_rows(inst):
        cond[i2, i3] = cond.get((i2, i3), 0.0) + c * block1[i1 - 1]
    cond = {k: c for k, c in cond.items() if c != 0}
    left = sorted({i2 for i2, _ in cond})
    right = sorted({i3 for _, i3 in cond})
    a = np.zeros((len(left), len(right)))
    for (i2, i3), c in cond.items():
        a[left.index(i2), right.index(i3)] = c
    return QuadraticObjective(a)


class TestGolden:
    """Reports pinned to values recorded from earlier versions of the pipeline."""

    @pytest.mark.parametrize(
        "spec,want",
        [
            (
                FamilySpec(kind="planted", sizes=(6, 6, 6), n_constraints=100),
                (0.9, 0.9, 1000, 0.9393939393939394, (0.9, 0.9, 0.9, 0.9, 0.9)),
            ),
            (
                FamilySpec(kind="random", sizes=(6, 6, 6), n_constraints=100),
                (0.71, 0.71, 1000, 0.7741935483870968, (0.71, 0.71, 0.68, 0.68, 0.71)),
            ),
            (
                FamilySpec(kind="composed", n_labels=2, mult=2, noise=0.1),
                (0.8644999999999992, 0.8644999999999992, 1000, 0.8333333333333334, (0.8644999999999992,) * 5),
            ),
        ],
        ids=["planted", "random", "composed"],
    )
    def test_report(self, spec, want):
        """Recorded before the pipeline read the Walsh arrays: pipeline seed 1,
        oracle on, instance 0 of each family at seed 0."""
        _, report = two_round(build_instance(spec, 0, 0), PipelineConfig(oracle=True, seed=1))
        got = (report.final, report.opt, report.seed, report.consistency, report.per_seed_finals)
        assert got == want

    def test_round_one_at_a_blas_blocked_shape(self):
        """Recorded before the ascent took each sweep's value from the right
        side's norms. Round 1 is a 20 x 400 program here, large enough that
        BLAS blocks its products, so the vectors, and sdp1 with them, depend on
        the memory layout each product reads, not only on the arithmetic."""
        inst, _ = generate_planted((20, 20, 20), 400, 0.1, 0)
        _, report = two_round(inst, PipelineConfig(seed=1))
        got = (report.final, report.seed, report.sdp1, report.sweeps1, report.sweeps2)
        assert got == (0.9, 1006, 0.4495004123005922, 200, 8)


class TestReportFields:
    def test_sweeps_and_convergence(self):
        inst = generate_random((4, 4, 4), 30, 5)
        _, report = two_round(inst, PipelineConfig(seed=1))
        assert report.converged is True
        assert 0 < report.sweeps1 < 200 and 0 < report.sweeps2 < 200
        _, capped = two_round(inst, PipelineConfig(sdp=SdpConfig(max_sweeps=2), seed=1))
        assert capped.converged is False
        assert 2 in (capped.sweeps1, capped.sweeps2)
        assert capped.sweeps1 <= 2 and capped.sweeps2 <= 2

    def test_row_carries_diagnostics(self):
        inst = generate_random((3, 3, 3), 12, 0)
        _, report = two_round(inst, small_config(oracle=True))
        row = report.to_row()
        assert row["per_seed_finals"] == list(report.per_seed_finals)
        assert len(row["per_seed_finals"]) == 2
        assert row["final"] == max(row["per_seed_finals"])
        assert 0.0 <= row["f1_plus_frac"] <= 1.0
        assert row["cubic_at_opt"] == report.cubic_at_opt is not None
        assert row["degenerate_cubic"] is False
        assert (row["sweeps1"], row["sweeps2"], row["converged"]) == (
            report.sweeps1,
            report.sweeps2,
            report.converged,
        )

    def test_degenerate_cubic_has_no_sweeps(self):
        full = Predicate3(255)
        inst = Instance((1, 1, 1), (make_constraint(1, 1, 1, pred=full),))
        _, report = two_round(inst, small_config())
        row = report.to_row()
        assert row["degenerate_cubic"] is True
        assert row["sweeps1"] is row["sweeps2"] is row["converged"] is None
        assert row["per_seed_finals"] == []


class TestBaseline:
    @pytest.mark.parametrize(
        "mask,want",
        [(XOR_PLUS_MASK, 0.5), (255, 1.0), (Predicate3.from_tuples([(1, 1, 1)]).mask, 0.125)],
    )
    def test_exact_cases(self, rng, mask, want):
        xor = random_instance(rng, sizes=(4, 4, 4), n_cons=24)
        pred = Predicate3(mask)
        inst = Instance(
            xor.sizes, tuple(Constraint(c.lits, c.weight, pred) for c in xor.constraints)
        )
        _, report = two_round(inst, small_config())
        assert report.baseline == pytest.approx(want, abs=1e-12)
        assert report.baseline == pytest.approx(exhaustive_mean(inst), abs=1e-12)

    @given(instances_strategy(any_pred=True))
    @settings(max_examples=40, deadline=None)
    def test_is_mean_over_all_assignments(self, inst):
        _, report = two_round(inst, small_config())
        assert report.baseline == pytest.approx(exhaustive_mean(inst), abs=1e-12)
