from itertools import product

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
)
from xor3sdp.pipeline import (
    FamilySpec,
    PipelineConfig,
    build_instance,
    gap_experiment,
    two_round,
)
from xor3sdp.sdp import SdpConfig

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
