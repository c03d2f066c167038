from fractions import Fraction
from itertools import product

import pytest

from xor3sdp.fourier import eval_poly_exact, make_poly, predicate_fourier
from xor3sdp.instances import (
    Assignment,
    CapExceeded,
    Constraint,
    Instance,
    Predicate3,
    evaluate,
    generate_random,
)
from xor3sdp import oracle
from xor3sdp.fourier import instance_objective
from xor3sdp.oracle import brute_force, exhaustive_poly_check

from conftest import make_constraint, random_assignment_for, random_instance


class TestBruteForce:
    def test_single_satisfiable(self):
        inst = Instance((1, 1, 1), (make_constraint(1, 1, 1),))
        res = brute_force(inst)
        assert res.optimum == 1.0
        assert evaluate(inst, res.assignment) == 1.0
        assert res.count == 4  # four of eight points have product +1

    def test_contradictory_pair(self):
        minus = Predicate3(255 - 105)
        inst = Instance(
            (1, 1, 1),
            (make_constraint(1, 1, 1), make_constraint(1, 1, 1, pred=minus)),
        )
        res = brute_force(inst)
        assert res.optimum == 0.5
        assert res.count == 8

    def test_random_beats_baseline_mean(self):
        inst = generate_random((4, 4, 4), 24, seed=3)
        res = brute_force(inst)
        # the mean over uniform assignments is the Walsh constant term
        assert res.optimum >= float(instance_objective(inst).coeff(()))

    def test_dominates_random_assignments(self, rng):
        inst = random_instance(rng, sizes=(3, 3, 3), n_cons=15, any_pred=True)
        res = brute_force(inst)
        for _ in range(1000):
            a = random_assignment_for(inst.sizes, rng)
            assert res.optimum >= evaluate(inst, a) - 1e-12
        assert abs(evaluate(inst, res.assignment) - res.optimum) <= 1e-12

    def test_cap(self):
        inst = generate_random((9, 9, 9), 5, seed=0)
        with pytest.raises(CapExceeded):
            brute_force(inst)

    def test_weight_scaling_invariance(self, rng):
        inst = random_instance(rng, any_pred=True)
        scaled = Instance(
            inst.sizes,
            tuple(Constraint(c.lits, c.weight * 3.5, c.pred) for c in inst.constraints),
        )
        a, b = brute_force(inst), brute_force(scaled)
        assert abs(a.optimum - b.optimum) <= 1e-12
        assert a.count == b.count

    def test_block_sign_flip_invariance(self, rng):
        from xor3sdp.instances import Literal

        inst = random_instance(rng, any_pred=True)
        flipped = Instance(
            inst.sizes,
            tuple(
                Constraint(
                    (
                        Literal(1, c.lits[0].index, -c.lits[0].sign),
                        c.lits[1],
                        c.lits[2],
                    ),
                    c.weight,
                    c.pred,
                )
                for c in inst.constraints
            ),
        )
        assert abs(brute_force(inst).optimum - brute_force(flipped).optimum) <= 1e-12

    def test_crosses_chunk_boundaries(self):
        # 2^21 states span many chunks of 2^_CHUNK_BITS
        inst = generate_random((7, 7, 7), 30, seed=5)
        res = brute_force(inst)
        assert evaluate(inst, res.assignment) == pytest.approx(res.optimum, abs=1e-12)

    @pytest.mark.parametrize("any_pred", [False, True])
    def test_chunk_size_does_not_change_result(self, rng, monkeypatch, any_pred):
        inst = random_instance(rng, sizes=(4, 4, 4), n_cons=20, any_pred=any_pred)
        want = brute_force(inst)
        monkeypatch.setattr(oracle, "_CHUNK_BITS", 2)
        got = brute_force(inst)
        assert (got.optimum, got.count, got.assignment) == (
            want.optimum,
            want.count,
            want.assignment,
        )


class TestExhaustivePolyCheck:
    def test_xor_plus(self):
        assert exhaustive_poly_check(Predicate3(105))
        p = predicate_fourier(Predicate3(105))
        assert p.terms[()] == Fraction(1, 2)

    def test_all_256(self):
        assert all(exhaustive_poly_check(Predicate3(m)) for m in range(256))

    def test_corrupted_coefficient_detected(self):
        pred = Predicate3(105)
        p = predicate_fourier(pred)
        corrupted = make_poly({m: c + Fraction(1, 8) for m, c in p.terms.items()})
        bad = False
        for t in product((1, -1), repeat=3):
            a = Assignment((t[0],), (t[1],), (t[2],))
            if eval_poly_exact(corrupted, a) != Fraction(1 if pred.accepts(t) else 0):
                bad = True
        assert bad

