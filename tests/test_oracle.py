import numpy as np
import pytest
from hypothesis import given, settings

from xor3sdp.instances import (
    Assignment,
    CapExceeded,
    Constraint,
    Instance,
    Literal,
    Predicate3,
    XOR_PLUS,
    bits_to_assignment,
    evaluate,
    generate_random,
)
from xor3sdp import oracle
from xor3sdp.fourier import instance_objective
from xor3sdp.oracle import brute_force
from xor3sdp.pipeline import FamilySpec, build_instance

from conftest import instances_strategy, make_constraint, random_assignment_for, random_instance


def full_enumeration(inst: Instance):
    """The oracle `brute_force` replaced, as the reference: every one of the
    2^n encoded assignments (bit v = variable v, 0 meaning +1) through a
    per-constraint loop; the optimum, the number of assignments within 1e-12
    of it, and the one with the smallest encoding."""
    off = (0, inst.sizes[0], inst.sizes[0] + inst.sizes[1])
    idx = np.arange(1 << inst.n_vars, dtype=np.int64)
    total = np.zeros(idx.shape[0])
    for c in inst.constraints:
        code = 0
        for lit in c.lits:
            bit = ((idx >> (off[lit.block - 1] + lit.index - 1)) & 1) ^ int(lit.sign < 0)
            code = (code << 1) | bit
        total += ((c.pred.mask >> code) & 1) * c.weight
    vals = total / inst.total_weight
    top = float(vals.max())
    near = vals >= top - 1e-12
    best = int(np.argmax(near))
    bits = [(best >> v) & 1 for v in range(inst.n_vars)]
    return top, int(near.sum()), bits_to_assignment(bits, inst.sizes)


def assert_matches_full_enumeration(inst: Instance):
    res = brute_force(inst)
    optimum, count, assignment = full_enumeration(inst)
    assert abs(res.optimum - optimum) <= 1e-12
    assert (res.count, res.assignment) == (count, assignment)
    assert res.optimum == evaluate(inst, res.assignment)


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

    @pytest.mark.parametrize("weight", [1e308, 3e307, 5e-324])
    def test_extreme_weight(self, weight):
        # the largest finite weights and the smallest positive one: no
        # intermediate may overflow or underflow, or the coefficients turn
        # nan or 0 and the negated literal is lost
        inst = Instance((1, 1, 1), (make_constraint(1, 1, 1, weight=weight, signs=(1, 1, -1)),))
        res = brute_force(inst)
        assert res.optimum == 1.0
        assert res.count == 4

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
        assert evaluate(inst, res.assignment) == res.optimum

    def test_cap(self):
        # 28 variables in the two smallest blocks
        inst = generate_random((14, 14, 14), 5, seed=0)
        with pytest.raises(CapExceeded):
            brute_force(inst)

    @pytest.mark.parametrize("big", [1, 2, 3])
    def test_cap_leaves_out_the_largest_block(self, big):
        # 27 variables in block `big`, one in each other; variable 27 is in
        # no constraint, so it is tied in every optimal assignment
        sizes = tuple(27 if b == big else 1 for b in (1, 2, 3))
        cons = tuple(
            Constraint(
                tuple(Literal(b, i if b == big else 1, 1) for b in (1, 2, 3)), 1.0, XOR_PLUS
            )
            for i in range(1, 27)
        )
        res = brute_force(Instance(sizes, cons))
        assert res.optimum == 1.0
        assert res.count == 4 * 2  # any signs on the two small blocks, then one tie
        assert res.assignment == Assignment(*((1,) * s for s in sizes))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_34_variables(self, rng, seed):
        inst = generate_random((2, 16, 16), 60, seed)
        res = brute_force(inst)
        assert evaluate(inst, res.assignment) == res.optimum
        for _ in range(1000):
            assert res.optimum >= evaluate(inst, random_assignment_for(inst.sizes, rng))

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

    def test_crosses_chunk_boundaries(self, rng):
        # 2^14 states, 2^14 // (8 * 8 kept-block products + 8 variables) = 227 per chunk
        inst = generate_random((7, 7, 7), 30, seed=5)
        res = brute_force(inst)
        assert evaluate(inst, res.assignment) == res.optimum
        for _ in range(1000):
            assert res.optimum >= evaluate(inst, random_assignment_for(inst.sizes, rng))

    def test_composed_4_16_16(self):
        # Label Cover (2,2,2,2,2) composed at noise 0.1: 4096 constraints, 20
        # enumerated variables; the optimum is the dictator value 0.5 + 0.5 (1 - 0.1)^3
        spec = FamilySpec(kind="composed", n_labels=2, mult=2, n_left=2, n_right=2, degree=2, noise=0.1)
        inst = build_instance(spec, 0, 0)
        assert inst.sizes == (4, 16, 16)
        res = brute_force(inst)
        assert abs(res.optimum - (0.5 + 0.5 * 0.9**3)) <= 1e-12
        assert res.optimum == evaluate(inst, res.assignment)

    @pytest.mark.parametrize("any_pred", [False, True])
    def test_chunk_size_does_not_change_result(self, rng, monkeypatch, any_pred):
        # one state per chunk, with each block eliminated in turn, so the
        # smallest encoding is chosen across chunks
        for sizes in [(4, 4, 4), (3, 4, 3), (3, 3, 4)]:
            inst = random_instance(rng, sizes=sizes, n_cons=20, any_pred=any_pred)
            want = brute_force(inst)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_CHUNK_CELLS", 2)
                got = brute_force(inst)
            assert (got.optimum, got.count, got.assignment) == (
                want.optimum,
                want.count,
                want.assignment,
            )


class TestMatchesFullEnumeration:
    """Eliminating the largest block gives the optimum, count and assignment
    of enumerating all 2^n assignments."""

    @given(instances_strategy(any_pred=True))
    @settings(max_examples=150, deadline=None)
    def test_any_predicate(self, inst):
        assert_matches_full_enumeration(inst)

    @pytest.mark.parametrize(
        "sizes",
        [(5, 2, 3), (2, 5, 3), (3, 2, 5), (3, 3, 3), (4, 4, 2), (2, 4, 4), (4, 2, 4)],
    )
    @pytest.mark.parametrize("any_pred", [False, True])
    def test_each_block_largest_and_ties(self, rng, sizes, any_pred):
        for _ in range(5):
            n_cons = int(rng.integers(1, 20))
            assert_matches_full_enumeration(random_instance(rng, sizes, n_cons, any_pred))

    @pytest.mark.parametrize("big", [1, 2, 3])
    @pytest.mark.parametrize("any_pred", [False, True])
    def test_unused_variable_doubles_count(self, rng, big, any_pred):
        # the same constraints with one more, unused, variable in the largest block
        sizes = tuple(4 if b == big else 2 for b in (1, 2, 3))
        grown = tuple(5 if b == big else 2 for b in (1, 2, 3))
        for _ in range(5):
            inst = random_instance(rng, sizes, int(rng.integers(1, 12)), any_pred)
            wider = Instance(grown, inst.constraints)
            assert_matches_full_enumeration(wider)
            assert brute_force(wider).count == 2 * brute_force(inst).count
