import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xor3sdp.fourier import instance_objective
from xor3sdp.instances import (
    Assignment,
    Constraint,
    FormatError,
    Instance,
    Literal,
    Predicate3,
    ValidationError,
    XOR_PLUS,
    XOR_PLUS_MASK,
    evaluate,
    parse,
    serialize,
)

from conftest import (
    eval_poly_exact,
    instances_strategy,
    make_constraint,
    random_assignment_for,
    random_instance,
)


def test_xor_plus_mask_is_product_plus():
    assert XOR_PLUS_MASK == 105
    for t in XOR_PLUS.tuples():
        assert t[0] * t[1] * t[2] == 1
    assert len(XOR_PLUS.tuples()) == 4


class TestEvaluate:
    def test_single_xor_all_plus(self):
        inst = Instance((1, 1, 1), (make_constraint(1, 1, 1),))
        assert evaluate(inst, Assignment((1,), (1,), (1,))) == 1.0

    def test_single_xor_odd_flip(self):
        inst = Instance((1, 1, 1), (make_constraint(1, 1, 1),))
        assert evaluate(inst, Assignment((1,), (1,), (-1,))) == 0.0

    def test_contradictory_pair_always_half(self):
        minus = Predicate3.from_tuples(
            [t for t in Predicate3(255).tuples() if t[0] * t[1] * t[2] == -1]
        )
        inst = Instance(
            (1, 1, 1),
            (make_constraint(1, 1, 1), make_constraint(1, 1, 1, pred=minus)),
        )
        for a in (
            Assignment((1,), (1,), (1,)),
            Assignment((-1,), (1,), (-1,)),
            Assignment((-1,), (-1,), (-1,)),
        ):
            assert evaluate(inst, a) == 0.5

    def test_dimension_mismatch(self):
        inst = Instance((2, 1, 1), (make_constraint(1, 1, 1),))
        with pytest.raises(ValidationError):
            evaluate(inst, Assignment((1,), (1,), (1,)))

    def test_weight_scaling_invariance(self, rng):
        for _ in range(100):
            inst = random_instance(rng, any_pred=True)
            a = random_assignment_for(inst.sizes, rng)
            c = float(rng.integers(1, 50)) / 7.0
            scaled = Instance(
                inst.sizes,
                tuple(
                    Constraint(cc.lits, cc.weight * c, cc.pred) for cc in inst.constraints
                ),
            )
            assert abs(evaluate(inst, a) - evaluate(scaled, a)) <= 1e-12

    def test_folding_consistency(self, rng):
        # flipping one literal's sign together with the assignment bit it reads
        # leaves the value unchanged
        for _ in range(50):
            inst = random_instance(rng, any_pred=True)
            a = random_assignment_for(inst.sizes, rng)
            block = int(rng.integers(1, 4))
            index = int(rng.integers(1, inst.sizes[block - 1] + 1))
            flipped_cons = []
            for c in inst.constraints:
                lits = list(c.lits)
                lit = lits[block - 1]
                if lit.index == index:
                    lits[block - 1] = Literal(lit.block, lit.index, -lit.sign)
                flipped_cons.append(Constraint(tuple(lits), c.weight, c.pred))
            flipped_inst = Instance(inst.sizes, tuple(flipped_cons))
            vals = [list(a.block1), list(a.block2), list(a.block3)]
            vals[block - 1][index - 1] *= -1
            flipped_a = Assignment(*(tuple(v) for v in vals))
            assert evaluate(inst, a) == evaluate(flipped_inst, flipped_a)

    @given(instances_strategy())
    @settings(max_examples=50, deadline=None)
    def test_matches_objective_polynomial(self, inst):
        rng = np.random.default_rng(inst.n_vars)
        poly = instance_objective(inst)
        for _ in range(5):
            a = random_assignment_for(inst.sizes, rng)
            assert abs(evaluate(inst, a) - float(eval_poly_exact(poly, a))) <= 1e-9


class TestTextFormat:
    def test_header_and_one_constraint(self):
        text = "c demo\np mx3 2 2 2 1\n1.0 1 -2 1 0\n"
        inst = parse(text)
        assert inst.sizes == (2, 2, 2)
        assert len(inst.constraints) == 1
        lit2 = inst.constraints[0].lits[1]
        assert (lit2.index, lit2.sign) == (2, -1)

    def test_empty_constraint_list_rejected(self):
        with pytest.raises(FormatError, match="W must be positive"):
            parse("p mx3 1 1 1 0\n")

    def test_round_trip_50_constraints(self, rng):
        inst = random_instance(rng, sizes=(4, 5, 6), n_cons=50, any_pred=True)
        text = serialize(inst)
        again = serialize(parse(text))
        assert text == again

    @given(instances_strategy())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any(self, inst):
        text = serialize(inst)
        assert serialize(parse(text)) == text
        assert text.endswith("\n") and "\r" not in text

    def test_malformed_header(self):
        with pytest.raises(FormatError) as e:
            parse("p mx3 2 2\n")
        assert e.value.line == 1

    def test_out_of_range_literal(self):
        with pytest.raises(FormatError, match="out of range") as e:
            parse("p mx3 2 2 2 1\n1.0 3 1 1 0\n")
        assert e.value.line == 2

    def test_negative_weight(self):
        with pytest.raises(FormatError, match="negative weight") as e:
            parse("p mx3 2 2 2 1\n-1.0 1 1 1 0\n")
        assert e.value.line == 2

    def test_unknown_predicate(self):
        with pytest.raises(FormatError, match="unknown predicate") as e:
            parse("p mx3 2 2 2 1\n1.0 1 1 1 7\n")
        assert e.value.line == 2

    def test_constraint_count_mismatch(self):
        with pytest.raises(FormatError, match="declares"):
            parse("p mx3 2 2 2 2\n1.0 1 1 1 0\n")

    def test_custom_predicate_round_trip(self):
        text = "p mx3 1 1 1 1\nd pred 1 7\n0.5 1 1 1 1\n"
        inst = parse(text)
        assert inst.constraints[0].pred.mask == 7
        assert serialize(parse(serialize(inst))) == serialize(inst)

    def test_canonical_sorting(self):
        a = make_constraint(2, 1, 1, weight=1.0)
        b = make_constraint(1, 1, 1, weight=2.0)
        t1 = serialize(Instance((2, 1, 1), (a, b)))
        t2 = serialize(Instance((2, 1, 1), (b, a)))
        assert t1 == t2


class TestFiniteWeights:
    @pytest.mark.parametrize("weight", [float("inf"), float("nan"), -1.0])
    def test_constraint_rejects(self, weight):
        with pytest.raises(ValidationError, match="must be finite and >= 0"):
            make_constraint(1, 1, 1, weight=weight)

    def test_total_weight_must_be_finite(self):
        cons = (make_constraint(1, 1, 1, weight=1e308), make_constraint(1, 1, 1, weight=1e308))
        with pytest.raises(ValidationError, match="finite and positive"):
            Instance((1, 1, 1), cons)

    def test_largest_finite_total_accepted(self):
        inst = Instance((1, 1, 1), (make_constraint(1, 1, 1, weight=1e308),))
        assert evaluate(inst, Assignment((1,), (1,), (1,))) == 1.0

    @pytest.mark.parametrize(
        "lines", [["inf 1 1 1 0"], ["nan 1 1 1 0"], ["1e308 1 1 1 0", "1e308 1 1 -1 0"]]
    )
    def test_parse_rejects(self, lines):
        text = f"p mx3 1 1 1 {len(lines)}\n" + "\n".join(lines) + "\n"
        with pytest.raises(ValidationError):
            parse(text)
