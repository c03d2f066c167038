from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xor3sdp.fourier import (
    degree_slice,
    format_poly,
    instance_objective,
    make_poly,
    mono,
    predicate_fourier,
    walsh_terms,
)
from xor3sdp.instances import (
    Assignment,
    Instance,
    Predicate3,
    ValidationError,
    XOR_PLUS,
    evaluate,
)

from conftest import eval_poly_exact, instances_strategy, make_constraint

HALF = Fraction(1, 2)
CUBIC = mono((1, 1), (2, 1), (3, 1))


def brute_eval(poly, a):
    # independent evaluator: expand every monomial by hand
    total = Fraction(0)
    for m, c in poly.terms.items():
        prod = Fraction(1)
        for b, i in m:
            prod *= (a.block1, a.block2, a.block3)[b - 1][i - 1]
        total += c * prod
    return total


class TestPredicateFourier:
    def test_xor_plus(self):
        p = predicate_fourier(XOR_PLUS)
        assert p.terms == {(): HALF, CUBIC: HALF}

    def test_full_cube(self):
        assert predicate_fourier(Predicate3(255)).terms == {(): Fraction(1)}

    def test_single_tuple_all_eighths(self):
        p = predicate_fourier(Predicate3.from_tuples([(1, 1, 1)]))
        assert len(p.terms) == 8
        assert all(c == Fraction(1, 8) for c in p.terms.values())

    @pytest.mark.parametrize("mask", range(256))
    def test_walsh_inversion(self, mask):
        pred = Predicate3(mask)
        p = predicate_fourier(pred)
        for t in product((1, -1), repeat=3):
            a = Assignment((t[0],), (t[1],), (t[2],))
            want = Fraction(1 if pred.accepts(t) else 0)
            assert eval_poly_exact(p, a) == want

    def test_parseval_all_masks(self):
        for mask in range(256):
            p = predicate_fourier(Predicate3(mask))
            energy = sum((c * c for c in p.terms.values()), Fraction(0))
            assert energy == Fraction(bin(mask).count("1"), 8)

    def test_coefficients_are_dyadic(self):
        for mask in range(256):
            for c in predicate_fourier(Predicate3(mask)).terms.values():
                den = c.denominator
                assert den & (den - 1) == 0


class TestInstanceObjective:
    def test_unit_xor(self):
        inst = Instance((1, 1, 1), (make_constraint(1, 1, 1),))
        assert instance_objective(inst).terms == {(): HALF, CUBIC: HALF}

    def test_sign_flip_negates_cubic(self):
        inst = Instance((1, 1, 1), (make_constraint(1, 1, 1, signs=(-1, 1, 1)),))
        assert instance_objective(inst).terms == {(): HALF, CUBIC: -HALF}

    def test_two_constraints_pointwise(self):
        inst = Instance(
            (2, 2, 2),
            (
                make_constraint(1, 2, 1, weight=0.75, signs=(1, -1, 1)),
                make_constraint(2, 1, 2, weight=0.25, pred=Predicate3(31)),
            ),
        )
        poly = instance_objective(inst)
        for bits in product((1, -1), repeat=6):
            a = Assignment(bits[:2], bits[2:4], bits[4:])
            assert abs(evaluate(inst, a) - float(eval_poly_exact(poly, a))) <= 1e-12

    def test_like_terms_combine(self):
        inst = Instance(
            (1, 1, 1),
            (make_constraint(1, 1, 1), make_constraint(1, 1, 1, signs=(-1, 1, 1))),
        )
        # opposite cubic terms cancel, leaving the constant
        assert instance_objective(inst).terms == {(): HALF}


class TestDegreeSlice:
    def test_cubic_slice(self):
        p = make_poly({(): HALF, CUBIC: HALF})
        assert degree_slice(p, 3).terms == {CUBIC: HALF}

    def test_constant_slice(self):
        p = make_poly({(): HALF, CUBIC: HALF})
        assert degree_slice(p, 0).terms == {(): HALF}

    def test_degree_four_empty(self):
        p = make_poly({(): HALF, CUBIC: HALF})
        assert degree_slice(p, 4).is_zero()

    def test_negative_degree_rejected(self):
        with pytest.raises(ValidationError):
            degree_slice(make_poly({}), -1)

    @given(instances_strategy())
    @settings(max_examples=40, deadline=None)
    def test_slices_partition(self, inst):
        p = instance_objective(inst)
        merged = {}
        for d in range(4):
            merged.update(degree_slice(p, d).terms)
        assert merged == p.terms


class TestEvalPoly:
    def test_all_plus(self):
        p = make_poly({(): HALF, CUBIC: HALF})
        assert eval_poly_exact(p, Assignment((1,), (1,), (1,))) == 1

    def test_odd_point(self):
        p = make_poly({(): HALF, CUBIC: HALF})
        assert eval_poly_exact(p, Assignment((1,), (1,), (-1,))) == 0

    def test_unbound_variable(self):
        p = make_poly({mono((1, 2)): Fraction(1)})
        with pytest.raises(ValidationError, match="unbound"):
            eval_poly_exact(p, Assignment((1,), (1,), (1,)))

    def test_random_poly_vs_direct_expansion(self, rng):
        vars6 = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
        terms = {}
        for _ in range(12):
            k = int(rng.integers(0, 4))
            chosen = tuple(sorted(map(tuple, rng.choice(vars6, size=k, replace=False))))
            if len(set(chosen)) != len(chosen):
                continue
            terms[chosen] = Fraction(int(rng.integers(-8, 9)), 8)
        p = make_poly(terms)
        for bits in product((1, -1), repeat=6):
            a = Assignment(bits[:2], bits[2:4], bits[4:])
            assert eval_poly_exact(p, a) == brute_eval(p, a)


def test_mixed_degree2_flagging():
    pred = Predicate3(31)  # degenerate predicate with bilinear energy
    p = predicate_fourier(pred)
    inst = Instance((1, 1, 1), (make_constraint(1, 1, 1, pred=pred),))
    obj = instance_objective(inst)
    assert degree_slice(p, 2).terms
    assert degree_slice(obj, 2).terms


def test_format_poly_dump():
    p = make_poly({(): HALF, mono((1, 3), (2, 1)): Fraction(-1, 4)})
    dump = format_poly(p)
    assert dump == "1/2 : 1\n-1/4 : x1_3 x2_1\n"


def exhaustive_poly_check(pred: Predicate3) -> bool:
    """Does the Walsh expansion reproduce the 0/1 indicator at all 8 points?"""
    poly = predicate_fourier(pred)
    for t in product((1, -1), repeat=3):
        a = Assignment((t[0],), (t[1],), (t[2],))
        want = Fraction(1 if pred.accepts(t) else 0)
        if eval_poly_exact(poly, a) != want:
            return False
    return True


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


def walsh_rows(inst):
    """`walsh_terms` as {monomial: coefficient}, monomials as in `instance_objective`."""
    index, coeff = walsh_terms(inst)
    return {
        tuple((b + 1, int(i)) for b, i in enumerate(row) if i): float(c)
        for row, c in zip(index, coeff)
    }


class TestWalshTerms:
    @given(instances_strategy(any_pred=True))
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_objective(self, inst):
        index, coeff = walsh_terms(inst)
        assert index.shape == (len(coeff), 3)
        keys = [tuple(row) for row in index.tolist()]
        assert keys == sorted(set(keys))  # one row per monomial, sorted
        rows = walsh_rows(inst)
        exact = instance_objective(inst).terms
        assert exact.keys() <= rows.keys()
        for m, c in rows.items():
            assert abs(c - float(exact.get(m, 0))) <= 1e-15

    def test_arrays(self):
        inst = Instance(
            (2, 3, 1),
            (
                make_constraint(2, 3, 1, weight=3.0, signs=(1, -1, 1)),
                make_constraint(1, 1, 1, weight=1.0),
            ),
        )
        index, coeff = walsh_terms(inst)
        assert index.tolist() == [[0, 0, 0], [1, 1, 1], [2, 3, 1]]
        assert coeff.tolist() == [0.5, 0.125, -0.375]

    def test_cancelled_monomial_has_no_row(self):
        inst = Instance(
            (1, 1, 1),
            (make_constraint(1, 1, 1), make_constraint(1, 1, 1, signs=(-1, 1, 1))),
        )
        assert walsh_rows(inst) == {(): 0.5}

    def test_zero_weight_constraint(self):
        inst = Instance(
            (2, 2, 2),
            (make_constraint(1, 1, 1), make_constraint(2, 2, 2, weight=0.0, pred=Predicate3(7))),
        )
        assert walsh_rows(inst) == {(): 0.5, CUBIC: 0.5}
