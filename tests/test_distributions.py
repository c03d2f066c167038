from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xor3sdp.distributions import (
    DisguiseSpec,
    TupleDistribution,
    _cumulative,
    all_tuples,
    check_pairwise_independent,
    disguise,
    ground,
    marginal_prob_one,
    pair_prob_one,
    parse_distribution,
    product_plus_triples,
    uniform_over,
)
from xor3sdp.instances import FormatError, ValidationError

HALF = Fraction(1, 2)


def uniform_c():
    return uniform_over(product_plus_triples())


def tuples_with_ones(m: int) -> list:
    """All triples with exactly m coordinates equal to +1."""
    return [t for t in all_tuples(3) if sum(v == 1 for v in t) == m]


def normalized(weights: dict) -> TupleDistribution:
    """The distribution proportional to nonnegative weights."""
    total = sum(weights.values(), Fraction(0))
    return TupleDistribution(3, {t: Fraction(w) / total for t, w in weights.items() if w})


def sample_many(d: TupleDistribution, n: int, rng: np.random.Generator) -> list:
    """n draws from d, as the gadget's sample mode draws from `_cumulative`."""
    support, cum = _cumulative(d)
    return [support[i] for i in np.searchsorted(cum, rng.random(n), side="right")]


class TestGround:
    def test_point_mass(self):
        d = uniform_over([(1, 1, 1)])
        assert ground(d) == {(1, 1, 1)}

    def test_uniform_c(self):
        assert ground(uniform_c()) == {
            (1, 1, 1),
            (1, -1, -1),
            (-1, 1, -1),
            (-1, -1, 1),
        }

    def test_zero_weight_excluded(self):
        d = TupleDistribution(1, {(1,): Fraction(1), (-1,): Fraction(0)})
        assert ground(d) == {(1,)}


class TestHelpers:
    def test_uniform_shares(self):
        g1 = uniform_over(tuples_with_ones(1))
        assert all(p == Fraction(1, 3) for p in g1.probs.values())
        c = uniform_c()
        assert all(p == Fraction(1, 4) for p in c.probs.values())

    def test_uniform_empty_rejected(self):
        with pytest.raises(ValidationError):
            uniform_over([])

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            TupleDistribution(1, {(1,): Fraction(1, 3)})


class TestPairwiseIndependence:
    def test_uniform_c_holds_exactly(self):
        assert check_pairwise_independent(uniform_c(), HALF, 0).holds

    def test_full_cube_holds(self):
        assert check_pairwise_independent(uniform_over(all_tuples(3)), HALF, 0).holds

    def test_point_mass_fails_first_coordinate(self):
        res = check_pairwise_independent(uniform_over([(1, 1, 1)]), HALF, 0)
        assert not res.holds
        assert res.witness is not None
        assert res.witness.coords == (1,)
        assert res.witness.actual == Fraction(1)

    def test_bias_range(self):
        with pytest.raises(ValidationError):
            check_pairwise_independent(uniform_c(), 1, 0)

    @given(st.lists(st.integers(0, 8), min_size=8, max_size=8).filter(lambda w: sum(w) > 0))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_marginals(self, weights):
        d = normalized(dict(zip(all_tuples(3), weights)))
        res = check_pairwise_independent(d, HALF, 0)
        # independent oracle: recompute every marginal from scratch
        singles = [
            sum((p for t, p in d.probs.items() if t[i] == 1), Fraction(0))
            for i in range(3)
        ]
        pairs = [
            sum((p for t, p in d.probs.items() if t[i] == 1 and t[j] == 1), Fraction(0))
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        expected = all(s == HALF for s in singles) and all(
            p == Fraction(1, 4) for p in pairs
        )
        assert res.holds == expected


class TestDisguise:
    def test_working_order_gives_uniform_c(self):
        spec = DisguiseSpec(
            (
                (Fraction(1, 4), uniform_over(tuples_with_ones(3))),
                (Fraction(3, 4), uniform_over(tuples_with_ones(1))),
            )
        )
        assert disguise(spec) == uniform_c()
        assert check_pairwise_independent(disguise(spec), HALF, 0).holds

    def test_literal_order_fails_with_five_sixths(self):
        spec = DisguiseSpec(
            (
                (Fraction(3, 4), uniform_over(tuples_with_ones(3))),
                (Fraction(1, 4), uniform_over(tuples_with_ones(1))),
            )
        )
        res = check_pairwise_independent(disguise(spec), HALF, 0)
        assert not res.holds
        assert res.witness is not None
        assert res.witness.coords == (1,)
        assert res.witness.actual == Fraction(5, 6)

    def test_single_component_identity(self):
        d = uniform_c()
        assert disguise(DisguiseSpec(((Fraction(1), d),))) == d

    def test_overlapping_grounds_rejected(self):
        d1 = uniform_over([(1, 1, 1), (1, -1, -1)])
        d2 = uniform_over([(1, 1, 1), (-1, 1, -1)])
        with pytest.raises(ValidationError, match=r"\(1, 1, 1\)"):
            disguise(DisguiseSpec(((HALF, d1), (HALF, d2))))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            DisguiseSpec(((Fraction(1, 4), uniform_c()),))

    def test_ground_is_disjoint_union(self):
        g3 = uniform_over(tuples_with_ones(3))
        g1 = uniform_over(tuples_with_ones(1))
        spec = DisguiseSpec(((Fraction(1, 4), g3), (Fraction(3, 4), g1)))
        assert ground(disguise(spec)) == ground(g3) | ground(g1)


class TestSampling:
    def test_point_mass_always_same(self):
        d = uniform_over([(1, -1, 1)])
        rng = np.random.default_rng(0)
        assert all(x == (1, -1, 1) for x in sample_many(d, 20, rng))

    def test_uniform_c_frequencies(self):
        d = uniform_c()
        rng = np.random.default_rng(42)
        draws = sample_many(d, 10**5, rng)
        for t in ground(d):
            freq = sum(1 for x in draws if x == t) / len(draws)
            assert abs(freq - 0.25) <= 0.01

    def test_empirical_pair_marginals(self):
        d = uniform_c()
        rng = np.random.default_rng(7)
        draws = np.array(sample_many(d, 10**5, rng))
        for i in range(3):
            for j in range(i + 1, 3):
                freq = float(np.mean((draws[:, i] == 1) & (draws[:, j] == 1)))
                assert abs(freq - 0.25) <= 0.01

    def test_total_variation_convergence(self):
        # TV <= 0.02 at 1e5 draws for supports <= 8, in >= 99% of seeds
        d = normalized(
            {(1, 1, 1): 3, (1, -1, -1): 1, (-1, 1, -1): 2, (-1, -1, 1): 1, (-1, -1, -1): 1}
        )
        failures = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            draws = sample_many(d, 10**5, rng)
            counts: dict = {}
            for x in draws:
                counts[x] = counts.get(x, 0) + 1
            tv = 0.5 * sum(
                abs(counts.get(t, 0) / len(draws) - float(d.prob(t)))
                for t in all_tuples(3)
            )
            if tv > 0.02:
                failures += 1
        assert failures <= 1

    def test_deterministic_per_stream(self):
        d = uniform_c()
        a = sample_many(d, 100, np.random.default_rng(3))
        b = sample_many(d, 100, np.random.default_rng(3))
        assert a == b


class TestDumpFormat:
    def test_round_trip(self):
        d = normalized({(1, 1, 1): 5, (-1, -1, 1): 3})
        assert parse_distribution("# weights 5 and 3\n+++ 5/8\n--+ 0.375\n") == d

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            parse_distribution("+x+ 1/2\n")
        with pytest.raises(FormatError):
            parse_distribution("+++ 1/2\n++ 1/2\n")
        with pytest.raises(FormatError):
            parse_distribution("+++ 1/2\n")  # does not sum to 1
        with pytest.raises(FormatError):
            parse_distribution("")
