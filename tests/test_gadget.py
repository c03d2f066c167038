from collections import defaultdict

import pytest

from xor3sdp.gadget import (
    compose,
    dictator_assignment,
    make_label_cover,
    parse_label_cover,
    serialize_label_cover,
    uniform_xor_base,
)
from xor3sdp.instances import evaluate

# (n_labels, mult, n_left, n_right, degree); every edge joins a distinct (u, v)
CONFIGS = [
    (1, 2, 1, 1, 1),
    (2, 1, 1, 1, 1),
    (2, 2, 1, 1, 1),
    (1, 3, 2, 2, 1),
    (3, 1, 2, 1, 1),
]


class TestLabelCoverText:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_round_trip(self, config):
        lc = make_label_cover(*config, seed=11)
        text = serialize_label_cover(lc)
        assert parse_label_cover(text) == lc
        assert serialize_label_cover(parse_label_cover(text)) == text


class TestDictatorValue:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("noise", [0.0, 0.1, 0.3])
    def test_closed_form(self, config, noise):
        # each of the three queried coordinates is re-randomized with
        # probability noise; the test passes surely if none is, else w.p. 1/2
        lc = make_label_cover(*config, seed=7)
        inst = compose(lc, uniform_xor_base(), noise)
        value = evaluate(inst, dictator_assignment(lc, inst))
        assert value == pytest.approx(0.5 + 0.5 * (1 - noise) ** 3, abs=1e-12)


def _sample(config, seed):
    lc = make_label_cover(*config, seed=5)
    inst = compose(
        lc, uniform_xor_base(), 0.2, per_edge_budget=300, mode="sample", seed=seed
    )
    return lc, inst


class TestSampleMode:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_deterministic_per_seed(self, config):
        assert _sample(config, 3)[1] == _sample(config, 3)[1]

    def test_seed_changes_sample(self):
        assert _sample(CONFIGS[2], 3)[1] != _sample(CONFIGS[2], 4)[1]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_per_edge_weights_sum_to_one(self, config):
        lc, inst = _sample(config, 3)
        per_u = 1 << (lc.n_labels - 1)
        per_v = 1 << (lc.right_alphabet - 1)
        totals: dict = defaultdict(float)
        for c in inst.constraints:
            edge = ((c.lits[0].index - 1) // per_u, (c.lits[1].index - 1) // per_v)
            totals[edge] += c.weight
        assert sorted(totals) == sorted((e.u, e.v) for e in lc.edges)
        for total in totals.values():
            assert total == pytest.approx(1.0, abs=1e-12)
