import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from xor3sdp import sdp
from xor3sdp.instances import ValidationError
from xor3sdp.sdp import (
    DEFAULT_T_GRID,
    GramFactor,
    NumericalError,
    QuadraticObjective,
    SdpConfig,
    _ascend,
    cw_round,
    default_rank,
    relaxation_value,
    solve_relaxation,
)


def solve(q: QuadraticObjective, cfg: SdpConfig) -> GramFactor:
    """One objective's factor, seeded from cfg.seed."""
    [g] = solve_relaxation([q], cfg, [cfg.seed])
    return g


def pairs(q: QuadraticObjective) -> dict[tuple[int, int], float]:
    """The nonzero terms as {(i, j): a_ij} over global indices, i left, j right."""
    return {(i, q.n_left + j): float(a) for (i, j), a in np.ndenumerate(q.a) if a != 0}


def exhaustive_pm1_max(q: QuadraticObjective) -> float:
    """Independent oracle: enumerate all sign vectors with numpy bit tricks."""
    idx = np.arange(1 << q.n, dtype=np.int64)
    total = np.zeros(1 << q.n, dtype=np.float64)
    for (i, j), a in pairs(q).items():
        total += a * (1 - 2 * (((idx >> i) & 1) ^ ((idx >> j) & 1)))
    return float(total.max())


def random_objective(rng, n_left, n_right, density=0.5):
    a = rng.normal(size=(n_left, n_right)) * (rng.random((n_left, n_right)) < density)
    if not a.any():
        a[0, 0] = 1.0
    return QuadraticObjective(a)


def pair_objective(a: float) -> QuadraticObjective:
    return QuadraticObjective(np.array([[a]]))


def gauss_seidel_reference(q: QuadraticObjective, rank: int, cfg: SdpConfig, seed: int):
    """The per-vertex ascent the side-at-a-time update replaces: each vector in
    turn becomes the normalized weighted sum of its neighbours' vectors."""
    entries = pairs(q)

    def value(v):
        return sum(a * float(v[i] @ v[j]) for (i, j), a in entries.items())

    rng = np.random.default_rng([seed, 0, 0])
    v = rng.standard_normal((q.n, rank))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    neighbors: list[list[tuple[int, float]]] = [[] for _ in range(q.n)]
    for (i, j), a in entries.items():
        neighbors[i].append((j, a))
        neighbors[j].append((i, a))
    values = [value(v)]
    for _ in range(cfg.max_sweeps):
        for i in range(q.n):
            if not neighbors[i]:
                continue
            s = np.zeros(rank)
            for j, a in neighbors[i]:
                s += a * v[j]
            norm = float(np.linalg.norm(s))
            if norm > 1e-300:
                v[i] = s / norm
        values.append(value(v))
        if values[-1] - values[-2] <= cfg.tol * max(1.0, abs(values[-1])):
            break
    return values


def set_side_reference(side, target):
    """The target row norms, 0 on a row that keeps its vector."""
    norms = np.linalg.norm(target, axis=1)
    live = norms > 1e-300
    side[live] = target[live] / norms[live, None]
    return np.where(live, norms, 0.0)


def start_reference(n, rank, seed, run):
    v = np.random.default_rng([seed, 0, run]).standard_normal((n, rank))
    set_side_reference(v, v)
    return v


def value_reference(v, q: QuadraticObjective) -> float:
    """The relaxation value, summed as the one-factor ascent summed it."""
    x = v.T
    return float(((x[:, : q.n_left] @ q.a) * x[:, q.n_left :]).sum(axis=-1).sum())


def ascend_reference(q: QuadraticObjective, cfg: SdpConfig, seed: int, run: int):
    """The one-factor ascent the stack replaces: (final vectors, sweep values,
    exact values). A sweep's logged value is the sum of the right side's target
    norms; the exact values are `value_reference` at the same vectors."""
    rank = cfg.rank or default_rank(q.n)
    v = start_reference(q.n, rank, seed, run)
    left, right = v[: q.n_left], v[q.n_left :]
    values = [value_reference(v, q)]
    exact = values[:]
    for _ in range(cfg.max_sweeps):
        set_side_reference(left, q.a @ right)
        val = float(set_side_reference(right, q.a.T @ left).sum())
        assert math.isfinite(val) and val >= values[-1] - 1e-12
        values.append(val)
        exact.append(value_reference(v, q))
        if val - values[-2] <= cfg.tol * max(1.0, abs(val)):
            break
    return v, values, exact


def cw_round_reference(g: GramFactor, q: QuadraticObjective, cfg: SdpConfig):
    """The rounding loop that draws once per (trial, T)."""
    candidates = []
    for trial in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, 1, trial])
        u = g.vectors @ rng.standard_normal(g.rank)
        for t in cfg.t_grid:
            y = np.where(u >= 0, 1.0, -1.0) if t == 0 else np.clip(u / t, -1.0, 1.0)
            candidates.append(np.where(rng.random(q.n) < (1.0 + y) / 2.0, 1.0, -1.0))
    x = np.array(candidates)
    vals = ((x[:, : q.n_left] @ q.a) * x[:, q.n_left :]).sum(axis=1)
    best = int(np.argmax(vals >= vals.max() - 1e-12))
    return [int(s) for s in x[best]], float(vals[best])


class TestSolveRelaxation:
    def test_aligned_pair(self):
        q = pair_objective(1.0)
        g = solve(q, SdpConfig(seed=1))
        assert relaxation_value(g, q) == pytest.approx(1.0, abs=1e-6)
        assert float(g.vectors[0] @ g.vectors[1]) == pytest.approx(1.0, abs=1e-6)

    def test_antipodal_pair(self):
        q = pair_objective(-1.0)
        g = solve(q, SdpConfig(seed=1))
        assert float(g.vectors[0] @ g.vectors[1]) == pytest.approx(-1.0, abs=1e-6)

    def test_random_n8_dominates_signs(self, rng):
        q = random_objective(rng, 3, 5)
        g = solve(q, SdpConfig(seed=5))
        assert relaxation_value(g, q) >= exhaustive_pm1_max(q) - 1e-6

    def test_unit_vectors(self, rng):
        q = random_objective(rng, 4, 6)
        g = solve(q, SdpConfig(seed=2))
        norms = np.linalg.norm(g.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_monotone_sweeps(self, rng):
        q = random_objective(rng, 5, 7)
        g = solve(q, SdpConfig(seed=3))
        vals = g.sweep_values
        assert len(vals) > 2
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_objective_flagged(self):
        for shape in ((1, 2), (0, 3), (0, 0)):
            q = QuadraticObjective(np.zeros(shape))
            g = solve(q, SdpConfig(seed=1))
            assert g.degenerate
            assert g.vectors.shape[0] == q.n
            assert relaxation_value(g, q) == 0.0

    def test_default_rank(self):
        assert default_rank(2) == 2
        assert default_rank(16) == math.ceil(math.sqrt(32)) + 1

    def test_dominance_sweep_n_le_20(self, rng):
        for sizes in ((2, 4), (4, 6), (5, 9)):
            q = random_objective(rng, *sizes)
            g = solve(q, SdpConfig(seed=sum(sizes)))
            assert relaxation_value(g, q) >= exhaustive_pm1_max(q) - 1e-6

    def test_negative_sweeps_rejected(self):
        with pytest.raises(ValidationError, match="max_sweeps"):
            SdpConfig(max_sweeps=-3)

    def test_zero_sweeps_keeps_random_start(self, rng):
        g = solve(random_objective(rng, 2, 3), SdpConfig(max_sweeps=0))
        assert len(g.sweep_values) == 1


class TestMatchesGaussSeidel:
    """Updating a whole side at once is the per-vertex ascent, left then right."""

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 5), (6, 30), (9, 12)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_sweeps(self, rng, sizes, seed):
        q = random_objective(rng, *sizes)
        self.check(q, seed)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_zero_row_and_column_keep_their_vectors(self, rng, seed):
        a = random_objective(rng, 5, 8, density=0.7).a.copy()
        a[2, :] = 0.0
        a[:, 4] = 0.0
        q = QuadraticObjective(a)
        g = self.check(q, seed)
        start = np.random.default_rng([seed, 0, 0]).standard_normal((q.n, g.rank))
        for row in (2, q.n_left + 4):
            assert np.allclose(g.vectors[row], start[row] / np.linalg.norm(start[row]), atol=1e-15)

    def test_runs_to_max_sweeps(self, rng):
        q = random_objective(rng, 6, 30)
        self.check(q, 3, max_sweeps=5, tol=1e-300)

    @staticmethod
    def check(q, seed, **overrides):
        cfg = SdpConfig(seed=seed, restarts=1, **overrides)
        g = solve(q, cfg)
        reference = gauss_seidel_reference(q, g.rank, cfg, seed)
        assert len(g.sweep_values) == len(reference)
        assert np.allclose(g.sweep_values, reference, rtol=0, atol=1e-12)
        return g


class TestStackedAscent:
    """Each factor of a stack ends bitwise as the one-factor ascent ends."""

    @staticmethod
    def check_stack(qs, cfg, seeds):
        """Ascend one stack of every (objective, seed, run) and compare each
        factor; the stacked factors and each one's sweep count."""
        runs = range(cfg.restarts)
        n = qs[0].n
        rank = cfg.rank or default_rank(n)
        shared = all(q is qs[0] for q in qs)
        a = qs[0].a if shared else np.stack([q.a for q in qs for _ in runs])
        v = np.stack([start_reference(n, rank, s, r) for s in seeds for r in runs])
        values = _ascend(a, v, cfg)
        sweeps = []
        for i, (q, s) in enumerate(zip(qs, seeds)):
            for r in runs:
                f = i * cfg.restarts + r
                want_v, want_values, _ = ascend_reference(q, cfg, s, r)
                assert values[f] == want_values
                assert np.array_equal(v[f], want_v)
                sweeps.append(len(want_values) - 1)
        return v, sweeps

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 5), (6, 30), (9, 12)])
    def test_shared_matrix(self, rng, sizes):
        q = random_objective(rng, *sizes)
        _, sweeps = self.check_stack([q] * 5, SdpConfig(restarts=3), [10 * k for k in range(5)])
        if sizes != (1, 1):
            assert len(set(sweeps)) > 1  # factors stop at different sweeps

    def test_blas_blocked_shape(self, rng):
        # round 1's shape at planted (20, 20, 20)/400, where BLAS blocks the products
        q = random_objective(rng, 20, 400)
        self.check_stack([q] * 5, SdpConfig(restarts=3), [10 * k for k in range(5)])

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 5), (6, 30), (9, 12), (20, 400)])
    @pytest.mark.parametrize("zero_row_and_column", [False, True])
    def test_logged_value_is_exact_value(self, rng, sizes, zero_row_and_column):
        # the log sums the right side's target norms; the exact value sums the form
        a = random_objective(rng, *sizes).a.copy()
        if zero_row_and_column:
            a[-1, :] = 0.0
            a[:, -1] = 0.0
            a[0, 0] = 1.0
        q, cfg = QuadraticObjective(a), SdpConfig(restarts=2)
        v = np.stack([start_reference(q.n, default_rank(q.n), 4, r) for r in range(2)])
        values = _ascend(q.a, v, cfg)
        for r in range(2):
            _, _, exact = ascend_reference(q, cfg, 4, r)
            assert len(values[r]) == len(exact)
            for x, e in zip(values[r], exact):
                assert abs(x - e) <= 1e-12 * max(1.0, abs(e))

    @pytest.mark.parametrize("sizes", [(2, 5), (6, 30)])
    def test_one_matrix_per_factor(self, rng, sizes):
        qs = [random_objective(rng, *sizes) for _ in range(4)]
        _, sweeps = self.check_stack(qs, SdpConfig(restarts=2), [3, 1, 4, 1])
        assert len(set(sweeps)) > 1

    def test_one_factor_runs_to_max_sweeps(self, rng):
        # a 1-by-1 block converges in two sweeps; the dense one does not in 8
        easy = np.zeros((6, 30))
        easy[0, 0] = 1.0
        qs = [QuadraticObjective(easy), random_objective(rng, 6, 30, density=1.0)]
        _, sweeps = self.check_stack(qs, SdpConfig(restarts=1, max_sweeps=8), [5, 5])
        assert sweeps[0] < 8 and sweeps[1] == 8

    def test_zero_row_and_column(self, rng):
        a = random_objective(rng, 5, 8, density=0.7).a.copy()
        a[2, :] = 0.0
        a[:, 4] = 0.0
        q = QuadraticObjective(a)
        v, _ = self.check_stack([q] * 3, SdpConfig(restarts=2), [1, 2, 3])
        starts = [start_reference(q.n, v.shape[2], s, r) for s in (1, 2, 3) for r in (0, 1)]
        for f, start in enumerate(starts):
            for row in (2, q.n_left + 4):
                assert np.array_equal(v[f, row], start[row])

    def test_zero_sweeps(self, rng):
        q = random_objective(rng, 3, 7)
        _, sweeps = self.check_stack([q] * 2, SdpConfig(restarts=2, max_sweeps=0), [8, 9])
        assert sweeps == [0, 0, 0, 0]

    @pytest.mark.parametrize("shared", [True, False])
    def test_solve_matches_best_of_runs(self, rng, shared):
        cfg = SdpConfig(restarts=3)
        qs = [random_objective(rng, 4, 9)] * 3 if shared else [random_objective(rng, 4, 9) for _ in range(3)]
        seeds = [7, 70, 700]
        for q, seed, g in zip(qs, seeds, solve_relaxation(qs, cfg, seeds)):
            runs = [ascend_reference(q, cfg, seed, r) for r in range(cfg.restarts)]
            finals = [value_reference(v, q) for v, _, _ in runs]
            best = max(range(cfg.restarts), key=lambda r: finals[r])
            assert g.sweep_values == tuple(runs[best][1])
            assert np.array_equal(g.vectors, runs[best][0])
            assert relaxation_value(g, q) == finals[best]
            assert not g.degenerate

    def test_tie_goes_to_lowest_run(self):
        # seed 1: runs 0 and 2 both end at exactly 1.0000000000000002, run 1 at 1.0
        q = pair_objective(1.0)
        cfg = SdpConfig(restarts=3)
        finals = [value_reference(ascend_reference(q, cfg, 1, r)[0], q) for r in range(3)]
        assert finals[0] == finals[2] > finals[1]
        [g] = solve_relaxation([q], cfg, [1])
        assert np.array_equal(g.vectors, ascend_reference(q, cfg, 1, 0)[0])

    def test_zero_objective_in_a_stack(self, rng):
        q = random_objective(rng, 3, 4)
        zero = QuadraticObjective(np.zeros((3, 4)))
        cfg = SdpConfig(restarts=2)
        gz, gq = solve_relaxation([zero, q], cfg, [4, 5])
        assert gz.degenerate and gz.sweep_values == (0.0,)
        assert np.array_equal(gz.vectors, start_reference(7, gz.rank, 4, 0))
        assert gq.sweep_values == solve(q, replace(cfg, seed=5)).sweep_values

    def test_seeds_do_not_couple(self, rng):
        q = random_objective(rng, 5, 20)
        cfg = SdpConfig()
        seeds = [11, 12, 13, 14]
        for seed, g in zip(seeds, solve_relaxation([q] * 4, cfg, seeds)):
            alone = solve(q, replace(cfg, seed=seed))
            assert g.sweep_values == alone.sweep_values
            assert np.array_equal(g.vectors, alone.vectors)

    def test_non_finite_value_raises(self):
        q = QuadraticObjective(np.array([[np.inf, 1.0]]))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="not finite"):
            solve_relaxation([q, q], SdpConfig(), [1, 2])

    def test_lost_monotonicity_raises(self, rng, monkeypatch):
        # an update that turns each vector away from its target can only lower
        # the value; each vector then adds minus its target's norm to it
        def away(side, target):
            norms = np.linalg.norm(target, axis=-1, keepdims=True)
            np.negative(target / norms, out=side)
            return -norms[..., 0]

        monkeypatch.setattr(sdp, "_set_side", away)
        q = random_objective(rng, 4, 6, density=1.0)
        with pytest.raises(NumericalError, match="monotonicity"):
            solve_relaxation([q, q], SdpConfig(), [1, 2])

    def test_empty_stack(self):
        assert solve_relaxation([], SdpConfig(), []) == []

    def test_rejects_mismatched_input(self, rng):
        q = random_objective(rng, 2, 3)
        with pytest.raises(ValidationError, match="seeds"):
            solve_relaxation([q, q], SdpConfig(), [1])
        with pytest.raises(ValidationError, match="shape"):
            solve_relaxation([q, random_objective(rng, 2, 4)], SdpConfig(), [1, 2])


class TestRelaxationValue:
    def test_identical_vectors(self):
        v = np.ones((2, 3)) / math.sqrt(3)
        assert relaxation_value(GramFactor(3, v), pair_objective(1.0)) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        v = np.eye(2)
        assert relaxation_value(GramFactor(2, v), pair_objective(1.0)) == 0.0

    def test_matches_dense_recompute(self, rng):
        q = random_objective(rng, 4, 5)
        g = solve(q, SdpConfig(seed=8))
        gram = g.vectors @ g.vectors.T
        dense = sum(a * gram[i, j] for (i, j), a in pairs(q).items())
        assert relaxation_value(g, q) == pytest.approx(dense, abs=1e-9)

    def test_summation_order(self, rng):
        for sizes in ((1, 1), (3, 5), (6, 30), (9, 12)):
            q = random_objective(rng, *sizes)
            v = start_reference(q.n, default_rank(q.n), 0, 0)
            assert relaxation_value(GramFactor(v.shape[1], v), q) == value_reference(v, q)

    def test_dimension_mismatch(self):
        v = np.eye(3)
        with pytest.raises(ValidationError):
            relaxation_value(GramFactor(3, v), pair_objective(1.0))


class TestValue:
    def test_matches_term_sum(self, rng):
        q = random_objective(rng, 4, 7)
        for _ in range(10):
            x = [int(s) for s in rng.choice((-1, 1), size=q.n)]
            terms = sum(a * x[i] * x[j] for (i, j), a in pairs(q).items())
            assert q.value(x) == pytest.approx(terms, abs=1e-12)


class TestCwRound:
    def test_aligned_recovers_optimum(self):
        q = pair_objective(1.0)
        g = solve(q, SdpConfig(seed=4))
        signs, achieved = cw_round(g, q, SdpConfig(seed=4))
        assert signs[0] == signs[1]
        assert achieved == 1.0
        # brute force over the 4 sign pairs confirms 1 is the optimum
        assert exhaustive_pm1_max(q) == 1.0

    def test_antipodal_recovers_optimum(self):
        q = pair_objective(-1.0)
        g = solve(q, SdpConfig(seed=4))
        signs, achieved = cw_round(g, q, SdpConfig(seed=4))
        assert signs[0] == -signs[1]
        assert achieved == exhaustive_pm1_max(q) == 1.0

    def test_zero_objective(self):
        q = QuadraticObjective(np.zeros((1, 1)))
        g = solve(q, SdpConfig(seed=1))
        _, achieved = cw_round(g, q, SdpConfig(seed=1))
        assert achieved == 0.0

    def test_no_variables(self):
        q = QuadraticObjective(np.zeros((0, 0)))
        g = solve(q, SdpConfig(seed=1))
        assert cw_round(g, q, SdpConfig(seed=1)) == ([], 0.0)

    def test_achieved_matches_returned_signs(self, rng):
        q = random_objective(rng, 4, 6)
        cfg = SdpConfig(seed=6)
        g = solve(q, cfg)
        signs, achieved = cw_round(g, q, cfg)
        assert achieved == pytest.approx(q.value(signs), abs=1e-12)

    def test_bit_stable_determinism(self, rng):
        q = random_objective(rng, 4, 6)
        cfg = SdpConfig(seed=123)
        g1 = solve(q, cfg)
        g2 = solve(q, cfg)
        assert np.array_equal(g1.vectors, g2.vectors)
        r1 = cw_round(g1, q, cfg)
        r2 = cw_round(g2, q, cfg)
        assert r1 == r2

    def test_float_tie_keeps_earliest_candidate(self):
        # x0 (x1 + 2 x2 - 3 x3) / 10. The left vector is e1 and the right
        # vectors e2, so sign rounding gives x1 = x2 = x3 and every candidate
        # is worth 0 in exact arithmetic. In float, x0 = x1 scores +5.6e-17
        # and x0 = -x1 scores -5.6e-17.
        q = QuadraticObjective(np.array([[0.1, 0.2, -0.3]]))
        assert Fraction("0.1") + Fraction("0.2") - Fraction("0.3") == 0
        assert q.value([1, 1, 1, 1]) > q.value([1, -1, -1, -1])
        g = GramFactor(2, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]))
        sign_only = (0.0,)
        # a seed whose first candidate is the one lower in float
        seed, first = next(
            (s, r)
            for s in range(100)
            if (r := cw_round(g, q, SdpConfig(seed=s, trials=1, t_grid=sign_only)))[1] < 0
        )
        # 25 trials draw both kinds of candidate; the first one is kept
        assert cw_round(g, q, SdpConfig(seed=seed, trials=25, t_grid=sign_only)) == first


class TestCwRoundMatchesLoop:
    """The rounding draws each trial's grid at once: same stream, same winner."""

    @pytest.mark.parametrize(
        "t_grid", [DEFAULT_T_GRID, (0.0,), (1.5,), (2.0, 0.0, 0.25), (0.0, 0.0, 3.0)]
    )
    def test_random_factors(self, rng, t_grid):
        for sizes in ((1, 1), (3, 5), (6, 30)):
            q = random_objective(rng, *sizes)
            for seed in range(4):
                cfg = SdpConfig(seed=seed, trials=7, t_grid=t_grid)
                g = solve(q, cfg)
                assert cw_round(g, q, cfg) == cw_round_reference(g, q, cfg)

    def test_float_tie(self):
        # the objective of test_float_tie_keeps_earliest_candidate
        q = QuadraticObjective(np.array([[0.1, 0.2, -0.3]]))
        g = GramFactor(2, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]))
        for seed in range(20):
            for t_grid in ((0.0,), DEFAULT_T_GRID):
                cfg = SdpConfig(seed=seed, t_grid=t_grid)
                assert cw_round(g, q, cfg) == cw_round_reference(g, q, cfg)

    def test_no_variables(self):
        q = QuadraticObjective(np.zeros((0, 0)))
        g = GramFactor(2, np.zeros((0, 2)))
        cfg = SdpConfig(trials=3)
        assert cw_round(g, q, cfg) == cw_round_reference(g, q, cfg) == ([], 0.0)


class TestTGrid:
    @pytest.mark.parametrize(
        "t_grid", [(), (math.nan,), (-1.0,), (0.0, math.inf), (math.nan, -1.0), (0.5, -0.0001)]
    )
    def test_rejected(self, t_grid):
        with pytest.raises(ValidationError, match="t_grid"):
            SdpConfig(t_grid=t_grid)

    @pytest.mark.parametrize("t_grid", [(0.0,), (0.0, -0.0, 2.5), DEFAULT_T_GRID])
    def test_accepted(self, t_grid):
        assert SdpConfig(t_grid=t_grid).t_grid == t_grid


class TestFromArrays:
    """Programs are built as the pipeline builds them: coefficients placed
    in a matrix at (left index, right index) arrays."""

    def test_single_pair_term(self):
        q = QuadraticObjective(np.array([[0.5]]))
        assert q.n == 2 and q.n_left == 1
        assert (q.value([1, 1]), q.value([1, -1])) == (0.5, -0.5)

    def test_empty(self):
        q = QuadraticObjective(np.zeros((0, 0)))
        assert q.n == 0 and q.a.shape == (0, 0)

    def test_round_trip_through_index_map(self):
        left, right = np.array([0, 1, 1]), np.array([0, 0, 2])
        coeff = np.array([0.5, -0.25, 0.375])
        a = np.zeros((2, 3))
        a[left, right] = coeff
        q = QuadraticObjective(a)
        assert (q.n_left, q.n) == (2, 5)
        # entry by entry, back through the index arrays
        assert pairs(q) == {(i, 2 + j): c for i, j, c in zip(left, right, coeff)}
