"""Bipartite quadratic-program relaxation and Gaussian-projection rounding.

Both programs the pipeline builds pair a left side with a right side (block 1
with the pairing variables, then block 2 with block 3), so the form is
x_L^T A x_R for one (n_left, n_right) matrix A. The relaxation max of
sum A_ij <u_i, w_j> over unit vectors is solved by ascent on a low-rank
factor: each sweep sets every left vector to its normalized row of A W, then
every right vector to its normalized row of A^T U. No vector on a side enters
another's update, so this is exact per-vertex coordinate ascent (the Mixing
method of Wang, Chang and Kolter). Rounding projects the vectors onto a
random Gaussian direction, truncates at a threshold T swept over a grid (T=0
meaning pure sign rounding), and keeps the best sampled sign vector by exact
objective value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .fourier import MultilinearPoly, Var
from .instances import ValidationError

DEFAULT_T_GRID = (0.0, 0.5, 1.0, math.sqrt(2.0 * math.log(4.0)), 2.0)


class NumericalError(RuntimeError):
    """The solver produced non-finite values."""


@dataclass(frozen=True, eq=False)
class QuadraticObjective:
    """Bipartite form x_L^T a x_R over n = n_left + n_right variables.

    Variables 0..n_left-1 are the left side (the rows of `a`), the rest the
    right side (its columns).
    """

    a: np.ndarray  # (n_left, n_right)

    @property
    def n_left(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[0] + self.a.shape[1]

    def value(self, signs: Sequence[int]) -> float:
        return float(_form(self, np.asarray(signs, dtype=np.float64)))


def _form(q: QuadraticObjective, x: np.ndarray) -> np.ndarray:
    """The form at each row of x (shape (..., n)); a 1-D x gives a scalar."""
    return ((x[..., : q.n_left] @ q.a) * x[..., q.n_left :]).sum(axis=-1)


@dataclass(frozen=True)
class SdpConfig:
    rank: int | None = None  # default min(n, ceil(sqrt(2n)) + 1)
    max_sweeps: int = 200
    tol: float = 1e-9
    t_grid: tuple[float, ...] = DEFAULT_T_GRID
    trials: int = 25
    restarts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rank is not None and self.rank < 2:
            raise ValidationError("rank must be >= 2")
        if self.max_sweeps < 0:
            raise ValidationError("max_sweeps must be >= 0")
        if not self.tol > 0:
            raise ValidationError("tol must be > 0")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")


@dataclass(frozen=True, eq=False)
class GramFactor:
    rank: int
    vectors: np.ndarray  # (n, rank), unit rows
    degenerate: bool = False
    sweep_values: tuple[float, ...] = ()


def default_rank(n: int) -> int:
    return max(2, min(n, math.ceil(math.sqrt(2 * n)) + 1))


def relaxation_value(g: GramFactor, q: QuadraticObjective) -> float:
    if g.vectors.shape[0] != q.n:
        raise ValidationError(f"factor has {len(g.vectors)} vectors, objective has {q.n} variables")
    return float(_form(q, g.vectors.T).sum())


def _set_side(side: np.ndarray, target: np.ndarray) -> None:
    """Set each row of `side` to its normalized target row, in place; a row
    whose target vanishes (a variable with no weight) keeps its vector."""
    norms = np.linalg.norm(target, axis=1)
    live = norms > 1e-300
    side[live] = target[live] / norms[live, None]


def _random_factor(n: int, rank: int, seed: int, run: int) -> np.ndarray:
    v = np.random.default_rng([seed, 0, run]).standard_normal((n, rank))
    _set_side(v, v)
    return v


def _ascend(q: QuadraticObjective, v: np.ndarray, cfg: SdpConfig) -> list[float]:
    """Sweep `v` in place until the gain is within tol; the value after each sweep."""
    rank = v.shape[1]
    left, right = v[: q.n_left], v[q.n_left :]  # views into v
    values = [relaxation_value(GramFactor(rank, v), q)]
    for _ in range(cfg.max_sweeps):
        _set_side(left, q.a @ right)
        _set_side(right, q.a.T @ left)
        val = relaxation_value(GramFactor(rank, v), q)
        if not math.isfinite(val):
            raise NumericalError("relaxation value is not finite")
        if val < values[-1] - 1e-12:
            raise NumericalError(f"ascent lost monotonicity: {values[-1]} -> {val}")
        values.append(val)
        if val - values[-2] <= cfg.tol * max(1.0, abs(val)):
            break
    return values


def solve_relaxation(q: QuadraticObjective, cfg: SdpConfig) -> GramFactor:
    """Best factor over `cfg.restarts` seeded ascent runs."""
    rank = cfg.rank or default_rank(q.n)
    if not q.a.any():
        v = _random_factor(q.n, rank, cfg.seed, 0)
        return GramFactor(rank, v, degenerate=True, sweep_values=(0.0,))
    best: GramFactor | None = None
    for run in range(cfg.restarts):
        v = _random_factor(q.n, rank, cfg.seed, run)
        values = _ascend(q, v, cfg)
        if best is None or values[-1] > best.sweep_values[-1]:
            best = GramFactor(rank, v, sweep_values=tuple(values))
    assert best is not None
    return best


def cw_round(
    g: GramFactor, q: QuadraticObjective, cfg: SdpConfig
) -> tuple[list[int], float]:
    """Best sampled sign vector and its exact objective value.

    Each trial draws one Gaussian direction and sweeps the truncation grid;
    T=0 is the pure sign-of-projection candidate, so it is always sampled.
    Ties keep the earliest (trial, grid) candidate within 1e-12 of the best.
    """
    candidates = []
    for trial in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, 1, trial])
        u = g.vectors @ rng.standard_normal(g.rank)
        for t in cfg.t_grid:
            y = np.where(u >= 0, 1.0, -1.0) if t == 0 else np.clip(u / t, -1.0, 1.0)
            candidates.append(np.where(rng.random(q.n) < (1.0 + y) / 2.0, 1.0, -1.0))
    x = np.array(candidates)
    vals = _form(q, x)
    best = int(np.argmax(vals >= vals.max() - 1e-12))
    return [int(s) for s in x[best]], float(vals[best])


def from_bilinear_poly(
    p: MultilinearPoly, var_index: Mapping[Var, int]
) -> QuadraticObjective:
    """Flatten a degree-2 polynomial through the given variable->index map.

    Each monomial's lower index is a row and its higher index a column: the
    left side ends at the highest lower index, and no higher index may be in it.
    """
    terms = []
    for m, coeff in p.terms.items():
        if len(m) != 2:
            raise ValidationError(f"monomial {m} has degree {len(m)}, expected 2")
        i, j = sorted(var_index[v] for v in m)
        terms.append((m, i, j, float(coeff)))
    n = (max(var_index.values()) + 1) if var_index else 0
    n_left = max((i for _, i, _, _ in terms), default=-1) + 1
    a = np.zeros((n_left, n - n_left))
    for m, i, j, coeff in terms:
        if j < n_left:
            raise ValidationError(f"monomial {m} has both indices in the {n_left} left variables")
        a[i, j - n_left] += coeff
    return QuadraticObjective(a)


def variable_order(p: MultilinearPoly) -> dict[Var, int]:
    return {v: i for i, v in enumerate(sorted(p.variables()))}
