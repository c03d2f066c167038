"""Bipartite quadratic-program relaxation and Gaussian-projection rounding.

Both programs the pipeline builds pair a left side with a right side (block 1
with the (block 2, block 3) pairs, then block 2 with block 3), so the form is
x_L^T A x_R for one (n_left, n_right) matrix A. The relaxation max of
sum A_ij <u_i, w_j> over unit vectors is solved by ascent on a low-rank
factor: each sweep sets every left vector to its normalized row of A W, then
every right vector to its normalized row of A^T U, and the norms of those rows
of A^T U sum to the new value. No vector on a side enters another's update, so
this is exact per-vertex coordinate ascent (the Mixing method of Wang, Chang
and Kolter). The ascents of several seeds and restarts are independent, so
they run as one stack: each sweep is one batched product per side for every
factor still sweeping, and each factor stops at its own sweep, so it ends
exactly as it would alone. Rounding projects the vectors onto a random
Gaussian direction, truncates at a threshold T swept over a grid (T=0 meaning
pure sign rounding), and keeps the best sampled sign vector by exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
        return float(_form(self.a, np.asarray(signs, dtype=np.float64)))


def _form(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The form of `a` (or of each matrix of a stack `a`) at each row of x,
    shape (..., n); a 1-D x gives a scalar."""
    n_left = a.shape[-2]
    return ((x[..., :n_left] @ a) * x[..., n_left:]).sum(axis=-1)


def _values(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The relaxation value of each factor of v, shape (..., n, rank): the
    form at each coordinate's column of vector entries, summed."""
    return _form(a, np.swapaxes(v, -1, -2)).sum(axis=-1)


@dataclass(frozen=True)
class SdpConfig:
    rank: int | None = None  # default max(2, min(n, ceil(sqrt(2n)) + 1))
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
        if not self.t_grid:
            raise ValidationError("t_grid must not be empty")
        if not all(math.isfinite(t) and t >= 0 for t in self.t_grid):
            raise ValidationError(f"t_grid values must be finite and >= 0, got {self.t_grid}")


@dataclass(frozen=True, eq=False)
class GramFactor:
    rank: int
    vectors: np.ndarray  # (n, rank), unit rows
    degenerate: bool = False
    sweep_values: tuple[float, ...] = ()  # the start's value, then each sweep's norm sum

    @property
    def sweeps(self) -> int:
        return len(self.sweep_values) - 1


def default_rank(n: int) -> int:
    return max(2, min(n, math.ceil(math.sqrt(2 * n)) + 1))


def relaxation_value(g: GramFactor, q: QuadraticObjective) -> float:
    if g.vectors.shape[0] != q.n:
        raise ValidationError(f"factor has {len(g.vectors)} vectors, objective has {q.n} variables")
    return float(_values(q.a, g.vectors))


def _set_side(side: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Set each row of `side` to its normalized target row, in place; return the
    target norms, 0 on a row that keeps its vector (no weight), NaN kept."""
    # np.linalg.norm's arithmetic, so the same bits, without its per-call overhead
    norms = np.sqrt((target * target).sum(axis=-1, keepdims=True))
    live = norms > 1e-300
    if live.all():  # the common case, and the unmasked divide is faster
        np.divide(target, norms, out=side)
        return norms[..., 0]
    np.divide(target, norms, out=side, where=live)
    return (norms * live)[..., 0]


def _random_factor(n: int, rank: int, seed: int, run: int) -> np.ndarray:
    v = np.random.default_rng([seed, 0, run]).standard_normal((n, rank))
    _set_side(v, v)
    return v


def _ascend(a: np.ndarray, v: np.ndarray, cfg: SdpConfig) -> list[list[float]]:
    """Sweep every factor of the stack `v` (k, n, rank) in place until its own
    gain is within tol; each factor's value before and after each sweep.

    `a` is one (n_left, n_right) matrix that every factor shares, or a
    (k, n_left, n_right) stack with one matrix per factor. The sweeps work on
    a copy of each side of the factors still sweeping; a factor is written
    back when it stops and never touched again.
    """
    n_left = a.shape[-2]
    live = np.arange(len(v))
    left, right, work_a = v[:, :n_left].copy(), v[:, n_left:].copy(), a
    # a column of values per factor, NaN past its stop; doubled as it fills
    log = np.full((1, len(v)), np.nan)
    last = log[0] = _values(a, v)
    for sweep in range(1, cfg.max_sweeps + 1):
        if sweep == len(log):
            log = np.vstack([log, np.full_like(log, np.nan)])
        _set_side(left, work_a @ right)
        # a^T as a view: a contiguous copy takes another BLAS kernel, other bits
        val = _set_side(right, np.swapaxes(work_a, -1, -2) @ left).sum(axis=-1)
        if not ((val >= last - 1e-12) & (val < np.inf)).all():
            if not np.isfinite(val).all():
                raise NumericalError("relaxation value is not finite")
            f = int(np.argmax(val < last - 1e-12))
            raise NumericalError(f"ascent lost monotonicity: {last[f]} -> {val[f]}")
        done = val - last <= cfg.tol * np.maximum(1.0, val)  # a sum of norms, so val >= 0
        log[sweep, live] = last = val
        if done.any():
            v[live[done], :n_left], v[live[done], n_left:] = left[done], right[done]
            keep = ~done
            live, left, right, last = live[keep], left[keep], right[keep], last[keep]
            if a.ndim == 3:
                work_a = work_a[keep]
            if not len(live):
                break
    v[live, :n_left], v[live, n_left:] = left, right  # the factors that ran to max_sweeps
    return [col[~np.isnan(col)].tolist() for col in log.T]


def solve_relaxation(
    qs: Sequence[QuadraticObjective], cfg: SdpConfig, seeds: Sequence[int]
) -> list[GramFactor]:
    """For each objective and its seed, the best factor over `cfg.restarts`
    ascent runs by exact relaxation value; ties go to the lowest run.

    The objectives share one shape. All their runs ascend as one stack, each
    until its own gain is within tol or it reaches `cfg.max_sweeps`; objectives
    given as one object share one matrix. Run r of a seed starts from
    `_random_factor(n, rank, seed, r)`. An all-zero objective gets its seed's
    first start, flagged degenerate.
    """
    if len(qs) != len(seeds):
        raise ValidationError(f"{len(qs)} objectives for {len(seeds)} seeds")
    if len({q.a.shape for q in qs}) > 1:
        raise ValidationError("objectives of one stack must share one shape")
    n = qs[0].n if qs else 0
    rank = cfg.rank or default_rank(n)
    active = [k for k, q in enumerate(qs) if q.a.any()]
    solved = {}
    if active:
        runs = cfg.restarts
        if all(qs[k] is qs[active[0]] for k in active):
            a = qs[active[0]].a
        else:
            a = np.stack([qs[k].a for k in active for _ in range(runs)])
        v = np.stack([_random_factor(n, rank, seeds[k], r) for k in active for r in range(runs)])
        values = _ascend(a, v, cfg)
        best = np.argmax(_values(a, v).reshape(-1, runs), axis=1) + np.arange(0, len(v), runs)
        for k, f in zip(active, best.tolist()):
            solved[k] = GramFactor(rank, v[f], sweep_values=tuple(values[f]))
    return [
        solved[k]
        if k in solved
        else GramFactor(rank, _random_factor(n, rank, seed, 0), degenerate=True, sweep_values=(0.0,))
        for k, seed in enumerate(seeds)
    ]


def cw_round(
    g: GramFactor, q: QuadraticObjective, cfg: SdpConfig
) -> tuple[list[int], float]:
    """Best sampled sign vector and its exact objective value.

    Each trial draws one Gaussian direction and sweeps the truncation grid;
    T=0 is the pure sign-of-projection candidate, so it is always sampled.
    Ties keep the earliest (trial, grid) candidate within 1e-12 of the best.
    """
    t = np.asarray(cfg.t_grid, dtype=np.float64)[:, None]
    u = np.empty((cfg.trials, 1, q.n))  # each trial's projections, against t's (len(t), 1)
    draws = np.empty((cfg.trials, len(t), q.n))
    for trial in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, 1, trial])
        u[trial, 0] = g.vectors @ rng.standard_normal(g.rank)
        draws[trial] = rng.random((len(t), q.n))
    y = np.where(t == 0, np.where(u >= 0, 1.0, -1.0), np.clip(u / np.where(t == 0, 1.0, t), -1.0, 1.0))
    x = np.where(draws < (1.0 + y) / 2.0, 1.0, -1.0).reshape(cfg.trials * len(t), q.n)
    vals = _form(q.a, x)
    best = int(np.argmax(vals >= vals.max() - 1e-12))
    return [int(s) for s in x[best]], float(vals[best])

