"""Seeded, reproducible Monte Carlo regattas.

Each trial draws one uniform random permutation of ranks 1..n_b per race,
scores every boat by the sum of its ranks (optionally dropping each boat's
single worst rank) and records the final rank of the competitor under
study: either a virtual competitor holding a fixed score n_t, or a tracked
real boat holding fixed per-race ranks while the other boats permute over
the leftover rank values.

Reproducibility contract
------------------------
All randomness comes from Philox4x64-10 counter streams (numpy's
``np.random.Philox``).  A run is addressed by ``(seed, stream)`` through
the 128-bit Philox key ``seed + (stream << 64)``; each must lie in
[0, 2**64) and is refused, never wrapped, outside it.  Every trial owns a
fixed, disjoint slice of the counter space: trial t reads counter blocks
``[t * B, (t + 1) * B)``, where B is the per-trial block quota implied by
the configuration, and raw 64-bit outputs become doubles as
``(word >> 11) * 2**-53``.  Chunk size therefore cannot change any
result: a SimConfig determines its SimResult bit for bit.

Each race's row of uniforms becomes a rank permutation by its sort order.
The rule is stated on the words, so it holds exactly:

* a row is ordered by the 53-bit integers ``word >> 11``, which order
  exactly like the doubles they scale to;
* exact ties in those 53 bits, astronomically unlikely, break by column
  index, so the order is that of a stable sort;
* every row up to 2048 wide is turned into the unique keys
  ``(word & ~0x7FF) | column`` (the column fits in the 11 bits the double
  discards).  Rows up to 5 wide get their tags one column view at a time
  and sort them with a fixed compare-exchange network; wider rows get them
  from one broadcast ``arange`` and sort them with ``ndarray.sort``.
  Because the keys are unique, both give exactly the sorted order.  Rows
  over 2048 wide take a stable argsort of ``word >> 11``.  All three sorts
  give the same order.

This is the only ranking path.  Virtual mode and the moments estimator
score along that order with one weighted ``np.bincount``: each column index,
offset by its trial, collects rank k + 1 from order position k, so every
boat's ranks are summed over the races in one pass (with ``drop_worst``, a
running ``maximum.at`` over the same indices and weights gives the rank
dropped).  Tracked mode gathers the leftover rank values along the order,
after adding each race's offset into the leftover table from a tile built
once per run at chunk length.  Both modes tally a chunk with one matrix
product of its below-threshold rows with ones and one ``np.bincount``.
On short rows these are long contiguous passes, where a broadcast
row-length operand or a sum along the row axis would run a numpy inner
loop of 2 to 6 elements once per row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .asymptotics import (
    AsymptoticParams,
    centered_score,
    mean_final_rank,
    variance_final_rank,
)

__all__ = [
    "SimConfig",
    "SimResult",
    "RankMomentsEstimate",
    "CurvePoint",
    "simulate",
    "empirical_rank_moments",
    "curve_sweep",
    "middle_band_grid",
]

_MASK64 = (1 << 64) - 1
# Raw words generated per chunk: 2**17 words (1 MiB), so that one chunk's
# Philox words, in-place key sort, rank weights and race sums stay in
# a core's 2 MiB L2 instead of streaming through L3.  Measured on a 2-vCPU
# Xeon (numpy 2.4): 2**16 and 2**17 tie, 2**18 is ~7 % slower on short rows,
# and the former 2**22-word (34 MB) chunks ran 200 x 30 trials ~30 % slower.
_CHUNK_DOUBLES = 1 << 17
_COLUMN_BITS = 11  # low word bits that (word >> 11) * 2**-53 discards
_COLUMN_MASK = np.uint64((1 << _COLUMN_BITS) - 1)
# Optimal compare-exchange networks: after comparators (i, j) in order, with
# the smaller key kept at i, every row of unique keys is sorted.  Measured on
# 2**17 keys at n_r = 3 (2-vCPU Xeon, numpy 2.4), the network beats
# ``ndarray.sort`` up to width 5 (width 2: ~0.15 against ~2 ms; width 5:
# ~0.7 against ~0.9 ms), ties it at width 6 and loses at width 8.
_NETWORKS = {
    1: (),
    2: ((0, 1),),
    3: ((0, 1), (1, 2), (0, 1)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    5: ((0, 1), (3, 4), (2, 4), (2, 3), (0, 3), (0, 2), (1, 4), (1, 3), (1, 2)),
}

# Maximum raw words one trial may need (n_b * n_r).  A chunk holds at least
# one trial, so this bounds a run's memory whatever its trial count.
TRIAL_WORD_BUDGET = 1 << 22
# Maximum trials of empirical_rank_moments, which keeps two float64 ranks
# per trial: 2**24 trials hold 256 MiB.
MOMENTS_TRIAL_BUDGET = 1 << 24
# Bound once: a numpy stand-in put in place of this module's ``np`` (the
# benchmark's tracing view) wraps ufuncs as plain functions without ``.at``.
_maximum_at = np.maximum.at
# Batches of empirical_rank_moments' batch-means standard errors; its
# trials >= 1000 leave every batch at least 20 trials.
_BATCHES = 50
# Half-width of middle_band_grid's band, in standard deviations sqrt(lam).
_GRID_HALF_WIDTH = 3.2
# Maximum points of middle_band_grid, whose linspace holds 8 bytes a point;
# 10**5 points take ~0.2 s on a 2-vCPU Xeon (10**7 took 15.8 s).
GRID_POINT_BUDGET = 10**5


def _check_key_words(seed: int, stream: int) -> tuple[int, int]:
    """Read a seed and stream as Python ints (a numpy int wraps in ``stream << 64``),
    refusing one that does not fit its 64-bit half of the key."""
    key_words = operator.index(seed), operator.index(stream)
    for name, value in zip(("seed", "stream"), key_words):
        if not 0 <= value <= _MASK64:
            raise ValueError(f"{name} must be a 64-bit unsigned integer")
    return key_words


def _chunk_trials(per_trial: int) -> int:
    """Trials per chunk: as many as fit in _CHUNK_DOUBLES words, at least 1."""
    return max(1, _CHUNK_DOUBLES // max(per_trial, 1))


def _order_chunks(
    seed: int, stream: int, trials: int, n_r: int, width: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Row orders of a ``trials``-trial run, one chunk at a time as
    ``(offset, orders)``: int64 of shape (n, n_r, width) whose
    entry [t, r] lists race r's columns by ascending uniform, under the
    module docstring's ranking rule.  Trial t reads its own counter blocks
    [t * B, (t + 1) * B) (4 raw words per block, padding discarded when
    n_r * width is not a multiple of 4).  One Philox generator, keyed
    ``seed + (stream << 64)``, reads the chunks in order: every chunk takes
    whole blocks, so its counter runs on exactly where a fresh generator
    for the next trial would start, and any split of a run returns
    identical rows."""
    per_trial = n_r * width
    blocks = -(-per_trial // 4)
    bitgen = np.random.Philox(key=seed | (stream << 64), counter=0)
    step = _chunk_trials(per_trial)
    for offset in range(0, trials, step):
        n = min(step, trials - offset)
        words = bitgen.random_raw(n * blocks * 4).reshape(n, blocks * 4)
        if blocks * 4 != per_trial:
            words = np.ascontiguousarray(words[:, :per_trial])
        yield offset, _order_words(words.reshape(n, n_r, width))


def _order_words(words: np.ndarray) -> np.ndarray:
    """Order each last-axis row of raw uint64 words as a stable sort of the
    doubles ``(word >> 11) * 2**-53`` would.  Overwrites ``words``; the
    int64 result is a view of them for rows of up to 2048 columns."""
    width = words.shape[-1]
    if width > 1 << _COLUMN_BITS:
        words >>= np.uint64(_COLUMN_BITS)
        return np.argsort(words, axis=-1, kind="stable")
    words &= ~_COLUMN_MASK
    network = _NETWORKS.get(width)
    if network is None:
        words |= np.arange(width, dtype=np.uint64)
        words.sort(axis=-1)
    else:
        for j in range(1, width):  # one long pass per column view
            words[..., j] |= np.uint64(j)
        smaller = np.empty(words.shape[:-1], dtype=words.dtype)
        for i, j in network:
            low, high = words[..., i], words[..., j]
            np.minimum(low, high, out=smaller)
            np.maximum(low, high, out=high)
            low[...] = smaller
    words &= _COLUMN_MASK
    return words.view(np.int64)


def _rank_sums(
    trials: int, n_r: int, width: int, drop_worst: bool = False
) -> Callable[[np.ndarray], np.ndarray]:
    """Scorer for the order chunks of a ``trials``-trial run: every
    column's ranks summed over the races (less its worst rank with
    ``drop_worst``), float64 of shape (n, width).  One weighted bincount
    over the trial-offset column indices does the sum; the rank weights
    1..width are tiled once, at chunk length.  The sums stay exact: a
    score is at most n_r * n_b <= TRIAL_WORD_BUDGET = 2**22, far below
    2**53.  Overwrites the orders."""
    per_trial = n_r * width
    chunk_trials = min(trials, _chunk_trials(per_trial))
    rank_tile = np.tile(np.arange(1, width + 1, dtype=np.float64), chunk_trials * n_r)
    trial_offsets = width * np.arange(chunk_trials)[:, None, None]

    def score(orders: np.ndarray) -> np.ndarray:
        n = len(orders)
        orders += trial_offsets[:n]
        idx, ranks = orders.reshape(-1), rank_tile[: n * per_trial]
        scores = np.bincount(idx, weights=ranks, minlength=n * width)
        if drop_worst:
            worst = np.zeros(n * width)
            _maximum_at(worst, idx, ranks)
            scores -= worst
        return scores.reshape(n, width)

    return score


def _leftover_sums(
    tracked: Sequence[int], n_b: int, trials: int, drop_worst: bool = False
) -> Callable[[np.ndarray], np.ndarray]:
    """Scorer for the order chunks of a ``trials``-trial run against a
    tracked boat: race r's order gathers, for the n_b - 1 other boats, the
    leftover rank values 1..n_b without ``tracked[r]``, and the gathered
    values are summed over the races (less each boat's worst with
    ``drop_worst``).  int32 of shape (n, n_b - 1), which einsum keeps: a
    score is at most n_r * n_b <= TRIAL_WORD_BUDGET = 2**22, far below
    2**31.  The race offsets r * width into the flat leftover table come
    from one int64 tile, built once at chunk length, so a chunk adds them
    in one contiguous pass instead of broadcasting an (n_r, 1) operand
    row by row.  Overwrites the orders."""
    width, n_r = n_b - 1, len(tracked)
    leftover = np.array(
        [[v for v in range(1, n_b + 1) if v != r] for r in tracked], dtype=np.int32
    ).ravel()
    chunk_trials = min(trials, _chunk_trials(n_r * width))
    race_tile = np.empty((chunk_trials, n_r, width), dtype=np.int64)
    race_tile[...] = width * np.arange(n_r)[:, None]

    def score(orders: np.ndarray) -> np.ndarray:
        orders += race_tile[: len(orders)]  # race r's column j is leftover[r * width + j]
        vals = leftover.take(orders)
        scores = np.einsum("trw->tw", vals)
        if drop_worst:
            scores -= vals.max(axis=1)
        return scores

    return score


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation run.

    Give exactly one of ``n_t``, the virtual competitor's score, and
    ``tracked_ranks``, the tracked boat's fixed per-race ranks (which define
    its score).  ``stream`` selects an independent substream of the same
    seed (curve sweeps use the grid index).  With ``drop_worst`` every real
    boat's score drops its single worst rank; a virtual competitor's ``n_t``
    is compared as given, i.e. it is taken to be an already-improved score.
    """

    n_b: int
    n_r: int
    trials: int
    seed: int
    n_t: int | None = None
    drop_worst: bool = False
    tracked_ranks: tuple[int, ...] | None = None
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("n_b", "n_r", "trials"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.n_b < 1:
            raise ValueError("n_b must be >= 1")
        if self.n_r < 1:
            raise ValueError("n_r must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        seed, stream = _check_key_words(self.seed, self.stream)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream", stream)
        if self.n_b * self.n_r > TRIAL_WORD_BUDGET:
            raise ValueError(
                f"one trial needs n_b*n_r = {self.n_b * self.n_r} words, "
                f"budget is {TRIAL_WORD_BUDGET} (montecarlo.TRIAL_WORD_BUDGET)"
            )
        if self.tracked_ranks is None:
            if self.n_t is None:
                raise ValueError("n_t is required unless tracked_ranks is given")
            if self.n_t != self.n_t:  # every trial would tally m = 1
                raise ValueError("n_t must not be NaN")
        elif self.n_t is not None:
            raise ValueError("give n_t or tracked_ranks, not both")
        else:
            ranks = tuple(map(operator.index, self.tracked_ranks))
            object.__setattr__(self, "tracked_ranks", ranks)
            if len(self.tracked_ranks) != self.n_r:
                raise ValueError("tracked_ranks must list one rank per race")
            if any(not 1 <= r <= self.n_b for r in self.tracked_ranks):
                raise ValueError("tracked ranks must lie in [1, n_b]")


@dataclass(frozen=True)
class SimResult:
    """Empirical final-rank distribution: counts[m - 1] tallies rank m.

    ``variance`` is the plain empirical variance of m; the standard errors
    come from the samples themselves (``std_error_mean`` from the Bessel
    sample variance, ``std_error_variance`` from the fourth central
    moment, SE^2 = (m4 - var^2) / trials).
    """

    config: SimConfig
    counts: tuple[int, ...]
    empirical_probs: tuple[float, ...]
    mean: float
    variance: float
    std_error_mean: float
    std_error_variance: float


def _result_from_counts(config: SimConfig, counts: np.ndarray) -> SimResult:
    t = config.trials
    m_values = np.arange(1, len(counts) + 1, dtype=np.float64)
    probs = counts / t
    mean = float(m_values @ probs)
    var = float(((m_values - mean) ** 2) @ probs)
    m4 = float(((m_values - mean) ** 4) @ probs)
    sample_var = var * t / (t - 1) if t > 1 else 0.0
    return SimResult(
        config=config,
        counts=tuple(int(c) for c in counts),
        empirical_probs=tuple(float(p) for p in probs),
        mean=mean,
        variance=var,
        std_error_mean=math.sqrt(sample_var / t),
        std_error_variance=math.sqrt(max(m4 - var * var, 0.0) / t),
    )


def _tally(ahead: np.ndarray) -> np.ndarray:
    """counts[k] = the rows of the (n, width) bool array ``ahead`` with k
    entries set: the trials in which k boats scored below the competitor,
    who finished at rank m = k + 1.  One matrix product with ones counts
    every row (0/1 sums of at most 2**22 terms are exact in float64)."""
    width = ahead.shape[1]
    per_row = (ahead @ np.ones(width)).astype(np.intp)
    return np.bincount(per_row, minlength=width + 1)


def simulate(config: SimConfig) -> SimResult:
    """Run the configured trials (see the module docstring for the exact
    randomness layout).  Virtual mode tallies m = 1 + #{boats scoring
    strictly below n_t}; tracked mode m = 1 + #{other boats scoring
    strictly below the tracked boat}."""
    n_b, n_r, tracked = config.n_b, config.n_r, config.tracked_ranks
    if tracked is None:
        width, threshold = n_b, config.n_t
        score = _rank_sums(config.trials, n_r, width, config.drop_worst)
    else:
        width = n_b - 1
        threshold = sum(tracked) - (max(tracked) if config.drop_worst else 0)
        score = _leftover_sums(tracked, n_b, config.trials, config.drop_worst)
    counts = np.zeros(width + 1, dtype=np.int64)
    for _, orders in _order_chunks(config.seed, config.stream, config.trials, n_r, width):
        counts += _tally(score(orders) < threshold)
    return _result_from_counts(config, counts)


@dataclass(frozen=True)
class RankMomentsEstimate:
    """Sampled one-race rank moments with batch-means standard errors: the
    trials are cut into 50 equal batches (a remainder of fewer than 50
    trials is left out), the statistic is computed per batch, and the
    quoted value / SE are the mean / SE of the 50 batch values."""

    n_b: int
    trials: int
    mean: float
    var_diag: float
    cov_offdiag: float
    se_mean: float
    se_var: float
    se_cov: float


def empirical_rank_moments(
    n_b: int, trials: int, seed: int, stream: int = 0
) -> RankMomentsEstimate:
    """Estimate the mean and variance of one boat's race rank and the
    covariance between two boats' ranks from ``trials`` sampled
    permutations, with standard errors from 50 batch means (see
    :class:`RankMomentsEstimate`).

    The estimators watch the fixed coordinates of boats 1 and 2: averaging
    over all boats would be pinned by the exact sum rule and estimate
    nothing.  Requires n_b >= 2 and trials >= 1000.
    """
    n_b, trials = operator.index(n_b), operator.index(trials)
    if n_b < 2:
        raise ValueError("need n_b >= 2 for a pair covariance")
    if trials < 1000:
        raise ValueError("need trials >= 1000")
    if n_b > TRIAL_WORD_BUDGET:
        raise ValueError(
            f"one trial needs n_b = {n_b} words, "
            f"budget is {TRIAL_WORD_BUDGET} (montecarlo.TRIAL_WORD_BUDGET)"
        )
    if trials > MOMENTS_TRIAL_BUDGET:
        raise ValueError(
            f"trials = {trials} exceeds the moments budget {MOMENTS_TRIAL_BUDGET} "
            "(montecarlo.MOMENTS_TRIAL_BUDGET)"
        )
    seed, stream = _check_key_words(seed, stream)
    # one race's rank sums are its ranks; boats 1 and 2 are rows 0 and 1
    score = _rank_sums(trials, 1, n_b)
    x01 = np.empty((2, trials))
    for start, orders in _order_chunks(seed, stream, trials, 1, n_b):
        x01[:, start : start + len(orders)] = score(orders)[:, :2].T
    size = trials // _BATCHES
    used = _BATCHES * size
    x0 = x01[0, :used].reshape(_BATCHES, size)
    x1 = x01[1, :used].reshape(_BATCHES, size)
    b_mean = x0.mean(axis=1)
    b_var = x0.var(axis=1, ddof=1)
    d0 = x0 - b_mean[:, None]
    d1 = x1 - x1.mean(axis=1, keepdims=True)
    b_cov = (d0 * d1).sum(axis=1) / (size - 1)

    def _se(values: np.ndarray) -> float:
        return float(values.std(ddof=1) / math.sqrt(_BATCHES))

    return RankMomentsEstimate(
        n_b=n_b,
        trials=trials,
        mean=float(b_mean.mean()),
        var_diag=float(b_var.mean()),
        cov_offdiag=float(b_cov.mean()),
        se_mean=_se(b_mean),
        se_var=_se(b_var),
        se_cov=_se(b_cov),
    )


@dataclass(frozen=True)
class CurvePoint:
    """One sweep row: Monte Carlo vs normal-limit mean/variance at score n_t."""

    n_t: int
    centered: float
    mean_theory: float
    mean_mc: float
    var_theory: float
    var_mc: float
    stderr_mean: float
    stderr_var: float


def middle_band_grid(n_b: int, n_r: int, points: int = 21) -> list[int]:
    """Evenly spaced integer scores centered on the middle score, spanning
    +- _GRID_HALF_WIDTH * sqrt(lam) and clipped to the attainable range.
    Duplicates after rounding are merged, so very narrow ranges may return
    fewer than ``points`` values.  A single point is the middle score, rounded;
    more than ``GRID_POINT_BUDGET`` points are refused before any is made."""
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    if points > GRID_POINT_BUDGET:
        raise ValueError(
            f"points = {points} exceeds the grid budget {GRID_POINT_BUDGET} "
            "(montecarlo.GRID_POINT_BUDGET)"
        )
    params = AsymptoticParams(n_b, n_r)
    if points == 1:
        return [round(params.middle_score)]
    mid = float(params.middle_score)
    w = _GRID_HALF_WIDTH * math.sqrt(float(params.lam))
    lo = max(float(n_r), mid - w)
    hi = min(float(n_r * n_b), mid + w)
    return sorted({int(round(v)) for v in np.linspace(lo, hi, points)})


def curve_sweep(
    n_b: int, n_r: int, n_t_grid: Sequence[int], trials: int, seed: int
) -> list[CurvePoint]:
    """Monte Carlo sweep over scores with the normal-limit columns attached.
    Grid point k runs on substream k of the seed, so the whole table is
    deterministic and the points are statistically independent.  Every score
    is checked before the first point is simulated."""
    grid = [int(n_t) for n_t in n_t_grid]
    centered = [centered_score(n_t, n_b, n_r) for n_t in grid]
    rows = []
    for idx, n_t in enumerate(grid):
        result = simulate(
            SimConfig(n_b=n_b, n_r=n_r, trials=trials, seed=seed, n_t=n_t, stream=idx)
        )
        rows.append(
            CurvePoint(
                n_t=n_t,
                centered=centered[idx],
                mean_theory=mean_final_rank(n_b, n_r, n_t),
                mean_mc=result.mean,
                var_theory=variance_final_rank(n_b, n_r, n_t),
                var_mc=result.variance,
                stderr_mean=result.std_error_mean,
                stderr_var=result.std_error_variance,
            )
        )
    return rows
