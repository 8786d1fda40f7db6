"""Independent brute-force oracles for the closed forms elsewhere.

Everything here counts finite configurations directly -- non-attacking rook
placements under the staircase x + y < n_t, exhaustive race outcomes --
without consulting the formulas in `combinatorics` or `two_race`, so
agreement between the two routes is meaningful evidence.

The race oracles share one enumeration rule.  Boat j scores a fixed part
plus its value in each race; every race deals its values to the boats in
every order, and the final rank is m = 1 + #{boats scoring strictly below
the threshold}, so ties do not push it down.  Score mode
(``brute_force_score``, whose n_r = 2 case is ``brute_force_two_race``)
relabels the first race to the identity, which leaves the law of m
unchanged: boat i's fixed part is i and the other n_r - 1 races deal
1..n_b.  Composition mode (``brute_force_composition``) gives the other
n_b - 1 boats fixed part 0 and deals each race the values the tracked
boat's rank left over; the threshold is the tracked boat's score.

Every configuration is visited, but only the head races (all but the last)
are walked one order at a time, by ``itertools.product`` over their
permutations.  The last race is scored in numpy: its orders are the columns
of one cached int8 table of all k! orders of k positions, k <=
``ORDER_TABLE_WIDTH``, and a wider last race first deals its leading
width - k values by ``itertools.permutations``.  Over the sorted values
left to the table, boat j's value is below its limit exactly when its
position is below ``searchsorted(values, limit)``, so one comparison with
the table counts the beaten boats of every order, for a batch of heads at
once, and ``bincount`` tallies them into exact int64 counts.  A law is
handed over as those counts over the number of configurations visited.

Every enumeration, the rook walk included, reads ``DEFAULT_BUDGET`` when it
is called and is refused before any permutation or placement is generated.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .two_race import RankDistribution

__all__ = [
    "count_compatible_subsets",
    "brute_force_two_race",
    "brute_force_score",
    "brute_force_composition",
]

# Maximum number of elementary configurations an enumeration may touch, read
# when the enumeration is called.
DEFAULT_BUDGET = 10**8
# Widest last race whose orders are tabulated: the 7! orders of 7 int8
# positions hold 35 KB (8! orders of 8 would add ~1.2 MB to peak memory).
ORDER_TABLE_WIDTH = 7
# Cells one comparison of the order table with a batch of heads may fill;
# the 7-wide table (35280 cells) is compared with one head at a time.
BATCH_CELLS = 2**16


def count_compatible_subsets(n_b: int, n_t: int, size: int) -> int:
    """Number of ``size``-element sets of below-diagonal points that share no
    row and no column (partial non-attacking rook placements).  The empty
    placement counts once by convention.

    Requires n_t <= n_b + 1 so the staircase of points is not clipped by the
    lattice edge: row x then holds the columns 1..n_t - 1 - x.  Counts by
    backtracking over the rows, shortest first, straight from that rule; no
    closed form is consulted, keeping this an independent check of
    ``stirling_diagonal``.  The walk visits at most prod(l + 1) over the
    row lengths l = 1..n_t - 2, i.e. (n_t - 1)! partial placements, and a
    bound above ``DEFAULT_BUDGET`` is refused before any row is built.
    """
    if n_t > n_b + 1:
        raise ValueError(
            f"need n_t <= n_b + 1 for an unclipped point set; got n_t={n_t}, n_b={n_b}"
        )
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if n_t < 2:
        raise ValueError(f"n_t must be >= 2, got {n_t}")
    _check_enumeration(n_t - 1, 1)
    rows = [range(1, n_t - x) for x in range(n_t - 2, 0, -1)]

    def place(row_idx: int, left: int, used: set[int]) -> int:
        if left == 0:
            return 1
        if len(rows) - row_idx < left:
            return 0
        total = place(row_idx + 1, left, used)
        for y in rows[row_idx]:
            if y not in used:
                used.add(y)
                total += place(row_idx + 1, left - 1, used)
                used.remove(y)
        return total

    return place(0, size, set())


def brute_force_two_race(n_b: int, n_t: int) -> RankDistribution:
    """Exact final-rank distribution of a score-n_t competitor over two
    races, 2 <= n_t <= 2 n_b + 1: boat i scores i + a(i) over the n_b!
    permutations a, refused when n_b! exceeds ``DEFAULT_BUDGET``.  Equal to
    ``brute_force_score(n_b, 2, n_t)``."""
    return _score_law(n_b, 2, n_t)


def brute_force_score(n_b: int, n_r: int, n_t: int) -> RankDistribution:
    """Exact final-rank distribution of a score-n_t competitor over n_r
    races, n_r <= n_t <= n_r n_b + 1, by score-mode enumeration
    ((n_b!)^(n_r - 1) configurations, refused above ``DEFAULT_BUDGET``)."""
    return _score_law(n_b, n_r, n_t)


def brute_force_composition(n_b: int, ranks: Sequence[int]) -> RankDistribution:
    """Exact final-rank distribution, over 1..n_b, of a real tracked boat
    whose per-race ranks are fixed, by composition-mode enumeration
    (((n_b - 1)!)^n_r configurations, refused above ``DEFAULT_BUDGET``)."""
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if len(ranks) < 1:
        raise ValueError("need at least one race")
    if any(not 1 <= r <= n_b for r in ranks):
        raise ValueError(f"tracked ranks must lie in [1, {n_b}], got {tuple(ranks)}")
    leftovers = [[v for v in range(1, n_b + 1) if v != r] for r in ranks]
    score = sum(ranks)
    return RankDistribution(n_b, score, *_rank_law([0] * (n_b - 1), leftovers, score))


def _score_law(n_b: int, n_r: int, n_t: int) -> RankDistribution:
    if n_r < 1:
        raise ValueError(f"n_r must be >= 1, got {n_r}")
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if not n_r <= n_t <= n_r * n_b + 1:
        raise ValueError(f"score n_t must be in [{n_r}, {n_r * n_b + 1}], got {n_t}")
    values = range(1, n_b + 1)
    return RankDistribution(n_b, n_t, *_rank_law(values, [values] * (n_r - 1), n_t))


def _check_enumeration(size: int, races: int) -> None:
    """Refuse ``races`` races of ``size`` values each when their (size!)^races
    orders exceed ``DEFAULT_BUDGET``.  Every factor is at least 2, so the
    product passes the budget within a few dozen factors and the number it
    bounds is never built."""
    need = 1
    for _ in range(races if size > 1 else 0):
        for k in range(2, size + 1):
            need *= k
            if need > DEFAULT_BUDGET:
                label = f"{size}!" if races == 1 else f"({size}!)^{races}"
                raise ValueError(
                    f"enumeration needs {label} configurations, budget is "
                    f"{DEFAULT_BUDGET} (lattice_oracle.DEFAULT_BUDGET)"
                )


@functools.cache
def _orders(k: int) -> np.ndarray:
    """All k! orders of range(k) as the int8 columns of a k x k! table,
    built by inserting value j at each of the j + 1 places of every order
    of range(j).  Row j holds boat j's position in every order, so a
    comparison per boat reduces over contiguous rows."""
    table = np.zeros((0, 1), dtype=np.int8)
    for j in range(k):
        orders = table.shape[1]
        grown = np.empty((j + 1, orders * (j + 1)), dtype=np.int8)
        for place in range(j + 1):
            block = grown[:, place * orders:(place + 1) * orders]
            block[:place] = table[:place]
            block[place] = j
            block[place + 1:] = table[place:]
        table = grown
    table.flags.writeable = False
    return table


def _rank_law(
    fixed: Sequence[int], races: Sequence[Sequence[int]], threshold: int
) -> tuple[list[int], int]:
    """(counts, need): counts[k] of the ``need`` configurations give
    m = k + 1, k = 0..len(fixed), under the module's enumeration rule: boat
    j scores fixed[j] plus its value in each of ``races``, which all hold
    len(fixed) values.

    Head races are walked by ``itertools.product`` and their limits read
    in batches.  The last race deals its first width - ``ORDER_TABLE_WIDTH``
    values, if any, by ``itertools.permutations`` and the rest, sorted, by
    the columns of ``_orders``: with below[j] the number of those values
    under boat j's limit, ``table < below`` marks the beaten boats of every
    order of every head in the batch."""
    _check_enumeration(len(races[0]) if races else 0, len(races))
    if not races or not fixed:
        # one configuration: no race is dealt, or it deals no values
        beaten = sum(part < threshold for part in fixed)
        return [int(k == beaten) for k in range(len(fixed) + 1)], 1
    *heads, last = races
    n = len(fixed)
    need = math.prod(math.factorial(len(race)) for race in races)
    last = sorted(last)
    cut = max(n - ORDER_TABLE_WIDTH, 0)
    table = _orders(n - cut)
    splits = []
    for prefix in itertools.permutations(range(n), cut):
        rest = np.array([v for i, v in enumerate(last) if i not in prefix])
        splits.append((np.array([last[i] for i in prefix], dtype=np.int64), rest))
    # every head's limits, boat by boat, read BATCH_CELLS // table.size heads at a time
    limits = (
        threshold - sum(parts)
        for head in itertools.product(*map(itertools.permutations, heads))
        for parts in zip(fixed, *head)
    )
    batch = n * max(BATCH_CELLS // table.size, 1)
    # exact: every count is at most need <= DEFAULT_BUDGET, far below 2**63
    counts = np.zeros(n + 1, dtype=np.int64)
    while (block := np.fromiter(itertools.islice(limits, batch), np.int64)).size:
        block = block.reshape(-1, n)
        for dealt, rest in splits:
            own = (dealt < block[:, :cut]).sum(axis=1, dtype=np.int8)
            below = np.searchsorted(rest, block[:, cut:]).astype(np.int8)
            beaten = (table < below[:, :, None]).sum(axis=1, dtype=np.int8)
            counts += np.bincount((beaten + own[:, None]).ravel(), minlength=n + 1)
    return counts.tolist(), need
