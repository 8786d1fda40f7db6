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
``ORDER_TABLE_WIDTH``, read from ``itertools.permutations(range(k))``, and a
wider last race first deals its leading width - k boats every ordered
choice of its values by ``itertools.permutations``.  Over the sorted values
left to the table, boat j's value is below its limit exactly when its
position is below ``searchsorted(values, limit)``, so one comparison with
the table counts the beaten boats of every order, for a batch of heads at
once, and ``bincount`` tallies them into exact int64 counts.  One walk
of the heads serves every threshold it is given: each batch is compared
once per threshold, and ``BATCH_CELLS`` bounds each comparison.  A law is
handed over as those counts over the number of configurations visited.

Every enumeration, the rook walk included, reads ``DEFAULT_BUDGET`` when it
is called and is refused before any permutation or placement is generated.
Sizes, scores and ranks are read through ``operator.index``, so a float is
refused rather than truncated.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
# Cells one comparison of the order table with a batch of heads, at one
# threshold, may fill; the 7-wide table (35280 cells) is compared with one
# head at a time.
BATCH_CELLS = 2**16


def count_compatible_subsets(n_t: int) -> list[int]:
    """The rook numbers of the staircase x + y < n_t over x, y >= 1: entry i
    counts the placements of i non-attacking rooks, i = 0..n_t - 2, the most
    it holds (the empty placement counts once).

    n_t alone defines the staircase: row x holds the columns 1..n_t - 1 - x.
    One backtracking walk over the rows, shortest first, straight from that
    rule, tallies every placement by its size; no closed form is consulted,
    keeping this an independent check of ``stirling_diagonal``.  It visits at
    most (n_t - 1)! placements, prod(l + 1) over the row lengths l, and a
    bound above ``DEFAULT_BUDGET`` is refused before the walk starts.
    """
    n_t = operator.index(n_t)
    if n_t < 2:
        raise ValueError(f"n_t must be >= 2, got {n_t}")
    _check_enumeration(n_t - 1, 1)
    counts = [0] * (n_t - 1)

    def place(x: int, used: set[int]) -> None:
        if x == 0:
            counts[len(used)] += 1
            return
        place(x - 1, used)
        for y in range(1, n_t - x):
            if y not in used:
                used.add(y)
                place(x - 1, used)
                used.remove(y)

    place(n_t - 2, set())
    return counts


def brute_force_two_race(n_b: int, n_t: int) -> RankDistribution:
    """Exact final-rank distribution of a score-n_t competitor over two
    races, 2 <= n_t <= 2 n_b + 1: boat i scores i + a(i) over the n_b!
    permutations a, refused when n_b! exceeds ``DEFAULT_BUDGET``.  Equal to
    ``brute_force_score(n_b, 2, n_t)``."""
    return _score_laws(n_b, 2, [n_t])[0]


def brute_force_score(n_b: int, n_r: int, n_t: int) -> RankDistribution:
    """Exact final-rank distribution of a score-n_t competitor over n_r
    races, n_r <= n_t <= n_r n_b + 1, by score-mode enumeration
    ((n_b!)^(n_r - 1) configurations, refused above ``DEFAULT_BUDGET``)."""
    return _score_laws(n_b, n_r, [n_t])[0]


def brute_force_composition(n_b: int, ranks: Sequence[int]) -> RankDistribution:
    """Exact final-rank distribution, over 1..n_b, of a real tracked boat
    whose per-race ranks are fixed, by composition-mode enumeration
    (((n_b - 1)!)^n_r configurations, refused above ``DEFAULT_BUDGET``)."""
    n_b = operator.index(n_b)
    ranks = [operator.index(r) for r in ranks]
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if len(ranks) < 1:
        raise ValueError("need at least one race")
    if any(not 1 <= r <= n_b for r in ranks):
        raise ValueError(f"tracked ranks must lie in [1, {n_b}], got {tuple(ranks)}")
    leftovers = [[v for v in range(1, n_b + 1) if v != r] for r in ranks]
    score = sum(ranks)
    (row,), need = _rank_law([0] * (n_b - 1), leftovers, [score])
    return RankDistribution(n_b, score, row, need)


def _score_laws(n_b: int, n_r: int, scores: Sequence[int]) -> list[RankDistribution]:
    """The score-mode law at each of ``scores``, from one enumeration."""
    n_b, n_r = operator.index(n_b), operator.index(n_r)
    scores = [operator.index(n_t) for n_t in scores]
    if n_r < 1:
        raise ValueError(f"n_r must be >= 1, got {n_r}")
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    for n_t in scores:
        if not n_r <= n_t <= n_r * n_b + 1:
            raise ValueError(f"score n_t must be in [{n_r}, {n_r * n_b + 1}], got {n_t}")
    values = range(1, n_b + 1)
    rows, need = _rank_law(values, [values] * (n_r - 1), scores)
    return [RankDistribution(n_b, n_t, row, need) for n_t, row in zip(scores, rows)]


def _check_enumeration(size: int, races: int) -> int:
    """The (size!)^races orders of ``races`` races of ``size`` values each,
    refused when they exceed ``DEFAULT_BUDGET``.  Every factor is at least 2,
    so the product passes the budget within a few dozen factors and a count
    above it is never built."""
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
    return need


@functools.cache
def _orders(k: int) -> np.ndarray:
    """All k! orders of range(k), read from ``itertools.permutations``, as
    the int8 columns of a read-only k x k! table.  Row j holds boat j's
    position in every order, so a comparison per boat reduces over
    contiguous rows."""
    orders = math.factorial(k)
    flat = itertools.chain.from_iterable(itertools.permutations(range(k)))
    table = np.fromiter(flat, np.int8, count=k * orders).reshape(orders, k).T.copy()
    table.flags.writeable = False
    return table


def _rank_law(
    fixed: Sequence[int], races: Sequence[Sequence[int]], thresholds: Sequence[int]
) -> tuple[list[list[int]], int]:
    """(rows, need): rows[i][k] of the ``need`` configurations give m = k + 1
    at threshold thresholds[i], k = 0..len(fixed), under the module's
    enumeration rule: boat j scores fixed[j] plus its value in each of
    ``races``, which all hold len(fixed) values.

    Head races are walked once, by ``itertools.product``, and their partial
    scores read in batches, each scored at every threshold in turn.  The last
    race deals its first width - ``ORDER_TABLE_WIDTH`` boats, if any, each
    ordered choice of its values by ``itertools.permutations`` and the values
    left, sorted, by the columns of ``_orders``: with below[j] the number of
    those values under boat j's limit, ``table < below`` marks the beaten
    boats of every order of every head of the batch."""
    need = _check_enumeration(len(races[0]) if races else 0, len(races))
    if not races or not fixed:
        # one configuration: no race is dealt, or it deals no values
        beaten = [sum(part < threshold for part in fixed) for threshold in thresholds]
        return [[int(k == b) for k in range(len(fixed) + 1)] for b in beaten], need
    *heads, last = races
    n = len(fixed)
    last = sorted(last)
    cut = max(n - ORDER_TABLE_WIDTH, 0)
    table = _orders(n - cut)
    splits = [
        (np.array(dealt, dtype=np.int64), np.array([v for v in last if v not in dealt]))
        for dealt in itertools.permutations(last, cut)
    ]
    # every head's partial scores, boat by boat
    partials = (
        sum(parts)
        for head in itertools.product(*map(itertools.permutations, heads))
        for parts in zip(fixed, *head)
    )
    # a block reads the heads whose comparison fills at most BATCH_CELLS
    # cells, and at least one head
    batch = n * max(BATCH_CELLS // table.size, 1)
    # exact: every count is at most need <= DEFAULT_BUDGET, far below 2**63
    counts = np.zeros((len(thresholds), n + 1), dtype=np.int64)
    while (block := np.fromiter(itertools.islice(partials, batch), np.int64)).size:
        block = block.reshape(-1, n)
        for row, threshold in zip(counts, thresholds):
            limits = threshold - block
            for dealt, rest in splits:
                own = (dealt < limits[:, :cut]).sum(axis=1, dtype=np.int8)
                below = np.searchsorted(rest, limits[:, cut:]).astype(np.int8)
                beaten = (table < below[:, :, None]).sum(axis=1, dtype=np.int8)
                row += np.bincount((beaten + own[:, None]).ravel(), minlength=n + 1)
    return counts.tolist(), need
