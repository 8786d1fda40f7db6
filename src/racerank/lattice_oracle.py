"""Independent brute-force oracles for the closed forms elsewhere.

Everything here counts finite configurations directly -- lattice points,
non-attacking placements, exhaustive race outcomes -- without consulting the
formulas in `combinatorics` or `two_race`, so agreement between the two
routes is meaningful evidence.

The race oracles share one enumeration rule.  Boat j scores a fixed part
plus its value in each race; every race deals its values to the boats in
every order, and the final rank is m = 1 + #{boats scoring strictly below
the threshold}, so ties do not push it down.  The budget is checked before
any permutation is generated.  Score mode (``brute_force_score``, whose
n_r = 2 case is ``brute_force_two_race``) relabels the first race to the
identity, which leaves the law of m unchanged: boat i's fixed part is i and
the other n_r - 1 races deal 1..n_b.  Composition mode
(``brute_force_composition``) gives the other n_b - 1 boats fixed part 0 and
deals each race the values the tracked boat's rank left over; the threshold
is the tracked boat's score.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Sequence

from .two_race import RankDistribution

__all__ = [
    "DEFAULT_BUDGET",
    "LatticePoint",
    "below_diagonal_points",
    "count_compatible_subsets",
    "brute_force_two_race",
    "brute_force_score",
    "brute_force_composition",
]

# Maximum number of elementary configurations an enumeration may touch.
DEFAULT_BUDGET = 10**8

LatticePoint = tuple[int, int]


def below_diagonal_points(n_b: int, n_t: int) -> set[LatticePoint]:
    """All (x, y) with 1 <= x, y <= n_b and x + y < n_t: the two-race rank
    pairs scoring strictly below n_t."""
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if n_t < 2:
        raise ValueError(f"n_t must be >= 2, got {n_t}")
    return {
        (x, y)
        for x in range(1, n_b + 1)
        for y in range(1, n_b + 1)
        if x + y < n_t
    }


def count_compatible_subsets(n_b: int, n_t: int, size: int) -> int:
    """Number of ``size``-element sets of below-diagonal points that share no
    row and no column (partial non-attacking rook placements).  The empty
    placement counts once by convention.

    Requires n_t <= n_b + 1 so the triangle of points is not clipped by the
    lattice edge.  Counts by backtracking row by row; no closed form is
    consulted, keeping this an independent check of ``stirling_diagonal``.
    """
    if n_t > n_b + 1:
        raise ValueError(
            f"need n_t <= n_b + 1 for an unclipped point set; got n_t={n_t}, n_b={n_b}"
        )
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    cols_by_row: dict[int, list[int]] = defaultdict(list)
    for x, y in below_diagonal_points(n_b, n_t):
        cols_by_row[x].append(y)
    rows = sorted(cols_by_row)

    def place(row_idx: int, left: int, used: set[int]) -> int:
        if left == 0:
            return 1
        if len(rows) - row_idx < left:
            return 0
        total = place(row_idx + 1, left, used)
        for y in cols_by_row[rows[row_idx]]:
            if y not in used:
                used.add(y)
                total += place(row_idx + 1, left - 1, used)
                used.remove(y)
        return total

    return place(0, size, set())


def brute_force_two_race(
    n_b: int, n_t: int, budget: int = DEFAULT_BUDGET
) -> RankDistribution:
    """Exact final-rank distribution of a score-n_t competitor over two
    races, 2 <= n_t <= 2 n_b + 1: boat i scores i + a(i) over the n_b!
    permutations a.  Equal to ``brute_force_score(n_b, 2, n_t)``."""
    return _score_law(n_b, 2, n_t, budget)


def brute_force_score(
    n_b: int, n_r: int, n_t: int, budget: int = DEFAULT_BUDGET
) -> RankDistribution:
    """Exact final-rank distribution of a score-n_t competitor over n_r
    races, n_r <= n_t <= n_r n_b + 1, by score-mode enumeration
    ((n_b!)^(n_r - 1) configurations)."""
    return _score_law(n_b, n_r, n_t, budget)


def brute_force_composition(
    n_b: int, ranks: Sequence[int], budget: int = DEFAULT_BUDGET
) -> RankDistribution:
    """Exact final-rank distribution, over 1..n_b, of a real tracked boat
    whose per-race ranks are fixed, by composition-mode enumeration
    (((n_b - 1)!)^n_r configurations)."""
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if len(ranks) < 1:
        raise ValueError("need at least one race")
    if any(not 1 <= r <= n_b for r in ranks):
        raise ValueError(f"tracked ranks must lie in [1, {n_b}], got {tuple(ranks)}")
    leftovers = [[v for v in range(1, n_b + 1) if v != r] for r in ranks]
    score = sum(ranks)
    probs = _rank_law([0] * (n_b - 1), leftovers, score, budget)
    return RankDistribution(n_b, score, probs)


def _score_law(n_b: int, n_r: int, n_t: int, budget: int) -> RankDistribution:
    if n_r < 1:
        raise ValueError(f"n_r must be >= 1, got {n_r}")
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if not n_r <= n_t <= n_r * n_b + 1:
        raise ValueError(f"score n_t must be in [{n_r}, {n_r * n_b + 1}], got {n_t}")
    values = range(1, n_b + 1)
    probs = _rank_law(values, [values] * (n_r - 1), n_t, budget)
    return RankDistribution(n_b, n_t, probs)


def _rank_law(
    fixed: Sequence[int], races: Sequence[Sequence[int]], threshold: int, budget: int
) -> tuple[Fraction, ...]:
    """P(m = k + 1) for k = 0..len(fixed) under the module's enumeration
    rule: boat j scores fixed[j] plus its value in each of ``races``."""
    need = math.prod(math.factorial(len(race)) for race in races)
    if need > budget:
        raise ValueError(f"enumeration needs {need} configurations, budget is {budget}")
    counts: Counter[int] = Counter()
    # The last race is walked lazily: listing all its orders costs memory.
    for head in itertools.product(*map(itertools.permutations, races[:-1])):
        limits = [threshold - sum(parts) for parts in zip(fixed, *head)]
        tails = itertools.permutations(races[-1]) if races else [(0,) * len(fixed)]
        counts.update(sum(map(operator.lt, tail, limits)) for tail in tails)
    return tuple(Fraction(counts[k], need) for k in range(len(fixed) + 1))
