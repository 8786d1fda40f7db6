"""Independent brute-force oracles for the closed forms elsewhere.

Everything here counts finite configurations directly -- lattice points,
non-attacking placements, exhaustive race outcomes -- without consulting the
formulas in `combinatorics` or `two_race`, so agreement between the two
routes is meaningful evidence.

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

Every enumeration, the rook walk included, reads ``DEFAULT_BUDGET`` when it
is called and is refused before any permutation or placement is generated.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Sequence

from .two_race import RankDistribution

__all__ = [
    "below_diagonal_points",
    "count_compatible_subsets",
    "brute_force_two_race",
    "brute_force_score",
    "brute_force_composition",
]

# Maximum number of elementary configurations an enumeration may touch, read
# when the enumeration is called.
DEFAULT_BUDGET = 10**8
# Maximum size of the point set below_diagonal_points builds.  Measured with
# tracemalloc (Python 3.11.7), a set of such tuples costs ~113 B a point, so
# the bound holds ~55 MiB.
POINT_BUDGET = 5 * 10**5


def _check_lattice(n_b: int, n_t: int) -> None:
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if n_t < 2:
        raise ValueError(f"n_t must be >= 2, got {n_t}")


def _pairs_up_to(s: int) -> int:
    """Pairs of positive integers with x + y <= s."""
    return max(s, 0) * max(s - 1, 0) // 2


def below_diagonal_points(n_b: int, n_t: int) -> set[tuple[int, int]]:
    """All (x, y) with 1 <= x, y <= n_b and x + y < n_t: the two-race rank
    pairs scoring strictly below n_t.  The points are counted by
    inclusion-exclusion over x > n_b and y > n_b, and a set larger than
    ``POINT_BUDGET`` is refused before any point is made.  The filter scans
    the square of side min(n_b, n_t - 2), at most twice as many pairs as it
    keeps, whatever n_b is."""
    _check_lattice(n_b, n_t)
    s = n_t - 1
    count = _pairs_up_to(s) - 2 * _pairs_up_to(s - n_b) + _pairs_up_to(s - 2 * n_b)
    if count > POINT_BUDGET:
        raise ValueError(
            f"{count} points exceed the point budget {POINT_BUDGET} "
            "(lattice_oracle.POINT_BUDGET)"
        )
    # no coordinate exceeds n_t - 2, so the filtered square has that side
    side = range(1, min(n_b, n_t - 2) + 1)
    return {(x, y) for x in side for y in side if x + y < n_t}


def count_compatible_subsets(n_b: int, n_t: int, size: int) -> int:
    """Number of ``size``-element sets of below-diagonal points that share no
    row and no column (partial non-attacking rook placements).  The empty
    placement counts once by convention.

    Requires n_t <= n_b + 1 so the staircase of points is not clipped by the
    lattice edge: row x then holds the columns 1..n_t - 1 - x.  Counts by
    backtracking over the rows, shortest first, straight from that rule; no
    closed form or point set is consulted, keeping this an independent check
    of ``stirling_diagonal``.  The walk visits at most prod(l + 1) over the
    row lengths l = 1..n_t - 2, i.e. (n_t - 1)! partial placements, and a
    bound above ``DEFAULT_BUDGET`` is refused before any row is built.
    """
    if n_t > n_b + 1:
        raise ValueError(
            f"need n_t <= n_b + 1 for an unclipped point set; got n_t={n_t}, n_b={n_b}"
        )
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    _check_lattice(n_b, n_t)
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
    probs = _rank_law([0] * (n_b - 1), leftovers, score)
    return RankDistribution(n_b, score, probs)


def _score_law(n_b: int, n_r: int, n_t: int) -> RankDistribution:
    if n_r < 1:
        raise ValueError(f"n_r must be >= 1, got {n_r}")
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if not n_r <= n_t <= n_r * n_b + 1:
        raise ValueError(f"score n_t must be in [{n_r}, {n_r * n_b + 1}], got {n_t}")
    values = range(1, n_b + 1)
    probs = _rank_law(values, [values] * (n_r - 1), n_t)
    return RankDistribution(n_b, n_t, probs)


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


def _rank_law(
    fixed: Sequence[int], races: Sequence[Sequence[int]], threshold: int
) -> tuple[Fraction, ...]:
    """P(m = k + 1) for k = 0..len(fixed) under the module's enumeration
    rule: boat j scores fixed[j] plus its value in each of ``races``, which
    all hold the same number of values."""
    _check_enumeration(len(races[0]) if races else 0, len(races))
    need = math.prod(math.factorial(len(race)) for race in races)
    counts: Counter[int] = Counter()
    # The last race is walked lazily: listing all its orders costs memory.
    for head in itertools.product(*map(itertools.permutations, races[:-1])):
        limits = [threshold - sum(parts) for parts in zip(fixed, *head)]
        tails = itertools.permutations(races[-1]) if races else [(0,) * len(fixed)]
        counts.update(sum(map(operator.lt, tail, limits)) for tail in tails)
    return tuple(Fraction(counts[k], need) for k in range(len(fixed) + 1))
