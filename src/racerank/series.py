"""Truncated expansions of the two rank-generating functions behind `two_race`.

* :func:`eulerian_gf` -- g(x, y) = (e^x - e^{xy}) / (e^{xy} - y e^x), whose
  x^n coefficient is the order-n Eulerian polynomial in y over n!; read one
  y power low (y^k pairs with rank k + 1), it generates the middle-score
  rank distributions.
* :func:`second_gf_expand` -- (y - 1) * integral(g) + g - x, generating the
  rank distributions for the score one below the middle (n_t = n_b).

The route divides the two exponential series and never reads `combinatorics`.
In the integer rows q_n = n! [x^n] g, with numerator row 1 - y^n and
denominator row y^n - y, the division reads

    (1 - y) q_n = 1 - y^n - sum_{k<n} C(n, k) q_k (y^(n-k) - y).

Dividing by 1 - y is a running sum; the quotients are genuine polynomials, so
a remainder raises :class:`ExactDivisionError`.  n! [x^n] integral(g) is
q_(n-1), so both series come from one set of rows, and a
:class:`SeriesX` holds those integer rows as built.
:func:`coefficient_to_distribution` hands one row over to a
:class:`~racerank.two_race.RankDistribution` as counts over n!.
Only the builders check ``SERIES_ORDER_BUDGET``: a :class:`SeriesX` holds the
rows it is given and pads nothing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
from math import comb, factorial

from .two_race import RankDistribution

__all__ = [
    "ExactDivisionError",
    "SeriesX",
    "eulerian_gf",
    "second_gf_expand",
    "coefficient_to_distribution",
]

# Largest order the expansions reach.  The rows cost O(order^3) big-integer
# products: on a 2-vCPU Xeon (Python 3.11.7) order 40 takes ~4 ms and order
# 60 ~15 ms, so the bound guards the size of the integer rows (row n sums to
# n!), not the time.
SERIES_ORDER_BUDGET = 60


def _check_order(order: int) -> None:
    if order > SERIES_ORDER_BUDGET:
        raise ValueError(
            f"order = {order} exceeds the series budget {SERIES_ORDER_BUDGET} "
            "(series.SERIES_ORDER_BUDGET)"
        )


class ExactDivisionError(ArithmeticError):
    """Polynomial division left a remainder where none is possible."""


@dataclass(frozen=True)
class SeriesX:
    """Series in x truncated after x**order, held as its integer rows:
    ``rows[n][k]`` is n! times the coefficient of x**n y**k, and entries
    past the end of a row are 0.

    ``score_offset`` records the score a rank-generating series' rows stand
    for, as n_t - n_b (1 for g, the middle score, 0 for the series one
    below it), and ``rank_one_power`` the power of y that holds rank 1 (0
    for g, read one y power low, 1 for the series one below)."""

    rows: list[list[int]]
    score_offset: int
    rank_one_power: int

    @property
    def order(self) -> int:
        return len(self.rows) - 1


def _div_one_minus_y(r: list[int]) -> list[int]:
    """Exact quotient of the integer polynomial r (r[k] multiplies y**k) by
    1 - y; raises ExactDivisionError on a nonzero remainder."""
    q = list(accumulate(r))
    if q and q.pop():
        raise ExactDivisionError(f"nonzero remainder dividing {r} by 1 - y")
    return q


def _eulerian_rows(order: int) -> list[list[int]]:
    """Rows q_0..q_order of n! [x^n] g, by the recurrence of the module
    docstring; the budget is checked before the first row."""
    _check_order(order)
    rows: list[list[int]] = []
    for n in range(order + 1):
        r = [1] + [0] * n
        r[n] -= 1
        for k, q in enumerate(rows):
            c = comb(n, k)
            for i, a in enumerate(q):
                r[i + n - k] -= c * a
                r[i + 1] += c * a
        rows.append(_div_one_minus_y(r))
    return rows


def eulerian_gf(order: int) -> SeriesX:
    """g(x, y) = (e^x - e^{xy}) / (e^{xy} - y e^x); row n is the order-n
    Eulerian polynomial in y."""
    return SeriesX(_eulerian_rows(order), 1, 0)


def second_gf_expand(order: int) -> SeriesX:
    """(y - 1) * integral(g) + g - x: the x^n, y^m coefficient is
    P(final rank m) when the score equals the fleet size n (one below the
    middle).  Row n is q_n + (y - 1) q_(n-1) - [n = 1]; needs order >= 2."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    q = _eulerian_rows(order)
    rows = [[]] + [
        [a + b - c for a, b, c in zip(q[n], [0] + q[n - 1], q[n - 1] + [0])]
        for n in range(1, order + 1)
    ]
    rows[1][0] -= 1
    return SeriesX(rows, 0, 1)


def coefficient_to_distribution(
    s: SeriesX, n_b: int, n_t: int | None = None, shifted: bool | None = None
) -> RankDistribution:
    """Read the x^n_b coefficient of a rank-generating series as a
    :class:`~racerank.two_race.RankDistribution`.

    Rank 1 sits at the power of y that ``s.rank_one_power`` records: y^m
    pairs with rank m in the series one below the middle, and y^k with rank
    k + 1 in g, which is written one y power low (``shifted``).  ``n_t`` and
    ``shifted`` default to what the series records, n_b + ``s.score_offset``
    and ``s.rank_one_power == 0``; any other value is refused, as is a row
    whose score no two-race fleet reaches (n_t < 2).
    """
    n_b = operator.index(n_b)
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if n_b > s.order:
        raise ValueError(f"series truncated at x^{s.order}, cannot read x^{n_b}")
    score = n_b + s.score_offset
    if score < 2:
        raise ValueError(
            f"the series' rows stand for n_t = n_b + {s.score_offset} = {score}, "
            "below the lowest score 2"
        )
    if n_t is not None and n_t != score:
        raise ValueError(
            f"the series' rows stand for n_t = n_b + {s.score_offset} = {score}, "
            f"got n_t = {n_t}"
        )
    first = s.rank_one_power
    if shifted is not None and shifted != (first == 0):
        raise ValueError(f"the series' rows hold rank 1 at y^{first}, got shifted={shifted}")
    counts = s.rows[n_b][first : first + n_b + 1]
    counts += [0] * (n_b + 1 - len(counts))
    return RankDistribution(n_b, score, counts, factorial(n_b))
