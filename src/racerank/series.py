"""Truncated expansions of the two rank-generating functions behind `two_race`.

* :func:`eulerian_gf` -- g(x, y) = (e^x - e^{xy}) / (e^{xy} - y e^x), whose
  x^n coefficient is the order-n Eulerian polynomial in y over n!; read one
  y power low (y^k pairs with rank k + 1), it generates the middle-score
  rank distributions.
* :func:`second_gf_expand` -- (y - 1) * integral(g) + g - x, generating the
  rank distributions for the score one below the middle (n_t = n_b).

The route expands 1 + g = (y - 1) / (y - e^{(y-1)x}) and never reads
`combinatorics`.  Its integer rows A_n = n! [x^n] (1 + g) start at A_0 = 1;
for n >= 1, x^n of (1 + g)(y - e^{(y-1)x}) = y - 1 reads (y - 1) A_n =
sum_{k<n} C(n, k) A_k (y - 1)^(n-k), where every term carries y - 1, so

    A_n = sum_{k<n} C(n, k) A_k (y - 1)^(n-1-k),

summed by Horner's rule in y - 1 from products and sums alone: nothing is
left to divide.  g's rows are A_n with row 0 emptied, and n! [x^n]
integral(g) is g's row n - 1, so both series come from one set of rows,
which a :class:`SeriesX` holds as built.
:func:`coefficient_to_distribution` hands one row over to a
:class:`~racerank.two_race.RankDistribution` as counts over n!.
Only the builders check ``SERIES_ORDER_BUDGET``: a :class:`SeriesX` holds the
rows it is given and pads nothing.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from math import comb, factorial

from .two_race import RankDistribution

__all__ = [
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


class SeriesX(namedtuple("SeriesX", "rows score_offset rank_one_power")):
    """Series in x truncated after x**order, held as its integer rows:
    ``rows[n][k]`` is n! times the coefficient of x**n y**k, and entries
    past the end of a row are 0.

    ``score_offset`` records the score a rank-generating series' rows stand
    for, as n_t - n_b (1 for g, the middle score, 0 for the series one
    below it), and ``rank_one_power`` the power of y that holds rank 1 (0
    for g, read one y power low, 1 for the series one below)."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.rows) - 1


def _eulerian_rows(order: int) -> list[list[int]]:
    """Rows A_0..A_order of n! [x^n] (1 + g), by the recurrence of the module
    docstring; the order is checked before the first row."""
    order = operator.index(order)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > SERIES_ORDER_BUDGET:
        raise ValueError(
            f"order = {order} exceeds the series budget {SERIES_ORDER_BUDGET} "
            "(series.SERIES_ORDER_BUDGET)"
        )
    rows = [[1]]
    for n in range(1, order + 1):
        acc: list[int] = []
        for k, a in enumerate(rows):  # acc <- acc * (y - 1) + C(n, k) A_k
            c = comb(n, k)
            acc = [lo - hi + c * v for lo, hi, v in zip([0] + acc, acc + [0], a + [0])]
        rows.append(acc)
    return rows


def eulerian_gf(order: int) -> SeriesX:
    """g(x, y) = (e^x - e^{xy}) / (e^{xy} - y e^x): row 0 is empty and row n >= 1
    is A_n, the order-n Eulerian polynomial in y."""
    return SeriesX([[]] + _eulerian_rows(order)[1:], 1, 0)


def second_gf_expand(order: int) -> SeriesX:
    """(y - 1) * integral(g) + g - x: the x^n, y^m coefficient is P(final
    rank m) when the score equals the fleet size n (one below the middle).
    Row n >= 2 is A_n + (y - 1) A_(n-1), and row 1 is [0], as g's x term
    cancels the - x; row n has n entries.  Needs order >= 2."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    q = _eulerian_rows(order)
    rows = [[], [0]] + [
        [a + b - c for a, b, c in zip(q[n], [0] + q[n - 1], q[n - 1] + [0])]
        for n in range(2, order + 1)
    ]
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
