"""Truncated expansions of the two rank-generating functions behind `two_race`.

* :func:`eulerian_gf` -- g(x, y) = (e^x - e^{xy}) / (e^{xy} - y e^x), whose
  x^n coefficient is the order-n Eulerian polynomial in y over n!; y * g
  (:func:`middle_score_gf`) generates the middle-score rank distributions.
* :func:`second_gf_expand` -- (y - 1) * integral(g) + g - x, generating the
  rank distributions for the score one below the middle (n_t = n_b).

The route divides the two exponential series and never reads `combinatorics`.
In the integer rows q_n = n! [x^n] g, with numerator row 1 - y^n and
denominator row y^n - y, the division reads

    (1 - y) q_n = 1 - y^n - sum_{k<n} C(n, k) q_k (y^(n-k) - y).

Dividing by 1 - y is a running sum; the quotients are genuine polynomials, so
a remainder raises :class:`ExactDivisionError`.  n! [x^n] integral(g) is
q_(n-1), so all three series come from one set of rows, each turned into
``Fraction``s over n! at the end, after the ``SERIES_ORDER_BUDGET`` check.
Only the builders check it: a :class:`SeriesX` holds the coefficients it is
given and pads nothing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from operator import index
from typing import Iterable

from .two_race import RankDistribution

__all__ = [
    "ExactDivisionError",
    "PolyY",
    "SeriesX",
    "eulerian_gf",
    "middle_score_gf",
    "second_gf_expand",
    "coefficient_to_distribution",
]

# Largest order the expansions reach.  The rows cost O(order^3) big-integer
# products: on a 2-vCPU Xeon (Python 3.11.7) order 40 takes ~4 ms and order
# 60 ~15 ms, so the bound now guards the size of the rationals, not the time.
SERIES_ORDER_BUDGET = 60


def _check_order(order: int) -> None:
    if order > SERIES_ORDER_BUDGET:
        raise ValueError(
            f"order = {order} exceeds the series budget {SERIES_ORDER_BUDGET} "
            "(series.SERIES_ORDER_BUDGET)"
        )


class ExactDivisionError(ArithmeticError):
    """Polynomial division left a remainder where none is possible."""


class PolyY:
    """Polynomial in y over Fraction; coeffs[k] multiplies y**k.  No trailing
    zero coefficients are kept, so equality and hashing are structural."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(index(c)) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree in y; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PolyY((other,))
        return self.coeffs == other.coeffs if isinstance(other, PolyY) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, scalar: int | Fraction) -> "PolyY":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return PolyY(c * scalar for c in self.coeffs)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"PolyY({self.coeffs!r})"


class SeriesX:
    """Series in x truncated after x**order, holding the PolyY coefficients
    it is given: ``order`` is len(coeffs) - 1.

    ``score_offset`` records the score a rank-generating series' rows stand
    for, as n_t - n_b (1 for the middle score, 0 for one below it)."""

    __slots__ = ("order", "coeffs", "score_offset")

    def __init__(self, coeffs: Iterable[PolyY], score_offset: int):
        self.coeffs: tuple[PolyY, ...] = tuple(coeffs)
        self.order = len(self.coeffs) - 1
        self.score_offset = score_offset

    def coefficient(self, n: int) -> PolyY:
        """Coefficient of x**n."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index must be in [0, {self.order}], got {n}")
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeriesX):
            return NotImplemented
        return (self.coeffs, self.score_offset) == (other.coeffs, other.score_offset)


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


def _series(rows: Iterable[list[int]], score_offset: int) -> SeriesX:
    """The series whose x^n coefficient is rows[n] / n!, standing for the
    score n_t = n + score_offset."""
    coeffs = (PolyY(Fraction(c, factorial(n)) for c in row) for n, row in enumerate(rows))
    return SeriesX(coeffs, score_offset)


def eulerian_gf(order: int) -> SeriesX:
    """g(x, y) = (e^x - e^{xy}) / (e^{xy} - y e^x); the x^n coefficient is
    the order-n Eulerian polynomial in y divided by n!."""
    return _series(_eulerian_rows(order), 1)


def middle_score_gf(order: int) -> SeriesX:
    """y * g(x, y): the x^n, y^m coefficient is P(final rank m) for n boats
    and the middle score n + 1."""
    return _series(([0] + q for q in _eulerian_rows(order)), 1)


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
    return _series(rows, 0)


def coefficient_to_distribution(
    s: SeriesX, n_b: int, n_t: int | None = None, shifted: bool = False
) -> RankDistribution:
    """Read the x^n_b coefficient of a rank-generating series as a
    :class:`~racerank.two_race.RankDistribution`.

    The y exponent is the rank m itself; pass ``shifted=True`` for series
    written one y power low (the bare g, where y^k pairs with rank m = k+1).
    ``n_t`` defaults to the score the series stands for, n_b +
    ``s.score_offset``, and any other label is refused.
    """
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if n_b > s.order:
        raise ValueError(f"series truncated at x^{s.order}, cannot read x^{n_b}")
    score = n_b + s.score_offset
    if n_t is not None and n_t != score:
        raise ValueError(
            f"the series' rows stand for n_t = n_b + {s.score_offset} = {score}, "
            f"got n_t = {n_t}"
        )
    poly = s.coeffs[n_b]
    probs = tuple(poly[m - 1 if shifted else m] for m in range(1, n_b + 2))
    return RankDistribution(n_b, score, probs)
