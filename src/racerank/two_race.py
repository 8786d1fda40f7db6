"""Exact final-rank distributions for the two-race problem.

Setup: n_b boats each get a rank 1..n_b per race (no ties inside a race,
races independent, every ranking equally likely), plus one extra competitor
described only by its two-race score n_t.  Its final rank is

    m = 1 + #{boats whose score is strictly below n_t},

so boats tying the score do not improve m.  Valid scores are
2 <= n_t <= 2 n_b + 1: the closed forms cover n_t <= n_b + 1 and the
reflection n_t -> 2 n_b + 3 - n_t, m -> n_b + 2 - m covers the upper half.

Each closed form is evaluated one whole row at a time: the numerators
n_b! * P(m), m = 1..n_b+1, are built as Python ints over the single
denominator n_b!, an upper-half score reverses the row of its lower-half
mirror, and the row is handed to :class:`RankDistribution` as built.  A
lower-half score can beat at most n_t - 2 boats (k beaten boats hold
distinct ranks in each race, so their scores sum to at least k(k+1) and at
most k(n_t - 1)), so P(m) = 0 for m >= n_t and each row computes only its
band m < n_t: zeros past m = n_t - 1, O(n_b n_t) big-integer additions for
the alternating row (one list of n_t - 1 entries differenced n_b + 1 times),
O(n_t^2) for the Stirling row (a polynomial in (1 + y) expanded by Horner's
rule), and no binomial coefficient.  ``_assemble`` reads and checks every
argument once and refuses n_b above ``EXACT_N_B_BUDGET`` before any term.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import add, index, sub

from .combinatorics import _stirling_row as _stirling_numbers
from .combinatorics import factorial

__all__ = [
    "RankDistribution",
    "full_distribution",
    "stirling_form_distribution",
    "distribution_moments",
]

class RankDistribution(namedtuple("RankDistribution", "n_b n_t counts total")):
    """Exact distribution of a final rank; P(rank = m) = counts[m - 1] / total.

    Virtual-competitor distributions run over m = 1..n_b + 1, tracked-boat
    ones (composition mode) over m = 1..n_b; n_t >= 1 is the score it is
    for, and n_b >= 1 the fleet.
    A row of Python ints over an int total, as every route builds it, is
    taken as given; any other row (``Fraction``, ``bool`` or numpy integer
    entries) is read once and scaled by the lcm of its denominators to
    Python ints.  The counts are then checked and reduced with ``total`` by
    their gcd, so each law has one representation and equal laws compare
    and hash equal.  It is the tuple (n_b, n_t, counts, total), and
    ``_replace`` and ``_make`` check their fields as the constructor does.
    """

    __slots__ = ()

    def __new__(cls, n_b: int, n_t: int, counts, total: int = 1) -> RankDistribution:
        n_b, n_t = index(n_b), index(n_t)
        if n_b < 1:
            raise ValueError(f"RankDistribution: n_b must be >= 1, got {n_b}")
        if n_t < 1:
            raise ValueError(f"RankDistribution: n_t must be >= 1, got {n_t}")
        if not isinstance(total, int):
            raise TypeError(f"RankDistribution: total must be an int, got {type(total).__name__}")
        if total < 1:
            raise ValueError(f"RankDistribution: total must be positive, got {total}")
        counts = tuple(counts)
        if {type(total), *map(type, counts)} != {int}:
            try:
                scale = lcm(*(c.denominator for c in counts))
            except AttributeError:
                bad = next(c for c in counts if not hasattr(c, "denominator"))
                raise TypeError(
                    "RankDistribution: probabilities must be exact rationals "
                    f"(int or Fraction), got {type(bad).__name__}"
                ) from None
            counts = tuple(int(c * scale) for c in counts)
            total *= scale
        if counts and min(counts) < 0:
            raise ValueError("RankDistribution: negative probability")
        if sum(counts) != total:
            raise ValueError("RankDistribution: probabilities must sum to exactly 1")
        if len(counts) not in (n_b, n_b + 1):
            raise ValueError(
                f"RankDistribution: need {n_b} or {n_b + 1} ranks "
                f"for n_b = {n_b}, got {len(counts)}"
            )
        g = gcd(total, *counts)
        if g > 1:
            counts = tuple(c // g for c in counts)
            total //= g
        return super().__new__(cls, n_b, n_t, counts, total)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def probs(self) -> tuple[Fraction, ...]:
        """P(rank = m) for every m, as reduced ``Fraction``s."""
        return tuple(Fraction(c, self.total) for c in self.counts)

    def p(self, m: int) -> Fraction:
        """P(final rank = m), 1-based."""
        if not 1 <= m <= len(self.counts):
            raise ValueError(f"rank m must be in [1, {len(self.counts)}], got {m}")
        return Fraction(self.counts[m - 1], self.total)


# Largest fleet the closed-form rows evaluate; larger n_b is rejected before
# any term is computed.  A row costs O(n_b n_t) big-integer additions
# (alternating sum) or O(n_t^2) (Stirling form).  Measured on a 2-vCPU Xeon
# (Python 3.11.7) at n_b = 450: n_t = n_b + 1, the slowest row, takes
# ~0.04-0.06 s (alternating) and ~0.02-0.03 s (Stirling), n_t = 2 ~0.2-0.3 ms
# and ~0.02 ms; n_b = 500, n_t = 501 takes ~0.05-0.08 s and ~0.03-0.04 s.
# So the cached triangle, not the rows, sets the bound: the Stirling rows to
# 450, one read per Stirling-form row, hold ~18 MB by tracemalloc (built once
# in ~0.03 s; see combinatorics.TRIANGLE_ROW_BUDGET).
EXACT_N_B_BUDGET = 450


def _check_score(n_b: int, n_t: int) -> tuple[int, int]:
    """Read n_b, n_t as ints and check the score; :func:`_assemble` checks every argument once."""
    n_b, n_t = index(n_b), index(n_t)
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if not 2 <= n_t <= 2 * n_b + 1:
        raise ValueError(f"score n_t must be in [2, {2 * n_b + 1}], got {n_t}")
    return n_b, n_t


def _alternating_row(n_b: int, n_t: int) -> list[int]:
    """n_b! * P(m) for m = 1..n_b+1 from the alternating sum, 2 <= n_t <= n_b+1.

    With e = n_b - n_t + 1 >= 0 and j = m - 1 - k the sum is one convolution
    n_b! P(m) = sum_{j<m} (-1)^(m-1-j) C(n_b+1, m-1-j) b_j of the integers
    b_j = (e+1+j)^(n_t-1) (e+j)! / j!: the x^(m-1) coefficient of
    (1-x)^(n_b+1) sum_j b_j x^j, which reads only b_0..b_(m-1).  Entries
    m >= n_t are zero (see the module docstring), so only b_j with
    j < n_t - 1 is built: that list differenced n_b + 1 times and padded
    with zeros is the row, O(n_b n_t) big-integer subtractions with no
    binomial.  The ratios (e+j)!/j! come from one running product, each step
    exact.
    """
    e = n_b - n_t + 1
    b = []
    ratio = factorial(e)
    for j in range(n_t - 1):
        b.append((e + 1 + j) ** (n_t - 1) * ratio)
        ratio = ratio * (e + j + 1) // (j + 1)
    for _ in range(n_b + 1):
        b = [b[0], *map(sub, b[1:], b)]  # times (1 - x), truncated
    return b + [0] * (n_b + 2 - n_t)


def _stirling_row(n_b: int, n_t: int) -> list[int]:
    """n_b! * P(m) for m = 1..n_b+1 from the diagonal-Stirling form,
    2 <= n_t <= n_b+1.  The weights w_i = (-1)^i D(n_t, i) (1+n_b-i)! are
    computed once per row, D(n_t, i) = S(n_t-1, n_t-i) walked along one
    cached Stirling row and (1+n_b-i)! from one running product.  Entry m is
    (-1)^m sum_i w_i C(i-1, m-1), and that sum is the y^(m-1) coefficient of
    sum_i w_i (1+y)^(i-1), which Horner's rule builds in O(n_t^2) big-integer
    additions with no binomial.  Entries with m >= n_t are empty sums, the
    zeros past m = n_t - 1."""
    s = _stirling_numbers(n_t - 1)  # S(n_t-1, k) for k = 0..n_t-1
    q = [0]
    f = factorial(2 + n_b - n_t)  # (1+n_b-i)! at i = n_t - 1
    for i in range(n_t - 1, 0, -1):
        w = s[n_t - i] * (-f if i % 2 else f)
        q = [q[0] + w, *map(add, q[1:], q), q[-1]]  # q (1 + y) + w
        f *= 2 + n_b - i
    return [-c if m % 2 else c for m, c in enumerate(q, start=1)] + [0] * (n_b + 1 - n_t)


def _assemble(n_b: int, n_t: int, low_row) -> RankDistribution:
    n_b, n_t = _check_score(n_b, n_t)
    if n_b > EXACT_N_B_BUDGET:
        raise ValueError(
            f"n_b = {n_b} exceeds the exact-row budget {EXACT_N_B_BUDGET} "
            "(two_race.EXACT_N_B_BUDGET)"
        )
    row = low_row(n_b, min(n_t, 2 * n_b + 3 - n_t))
    if n_t > n_b + 1:
        row.reverse()
    return RankDistribution(n_b, n_t, row, factorial(n_b))


def full_distribution(n_b: int, n_t: int) -> RankDistribution:
    """Exact final-rank distribution over m = 1..n_b+1 for any valid score
    2 <= n_t <= 2 n_b + 1; the entries sum to exactly 1 and ``.p(m)`` reads
    one.  For n_t <= n_b + 1 (every factorial argument >= 0) it is the
    alternating-sum form, the upper half its reflection:

        P(m) = (1 + n_b) * sum_{k=0}^{m-1} (-1)^k (1+n_b-n_t+m-k)^(n_t-1)
                           (n_b-n_t+m-k)! / (k! (1+n_b-k)! (m-k-1)!)

    At n_t = n_b + 1 it is E(n_b, m - 1) / n_b!; verify's middle-score identity checks this."""
    return _assemble(n_b, n_t, _alternating_row)


def stirling_form_distribution(n_b: int, n_t: int) -> RankDistribution:
    """Same distribution as :func:`full_distribution`, from the independent
    diagonal-Stirling rewrite of its lower half, n_t <= n_b + 1:

        P(m) = (1/n_b!) sum_{i=m}^{n_t-1} (-1)^(i+m) D(n_t, i) (1+n_b-i)! C(i-1, m-1)

    with D(n_t, i) = S(n_t - 1, n_t - i), one row S(n_t - 1, .) read from the
    cached :func:`~racerank.combinatorics.stirling2` triangle."""
    return _assemble(n_b, n_t, _stirling_row)


def distribution_moments(d: RankDistribution) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of the final rank: integer sums, divided once."""
    first = sum(m * c for m, c in enumerate(d.counts, start=1))
    second = sum(m * m * c for m, c in enumerate(d.counts, start=1))
    return Fraction(first, d.total), Fraction(second * d.total - first * first, d.total**2)
