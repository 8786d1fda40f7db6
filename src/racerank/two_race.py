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
mirror, and each entry becomes one ``Fraction`` at the end.  Rows are
refused above ``EXACT_N_B_BUDGET`` boats before any term is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from .combinatorics import eulerian, factorial, stirling2

__all__ = [
    "RankDistribution",
    "p_exact",
    "p_middle",
    "p_stirling_form",
    "full_distribution",
    "stirling_form_distribution",
    "reflect_distribution",
    "distribution_moments",
]

@dataclass(frozen=True)
class RankDistribution:
    """Exact distribution of a final rank; probs[m - 1] = P(rank = m).

    Virtual-competitor distributions run over m = 1..n_b + 1;
    tracked-boat distributions (composition mode) over m = 1..n_b.
    n_t records the score the distribution was computed for.
    """

    n_b: int
    n_t: int
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if any(p < 0 for p in self.probs):
            raise ValueError("RankDistribution: negative probability")
        if sum(self.probs) != 1:
            raise ValueError("RankDistribution: probabilities must sum to exactly 1")

    def p(self, m: int) -> Fraction:
        """P(final rank = m), 1-based."""
        if not 1 <= m <= len(self.probs):
            raise ValueError(f"rank m must be in [1, {len(self.probs)}], got {m}")
        return self.probs[m - 1]


# Largest fleet the closed-form rows and p_middle evaluate; larger n_b is
# rejected before any term is computed.  A row costs O(n_b^2) big-integer
# products; the Stirling weights come from the cached stirling2 triangle
# (rows up to 449 build in ~0.05 s and hold ~18 MB).  Measured on a 2-vCPU
# Xeon (Python 3.11.7) at n_b = 450, n_t = 451, the slowest row: Stirling
# form ~0.6 s, alternating sum ~0.25 s (n_b = 500: 0.85 s and 0.4 s).
EXACT_N_B_BUDGET = 450


def _check_rank(n_b: int, m: int) -> None:
    if not 1 <= m <= n_b + 1:
        raise ValueError(f"rank m must be in [1, {n_b + 1}], got {m}")


def _check_score(n_b: int, n_t: int, top: int, what: str = "score n_t") -> None:
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if not 2 <= n_t <= top:
        raise ValueError(f"{what} must be in [2, {top}], got {n_t}")


def _check_budget(n_b: int) -> None:
    if n_b > EXACT_N_B_BUDGET:
        raise ValueError(
            f"n_b = {n_b} exceeds the exact-row budget {EXACT_N_B_BUDGET} "
            "(two_race.EXACT_N_B_BUDGET)"
        )


def _alternating_row(n_b: int, n_t: int) -> list[int]:
    """n_b! * P(m) for m = 1..n_b+1 from the alternating sum, 2 <= n_t <= n_b+1.

    With e = n_b - n_t + 1 >= 0 and j = m - 1 - k the sum is one convolution
    n_b! P(m) = sum_{j<m} (-1)^(m-1-j) C(n_b+1, m-1-j) b_j of the integers
    b_j = (e+1+j)^(n_t-1) (e+j)! / j!.
    """
    _check_budget(n_b)
    e = n_b - n_t + 1
    signed_binomials = [(-1) ** k * comb(n_b + 1, k) for k in range(n_b + 1)]
    b = [(e + 1 + j) ** (n_t - 1) * (factorial(e + j) // factorial(j)) for j in range(n_b + 1)]
    return [sum(map(mul, signed_binomials[m - 1 :: -1], b)) for m in range(1, n_b + 2)]


def _stirling_row(n_b: int, n_t: int) -> list[int]:
    """n_b! * P(m) for m = 1..n_b+1 from the diagonal-Stirling form,
    2 <= n_t <= n_b+1.  The weights (-1)^i D(n_t, i) (1+n_b-i)! are computed
    once per row, D(n_t, i) = S(n_t-1, n_t-i) read from the cached Stirling
    triangle; entries with m >= n_t are empty sums."""
    _check_budget(n_b)
    signed_weights = [
        (-1) ** i * stirling2(n_t - 1, n_t - i) * factorial(1 + n_b - i) for i in range(1, n_t)
    ]
    return [
        (-1) ** m * sum(signed_weights[i - 1] * comb(i - 1, m - 1) for i in range(m, n_t))
        for m in range(1, n_b + 2)
    ]


def p_exact(n_b: int, n_t: int, m: int) -> Fraction:
    """P(final rank = m) from the alternating-sum closed form

        (1 + n_b) * sum_{k=0}^{m-1} (-1)^k (1+n_b-n_t+m-k)^(n_t-1)
                    (n_b-n_t+m-k)! / (k! (1+n_b-k)! (m-k-1)!),

    valid for 2 <= n_t <= n_b + 1 (:func:`full_distribution` covers the upper
    half by reflection).  On that domain every factorial argument is >= 0, so
    every summand is defined.  Evaluated as entry m of the whole row, in
    integers over the one denominator n_b!.
    """
    _check_score(n_b, n_t, n_b + 1, "p_exact: n_t")
    _check_rank(n_b, m)
    return Fraction(_alternating_row(n_b, n_t)[m - 1], factorial(n_b))


def p_middle(n_b: int, m: int) -> Fraction:
    """Middle-score (n_t = n_b + 1) rank probability: E(n_b, m-1) / n_b!.
    Zero at m = n_b + 1 (with the lowest scores taken, no competitor can be
    beaten by the whole fleet)."""
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    _check_rank(n_b, m)
    _check_budget(n_b)
    return Fraction(eulerian(n_b, m - 1), factorial(n_b))


def p_stirling_form(n_b: int, n_t: int, m: int) -> Fraction:
    """P(final rank = m) rewritten through diagonal Stirling counts:

        (1/n_b!) sum_{i=m}^{n_t-1} (-1)^(i+m) D(n_t, i) (1+n_b-i)! C(i-1, m-1)

    with D(n_t, i) = S(n_t - 1, n_t - i) read from the cached
    :func:`~racerank.combinatorics.stirling2` triangle.  Agrees with
    :func:`p_exact` on the whole shared domain.  Evaluated as entry m of the
    whole row, in integers over the one denominator n_b!.
    """
    _check_score(n_b, n_t, n_b + 1, "p_stirling_form: n_t")
    _check_rank(n_b, m)
    return Fraction(_stirling_row(n_b, n_t)[m - 1], factorial(n_b))


def _assemble(n_b: int, n_t: int, low_row) -> RankDistribution:
    _check_score(n_b, n_t, 2 * n_b + 1)
    row = low_row(n_b, min(n_t, 2 * n_b + 3 - n_t))
    if n_t > n_b + 1:
        row.reverse()
    denominator = factorial(n_b)
    return RankDistribution(n_b, n_t, tuple(Fraction(c, denominator) for c in row))


def full_distribution(n_b: int, n_t: int) -> RankDistribution:
    """Exact final-rank distribution over m = 1..n_b+1 for any valid score
    2 <= n_t <= 2 n_b + 1; the entries sum to exactly 1.  The lower half is
    the alternating-sum row of :func:`p_exact`, built in one pass."""
    return _assemble(n_b, n_t, _alternating_row)


def stirling_form_distribution(n_b: int, n_t: int) -> RankDistribution:
    """Same distribution as :func:`full_distribution`, assembled from the row
    of :func:`p_stirling_form` instead (an independent algebraic route)."""
    return _assemble(n_b, n_t, _stirling_row)


def reflect_distribution(d: RankDistribution) -> RankDistribution:
    """Reflection n_t -> 2 n_b + 3 - n_t, m -> n_b + 2 - m; an involution on
    the family of virtual-competitor distributions."""
    if len(d.probs) != d.n_b + 1:
        raise ValueError("reflection is defined for virtual-competitor distributions")
    return RankDistribution(d.n_b, 2 * d.n_b + 3 - d.n_t, tuple(reversed(d.probs)))


def distribution_moments(d: RankDistribution) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of the final rank."""
    mean = sum((p * m for m, p in enumerate(d.probs, start=1)), Fraction(0))
    second = sum((p * m * m for m, p in enumerate(d.probs, start=1)), Fraction(0))
    return mean, second - mean * mean

