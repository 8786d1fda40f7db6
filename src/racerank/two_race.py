"""Exact final-rank distributions for the two-race problem.

Setup: n_b boats each get a rank 1..n_b per race (no ties inside a race,
races independent, every ranking equally likely), plus one extra competitor
described only by its two-race score n_t.  Its final rank is

    m = 1 + #{boats whose score is strictly below n_t},

so boats tying the score do not improve m.  Valid scores are
2 <= n_t <= 2 n_b + 1: the closed forms cover n_t <= n_b + 1 and a
reflection identity covers the upper half.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import binomial, eulerian, factorial, stirling_diagonal

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


def _check_rank(n_b: int, m: int) -> None:
    if not 1 <= m <= n_b + 1:
        raise ValueError(f"rank m must be in [1, {n_b + 1}], got {m}")


def p_exact(n_b: int, n_t: int, m: int) -> Fraction:
    """P(final rank = m) from the alternating-sum closed form

        (1 + n_b) * sum_{k=0}^{m-1} (-1)^k (1+n_b-n_t+m-k)^(n_t-1)
                    (n_b-n_t+m-k)! / (k! (1+n_b-k)! (m-k-1)!),

    valid for 2 <= n_t <= n_b + 1 (:func:`full_distribution` covers the upper
    half through :func:`reflect_distribution`).
    Summands containing the factorial of a negative integer vanish; that
    convention makes the one formula cover every (n_t, m) corner.
    """
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if not 2 <= n_t <= n_b + 1:
        raise ValueError(f"p_exact: n_t must be in [2, {n_b + 1}], got {n_t}")
    _check_rank(n_b, m)
    total = Fraction(0)
    for k in range(m):
        d = n_b - n_t + m - k
        if d < 0:
            continue  # factorial of a negative integer: term vanishes
        term = Fraction(
            (d + 1) ** (n_t - 1) * factorial(d),
            factorial(k) * factorial(1 + n_b - k) * factorial(m - k - 1),
        )
        total += -term if k % 2 else term
    return (1 + n_b) * total


def p_middle(n_b: int, m: int) -> Fraction:
    """Middle-score (n_t = n_b + 1) rank probability: E(n_b, m-1) / n_b!.
    Zero at m = n_b + 1 (with the lowest scores taken, no competitor can be
    beaten by the whole fleet)."""
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    _check_rank(n_b, m)
    return Fraction(eulerian(n_b, m - 1), factorial(n_b))


def p_stirling_form(n_b: int, n_t: int, m: int) -> Fraction:
    """P(final rank = m) rewritten through diagonal Stirling counts:

        (1/n_b!) sum_{i=m}^{n_t-1} (-1)^(i+m) D(n_t, i) (1+n_b-i)! C(i-1, m-1)

    with D = :func:`~racerank.combinatorics.stirling_diagonal`.  Agrees with
    :func:`p_exact` on the whole shared domain.
    """
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if not 2 <= n_t <= n_b + 1:
        raise ValueError(f"p_stirling_form: n_t must be in [2, {n_b + 1}], got {n_t}")
    _check_rank(n_b, m)
    acc = 0
    for i in range(m, n_t):
        f = 1 + n_b - i
        if f < 0:
            continue
        term = stirling_diagonal(n_t, i) * factorial(f) * binomial(i - 1, m - 1)
        acc += -term if (i + m) % 2 else term
    return Fraction(acc, factorial(n_b))


def _assemble(n_b: int, n_t: int, low_form) -> RankDistribution:
    if not 2 <= n_t <= 2 * n_b + 1:
        raise ValueError(f"score n_t must be in [2, {2 * n_b + 1}], got {n_t}")
    if n_t > n_b + 1:
        return reflect_distribution(_assemble(n_b, 2 * n_b + 3 - n_t, low_form))
    return RankDistribution(
        n_b, n_t, tuple(low_form(n_b, n_t, m) for m in range(1, n_b + 2))
    )


def full_distribution(n_b: int, n_t: int) -> RankDistribution:
    """Exact final-rank distribution over m = 1..n_b+1 for any valid score
    2 <= n_t <= 2 n_b + 1; the entries sum to exactly 1."""
    return _assemble(n_b, n_t, p_exact)


def stirling_form_distribution(n_b: int, n_t: int) -> RankDistribution:
    """Same distribution as :func:`full_distribution`, assembled from
    :func:`p_stirling_form` instead (an independent algebraic route)."""
    return _assemble(n_b, n_t, p_stirling_form)


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

