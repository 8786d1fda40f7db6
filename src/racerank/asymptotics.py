"""Normal-limit formulas for the final rank when races and fleets are large.

With n_r races of n_b boats, a boat's score is a sum of n_r uniform ranks;
its fluctuation scale is lam = n_r n_b (1 + n_b) / 12.  Measuring scores
from the middle n_r (1 + n_b) / 2, the expected final rank of a competitor
with score n_t is n_b * Phi(centered / sqrt(lam)) to leading order, and the
rank variance carries a damping term coming from the negative correlations
between ranks within a race.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "AsymptoticParams",
    "RankMoments",
    "normal_cdf",
    "centered_score",
    "mean_final_rank",
    "variance_final_rank",
    "rank_moments_theory",
]


def normal_cdf(z: float) -> float:
    """Standard normal CDF, evaluated through erfc.  Absolute error is far
    below 1e-10 on [-8, 8]; the tests pin this against quadrature."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class AsymptoticParams:
    """Fleet/race geometry and the derived normal-limit constants."""

    n_b: int
    n_r: int

    def __post_init__(self) -> None:
        for name in ("n_b", "n_r"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.n_b < 1 or self.n_r < 1:
            raise ValueError("n_b and n_r must be >= 1")

    @property
    def middle_score(self) -> Fraction:
        """n_r (1 + n_b) / 2, kept exact (it may be a half-integer)."""
        return Fraction(self.n_r * (1 + self.n_b), 2)

    @property
    def lam(self) -> Fraction:
        """Score-variance scale n_r n_b (1 + n_b) / 12."""
        return Fraction(self.n_r * self.n_b * (1 + self.n_b), 12)


@dataclass(frozen=True)
class RankMoments:
    """Exact moments of the ranks handed out in one race (uniform random
    permutation of 1..n_b): per-boat mean and variance, and the covariance
    between two distinct boats' ranks."""

    mean: Fraction
    var_diag: Fraction
    cov_offdiag: Fraction


def rank_moments_theory(n_b: int) -> RankMoments:
    """mean (1+n_b)/2, variance (1+n_b)(n_b-1)/12, pair covariance
    -(1+n_b)/12.  The covariance row sum vanishes because the ranks in a
    race always total n_b (1+n_b) / 2 exactly."""
    n_b = operator.index(n_b)
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    return RankMoments(
        mean=Fraction(1 + n_b, 2),
        var_diag=Fraction((1 + n_b) * (n_b - 1), 12),
        cov_offdiag=Fraction(-(1 + n_b), 12),
    )


def centered_score(n_t: int, n_b: int, n_r: int) -> float:
    """Score measured from the middle: n_t - n_r (1 + n_b) / 2.  The score
    must lie in the attainable range [n_r, n_r * n_b]."""
    return _centered(AsymptoticParams(n_b, n_r), n_t)


def _centered(params: AsymptoticParams, n_t: int) -> float:
    n_b, n_r = params.n_b, params.n_r
    if not n_r <= n_t <= n_r * n_b:
        raise ValueError(f"score must be in [{n_r}, {n_r * n_b}], got {n_t}")
    return float(n_t - params.middle_score)


def _scaled_score(n_b: int, n_r: int, n_t: int) -> float:
    params = AsymptoticParams(n_b, n_r)
    return _centered(params, n_t) / math.sqrt(float(params.lam))


def mean_final_rank(n_b: int, n_r: int, n_t: int) -> float:
    """Leading-order expected final rank, n_b * Phi(centered / sqrt(lam));
    nondecreasing in n_t.  (Exact finite-fleet means sit about one rank
    higher: the final rank is 1 + #beaten and this keeps only the #beaten
    term.)"""
    return n_b * normal_cdf(_scaled_score(n_b, n_r, n_t))


def variance_final_rank(n_b: int, n_r: int, n_t: int) -> float:
    """Final-rank variance n_b * [Phi(z) Phi(-z) - exp(-z^2) / (2 pi)].

    The subtracted term is the squared normal density at z: the large-fleet
    limit of the negative rank correlations, which damp the variance below
    the independent-boats value n_b Phi(z) Phi(-z)."""
    z = _scaled_score(n_b, n_r, n_t)
    phi = normal_cdf(z)
    return n_b * (phi * (1.0 - phi) - math.exp(-z * z) / (2.0 * math.pi))
