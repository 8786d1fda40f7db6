"""Plain reference definitions the library's fast paths are tested against.

``racerank.montecarlo`` ranks raw Philox words as integer keys and scatters
ranks through flat indices.  The functions here state the same rule the
obvious way, through doubles, ``np.argsort`` and ``np.put_along_axis``, so
the tests can require the kernel to match them bit for bit.

``racerank.two_race`` builds each closed form as one integer row over n_b!.
The ``p_*_terms`` functions here evaluate one entry of each form term by term
in ``Fraction`` arithmetic, straight from the formula, so the tests can
require every row entry to equal them exactly.  The Stirling weights here come
from the explicit alternating sum ``stirling_diagonal``, the rows' from the
``stirling2`` recurrence triangle, so the two share no Stirling engine.

``alternating_row_by_recurrence`` shares no arithmetic with ``two_race``:
it builds the alternating row as one polynomial, by a recurrence in the
operator x d/dx that its docstring derives, with no b_j, no binomial and no
difference.  So the tests require it to equal the library row in either of
``two_race``'s evaluation orders, at sizes up to the exact-row budget, where
the term-by-term ``Fraction`` references are too slow.
``alternating_row_by_convolution`` and ``stirling_row_by_binomial_sums``
are the rows' earlier evaluations, kept verbatim but for the budget check:
each row entry as its own sum of products with binomial coefficients.  They
share the library rows' formulas and Stirling triangle, but the Stirling row
evaluates by Horner's rule, so the two evaluation orders must give equal
integers; the convolution also computes the entries past the band, which
the library row never builds.

``moments_by_fraction_sums`` is the earlier evaluation of
``racerank.two_race.distribution_moments``: one ``Fraction`` term per rank,
where the library sums integer counts and divides once.

``pooled_chi2`` is Pearson's goodness-of-fit test of sampled rank counts
against an exact law, its survival function from ``mpmath`` (scipy is not a
dependency).  ``binwise_ok`` is the per-rank check of sampled frequencies
against an exact law, each bin within 4 binomial standard errors.

``EULERIAN_ROWS`` and ``SECOND_GF_ROWS`` are the tests' one copy of the
paper's printed tables, as the integer rows n! [x^n] that a
``racerank.series.SeriesX`` holds.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, inf, sqrt
from operator import mul

import mpmath
import numpy as np

from racerank.combinatorics import binomial, factorial, stirling2, stirling_diagonal

# the seed of every seeded test run
SEED = 20260809

# Eulerian rows 1..7; row 7 is the palindromic completion of the truncated
# printed row: 7 entries, sum 7!
EULERIAN_ROWS = [
    [1],
    [1, 1],
    [1, 4, 1],
    [1, 11, 11, 1],
    [1, 26, 66, 26, 1],
    [1, 57, 302, 302, 57, 1],
    [1, 120, 1191, 2416, 1191, 120, 1],
]

# n! [x^n] of the second generating function, n = 2..6; over n!/2 the rows
# read 1; 2, 1; 4, 7, 1; 8, 33, 18, 1; 16, 131, 171, 41, 1 from y^1 on
SECOND_GF_ROWS = {
    2: [0, 2],
    3: [0, 4, 2],
    4: [0, 8, 14, 2],
    5: [0, 16, 66, 36, 2],
    6: [0, 32, 262, 342, 82, 2],
}


def trial_uniforms(
    seed: int, stream: int, first_trial: int, n_trials: int, per_trial: int
) -> np.ndarray:
    """Uniform doubles for trials [first_trial, first_trial + n_trials),
    shape (n_trials, per_trial).

    The run is keyed ``seed + (stream << 64)``, and trial t always reads
    the same counter blocks (4 raw words per block, padding wasted when
    per_trial is not a multiple of 4), so any split of a run into separate
    calls returns identical rows.
    """
    if n_trials == 0:
        return np.empty((0, per_trial))
    blocks = -(-per_trial // 4)
    bitgen = np.random.Philox(key=seed + (stream << 64), counter=first_trial * blocks)
    raw = bitgen.random_raw(n_trials * blocks * 4)
    u = (raw >> np.uint64(11)) * 2.0**-53
    return u.reshape(n_trials, blocks * 4)[:, :per_trial]


def inverse_orders(orders: np.ndarray) -> np.ndarray:
    """Invert row orders along the last axis: position orders[..., k]
    receives rank k + 1 (int32)."""
    ranks = np.empty(orders.shape, dtype=np.int32)
    width = orders.shape[-1]
    np.put_along_axis(ranks, orders, np.arange(1, width + 1, dtype=np.int32), axis=-1)
    return ranks


def rank_rows(u: np.ndarray) -> np.ndarray:
    """Each row of iid uniforms becomes a uniform random permutation of
    1..n: position j receives the rank of u[j] within its row."""
    return inverse_orders(np.argsort(u, axis=-1, kind="stable"))


def p_exact_terms(n_b: int, n_t: int, m: int) -> Fraction:
    """P(rank = m), 2 <= n_t <= n_b + 1, from the alternating sum
    (1 + n_b) sum_{k<m} (-1)^k (d+1)^(n_t-1) d! / (k! (1+n_b-k)! (m-k-1)!)
    with d = n_b - n_t + m - k, one Fraction per term."""
    total = Fraction(0)
    for k in range(m):
        d = n_b - n_t + m - k
        term = Fraction(
            (d + 1) ** (n_t - 1) * factorial(d),
            factorial(k) * factorial(1 + n_b - k) * factorial(m - k - 1),
        )
        total += -term if k % 2 else term
    return (1 + n_b) * total


def p_stirling_terms(n_b: int, n_t: int, m: int) -> Fraction:
    """P(rank = m), 2 <= n_t <= n_b + 1, from the diagonal-Stirling form
    (1/n_b!) sum_{i=m}^{n_t-1} (-1)^(i+m) D(n_t, i) (1+n_b-i)! C(i-1, m-1),
    recomputing D for every entry."""
    acc = 0
    for i in range(m, n_t):
        term = stirling_diagonal(n_t, i) * factorial(1 + n_b - i) * binomial(i - 1, m - 1)
        acc += -term if (i + m) % 2 else term
    return Fraction(acc, factorial(n_b))


def alternating_row_by_convolution(n_b: int, n_t: int) -> list[int]:
    """n_b! * P(m) for m = 1..n_b+1 from the alternating sum, 2 <= n_t <= n_b+1.

    With e = n_b - n_t + 1 >= 0 and j = m - 1 - k the sum is one convolution
    n_b! P(m) = sum_{j<m} (-1)^(m-1-j) C(n_b+1, m-1-j) b_j of the integers
    b_j = (e+1+j)^(n_t-1) (e+j)! / j!.
    """
    e = n_b - n_t + 1
    signed_binomials = [(-1) ** k * comb(n_b + 1, k) for k in range(n_b + 1)]
    b = [(e + 1 + j) ** (n_t - 1) * (factorial(e + j) // factorial(j)) for j in range(n_b + 1)]
    return [sum(map(mul, signed_binomials[m - 1 :: -1], b)) for m in range(1, n_b + 2)]


def alternating_row_by_recurrence(n_b: int, n_t: int) -> list[int]:
    """n_b! * P(m) for m = 1..n_b+1 from the alternating sum, 2 <= n_t <= n_b+1,
    by a polynomial recurrence.

    With e = n_b - n_t + 1 and theta = x d/dx, the row's b_j =
    (e+1+j)^(n_t-1) (e+j)!/j! have sum_j b_j x^j =
    e! (theta + e + 1)^(n_t-1) (1 - x)^-(e+1).  Each theta + e + 1 step
    keeps the form (1 - x)^-(e+1+k) p_k(x), from p_0 = 1 by

        p_{k+1}[i] = (e + 1 + i) p_k[i] + (k + 1 - i) p_k[i - 1],

    so after k = n_t - 1 steps (1 - x)^(n_b+1), the library row's factor,
    cancels the whole power and the row is e! p followed by zeros.  At the
    middle score (e = 0) this is the Eulerian recurrence.
    """
    e = n_b - n_t + 1
    p = [1]
    for k in range(n_t - 1):
        p = [
            (e + 1 + i) * c + (k + 1 - i) * below
            for i, (c, below) in enumerate(zip(p + [0], [0] + p))
        ]
    return [factorial(e) * c for c in p] + [0] * (n_b + 1 - len(p))


def stirling_row_by_binomial_sums(n_b: int, n_t: int) -> list[int]:
    """n_b! * P(m) for m = 1..n_b+1 from the diagonal-Stirling form,
    2 <= n_t <= n_b+1.  The weights (-1)^i D(n_t, i) (1+n_b-i)! are computed
    once per row, D(n_t, i) = S(n_t-1, n_t-i) read from the cached Stirling
    triangle; entries with m >= n_t are empty sums."""
    signed_weights = [
        (-1) ** i * stirling2(n_t - 1, n_t - i) * factorial(1 + n_b - i) for i in range(1, n_t)
    ]
    return [
        (-1) ** m * sum(signed_weights[i - 1] * comb(i - 1, m - 1) for i in range(m, n_t))
        for m in range(1, n_b + 2)
    ]


def moments_by_fraction_sums(probs) -> tuple[Fraction, Fraction]:
    """(mean, variance) of a rank law given as P(m) for m = 1, 2, ..., summed
    one Fraction term at a time."""
    mean = sum((p * m for m, p in enumerate(probs, start=1)), Fraction(0))
    second = sum((p * m * m for m, p in enumerate(probs, start=1)), Fraction(0))
    return mean, second - mean * mean


def pooled_chi2(counts, probs, floor: float = 5) -> tuple[float, int, float]:
    """(chi^2, df, p) of Pearson's test of rank ``counts`` against the law
    ``probs`` (P(m) for m = 1, 2, ...).  Adjacent ranks are pooled left to
    right until each pool expects at least ``floor`` trials, and a last pool
    that expects fewer joins the one before; df is the number of pools less
    one.  A count at a rank of probability 0 makes chi^2 infinite, so no
    pool hides an impossible rank."""
    trials = sum(counts)
    pools = []  # [observed, expected] per pool
    for c, p in zip(counts, probs, strict=True):
        if not pools or pools[-1][1] >= floor:
            pools.append([0, 0.0])
        pools[-1][0] += c
        pools[-1][1] += float(trials * p)
    if len(pools) > 1 and pools[-1][1] < floor:
        observed, expected = pools.pop()
        pools[-1][0] += observed
        pools[-1][1] += expected
    if any(c and not p for c, p in zip(counts, probs)):
        chi2 = inf
    else:
        chi2 = sum((o - e) ** 2 / e for o, e in pools)
    df = len(pools) - 1
    return chi2, df, float(mpmath.gammainc(df / 2, chi2 / 2, mpmath.inf, regularized=True))


def binwise_ok(empirical, exact, trials: int) -> bool:
    """Whether every sampled frequency ``empirical[m - 1]`` lies within 4
    binomial standard errors of the exact P(m) ``exact[m - 1]`` over
    ``trials`` trials; a standard error below 1e-12 counts as 1e-12."""
    for p_hat, p in zip(empirical, exact):
        se = sqrt(p_hat * (1 - p_hat) / trials)
        if abs(p_hat - float(p)) > 4 * max(se, 1e-12):
            return False
    return True
