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
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from racerank.combinatorics import binomial, factorial, stirling_diagonal


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
