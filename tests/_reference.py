"""Plain reference definitions of the Monte Carlo ranking rule.

``racerank.montecarlo`` ranks raw Philox words as integer keys and scatters
ranks through flat indices.  The functions here state the same rule the
obvious way, through doubles, ``np.argsort`` and ``np.put_along_axis``, so
the tests can require the kernel to match them bit for bit.
"""

from __future__ import annotations

import numpy as np

from racerank.montecarlo import _philox_key


def trial_uniforms(
    seed: int, stream: int, first_trial: int, n_trials: int, per_trial: int
) -> np.ndarray:
    """Uniform doubles for trials [first_trial, first_trial + n_trials),
    shape (n_trials, per_trial).

    Trial t always reads the same counter blocks (4 raw words per block,
    padding wasted when per_trial is not a multiple of 4), so any split of
    a run into separate calls returns identical rows.
    """
    if n_trials == 0:
        return np.empty((0, per_trial))
    blocks = -(-per_trial // 4)
    bitgen = np.random.Philox(key=_philox_key(seed, stream), counter=first_trial * blocks)
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
