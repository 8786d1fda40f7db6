"""Exact special-number engines: factorials, binomials, Eulerian numbers and
Stirling numbers of the second kind, plus the identities tying them together.

Everything returns exact Python ints.  Each size has a budget, a module
constant checked before any product is taken or row is built; the triangle
caches grow on demand and never beyond the deepest row requested.
"""

from __future__ import annotations

import math
import operator

__all__ = [
    "factorial",
    "binomial",
    "eulerian",
    "eulerian_triangle",
    "stirling2",
    "stirling_triangle",
    "stirling_diagonal",
    "eulerian_from_stirling",
    "stirling_binomial_sum",
]


# Largest n for which factorial(n) and binomial(n, k) are computed; larger n
# is refused before any product is taken.  Measured on a 2-vCPU Xeon (Python
# 3.11.7): factorial(10^5) ~0.16 s and C(10^5, 5*10^4) ~0.14 s, against
# ~13 s for factorial(10^6).  two_race reads at most factorial(n_b), so at
# most 450! under two_race.EXACT_N_B_BUDGET.
FACTORIAL_BUDGET = 10**5


def _check_n(n: int) -> None:
    if n > FACTORIAL_BUDGET:
        raise ValueError(
            f"n = {n} exceeds the factorial budget {FACTORIAL_BUDGET} "
            "(combinatorics.FACTORIAL_BUDGET)"
        )


def factorial(n: int) -> int:
    """n! with 0! = 1; rejects negative n and n above ``FACTORIAL_BUDGET``."""
    if n < 0:
        raise ValueError(f"factorial: n must be >= 0, got {n}")
    _check_n(n)
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), defined as 0 whenever k < 0, k > n or n < 0.

    The zero convention lets the alternating sums below run over their full
    index range without boundary special cases.  Past those zeros, n above
    ``FACTORIAL_BUDGET`` is refused before the coefficient is computed.
    """
    n, k = operator.index(n), operator.index(k)
    if n < 0 or k < 0 or k > n:
        return 0
    _check_n(n)
    return math.comb(n, k)


# Deepest triangle row built or read; larger n is rejected before any row is
# built, because cached rows stay until exit and their size grows faster than
# n^3.  Measured with tracemalloc (Python 3.11.7), both triangles to row 500
# hold ~63 MB (Eulerian ~38 MB, Stirling ~25 MB); two_race reads only the
# Stirling triangle, one row S(n_t - 1, .) per Stirling-form row: ~18 MB to
# row 450, the deepest it reaches under two_race.EXACT_N_B_BUDGET.
TRIANGLE_ROW_BUDGET = 500

# Rows cached incrementally, row n at index n in both triangles: Eulerian row
# n holds E(n, k) for k = 0..n-1 (row 0 is E(0, 0) = 1), Stirling row n holds
# S(n, k) for k = 0..n.  Cached rows are shared, so no reader mutates one.
_eulerian_rows: list[list[int]] = [[1]]
_stirling_rows: list[list[int]] = [[1]]


def _check_row(n: int) -> None:
    if n > TRIANGLE_ROW_BUDGET:
        raise ValueError(
            f"row n = {n} exceeds the triangle budget {TRIANGLE_ROW_BUDGET} "
            "(combinatorics.TRIANGLE_ROW_BUDGET)"
        )


def _grown(rows: list[list[int]], n: int, weights) -> list[int]:
    """Row n of a cached triangle T(m, k) = a_k T(m-1, k) + b_k T(m-1, k-1),
    each new row grown from row m - 1 zero-padded at either end; ``weights(m)``
    gives row m's sequences a, b: a_k = k + 1, b_k = m - k for k < m
    (Eulerian), a_k = k, b_k = 1 for k <= m (Stirling)."""
    n = operator.index(n)
    _check_row(n)
    while len(rows) <= n:
        prev = rows[-1]
        a, b = weights(len(rows))
        rows.append([p * x + q * y for p, q, x, y in zip(a, b, prev + [0], [0] + prev)])
    return rows[n]


def _eulerian_row(n: int) -> list[int]:
    return _grown(_eulerian_rows, n, lambda m: (range(1, m + 1), range(m, 0, -1)))


def _stirling_row(n: int) -> list[int]:
    return _grown(_stirling_rows, n, lambda m: (range(m + 1), [1] * (m + 1)))


def eulerian(n: int, k: int) -> int:
    """Eulerian number E(n, k): permutations of 1..n with exactly k ascents
    (equivalently, k excedances).  0 outside 0 <= k < n; requires n >= 1.

    Computed by the two-term recurrence
    E(n, k) = (k + 1) E(n-1, k) + (n - k) E(n-1, k-1), E(0, 0) = 1.
    """
    n, k = operator.index(n), operator.index(k)
    if n < 1:
        raise ValueError(f"eulerian: n must be >= 1, got {n}")
    if k < 0 or k >= n:
        return 0
    return _eulerian_row(n)[k]


def eulerian_triangle(n_max: int) -> list[list[int]]:
    """Rows 1..n_max of the Eulerian triangle; row n is E(n, 0..n-1)."""
    if n_max < 1:
        raise ValueError(f"eulerian_triangle: n_max must be >= 1, got {n_max}")
    _eulerian_row(n_max)
    return [list(row) for row in _eulerian_rows[1 : n_max + 1]]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k): partitions of an n-set
    into k nonempty blocks.  0 outside 0 <= k <= n; S(0, 0) = 1.

    Computed by S(n, k) = k S(n-1, k) + S(n-1, k-1).
    """
    n, k = operator.index(n), operator.index(k)
    if n < 0:
        raise ValueError(f"stirling2: n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return _stirling_row(n)[k]


def stirling_triangle(n_max: int) -> list[list[int]]:
    """Rows 1..n_max of the Stirling triangle; row n is S(n, 1..n)."""
    if n_max < 1:
        raise ValueError(f"stirling_triangle: n_max must be >= 1, got {n_max}")
    _stirling_row(n_max)
    return [row[1:] for row in _stirling_rows[1 : n_max + 1]]


def stirling_diagonal(score: int, i: int) -> int:
    """Stirling count in diagonal indexing: the number of ways to place
    i - 1 mutually non-attacking rooks strictly below the lattice diagonal
    x + y = score; equals ``stirling2(score - 1, score - i)``.

    Evaluated from the explicit alternating sum

        (1 / (score-1-i)!) * sum_{j=1}^{score-i}
            j^(score-2) * (-1)^(score-i-j) * C(score-1-i, j-1)

    which is independent of the recurrence behind :func:`stirling2`, so the
    two routes can cross-check each other.  Requires 1 <= i <= score - 1,
    and score - 1 within ``TRIANGLE_ROW_BUDGET`` like the Stirling row the
    value belongs to.
    """
    if score < 2:
        raise ValueError(f"stirling_diagonal: score must be >= 2, got {score}")
    _check_row(score - 1)
    if not 1 <= i <= score - 1:
        raise ValueError(f"stirling_diagonal: i must be in [1, {score - 1}], got {i}")
    acc = 0
    for j in range(1, score - i + 1):
        term = j ** (score - 2) * binomial(score - 1 - i, j - 1)
        acc += -term if (score - i - j) % 2 else term
    quotient, remainder = divmod(acc, factorial(score - 1 - i))
    if remainder:
        raise ArithmeticError("stirling_diagonal: alternating sum not divisible")
    return quotient


def eulerian_from_stirling(n: int, k: int) -> int:
    """E(n, k) through the Stirling transform

        sum_{j=1}^{k+1} (-1)^(k-j+1) * C(n-j, n-k-1) * j! * S(n, j),

    an independent route to the same triangle as :func:`eulerian`.
    Requires 0 <= k <= n - 1.
    """
    if n < 1:
        raise ValueError(f"eulerian_from_stirling: n must be >= 1, got {n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"eulerian_from_stirling: k must be in [0, {n - 1}], got {k}")
    row = _stirling_row(n)  # refused past the budget before any binomial is taken
    acc = 0
    for j in range(1, k + 2):
        term = binomial(n - j, n - k - 1) * factorial(j) * row[j]
        acc += -term if (k - j + 1) % 2 else term
    return acc


def stirling_binomial_sum(n: int, k: int) -> int:
    """The binomial-weighted Stirling sum  sum_{j=k}^{n} S(j, k) * C(n, j),
    which collapses to S(n+1, k+1).  Returned from the sum itself so tests
    can pit it against the recurrence value.  Requires 0 <= k <= n.
    """
    if not 0 <= k <= n:
        raise ValueError(f"stirling_binomial_sum: k must be in [0, {n}], got {k}")
    _check_row(n)  # the sum reads rows k..n; refuse before it builds row k
    return sum(stirling2(j, k) * binomial(n, j) for j in range(k, n + 1))
