"""The identity cross-checks behind ``racerank verify``.

Each entry of :data:`CHECKS` pits two routes that share no formula against
each other over every case up to a size bound: closed forms against
brute-force enumeration, Stirling forms against alternating sums, lattice
counts against special numbers, series coefficients against exact rows.
``quick`` and ``full`` differ only in those bounds.  Each check does its
work once per call: the two closed forms are compared as whole integer rows
n_b! * P(m), one row of each per (n_b, n_t), and the partition recurrence
counts each staircase size once, from a cache that lives only for that call.
"""

from __future__ import annotations

import functools
from typing import Callable

from . import combinatorics, lattice_oracle, series, two_race

__all__ = ["CHECKS", "run"]

_EULERIAN_ROWS = [
    [1],
    [1, 1],
    [1, 4, 1],
    [1, 11, 11, 1],
    [1, 26, 66, 26, 1],
    [1, 57, 302, 302, 57, 1],
    [1, 120, 1191, 2416, 1191, 120, 1],
]


def _eulerian_reference_ok(n_max: int) -> bool:
    return combinatorics.eulerian_triangle(n_max) == _EULERIAN_ROWS[:n_max]


def _row_properties_ok(n_max: int) -> bool:
    for n in range(1, n_max + 1):
        row = combinatorics.eulerian_triangle(n)[-1]
        if sum(row) != combinatorics.factorial(n) or row != row[::-1]:
            return False
    return True


def _stirling_diagonal_ok(n_max: int) -> bool:
    return all(
        combinatorics.stirling_diagonal(score, i)
        == combinatorics.stirling2(score - 1, score - i)
        for score in range(2, n_max + 1)
        for i in range(1, score)
    )


def _eulerian_from_stirling_ok(n_max: int) -> bool:
    return all(
        combinatorics.eulerian_from_stirling(n, k) == combinatorics.eulerian(n, k)
        for n in range(1, n_max + 1)
        for k in range(n)
    )


def _stirling_sum_ok(n_max: int) -> bool:
    return all(
        combinatorics.stirling_binomial_sum(n, k) == combinatorics.stirling2(n + 1, k + 1)
        for n in range(n_max + 1)
        for k in range(n + 1)
    )


def _forms_agree_ok(n_b_max: int) -> bool:
    # the two forms' whole shared domain, one integer row of each per
    # (n_b, n_t): both rows hold n_b! * P(m) over the one denominator n_b!, so
    # they are equal exactly when every entry is; the upper half is the same
    # reversed row for both routes, checked against enumeration below
    return all(
        two_race._alternating_row(n_b, n_t) == two_race._stirling_row(n_b, n_t)
        for n_b in range(1, n_b_max + 1)
        for n_t in range(2, n_b + 2)
    )


def _oracle_agrees_ok(n_b_max: int) -> bool:
    for n_b in range(1, n_b_max + 1):
        for n_t in range(2, 2 * n_b + 2):
            if two_race.full_distribution(n_b, n_t) != lattice_oracle.brute_force_two_race(n_b, n_t):
                return False
    return True


def _excedance_ok(n_max: int) -> bool:
    # the excedance statistic #{i : a(i) <= n - i} is the number of boats a
    # middle-score (n + 1) competitor loses to, so m - 1 carries its histogram;
    # the Eulerian row starts with 1, so the law's reduced counts are that row
    for n in range(1, n_max + 1):
        dist = lattice_oracle.brute_force_two_race(n, n + 1)
        if list(dist.counts) != combinatorics.eulerian_triangle(n)[-1] + [0]:
            return False
    return True


def _lattice_counts_ok(n_t_max: int) -> bool:
    for n_t in range(2, n_t_max + 1):
        for i in range(n_t - 1):
            if lattice_oracle.count_compatible_subsets(n_t, i) != combinatorics.stirling_diagonal(n_t, i + 1):
                return False
    return True


def _lattice_recurrence_ok(n_t_max: int) -> bool:
    # each (staircase, size) is counted once per call, though both sides read it
    count = functools.cache(lattice_oracle.count_compatible_subsets)
    for n_t in range(2, n_t_max + 1):
        for i in range(n_t - 1):
            rhs = sum(
                count(n_t - kp, i - kp) * combinatorics.binomial(n_t - 1, kp)
                for kp in range(i + 1)
                if n_t - kp >= 2
            )
            if count(n_t + 1, i) != rhs:
                return False
        if count(n_t + 1, n_t - 1) != 1:
            return False
    return True


def _series_rows_ok(order: int) -> bool:
    if series.eulerian_gf(order).rows[1:] != combinatorics.eulerian_triangle(order):
        return False
    second = series.second_gf_expand(order)
    for n_b in range(2, order + 1):
        dist = series.coefficient_to_distribution(second, n_b, n_t=n_b)
        if dist != two_race.full_distribution(n_b, n_b):
            return False
    return True


def _middle_identity_ok(n_b_max: int) -> bool:
    # n_b! P(m) = E(n_b, m - 1), and the row starts with 1, so it is the reduced counts
    return all(
        list(two_race.full_distribution(n_b, n_b + 1).counts)
        == combinatorics.eulerian_triangle(n_b)[-1] + [0]
        for n_b in range(1, n_b_max + 1)
    )


# (name, bound label, quick bound, full bound, check(bound) -> passed)
CHECKS: list[tuple[str, str, int, int, Callable[[int], bool]]] = [
    ("eulerian rows vs reference table", "n", 7, 7, _eulerian_reference_ok),
    ("eulerian row sums and palindrome", "n", 8, 12, _row_properties_ok),
    ("diagonal Stirling vs recurrence Stirling", "score", 8, 12, _stirling_diagonal_ok),
    ("Eulerian via Stirling transform", "n", 8, 10, _eulerian_from_stirling_ok),
    ("binomial-weighted Stirling sum", "n", 8, 12, _stirling_sum_ok),
    ("alternating-sum form vs Stirling form", "n_b", 6, 8, _forms_agree_ok),
    ("closed form vs brute-force enumeration", "n_b", 5, 7, _oracle_agrees_ok),
    ("excedance histogram vs Eulerian rows", "n", 6, 8, _excedance_ok),
    ("lattice subset counts vs diagonal Stirling", "score", 6, 8, _lattice_counts_ok),
    ("lattice partition recurrence", "score", 6, 8, _lattice_recurrence_ok),
    ("generating-function rows vs exact rows", "order", 8, 12, _series_rows_ok),
    ("middle-score identity", "n_b", 8, 10, _middle_identity_ok),
]


def run(level: str) -> list[dict]:
    """Run every check at ``level`` ("quick" or "full"), in table order; one
    ``{"name", "scope", "ok"}`` record per check."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    outcomes = []
    for name, label, quick, full, check in CHECKS:
        bound = full if level == "full" else quick
        outcomes.append({"name": name, "scope": f"{label} <= {bound}", "ok": bool(check(bound))})
    return outcomes
