"""One corruption table over ``racerank.checks.CHECKS``.

``CHECKS`` is the one statement of each cross-route identity: ``racerank
verify`` runs it at either level, and tier-1 runs every entry at its
``full`` bound (acceptance gates 02-08 and the ``verify --level full``
tests).  An entry only earns that place if it can fail, so each row here
corrupts one route and pins the exact list of checks that
``checks.run("quick")`` then reports failed.  Every entry is the
target of at least one row; a new entry without one fails
``test_every_check_has_a_corruption_row``.  The last four tests pin the
work of the checks that could repeat it: each row pair, each fleet's
enumeration and each staircase is built or walked once per call, and again
in the next run.
"""

import functools
from collections import Counter

import pytest

from _doubles import record
from racerank import checks, combinatorics, lattice_oracle, series, two_race
from racerank.two_race import RankDistribution


def _plus_one_at(at):
    """The real count, plus one where the arguments equal ``at``."""

    def corrupt(real):
        return lambda *args: real(*args) + (args == at)

    return corrupt


def _reversed_at(n_b, n_t):
    """The real distribution route, with the (n_b, n_t) row reversed, in a
    route that returns one law or in one that returns a list of them."""

    def reverse(d):
        if (d.n_b, d.n_t) == (n_b, n_t):
            return RankDistribution(n_b, n_t, d.counts[::-1], d.total)
        return d

    def corrupt(real):
        def wrong(*args, **kwargs):
            laws = real(*args, **kwargs)
            return list(map(reverse, laws)) if isinstance(laws, list) else reverse(laws)

        return wrong

    return corrupt


def _entry_plus_one_at(at, m):
    """The real integer row, plus one at entry m where the arguments equal
    ``at``; a copy is corrupted, so a cached row stays as it was."""

    def corrupt(real):
        def wrong(*args):
            row = real(*args)
            if args == at:
                row = [*row[: m - 1], row[m - 1] + 1, *row[m:]]
            return row

        return wrong

    return corrupt


def _triangle_row_changed(n, change):
    """The real Eulerian triangle, with row n replaced by ``change(row)``."""

    def corrupt(real):
        def wrong(n_max):
            rows = real(n_max)
            if n_max >= n:
                rows[n - 1] = change(rows[n - 1])
            return rows

        return wrong

    return corrupt


@functools.cache
def _self_consistent_counts(n_t):
    # the row [2] of staircase 2 carried through the partition recurrence
    if n_t == 2:
        return [2]
    return [
        sum(
            _self_consistent_counts(n_t - kp - 1)[size - kp] * combinatorics.binomial(n_t - 2, kp)
            for kp in range(size + 1)
        )
        for size in range(n_t - 2)
    ] + [1]


_TRIANGLE = [(combinatorics, "eulerian_triangle")]
_ENUMERATION = [(lattice_oracle, "brute_force_two_race")]
_SCORE_LAWS = [(lattice_oracle, "_score_laws")]
_COUNTS = [(lattice_oracle, "count_compatible_subsets")]

# row -> (target check, patched attributes, corruption of the real function,
#         checks failed at quick, in table order)
ROWS = {
    "triangle_row_4": (
        "eulerian rows vs reference table",
        _TRIANGLE,
        _triangle_row_changed(4, lambda row: [1, 11, 12, 1]),
        [
            "eulerian rows vs reference table",
            "eulerian row sums and palindrome",
            "excedance histogram vs Eulerian rows",
            "generating-function rows vs exact rows",
            "middle-score identity",
        ],
    ),
    # row 8 lies beyond the reference table and the excedance check's scope
    "triangle_row_8_swapped": (
        "eulerian row sums and palindrome",
        _TRIANGLE,
        _triangle_row_changed(8, lambda row: [row[1], row[0], *row[2:]]),
        [
            "eulerian row sums and palindrome",
            "generating-function rows vs exact rows",
            "middle-score identity",
        ],
    ),
    "stirling_diagonal": (
        "diagonal Stirling vs recurrence Stirling",
        [(combinatorics, "stirling_diagonal")],
        _plus_one_at((8, 3)),
        ["diagonal Stirling vs recurrence Stirling"],
    ),
    "eulerian_from_stirling": (
        "Eulerian via Stirling transform",
        [(combinatorics, "eulerian_from_stirling")],
        _plus_one_at((5, 2)),
        ["Eulerian via Stirling transform"],
    ),
    "stirling_binomial_sum": (
        "binomial-weighted Stirling sum",
        [(combinatorics, "stirling_binomial_sum")],
        _plus_one_at((6, 2)),
        ["binomial-weighted Stirling sum"],
    ),
    # a wrong triangle entry, S(4, 2) as entry 3 of Stirling row 4, reaching
    # the Stirling rows through the public stirling_form_distribution; the
    # alternating sum and the enumeration still agree
    "stirling_weight": (
        "alternating-sum form vs Stirling form",
        [(two_race, "_stirling_numbers")],
        _entry_plus_one_at((4,), 3),
        ["alternating-sum form vs Stirling form"],
    ),
    # the alternating side of the same check: n_b = 6 lies beyond the oracle
    # check's quick scope (n_b <= 5), and n_t = 4 is neither the series
    # check's n_t = n_b nor the middle score, so no other check builds it
    "alternating_entry": (
        "alternating-sum form vs Stirling form",
        [(two_race, "_alternating_row")],
        _entry_plus_one_at((6, 4), 2),
        ["alternating-sum form vs Stirling form"],
    ),
    # a score below the middle, which the excedance check never enumerates;
    # the oracle check reads every score of a fleet from one _score_laws call
    "enumeration_below_middle": (
        "closed form vs brute-force enumeration",
        _SCORE_LAWS,
        _reversed_at(3, 3),
        ["closed form vs brute-force enumeration"],
    ),
    # a middle score beyond the oracle check's quick scope (n_b <= 5)
    "enumeration_at_middle": (
        "excedance histogram vs Eulerian rows",
        _ENUMERATION,
        _reversed_at(6, 7),
        ["excedance histogram vs Eulerian rows"],
    ),
    # the wrong table passes the recurrence check, and only the comparison
    # with the diagonal Stirling numbers can see it (both read the same
    # staircases)
    "self_consistent_counts": (
        "lattice subset counts vs diagonal Stirling",
        _COUNTS,
        lambda real: _self_consistent_counts,
        ["lattice subset counts vs diagonal Stirling"],
    ),
    # staircase 7 lies beyond the subset-count check's quick scope (score <= 6):
    # a recurrence entry (2 rooks), then the full placement (5 rooks)
    "count_row": (
        "lattice partition recurrence",
        _COUNTS,
        _entry_plus_one_at((7,), 3),
        ["lattice partition recurrence"],
    ),
    "count_full_placement": (
        "lattice partition recurrence",
        _COUNTS,
        _entry_plus_one_at((7,), 6),
        ["lattice partition recurrence"],
    ),
    # coefficient_to_distribution is read only by the second-series loop
    "second_series_row": (
        "generating-function rows vs exact rows",
        [(series, "coefficient_to_distribution")],
        _reversed_at(4, 4),
        ["generating-function rows vs exact rows"],
    ),
    # a middle-score law beyond the oracle check's quick scope (n_b <= 5),
    # which the series check (n_t = n_b) never reads
    "middle_score_law": (
        "middle-score identity",
        [(two_race, "full_distribution")],
        _reversed_at(7, 8),
        ["middle-score identity"],
    ),
}


def test_every_check_has_a_corruption_row():
    names = [name for name, *_ in checks.CHECKS]
    assert sorted({target for target, *_ in ROWS.values()}) == sorted(names)
    for target, _, _, failed in ROWS.values():
        assert target in failed


@pytest.mark.parametrize("row", ROWS)
def test_corruption_fails_exactly_the_pinned_checks(monkeypatch, row):
    _, attributes, corrupt, failed = ROWS[row]
    for module, name in attributes:
        monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    assert [c["name"] for c in checks.run("quick") if not c["ok"]] == failed


# the work of one call at the full bound: each (n_b, n_t) row of each form,
# one two-race enumeration of each fleet n_b <= 7 over its scores
# 2..2 n_b + 1, one walk of each staircase 2..8 that the subset-count check
# compares, and one of each staircase 2..9, whose row n_t + 1 the recurrence
# check reads against the rows below it
_FORMS_ROWS = Counter({(n_b, n_t): 1 for n_b in range(1, 9) for n_t in range(2, n_b + 2)})
_ORACLE_WALKS = Counter({(n_b, 1, tuple(range(2, 2 * n_b + 2))): 1 for n_b in range(1, 8)})
_COUNT_WALKS = Counter({(n_t,): 1 for n_t in range(2, 9)})
_RECURRENCE_WALKS = Counter({(n_t,): 1 for n_t in range(2, 10)})


def _walk(fixed, races, thresholds):
    # a walk of lattice_oracle._rank_law, by (boats, races, thresholds)
    return len(fixed), len(races), tuple(thresholds)


def test_forms_check_builds_each_row_pair_once(monkeypatch):
    alternating = record(monkeypatch, two_race, "_alternating_row")
    stirling = record(monkeypatch, two_race, "_stirling_row")
    law = record(monkeypatch, two_race, "stirling_form_distribution")
    assert checks._forms_agree_ok(8)
    assert len(_FORMS_ROWS) == 36
    assert alternating == stirling == _FORMS_ROWS
    assert not law


def test_oracle_check_enumerates_each_fleet_once(monkeypatch):
    walks = record(monkeypatch, lattice_oracle, "_rank_law", key=_walk)
    assert checks._oracle_agrees_ok(7)
    assert len(_ORACLE_WALKS) == 7
    assert walks == _ORACLE_WALKS


def test_lattice_checks_walk_each_staircase_once(monkeypatch):
    walks = record(monkeypatch, lattice_oracle, "count_compatible_subsets")
    assert checks._lattice_counts_ok(8)
    assert walks == _COUNT_WALKS
    walks.clear()
    assert checks._lattice_recurrence_ok(8)
    assert walks == _RECURRENCE_WALKS


def test_checks_keep_nothing_between_runs(monkeypatch):
    work = [
        record(monkeypatch, two_race, "_alternating_row"),
        record(monkeypatch, two_race, "_stirling_row"),
        record(monkeypatch, lattice_oracle, "count_compatible_subsets"),
        record(monkeypatch, lattice_oracle, "_rank_law", key=_walk),
    ]
    per_run = []
    for _ in range(2):
        assert all(c["ok"] for c in checks.run("full"))
        per_run.append([calls.copy() for calls in work])
        for calls in work:
            calls.clear()
    assert per_run[0] == per_run[1]
    alternating, stirling, staircases, walks = per_run[1]
    assert _FORMS_ROWS.keys() <= alternating.keys()
    assert _FORMS_ROWS.keys() <= stirling.keys()
    # the two lattice checks are the only readers of the staircases
    assert staircases == _COUNT_WALKS + _RECURRENCE_WALKS
    assert _ORACLE_WALKS.keys() <= walks.keys()
