"""Every argument check the other tests never reach refuses with its message.

The ``… budget`` rows repeat calls of the table in ``tests/test_budgets.py``,
which also blocks the builders and covers every path to each budget."""

import pytest

from racerank import (
    AsymptoticParams,
    RankDistribution,
    SimConfig,
    binomial,
    brute_force_composition,
    brute_force_score,
    brute_force_two_race,
    coefficient_to_distribution,
    count_compatible_subsets,
    curve_sweep,
    empirical_rank_moments,
    eulerian,
    eulerian_from_stirling,
    eulerian_gf,
    eulerian_triangle,
    factorial,
    full_distribution,
    mean_final_rank,
    middle_band_grid,
    rank_moments_theory,
    second_gf_expand,
    stirling2,
    stirling_binomial_sum,
    stirling_form_distribution,
    stirling_triangle,
    variance_final_rank,
)
from racerank import checks, combinatorics, two_race

REFUSALS = {
    "rank_moments_theory": (lambda: rank_moments_theory(0), "n_b must be >= 1, got 0"),
    "eulerian_triangle": (
        lambda: eulerian_triangle(0), "eulerian_triangle: n_max must be >= 1, got 0"
    ),
    "factorial budget": (
        lambda: factorial(10**6),
        "n = 1000000 exceeds the factorial budget 100000 (combinatorics.FACTORIAL_BUDGET)",
    ),
    "binomial budget": (
        lambda: binomial(300000, 150000),
        "n = 300000 exceeds the factorial budget 100000 (combinatorics.FACTORIAL_BUDGET)",
    ),
    "stirling2": (lambda: stirling2(-1, 0), "stirling2: n must be >= 0, got -1"),
    "stirling_triangle": (
        lambda: stirling_triangle(0), "stirling_triangle: n_max must be >= 1, got 0"
    ),
    "eulerian_from_stirling": (
        lambda: eulerian_from_stirling(0, 0), "eulerian_from_stirling: n must be >= 1, got 0"
    ),
    "stirling_binomial_sum": (
        lambda: stirling_binomial_sum(2, 3), "stirling_binomial_sum: k must be in [0, 2], got 3"
    ),
    "count_compatible_subsets n_t": (
        lambda: count_compatible_subsets(1), "n_t must be >= 2, got 1"
    ),
    # one recursion level per staircase row: 1498 rows raised RecursionError
    "count_compatible_subsets budget": (
        lambda: count_compatible_subsets(1500),
        "enumeration needs 1499! configurations, budget is 100000000 "
        "(lattice_oracle.DEFAULT_BUDGET)",
    ),
    # 300000! was multiplied out (1.15 s) and then failed to print
    "brute_force_two_race budget": (
        lambda: brute_force_two_race(300000, 3),
        "enumeration needs 300000! configurations, budget is 100000000 "
        "(lattice_oracle.DEFAULT_BUDGET)",
    ),
    "brute_force_score budget": (
        lambda: brute_force_score(6, 5, 12),
        "enumeration needs (6!)^4 configurations, budget is 100000000 "
        "(lattice_oracle.DEFAULT_BUDGET)",
    ),
    "brute_force_composition budget": (
        lambda: brute_force_composition(1000, (1, 2, 3)),
        "enumeration needs (999!)^3 configurations, budget is 100000000 "
        "(lattice_oracle.DEFAULT_BUDGET)",
    ),
    "brute_force_composition n_b": (
        lambda: brute_force_composition(0, (1,)), "n_b must be >= 1, got 0"
    ),
    "brute_force_composition races": (
        lambda: brute_force_composition(3, ()), "need at least one race"
    ),
    "brute_force_score": (lambda: brute_force_score(3, 0, 2), "n_r must be >= 1, got 0"),
    "SimConfig": (
        lambda: SimConfig(n_b=3, n_r=0, trials=10, seed=1, n_t=4), "n_r must be >= 1"
    ),
    # every comparison with NaN is false, so every trial tallied m = 1
    "SimConfig n_t NaN": (
        lambda: SimConfig(n_b=3, n_r=2, trials=10, seed=1, n_t=float("nan")),
        "n_t must not be NaN",
    ),
    "middle_band_grid budget": (
        lambda: middle_band_grid(200, 30, points=10**8),
        "points = 100000000 exceeds the grid budget 100000 (montecarlo.GRID_POINT_BUDGET)",
    ),
    "coefficient_to_distribution": (
        lambda: coefficient_to_distribution(eulerian_gf(3), 0), "n_b must be >= 1, got 0"
    ),
    # row 1 of the below-middle series stands for n_t = 1, which no fleet scores
    "coefficient_to_distribution score": (
        lambda: coefficient_to_distribution(second_gf_expand(3), 1),
        "the series' rows stand for n_t = n_b + 0 = 1, below the lowest score 2",
    ),
    "coefficient_to_distribution second shifted": (
        lambda: coefficient_to_distribution(second_gf_expand(5), 3, shifted=True),
        "the series' rows hold rank 1 at y^1, got shifted=True",
    ),
    # an unshifted read of g failed as "probabilities must sum to exactly 1"
    "coefficient_to_distribution unshifted": (
        lambda: coefficient_to_distribution(eulerian_gf(5), 3, shifted=False),
        "the series' rows hold rank 1 at y^0, got shifted=False",
    ),
    # a fleet of no boats and a score no fleet reaches were both accepted
    "RankDistribution n_b": (
        lambda: RankDistribution(0, 2, [1], 1), "RankDistribution: n_b must be >= 1, got 0"
    ),
    "RankDistribution n_t": (
        lambda: RankDistribution(3, -5, [1, 4, 1, 0], 6),
        "RankDistribution: n_t must be >= 1, got -5",
    ),
    "checks.run": (lambda: checks.run("slow"), "level must be 'quick' or 'full', got 'slow'"),
    # returned a series of no rows, which every read refused as truncated at x^-1
    "eulerian_gf order": (lambda: eulerian_gf(-1), "order must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_message(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# a size, score or rank that is not an integer is refused, not truncated
NOT_AN_INTEGER = {
    "full_distribution n_t": lambda: full_distribution(3, 4.0),
    "full_distribution n_b": lambda: full_distribution(3.0, 4),
    # grew the cached Stirling triangle to row 30 before failing in it
    "stirling_form_distribution n_b": lambda: stirling_form_distribution(30.0, 31),
    "stirling_form_distribution n_t": lambda: stirling_form_distribution(3, 4.0),
    # accepted, with n_b=3.0 in its repr
    "RankDistribution n_b": lambda: RankDistribution(3.0, 4, [1, 4, 1, 0], 6),
    # np.fromiter truncated the limits 3.5, ... and returned the n_t = 4 law
    "brute_force_score n_t": lambda: brute_force_score(3, 2, 4.5),
    "brute_force_two_race n_t": lambda: brute_force_two_race(3, 4.5),
    "brute_force_score n_b": lambda: brute_force_score(3.0, 2, 4),
    "brute_force_score n_r": lambda: brute_force_score(3, 2.0, 4),
    # rank 1.5 passed the [1, n_b] check and race 1 dealt three values to two boats
    "brute_force_composition rank": lambda: brute_force_composition(3, (1.5, 2)),
    "brute_force_composition n_b": lambda: brute_force_composition(3.0, (1, 2)),
    # accepted, and simulate then failed inside numpy
    "SimConfig tracked_ranks": lambda: SimConfig(
        n_b=3, n_r=2, trials=10, seed=1, tracked_ranks=(1.5, 2)
    ),
    "SimConfig n_b": lambda: SimConfig(n_b=3.0, n_r=2, trials=10, seed=1, n_t=4),
    "SimConfig n_r": lambda: SimConfig(n_b=3, n_r=2.0, trials=10, seed=1, n_t=4),
    "SimConfig trials": lambda: SimConfig(n_b=3, n_r=2, trials=10.5, seed=1, n_t=4),
    # passed the 64-bit range check, and simulate then failed building the key
    "SimConfig seed": lambda: SimConfig(n_b=3, n_r=2, trials=10, seed=1.5, n_t=4),
    "SimConfig stream": lambda: SimConfig(n_b=3, n_r=2, trials=10, seed=1, n_t=4, stream=2.0),
    "empirical_rank_moments n_b": lambda: empirical_rank_moments(3.0, 1000, 1),
    "empirical_rank_moments trials": lambda: empirical_rank_moments(3, 1000.0, 1),
    "empirical_rank_moments stream": lambda: empirical_rank_moments(3, 1000, 1, stream=2.0),
    "count_compatible_subsets n_t": lambda: count_compatible_subsets(6.0),
    "coefficient_to_distribution n_b": lambda: coefficient_to_distribution(
        second_gf_expand(4), 2.0
    ),
    # 4.0 == 4 passed the label check
    "coefficient_to_distribution n_t": lambda: coefficient_to_distribution(
        eulerian_gf(5), 3, n_t=4.0
    ),
    # int(4.9) ran the sweep and labelled its row n_t = 4
    "curve_sweep n_t": lambda: curve_sweep(3, 2, [4.9], 100, 1),
    # 1.0 returned [44], the middle score of 21 x 4
    "middle_band_grid points": lambda: middle_band_grid(21, 4, 1.0),
    # 2.5 passed both checks and then failed inside np.linspace
    "middle_band_grid fractional points": lambda: middle_band_grid(21, 4, 2.5),
    # AsymptoticParams was built, and the routes reading it failed inside Fraction
    "AsymptoticParams n_b": lambda: AsymptoticParams(2.5, 3),
    "mean_final_rank n_b": lambda: mean_final_rank(10.5, 2, 11),
    "variance_final_rank n_r": lambda: variance_final_rank(200, 30.0, 3015),
    "middle_band_grid n_b": lambda: middle_band_grid(10.5, 2),
    "rank_moments_theory n_b": lambda: rank_moments_theory(2.5),
    # each returned 0 by the zero convention
    "binomial n": lambda: binomial(5.5, 7),
    "binomial k": lambda: binomial(5, 7.0),
    "eulerian n": lambda: eulerian(2.5, 5),
    "stirling2 n": lambda: stirling2(2.5, 5),
    # failed indexing a triangle row after the rows up to it were cached
    "eulerian k": lambda: eulerian(5, 2.0),
    "stirling2 k": lambda: stirling2(5, 2.0),
    "eulerian_triangle n_max": lambda: eulerian_triangle(2.5),
    "stirling_triangle n_max": lambda: stirling_triangle(3.5),
}


@pytest.mark.parametrize("case", NOT_AN_INTEGER)
def test_non_integer_refusal(case):
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        NOT_AN_INTEGER[case]()


@pytest.mark.parametrize(
    "case",
    [
        case
        for case in NOT_AN_INTEGER
        if case.startswith(("eulerian", "stirling", "full_distribution", "RankDistribution"))
    ],
)
def test_non_integer_refusal_reads_no_triangle_row(monkeypatch, case):
    # the cached rows are neither read nor grown, and no two-race term is
    # computed, before the refusal
    monkeypatch.setattr(combinatorics, "_eulerian_rows", None)
    monkeypatch.setattr(combinatorics, "_stirling_rows", None)
    monkeypatch.setattr(two_race, "factorial", None)
    monkeypatch.setattr(two_race, "_stirling_numbers", None)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        NOT_AN_INTEGER[case]()
