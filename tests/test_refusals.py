"""Every argument check the other tests never reach refuses with its message."""

import pytest

from racerank import (
    SimConfig,
    binomial,
    brute_force_composition,
    brute_force_score,
    brute_force_two_race,
    coefficient_to_distribution,
    count_compatible_subsets,
    eulerian_from_stirling,
    eulerian_gf,
    eulerian_triangle,
    factorial,
    middle_band_grid,
    middle_score_gf,
    p_middle,
    rank_moments_theory,
    second_gf_expand,
    stirling2,
    stirling_binomial_sum,
    stirling_triangle,
)
from racerank import checks

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
    "count_compatible_subsets": (
        lambda: count_compatible_subsets(3, 4, -1), "size must be >= 0, got -1"
    ),
    "count_compatible_subsets n_b": (
        lambda: count_compatible_subsets(0, 1, 0), "n_b must be >= 1, got 0"
    ),
    "count_compatible_subsets n_t": (
        lambda: count_compatible_subsets(3, 1, 0), "n_t must be >= 2, got 1"
    ),
    # one recursion level per staircase row: 1498 rows raised RecursionError
    "count_compatible_subsets budget": (
        lambda: count_compatible_subsets(2000, 1500, 1),
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
    # a shifted read of y * g came back as (0, 1/6, 2/3, 1/6) for n_t = 4
    "coefficient_to_distribution shifted": (
        lambda: coefficient_to_distribution(middle_score_gf(5), 3, shifted=True),
        "the series' rows hold rank 1 at y^1, got shifted=True",
    ),
    "coefficient_to_distribution second shifted": (
        lambda: coefficient_to_distribution(second_gf_expand(5), 3, shifted=True),
        "the series' rows hold rank 1 at y^1, got shifted=True",
    ),
    # an unshifted read of g failed as "probabilities must sum to exactly 1"
    "coefficient_to_distribution unshifted": (
        lambda: coefficient_to_distribution(eulerian_gf(5), 3),
        "the series' rows hold rank 1 at y^0, got shifted=False",
    ),
    "p_middle": (lambda: p_middle(0, 1), "n_b must be >= 1, got 0"),
    "checks.run": (lambda: checks.run("slow"), "level must be 'quick' or 'full', got 'slow'"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_message(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
