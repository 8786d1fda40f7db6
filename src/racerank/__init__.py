"""Final-rank probability distributions in multi-race scored competitions:
exact enumeration and special-number combinatorics, generating functions,
normal-limit asymptotics and seeded Monte Carlo, cross-verifying each other.
"""

from .combinatorics import (
    binomial,
    eulerian,
    eulerian_from_stirling,
    eulerian_triangle,
    factorial,
    stirling2,
    stirling_binomial_sum,
    stirling_diagonal,
    stirling_triangle,
)
from .two_race import (
    RankDistribution,
    distribution_moments,
    full_distribution,
    p_exact,
    p_middle,
    p_stirling_form,
    reflect_distribution,
    stirling_form_distribution,
)
from .lattice_oracle import (
    below_diagonal_points,
    brute_force_composition,
    brute_force_score,
    brute_force_two_race,
    count_compatible_subsets,
)
from .series import (
    ExactDivisionError,
    PolyY,
    SeriesX,
    coefficient_to_distribution,
    eulerian_gf,
    middle_score_gf,
    second_gf_expand,
)
from .asymptotics import (
    AsymptoticParams,
    RankMoments,
    centered_score,
    mean_final_rank,
    normal_cdf,
    rank_moments_theory,
    variance_final_rank,
)
from .montecarlo import (
    CurvePoint,
    RankMomentsEstimate,
    SimConfig,
    SimResult,
    curve_sweep,
    empirical_rank_moments,
    middle_band_grid,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    # combinatorics
    "factorial",
    "binomial",
    "eulerian",
    "eulerian_triangle",
    "stirling2",
    "stirling_triangle",
    "stirling_diagonal",
    "eulerian_from_stirling",
    "stirling_binomial_sum",
    # two_race
    "RankDistribution",
    "p_exact",
    "p_middle",
    "p_stirling_form",
    "full_distribution",
    "stirling_form_distribution",
    "reflect_distribution",
    "distribution_moments",
    # lattice_oracle
    "below_diagonal_points",
    "count_compatible_subsets",
    "brute_force_two_race",
    "brute_force_score",
    "brute_force_composition",
    # series
    "ExactDivisionError",
    "PolyY",
    "SeriesX",
    "eulerian_gf",
    "middle_score_gf",
    "second_gf_expand",
    "coefficient_to_distribution",
    # asymptotics
    "AsymptoticParams",
    "RankMoments",
    "normal_cdf",
    "centered_score",
    "mean_final_rank",
    "variance_final_rank",
    "rank_moments_theory",
    # montecarlo
    "SimConfig",
    "SimResult",
    "RankMomentsEstimate",
    "CurvePoint",
    "simulate",
    "empirical_rank_moments",
    "curve_sweep",
    "middle_band_grid",
]
