import importlib
import pkgutil

import pytest

import racerank

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(racerank.__path__))


PUBLIC_NAMES = [
    "AsymptoticParams",
    "CurvePoint",
    "ExactDivisionError",
    "RankDistribution",
    "RankMoments",
    "RankMomentsEstimate",
    "SeriesX",
    "SimConfig",
    "SimResult",
    "binomial",
    "brute_force_composition",
    "brute_force_score",
    "brute_force_two_race",
    "centered_score",
    "coefficient_to_distribution",
    "count_compatible_subsets",
    "curve_sweep",
    "distribution_moments",
    "empirical_rank_moments",
    "eulerian",
    "eulerian_from_stirling",
    "eulerian_gf",
    "eulerian_triangle",
    "factorial",
    "full_distribution",
    "mean_final_rank",
    "middle_band_grid",
    "middle_score_gf",
    "normal_cdf",
    "p_middle",
    "rank_moments_theory",
    "second_gf_expand",
    "simulate",
    "stirling2",
    "stirling_binomial_sum",
    "stirling_diagonal",
    "stirling_form_distribution",
    "stirling_triangle",
    "variance_final_rank",
]


def test_public_names_pinned():
    assert sorted(racerank.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module_name", ["racerank"] + [f"racerank.{m}" for m in SUBMODULES])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
