"""One budget table over ``racerank.__all__``.

Every public name either has an oversized call, which must be refused with a
``ValueError`` naming its budget constant before any builder is touched, or
an entry saying why no argument of it sizes the work.  A new public name
with neither fails ``test_every_public_name_has_an_entry``.
"""

import builtins
import re

import pytest

import racerank
from racerank import combinatorics, lattice_oracle, montecarlo, series, two_race


class _Unreachable:
    """Stands in for a builder: any use of it means work began before the
    budget check."""

    def __init__(self, name):
        self.name = name

    def _fail(self, *_, **__):
        raise AssertionError(f"{self.name} was used before the budget check")

    __call__ = __getattr__ = __len__ = __iter__ = __getitem__ = _fail


def _builders(module, *names):
    return [(module, name) for name in names]


def _is_live(module, name):
    # a builder that was renamed or removed would otherwise be added to the
    # module by the patch and block nothing
    return hasattr(module, name) or hasattr(builtins, name)


_COMBINATORICS = _builders(
    combinatorics, "math", "binomial", "factorial", "_eulerian_rows", "_stirling_rows"
)
_TWO_RACE = _builders(two_race, "factorial", "stirling2")
_SERIES = _builders(series, "comb", "factorial", "_div_one_minus_y")
_ENUMERATION = _builders(lattice_oracle, "itertools", "math", "np")
_MONTECARLO = _builders(montecarlo, "np")

_ROW = combinatorics.TRIANGLE_ROW_BUDGET + 1
_N = combinatorics.FACTORIAL_BUDGET + 1
_FLEET = two_race.EXACT_N_B_BUDGET + 1
_ORDER = series.SERIES_ORDER_BUDGET + 1
_WORDS = montecarlo.TRIAL_WORD_BUDGET + 1


def _wide_config():
    return montecarlo.SimConfig(n_b=_WORDS, n_r=1, trials=1, seed=0, n_t=2)


# public name -> (an oversized call, the builders it must not touch first)
OVERSIZED = {
    "factorial": (lambda: racerank.factorial(_N), _COMBINATORICS),
    "binomial": (lambda: racerank.binomial(_N, _N // 2), _COMBINATORICS),
    "eulerian": (lambda: racerank.eulerian(_ROW, 0), _COMBINATORICS),
    "eulerian_triangle": (lambda: racerank.eulerian_triangle(_ROW), _COMBINATORICS),
    "stirling2": (lambda: racerank.stirling2(_ROW, 0), _COMBINATORICS),
    "stirling_triangle": (lambda: racerank.stirling_triangle(_ROW), _COMBINATORICS),
    "stirling_diagonal": (lambda: racerank.stirling_diagonal(_ROW + 1, 1), _COMBINATORICS),
    "eulerian_from_stirling": (
        lambda: racerank.eulerian_from_stirling(_ROW, _ROW // 2), _COMBINATORICS
    ),
    "stirling_binomial_sum": (lambda: racerank.stirling_binomial_sum(_ROW, 0), _COMBINATORICS),
    "full_distribution": (lambda: racerank.full_distribution(_FLEET, 2), _TWO_RACE),
    "stirling_form_distribution": (
        lambda: racerank.stirling_form_distribution(_FLEET, 2), _TWO_RACE
    ),
    "eulerian_gf": (lambda: racerank.eulerian_gf(_ORDER), _SERIES),
    "second_gf_expand": (lambda: racerank.second_gf_expand(_ORDER), _SERIES),
    "count_compatible_subsets": (
        lambda: racerank.count_compatible_subsets(1500),
        _builders(lattice_oracle, "set"),
    ),
    "brute_force_two_race": (lambda: racerank.brute_force_two_race(300000, 3), _ENUMERATION),
    "brute_force_score": (lambda: racerank.brute_force_score(6, 5, 12), _ENUMERATION),
    "brute_force_composition": (
        lambda: racerank.brute_force_composition(1000, (1, 2, 3)), _ENUMERATION
    ),
    "SimConfig": (_wide_config, _MONTECARLO),
    "simulate": (lambda: racerank.simulate(_wide_config()), _MONTECARLO),
    "curve_sweep": (lambda: racerank.curve_sweep(_WORDS, 1, [2], 1, 0), _MONTECARLO),
    "empirical_rank_moments": (
        lambda: racerank.empirical_rank_moments(2, montecarlo.MOMENTS_TRIAL_BUDGET + 1, 0),
        _MONTECARLO,
    ),
    "middle_band_grid": (
        lambda: racerank.middle_band_grid(200, 30, points=montecarlo.GRID_POINT_BUDGET + 1),
        _MONTECARLO,
    ),
}

# public name -> why no argument sizes its work
NO_SIZE = {
    "AsymptoticParams": "two Fractions of n_b and n_r",
    "rank_moments_theory": "three Fractions of n_b",
    "centered_score": "a few float operations",
    "mean_final_rank": "a few float operations",
    "variance_final_rank": "a few float operations",
    "normal_cdf": "one erf",
    "ExactDivisionError": "an exception",
    "CurvePoint": "a record of given numbers",
    "RankMoments": "a record of given numbers",
    "RankMomentsEstimate": "a record of given numbers",
    "SimResult": "a record of given numbers",
    "SeriesX": "holds the rows it is given",
    "RankDistribution": "checks the counts it is given",
    "distribution_moments": "one pass over a given distribution",
    "coefficient_to_distribution": "reads one coefficient of a series already built",
}

# every refusal ends by naming the constant that sets it
_BUDGET_NAME = re.compile(
    r"\((combinatorics|two_race|series|lattice_oracle|montecarlo)\.[A-Z_]+_BUDGET\)$"
)


def test_every_public_name_has_an_entry():
    assert not OVERSIZED.keys() & NO_SIZE.keys()
    assert sorted(racerank.__all__) == sorted(OVERSIZED.keys() | NO_SIZE.keys())


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_call_refuses_before_building(monkeypatch, name):
    call, builders = OVERSIZED[name]
    assert [b for b in builders if not _is_live(*b)] == []
    for module, attr in builders:
        blocked = _Unreachable(f"{module.__name__}.{attr}")
        monkeypatch.setattr(module, attr, blocked, raising=False)
    with pytest.raises(ValueError) as exc:
        call()
    assert _BUDGET_NAME.search(str(exc.value)), str(exc.value)
