"""One budget table over ``racerank.__all__``, the proof of every budget path.

Every public name either has oversized calls or an entry saying why no
argument of it sizes the work.  A name lists one (call, message) pair per
path to its budget, such as both halves of a two-race law or each way a
Monte Carlo run spends its words.  Each call must be refused with a
``ValueError`` whose message is exactly the pinned one, which names the
budget constant, before any of the name's builders is touched.  A new public
name with neither entry fails ``test_every_public_name_has_an_entry``, and a
budget constant that no pinned message names fails
``test_every_budget_is_proved``.
"""

import builtins

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
_TWO_RACE = _builders(two_race, "factorial", "_stirling_numbers")
_SERIES = _builders(series, "comb", "factorial")
_ENUMERATION = _builders(lattice_oracle, "itertools", "math", "np")
_MONTECARLO = _builders(montecarlo, "np")

_FACTORIAL = "n = {} exceeds the factorial budget 100000 (combinatorics.FACTORIAL_BUDGET)"
_ROW = "row n = 501 exceeds the triangle budget 500 (combinatorics.TRIANGLE_ROW_BUDGET)"
_FLEET = "n_b = 451 exceeds the exact-row budget 450 (two_race.EXACT_N_B_BUDGET)"
_ORDER = "order = 61 exceeds the series budget 60 (series.SERIES_ORDER_BUDGET)"
_NEEDS = "enumeration needs {} configurations, budget is 100000000 (lattice_oracle.DEFAULT_BUDGET)"
_WORDS = "one trial needs {} words, budget is 4194304 (montecarlo.TRIAL_WORD_BUDGET)"
_WIDE = _WORDS.format("n_b*n_r = 4194305")
_MOMENTS = "trials = {} exceeds the moments budget 16777216 (montecarlo.MOMENTS_TRIAL_BUDGET)"
_GRID = "points = 100000000 exceeds the grid budget 100000 (montecarlo.GRID_POINT_BUDGET)"


def _config(n_b, n_r, **kwargs):
    return montecarlo.SimConfig(n_b=n_b, n_r=n_r, trials=1, seed=0, **kwargs)


# public name -> (the builders it must not touch first, then one
# (oversized call, exact refusal) pair per path to its budget)
OVERSIZED = {
    "factorial": (_COMBINATORICS, (lambda: racerank.factorial(10**6), _FACTORIAL.format(10**6))),
    "binomial": (
        _COMBINATORICS, (lambda: racerank.binomial(300000, 150000), _FACTORIAL.format(300000))
    ),
    "eulerian": (_COMBINATORICS, (lambda: racerank.eulerian(501, 0), _ROW)),
    "eulerian_triangle": (_COMBINATORICS, (lambda: racerank.eulerian_triangle(501), _ROW)),
    "stirling2": (_COMBINATORICS, (lambda: racerank.stirling2(501, 0), _ROW)),
    "stirling_triangle": (_COMBINATORICS, (lambda: racerank.stirling_triangle(501), _ROW)),
    # reads row score - 1
    "stirling_diagonal": (_COMBINATORICS, (lambda: racerank.stirling_diagonal(502, 1), _ROW)),
    "eulerian_from_stirling": (
        _COMBINATORICS, (lambda: racerank.eulerian_from_stirling(501, 250), _ROW)
    ),
    "stirling_binomial_sum": (
        _COMBINATORICS, (lambda: racerank.stirling_binomial_sum(501, 0), _ROW)
    ),
    "full_distribution": (
        _TWO_RACE,
        (lambda: racerank.full_distribution(451, 2), _FLEET),
        (lambda: racerank.full_distribution(451, 903), _FLEET),  # upper half, via reflection
    ),
    "stirling_form_distribution": (
        _TWO_RACE,
        (lambda: racerank.stirling_form_distribution(451, 452), _FLEET),
        (lambda: racerank.stirling_form_distribution(451, 902), _FLEET),  # upper half
    ),
    "eulerian_gf": (_SERIES, (lambda: racerank.eulerian_gf(61), _ORDER)),
    "second_gf_expand": (_SERIES, (lambda: racerank.second_gf_expand(61), _ORDER)),
    "count_compatible_subsets": (
        _builders(lattice_oracle, "set"),
        # one recursion level per staircase row: 1498 rows raised RecursionError
        (lambda: racerank.count_compatible_subsets(1500), _NEEDS.format("1499!")),
    ),
    "brute_force_two_race": (
        _ENUMERATION,
        # 300000! was multiplied out (1.15 s) and then failed to print
        (lambda: racerank.brute_force_two_race(300000, 3), _NEEDS.format("300000!")),
    ),
    "brute_force_score": (
        _ENUMERATION, (lambda: racerank.brute_force_score(6, 5, 12), _NEEDS.format("(6!)^4"))
    ),
    "brute_force_composition": (
        _ENUMERATION,
        (lambda: racerank.brute_force_composition(1000, (1, 2, 3)), _NEEDS.format("(999!)^3")),
    ),
    "SimConfig": (
        _MONTECARLO,
        (lambda: _config(4194305, 1, n_t=2), _WIDE),
        (lambda: _config(3000, 1399, n_t=2), _WORDS.format("n_b*n_r = 4197000")),
        (lambda: _config(2097153, 2, tracked_ranks=(1, 1)), _WORDS.format("n_b*n_r = 4194306")),
    ),
    "simulate": (_MONTECARLO, (lambda: racerank.simulate(_config(4194305, 1, n_t=2)), _WIDE)),
    "curve_sweep": (_MONTECARLO, (lambda: racerank.curve_sweep(4194305, 1, [2], 1, 0), _WIDE)),
    "empirical_rank_moments": (
        _MONTECARLO,
        (lambda: racerank.empirical_rank_moments(2, 16777217, 0), _MOMENTS.format(16777217)),
        (
            # the word check comes first when the trials are over budget too
            lambda: racerank.empirical_rank_moments(4194305, 10**9, 0),
            _WORDS.format("n_b = 4194305"),
        ),
    ),
    "middle_band_grid": (
        _MONTECARLO, (lambda: racerank.middle_band_grid(200, 30, points=10**8), _GRID)
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
    "CurvePoint": "a record of given numbers",
    "RankMoments": "a record of given numbers",
    "RankMomentsEstimate": "a record of given numbers",
    "SimResult": "a record of given numbers",
    "SeriesX": "holds the rows it is given",
    "RankDistribution": "checks the counts it is given",
    "distribution_moments": "one pass over a given distribution",
    "coefficient_to_distribution": "reads one coefficient of a series already built",
}


def test_every_public_name_has_an_entry():
    assert not OVERSIZED.keys() & NO_SIZE.keys()
    assert sorted(racerank.__all__) == sorted(OVERSIZED.keys() | NO_SIZE.keys())


def test_every_budget_is_proved():
    # every refusal ends by naming the constant that sets it, so a budget
    # added without a row here fails
    modules = combinatorics, two_race, series, lattice_oracle, montecarlo
    declared = {
        f"{module.__name__.rpartition('.')[2]}.{name}"
        for module in modules
        for name in vars(module)
        if name.endswith("_BUDGET")
    }
    named = {
        message.rpartition("(")[2].removesuffix(")")
        for _, *refusals in OVERSIZED.values()
        for _, message in refusals
    }
    assert named == declared


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_call_refuses_before_building(monkeypatch, name):
    builders, *refusals = OVERSIZED[name]
    assert [b for b in builders if not _is_live(*b)] == []
    for module, attr in builders:
        blocked = _Unreachable(f"{module.__name__}.{attr}")
        monkeypatch.setattr(module, attr, blocked, raising=False)
    for call, message in refusals:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
