"""The tests' one copy of every budget refusal and of the builders each
budget guards.

Each template writes one refusal's text: the sized argument goes in as its
first argument, and the budget as ``budget``, which defaults to the
constant's value and which a test that patches the constant passes in.
``OVERSIZED`` is the table ``tests/test_budgets.py`` proves, the one test of
every budget path: for each public name, the builders its oversized calls
must not touch first, then one (oversized call, exact refusal) pair per path
to its budget.  The other budget tests prove what the table does not: each
module's edge tests show a budget admits its bound, or that a patched budget
moves the edge, with :func:`assert_refused`, and ``tests/test_cli.py`` blocks
the builders with ``_doubles.block`` around each command line a budget
refuses.  They read their refusals and builders here, so a refusal's text is
written in this file alone, and ``REFUSAL_TEXT`` finds a copy of one anywhere
else in ``tests/``.
"""

import itertools
import re

import numpy as np
import pytest

import racerank
from _doubles import block
from racerank import combinatorics, lattice_oracle, montecarlo, series, two_race

# bound here: racerank reads a name from its module when first asked, and
# the table blocks combinatorics' own factorial and binomial
from racerank import binomial, factorial

REFUSAL_TEXT = re.compile("exceeds the|budget is")


def _template(text, default):
    def refusal(size, budget=default):
        return text.format(size, budget=budget)

    return refusal


FACTORIAL = _template(
    "n = {} exceeds the factorial budget {budget} (combinatorics.FACTORIAL_BUDGET)", 100000
)
ROW = _template(
    "row n = {} exceeds the triangle budget {budget} (combinatorics.TRIANGLE_ROW_BUDGET)", 500
)
FLEET = _template(
    "n_b = {} exceeds the exact-row budget {budget} (two_race.EXACT_N_B_BUDGET)", 450
)
ORDER = _template("order = {} exceeds the series budget {budget} (series.SERIES_ORDER_BUDGET)", 60)
NEEDS = _template(
    "enumeration needs {} configurations, budget is {budget} (lattice_oracle.DEFAULT_BUDGET)",
    100000000,
)
WORDS = _template(
    "one trial needs {} words, budget is {budget} (montecarlo.TRIAL_WORD_BUDGET)", 4194304
)
MOMENTS = _template(
    "trials = {} exceeds the moments budget {budget} (montecarlo.MOMENTS_TRIAL_BUDGET)",
    16777216,
)
GRID = _template(
    "points = {} exceeds the grid budget {budget} (montecarlo.GRID_POINT_BUDGET)", 100000
)


def _builders(module, *names):
    return [(module, name) for name in names]


COMBINATORICS = _builders(
    combinatorics, "math", "binomial", "factorial", "_eulerian_rows", "_stirling_rows"
)
TWO_RACE = _builders(two_race, "factorial", "_stirling_numbers")
SERIES = _builders(series, "comb", "factorial")
WALK = _builders(lattice_oracle, "set")
ENUMERATION = _builders(lattice_oracle, "itertools", "math", "np") + [(itertools, "permutations")]
# the curve command makes its grid before its first trial is refused
PHILOX = _builders(np.random, "Philox")
MONTECARLO = [(montecarlo, "np"), *PHILOX, *_builders(np, "empty", "linspace")]


def assert_refused(monkeypatch, builders, call, message):
    """``call()`` raises a ValueError whose text is exactly ``message`` with
    ``builders`` blocked."""
    block(monkeypatch, builders)
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def _config(n_b, n_r, **kwargs):
    return montecarlo.SimConfig(n_b=n_b, n_r=n_r, trials=1, seed=0, **kwargs)


_WIDE = WORDS("n_b*n_r = 4194305")


# public name -> (the builders it must not touch first, then one
# (oversized call, exact refusal) pair per path to its budget)
OVERSIZED = {
    "factorial": (COMBINATORICS, (lambda: factorial(10**6), FACTORIAL(10**6))),
    "binomial": (
        COMBINATORICS, (lambda: binomial(300000, 150000), FACTORIAL(300000))
    ),
    "eulerian": (COMBINATORICS, (lambda: racerank.eulerian(501, 0), ROW(501))),
    "eulerian_triangle": (COMBINATORICS, (lambda: racerank.eulerian_triangle(501), ROW(501))),
    "stirling2": (COMBINATORICS, (lambda: racerank.stirling2(501, 0), ROW(501))),
    "stirling_triangle": (COMBINATORICS, (lambda: racerank.stirling_triangle(501), ROW(501))),
    # reads row score - 1
    "stirling_diagonal": (COMBINATORICS, (lambda: racerank.stirling_diagonal(502, 1), ROW(501))),
    "eulerian_from_stirling": (
        COMBINATORICS, (lambda: racerank.eulerian_from_stirling(501, 250), ROW(501))
    ),
    "stirling_binomial_sum": (
        COMBINATORICS, (lambda: racerank.stirling_binomial_sum(501, 0), ROW(501))
    ),
    "full_distribution": (
        TWO_RACE,
        (lambda: racerank.full_distribution(451, 2), FLEET(451)),
        (lambda: racerank.full_distribution(451, 903), FLEET(451)),  # upper half, via reflection
    ),
    "stirling_form_distribution": (
        TWO_RACE,
        (lambda: racerank.stirling_form_distribution(451, 452), FLEET(451)),
        (lambda: racerank.stirling_form_distribution(451, 902), FLEET(451)),  # upper half
    ),
    "eulerian_gf": (SERIES, (lambda: racerank.eulerian_gf(61), ORDER(61))),
    "second_gf_expand": (SERIES, (lambda: racerank.second_gf_expand(61), ORDER(61))),
    "count_compatible_subsets": (
        WALK,
        # one recursion level per staircase row: 1498 rows raised RecursionError
        (lambda: racerank.count_compatible_subsets(1500), NEEDS("1499!")),
    ),
    "brute_force_two_race": (
        ENUMERATION,
        # 300000! was multiplied out (1.15 s) and then failed to print
        (lambda: racerank.brute_force_two_race(300000, 3), NEEDS("300000!")),
    ),
    "brute_force_score": (
        ENUMERATION, (lambda: racerank.brute_force_score(6, 5, 12), NEEDS("(6!)^4"))
    ),
    "brute_force_composition": (
        ENUMERATION,
        (lambda: racerank.brute_force_composition(1000, (1, 2, 3)), NEEDS("(999!)^3")),
    ),
    "SimConfig": (
        MONTECARLO,
        (lambda: _config(4194305, 1, n_t=2), _WIDE),
        (lambda: _config(3000, 1399, n_t=2), WORDS("n_b*n_r = 4197000")),
        (lambda: _config(2097153, 2, tracked_ranks=(1, 1)), WORDS("n_b*n_r = 4194306")),
    ),
    "simulate": (MONTECARLO, (lambda: racerank.simulate(_config(4194305, 1, n_t=2)), _WIDE)),
    "curve_sweep": (MONTECARLO, (lambda: racerank.curve_sweep(4194305, 1, [2], 1, 0), _WIDE)),
    "empirical_rank_moments": (
        MONTECARLO,
        (lambda: racerank.empirical_rank_moments(2, 16777217, 0), MOMENTS(16777217)),
        (
            # the word check comes first when the trials are over budget too
            lambda: racerank.empirical_rank_moments(4194305, 10**9, 0),
            WORDS("n_b = 4194305"),
        ),
    ),
    "middle_band_grid": (
        MONTECARLO, (lambda: racerank.middle_band_grid(200, 30, points=10**8), GRID(10**8))
    ),
}
