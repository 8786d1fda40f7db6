"""Reflection and stochastic order of the law of m, for any number of races.

A score-n_t competitor over n_r races of n_b boats is mirrored by the score
n_r (n_b + 1) + 1 - n_t: each boat's score reflects to n_r (n_b + 1) minus
itself, so m reflects to n_b + 2 - m and the law reverses.  A higher score
never makes a better rank more likely, so each CDF lies at or below the CDF
one score lower.  Tracked compositions do not mirror and are not drawn here.
"""

from functools import cache
from itertools import accumulate
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from racerank.lattice_oracle import brute_force_score
from racerank.series import coefficient_to_distribution, eulerian_gf, second_gf_expand
from racerank.two_race import full_distribution, stirling_form_distribution

# Largest (n_b!)^(n_r - 1) configuration count a drawn brute-force case enumerates.
CONFIG_BOUND = 5040
SERIES_N_B = 30


def _largest_n_b(n_r):
    n_b = 1
    while n_b < 8 and factorial(n_b + 1) ** (n_r - 1) <= CONFIG_BOUND:
        n_b += 1
    return n_b


@st.composite
def fleets(draw):
    n_r = draw(st.integers(1, 6))
    n_b = draw(st.integers(1, _largest_n_b(n_r)))
    n_t = draw(st.integers(n_r, n_r * n_b + 1))
    return n_b, n_r, n_t


def _assert_below(higher, lower):
    """The CDF of the law at the higher score lies at or below the other."""
    assert all(a <= b for a, b in zip(accumulate(higher.probs), accumulate(lower.probs)))


@settings(max_examples=40, deadline=None)
@given(fleets())
def test_brute_force_law_reflects_and_orders(case):
    n_b, n_r, n_t = case
    law = brute_force_score(n_b, n_r, n_t)
    mirror = brute_force_score(n_b, n_r, n_r * (n_b + 1) + 1 - n_t)
    assert law.probs == mirror.probs[::-1]
    if n_t < n_r * n_b + 1:
        _assert_below(brute_force_score(n_b, n_r, n_t + 1), law)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 30).flatmap(lambda n_b: st.tuples(st.just(n_b), st.integers(2, 2 * n_b + 1)))
)
def test_two_race_closed_forms_reflect_and_order(case):
    n_b, n_t = case
    for law_at in (full_distribution, stirling_form_distribution):
        law = law_at(n_b, n_t)
        assert law.probs == law_at(n_b, 2 * n_b + 3 - n_t).probs[::-1]
        if n_t < 2 * n_b + 1:
            _assert_below(law_at(n_b, n_t + 1), law)


@cache
def _series():
    return eulerian_gf(SERIES_N_B), second_gf_expand(SERIES_N_B)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, SERIES_N_B))
def test_middle_series_row_lies_below_second_series_row(n_b):
    middle, second = (coefficient_to_distribution(s, n_b) for s in _series())
    assert (middle.n_t, second.n_t) == (n_b + 1, n_b)
    _assert_below(middle, second)
