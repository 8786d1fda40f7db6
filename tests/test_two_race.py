import itertools
from collections import Counter
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (
    alternating_row_by_convolution,
    moments_by_fraction_sums,
    p_exact_terms,
    p_stirling_terms,
    stirling_row_by_binomial_sums,
)
from racerank import two_race
from racerank.combinatorics import eulerian, factorial
from racerank.lattice_oracle import brute_force_score, brute_force_two_race
from racerank.two_race import (
    EXACT_N_B_BUDGET,
    RankDistribution,
    distribution_moments,
    full_distribution,
    stirling_form_distribution,
)


def brute_distribution(n_b, n_t):
    """In-test oracle: enumerate second-race permutations with the first race
    fixed to the identity (boat i scores i + a(i))."""
    counts = Counter()
    for a in itertools.permutations(range(1, n_b + 1)):
        m = 1 + sum(1 for i, ai in enumerate(a, start=1) if i + ai < n_t)
        counts[m] += 1
    total = factorial(n_b)
    return tuple(Fraction(counts[m], total) for m in range(1, n_b + 2))


def test_p_exact_examples():
    # P(m) of the alternating-sum form, read from its law
    assert full_distribution(3, 3).p(1) == Fraction(2, 3)  # == brute force over S_3
    assert full_distribution(3, 4).p(2) == Fraction(2, 3)  # Eulerian row {1,4,1} / 3!
    for n_b in (1, 2, 5, 9):
        assert full_distribution(n_b, 2).p(1) == 1


def test_p_exact_matches_brute_force():
    for n_b in range(1, 7):
        for n_t in range(2, n_b + 2):
            assert full_distribution(n_b, n_t).probs == brute_distribution(n_b, n_t)


def test_p_exact_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"^score n_t must be in \[2, 7\], got 1$"):
        full_distribution(3, 1)
    with pytest.raises(ValueError, match=r"^rank m must be in \[1, 4\], got 5$"):
        full_distribution(3, 3).p(5)
    with pytest.raises(ValueError, match=r"^rank m must be in \[1, 4\], got 0$"):
        full_distribution(3, 4).p(0)


def test_upper_half_reflection():
    assert full_distribution(3, 7).p(4) == 1  # highest score -> always last
    for m in range(1, 5):
        assert full_distribution(3, 5).p(m) == full_distribution(3, 4).p(5 - m)
    assert full_distribution(4, 6).p(3) == full_distribution(4, 5).p(3)
    # both sides against brute force
    expected = brute_distribution(4, 6)
    for m in range(1, 6):
        assert full_distribution(4, 6).p(m) == expected[m - 1]
    with pytest.raises(ValueError):
        full_distribution(3, 8)


def test_p_middle_rows():
    # at n_t = n_b + 1 the law is the Eulerian row over n_b!
    assert full_distribution(4, 5).probs == tuple(Fraction(c, 24) for c in (1, 11, 11, 1, 0))
    assert full_distribution(1, 2).probs == (1, 0)
    assert full_distribution(6, 7).p(3) == Fraction(302, 720)


def test_middle_score_alternating_sum_specialization():
    # the middle-score specialization (1+n)(sum (-1)^k (m-k)^n / k!(1+n-k)!)
    # as a third independent route
    for n_b in range(1, 9):
        for m in range(1, n_b + 2):
            total = Fraction(0)
            for k in range(m):
                term = Fraction(
                    (m - k) ** n_b, factorial(k) * factorial(1 + n_b - k)
                )
                total += -term if k % 2 else term
            assert (1 + n_b) * total == Fraction(eulerian(n_b, m - 1), factorial(n_b))


def test_p_stirling_form_examples():
    # P(m) of the diagonal-Stirling form, read from its law
    assert stirling_form_distribution(3, 3).p(1) == Fraction(2, 3)  # (6 - 2) / 6
    assert stirling_form_distribution(3, 4).p(2) == Fraction(2, 3)
    for n_b in (1, 2, 5):
        assert stirling_form_distribution(n_b, 2).p(1) == 1


def _assert_rows_match_reference(n_b, n_t):
    exact = tuple(p_exact_terms(n_b, n_t, m) for m in range(1, n_b + 2))
    stirling = tuple(p_stirling_terms(n_b, n_t, m) for m in range(1, n_b + 2))
    assert full_distribution(n_b, n_t).probs == exact
    assert stirling_form_distribution(n_b, n_t).probs == stirling
    assert exact == stirling


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 25).flatmap(
        lambda n_b: st.tuples(st.just(n_b), st.integers(2, n_b + 1), st.integers(1, n_b + 1))
    )
)
def test_rows_equal_term_by_term_reference(case):
    n_b, n_t, m = case
    _assert_rows_match_reference(n_b, n_t)
    # the mirrored upper-half entry is the reference's lower-half entry
    mirror = full_distribution(n_b, 2 * n_b + 3 - n_t)
    assert mirror.p(n_b + 2 - m) == p_exact_terms(n_b, n_t, m)


@pytest.mark.parametrize("n_t", [2, 3, 31, 60, 61])
def test_n_b60_rows_equal_term_by_term_reference(n_t):
    _assert_rows_match_reference(60, n_t)


def _assert_rows_match_reference_rows(n_b, n_t):
    assert two_race._alternating_row(n_b, n_t) == alternating_row_by_convolution(n_b, n_t)
    assert two_race._stirling_row(n_b, n_t) == stirling_row_by_binomial_sums(n_b, n_t)


# ~0.1 s an example at n_b = 80 (the references' binomial sums dominate), so
# the 15 examples stay near 1 s.
@settings(max_examples=15, deadline=None)
@given(st.integers(1, 80))
def test_rows_equal_binomial_sum_rows(n_b):
    for n_t in range(2, n_b + 2):
        _assert_rows_match_reference_rows(n_b, n_t)


@pytest.mark.parametrize("n_t", [2, 226, 451])
def test_rows_equal_binomial_sum_rows_at_n_b450(n_t):
    _assert_rows_match_reference_rows(450, n_t)


def test_rows_vanish_past_the_band():
    # A lower-half score beats at most n_t - 2 boats, so P(m) = 0 for every
    # m >= n_t; the closed-form rows build only m < n_t and pad zeros.  The
    # reference convolution and the enumeration compute the whole row.
    for n_b in range(1, 41):
        for n_t in range(2, n_b + 2):
            row = alternating_row_by_convolution(n_b, n_t)
            assert all(c > 0 for c in row[: n_t - 1])
            assert all(c == 0 for c in row[n_t - 1 :])
            if n_b <= 6:
                assert all(p == 0 for p in brute_force_two_race(n_b, n_t).probs[n_t - 1 :])


def test_exact_budget_trips_before_any_term(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a term was computed past the budget check")

    monkeypatch.setattr(two_race, "factorial", unreachable)
    monkeypatch.setattr(two_race, "stirling2", unreachable)
    n_b = EXACT_N_B_BUDGET + 1
    calls = [
        lambda: full_distribution(n_b, 2),
        lambda: full_distribution(n_b, 2 * n_b + 1),  # upper half, via reflection
        lambda: stirling_form_distribution(n_b, n_b + 1),
        lambda: stirling_form_distribution(n_b, 2 * n_b),  # upper half, via reflection
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"two_race\.EXACT_N_B_BUDGET"):
            call()


def test_exact_budget_admits_its_bound():
    assert EXACT_N_B_BUDGET >= 400
    assert full_distribution(EXACT_N_B_BUDGET, 2).probs[0] == 1
    assert stirling_form_distribution(EXACT_N_B_BUDGET, 2 * EXACT_N_B_BUDGET + 1).probs[-1] == 1


@pytest.mark.parametrize("n_t", [EXACT_N_B_BUDGET + 1, EXACT_N_B_BUDGET + 2])
def test_routes_agree_at_the_budget_edge(n_t):
    n_b = EXACT_N_B_BUDGET
    d = full_distribution(n_b, n_t)
    assert stirling_form_distribution(n_b, n_t) == d
    if n_t == n_b + 1:
        assert d.probs == tuple(
            Fraction(eulerian(n_b, m - 1), factorial(n_b)) for m in range(1, n_b + 2)
        )


@pytest.mark.parametrize("route", [full_distribution, stirling_form_distribution])
def test_upper_half_builds_one_distribution(monkeypatch, route):
    built = []

    class Counted(RankDistribution):
        def __post_init__(self):
            built.append(self.n_t)
            super().__post_init__()

    monkeypatch.setattr(two_race, "RankDistribution", Counted)
    d = route(5, 8)
    assert built == [8]
    assert d.probs == tuple(reversed(full_distribution(5, 5).probs))


def test_full_distribution_examples():
    assert full_distribution(3, 4).probs == (
        Fraction(1, 6),
        Fraction(2, 3),
        Fraction(1, 6),
        Fraction(0),
    )
    assert full_distribution(3, 3).probs == (Fraction(2, 3), Fraction(1, 3), 0, 0)
    assert full_distribution(2, 2).probs == (1, 0, 0)
    assert full_distribution(3, 7).probs == (0, 0, 0, 1)


def test_full_distribution_normalization_and_last_slot():
    for n_b in range(1, 9):
        for n_t in range(2, 2 * n_b + 2):
            d = full_distribution(n_b, n_t)
            assert sum(d.probs) == 1
            if n_t <= n_b + 1:
                assert d.probs[-1] == 0


def test_full_distribution_rejects_out_of_range():
    with pytest.raises(ValueError):
        full_distribution(3, 1)
    with pytest.raises(ValueError):
        full_distribution(3, 8)


@pytest.mark.parametrize("route", [full_distribution, stirling_form_distribution])
def test_rows_check_n_b_before_the_score_range(route):
    # n_b = 0 would otherwise report the empty score range [2, 1]
    with pytest.raises(ValueError, match=r"^n_b must be >= 1, got 0$"):
        route(0, 2)


def test_stirling_form_distribution_agrees():
    for n_b in range(1, 7):
        for n_t in range(2, 2 * n_b + 2):
            assert stirling_form_distribution(n_b, n_t) == full_distribution(n_b, n_t)


def _assert_reflects(d):
    """The law at the mirror score 2 n_b + 3 - n_t holds d's counts reversed."""
    mirror = full_distribution(d.n_b, 2 * d.n_b + 3 - d.n_t)
    assert (d.counts[::-1], d.total) == (mirror.counts, mirror.total)


def test_reflection_involution():
    # every score and its mirror, so reflecting twice returns each law
    for n_b in range(1, 7):
        for n_t in range(2, 2 * n_b + 2):
            _assert_reflects(full_distribution(n_b, n_t))


def _assert_one_representation(n_b, k):
    """At every score of n_b, each route's law and the law rebuilt from its
    Fractions, from counts scaled by k, or from its counts as numpy int64 or
    as whole Fractions are one value: equal, equally hashed, with identical
    reduced int counts and total."""
    for n_t in range(2, 2 * n_b + 2):
        d = full_distribution(n_b, n_t)
        assert gcd(d.total, *d.counts) == 1
        for law in (
            stirling_form_distribution(n_b, n_t),
            brute_force_two_race(n_b, n_t),
            brute_force_score(n_b, 2, n_t),
            RankDistribution(n_b, n_t, d.probs),
            RankDistribution(n_b, n_t, [k * c for c in d.counts], k * d.total),
            RankDistribution(n_b, n_t, np.array(d.counts, dtype=np.int64), d.total),
            RankDistribution(n_b, n_t, [Fraction(k * c, 1) for c in d.counts], k * d.total),
        ):
            assert law == d and hash(law) == hash(d)
            assert (law.counts, law.total) == (d.counts, d.total)
            assert all(type(c) is int for c in law.counts)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 30).flatmap(
        lambda n_b: st.tuples(st.just(n_b), st.integers(2, 2 * n_b + 1))
    ),
    st.integers(1, 7),
    st.integers(2, 10**30),
)
def test_exact_route_properties(case, small_n_b, k):
    n_b, n_t = case
    d = full_distribution(n_b, n_t)
    assert len(d.probs) == n_b + 1 and sum(d.probs) == 1
    _assert_reflects(d)
    assert stirling_form_distribution(n_b, n_t) == d
    _assert_one_representation(small_n_b, k)
    if n_t < 2 * n_b + 1:
        # a higher score never makes a better rank more likely
        higher = full_distribution(n_b, n_t + 1)
        assert all(
            a <= b
            for a, b in zip(itertools.accumulate(higher.probs), itertools.accumulate(d.probs))
        )


def test_distribution_moments():
    mean, var = distribution_moments(full_distribution(3, 4))
    assert mean == 2 and var == Fraction(1, 3)
    for n_b in range(1, 11):
        mean, _ = distribution_moments(full_distribution(n_b, n_b + 1))
        assert mean == Fraction(n_b + 1, 2)  # palindromic middle row
    for n_b in (1, 3, 5):
        mean, var = distribution_moments(full_distribution(n_b, 2))
        assert mean == 1 and var == 0
    for n_t in range(2, 122):
        d = full_distribution(60, n_t)
        assert distribution_moments(d) == moments_by_fraction_sums(d.probs)


def test_rank_distribution_validation():
    with pytest.raises(ValueError):
        RankDistribution(2, 3, (Fraction(1, 2), Fraction(1, 3), Fraction(0)))
    with pytest.raises(ValueError, match="negative probability"):
        RankDistribution(2, 3, (Fraction(3, 2), Fraction(-1, 2), Fraction(0)))
    with pytest.raises(ValueError, match="must sum to exactly 1"):
        RankDistribution(1, 2, ())
    for entry, name in [(0.5, "float"), ("1/2", "str"), (None, "NoneType")]:
        with pytest.raises(TypeError, match=rf"exact rationals \(int or Fraction\), got {name}$"):
            RankDistribution(1, 2, (Fraction(1, 2), entry))
    # an n_b = 60 row whose entries sum to 1 - 1/60!
    row = list(full_distribution(60, 40).probs)
    row[20] -= Fraction(1, factorial(60))
    assert row[20] > 0
    with pytest.raises(ValueError, match="sum to exactly 1"):
        RankDistribution(60, 40, tuple(row))
    # its integer twin: one count lowered by 1 under the law's own total
    d = full_distribution(60, 40)
    counts = list(d.counts)
    counts[20] -= 1
    assert counts[20] > 0
    with pytest.raises(ValueError, match="sum to exactly 1"):
        RankDistribution(60, 40, tuple(counts), d.total)
    with pytest.raises(ValueError, match="negative probability"):
        RankDistribution(1, 2, (7, -1), 6)
    # the total is refused before any count is scaled
    for total in (0, -6):
        with pytest.raises(ValueError, match=rf"^RankDistribution: total must be positive, got {total}$"):
            RankDistribution(1, 2, (0, 0), total)
    for total, name in [(6.0, "float"), (Fraction(6), "Fraction"), ("6", "str"), (None, "NoneType")]:
        with pytest.raises(TypeError, match=rf"^RankDistribution: total must be an int, got {name}$"):
            RankDistribution(1, 2, (1, 5), total)
    # a law of its fleet: n_b ranks (composition mode) or n_b + 1 (a virtual
    # competitor), checked after the sum
    for counts in [(1,), (1, 1), (1, 4, 1, 0, 0)]:
        with pytest.raises(
            ValueError,
            match=rf"^RankDistribution: need 3 or 4 ranks for n_b = 3, got {len(counts)}$",
        ):
            RankDistribution(3, 4, counts, sum(counts))
    # entries are read once: a one-shot iterator is not emptied by the lcm pass
    assert RankDistribution(3, 4, iter([1, 4, 1, 0]), 6) == full_distribution(3, 4)
    # numpy integers are stored as Python ints, which do not overflow
    d = RankDistribution(3, 4, np.array([1, 4, 1, 0]), 6)
    assert d == full_distribution(3, 4)
    assert all(type(c) is int for c in d.counts)
    d = RankDistribution(1, 2, np.array([2**62, 2**62]), 2**63)
    assert (d.counts, d.total) == ((1, 1), 2)
    assert all(type(c) is int for c in d.counts)
    # a bool row and total take the scaling path and are stored as Python ints
    d = RankDistribution(1, 2, (True, False), True)
    assert (d.counts, d.total) == ((1, 0), 1)
    assert all(type(c) is int for c in (*d.counts, d.total))
    d = full_distribution(3, 4)
    assert d.p(2) == Fraction(2, 3)
    with pytest.raises(ValueError):
        d.p(5)


def excedance_histogram(n):
    """counts[c] = number of permutations a of 1..n with c positions
    a(i) <= n - i, i.e. c boats scoring below n + 1; the last bin is 0."""
    return [p * factorial(n) for p in brute_force_two_race(n, n + 1).probs]


def test_excedance_small_cases():
    # per-permutation counts for n=3 are 1,1,2,1,1,0 -> histogram (1,4,1)
    assert excedance_histogram(3) == [1, 4, 1, 0]
    assert excedance_histogram(1) == [1, 0]
    assert excedance_histogram(4) == [1, 11, 11, 1, 0]
