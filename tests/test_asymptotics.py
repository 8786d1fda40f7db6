import itertools
import math
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from _doubles import record
from racerank import asymptotics
from racerank.asymptotics import (
    AsymptoticParams,
    centered_score,
    mean_final_rank,
    normal_cdf,
    rank_moments_theory,
    variance_final_rank,
)
from racerank.two_race import distribution_moments, full_distribution


def quad_normal_cdf(z, dps=30):
    """Independent oracle: high-precision quadrature of the normal density."""
    with mpmath.workdps(dps):
        val = mpmath.quad(
            lambda t: mpmath.exp(-t * t / 2), [-mpmath.inf, z]
        ) / mpmath.sqrt(2 * mpmath.pi)
        return float(val)


def test_normal_cdf_basics():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(8.0) > 1 - 1e-14
    assert abs(normal_cdf(1.0) - 0.8413447460685429) < 1e-15


def test_normal_cdf_against_quadrature():
    for z in [-8, -5, -2.5, -1, -0.3, 0.7, 1, 2, 4, 6, 8]:
        assert abs(normal_cdf(z) - quad_normal_cdf(z)) <= 1e-10


def test_normal_cdf_symmetry():
    for z in [0.1 * k for k in range(-80, 81, 7)]:
        assert abs(normal_cdf(-z) - (1 - normal_cdf(z))) <= 1e-12


def test_params():
    params = AsymptoticParams(200, 30)
    assert params.middle_score == 3015
    assert params.lam == Fraction(30 * 200 * 201, 12)
    assert AsymptoticParams(3, 1).middle_score == 2
    with pytest.raises(ValueError):
        AsymptoticParams(0, 5)


def test_centered_score():
    assert centered_score(3015, 200, 30) == 0.0
    assert centered_score(600, 90, 10) == 145.0
    for n_r, n_b in [(2, 3), (10, 90)]:
        assert centered_score(n_r, n_b, n_r) == n_r * (1 - n_b) / 2
    with pytest.raises(ValueError):
        centered_score(29, 200, 30)
    with pytest.raises(ValueError):
        centered_score(6001, 200, 30)


def test_mean_final_rank_middle_and_monotone():
    assert mean_final_rank(200, 30, 3015) == 100.0
    values = [mean_final_rank(200, 30, n_t) for n_t in range(30, 6001, 50)]
    assert all(b >= a for a, b in itertools.pairwise(values))


def test_mean_reflection_symmetry():
    for n_t in range(30, 6001, 137):
        mirrored = 2 * 3015 - n_t
        if not 30 <= mirrored <= 6000:
            continue
        assert abs(
            mean_final_rank(200, 30, n_t) + mean_final_rank(200, 30, mirrored) - 200
        ) < 1e-9


def test_variance_final_rank():
    v0 = variance_final_rank(200, 30, 3015)
    assert abs(v0 - 200 * (0.25 - 1 / (2 * math.pi))) < 1e-12
    assert abs(v0 / 200 - 0.09085) < 5e-6
    # vanishes at extreme scores
    assert variance_final_rank(200, 30, 30) < 1e-6
    assert variance_final_rank(200, 30, 6000) < 1e-6


def test_variance_damping_and_peak():
    peak = variance_final_rank(200, 30, 3015)
    for n_t in range(1000, 5001, 200):
        z = centered_score(n_t, 200, 30) / math.sqrt(float(AsymptoticParams(200, 30).lam))
        phi = normal_cdf(z)
        v = variance_final_rank(200, 30, n_t)
        assert v < 200 * phi * (1 - phi)  # strictly damped
        assert v <= peak  # maximal at the middle score


@pytest.mark.parametrize("route", [mean_final_rank, variance_final_rank])
def test_rank_route_builds_params_once(monkeypatch, route):
    expected = route(200, 30, 2900)
    built = record(monkeypatch, asymptotics, "AsymptoticParams")
    assert route(200, 30, 2900) == expected
    assert built == Counter({(200, 30): 1})


def test_rank_moments_theory_small_cases():
    m3 = rank_moments_theory(3)
    assert (m3.mean, m3.var_diag, m3.cov_offdiag) == (
        2,
        Fraction(2, 3),
        Fraction(-1, 3),
    )
    assert rank_moments_theory(1).var_diag == 0
    for n_b in range(1, 21):
        m = rank_moments_theory(n_b)
        assert m.var_diag + (n_b - 1) * m.cov_offdiag == 0  # sum rule


def test_rank_moments_match_exhaustive_enumeration():
    # independent oracle: all 6 permutations of (1, 2, 3), exact Fractions
    perms = list(itertools.permutations((1, 2, 3)))
    n = Fraction(len(perms))
    mean = sum(Fraction(p[0]) for p in perms) / n
    var = sum(Fraction(p[0] ** 2) for p in perms) / n - mean**2
    cov = sum(Fraction(p[0] * p[1]) for p in perms) / n - mean**2
    m3 = rank_moments_theory(3)
    assert (mean, var, cov) == (m3.mean, m3.var_diag, m3.cov_offdiag)


def test_normalized_clt_discrepancy_shrinks():
    # at the middle score the normalized rank error |<m>/n_b - exact/n_b|
    # must shrink between n_b = 3 and n_b = 6 (two races)
    def normalized_gap(n_b):
        exact_mean, _ = distribution_moments(full_distribution(n_b, n_b + 1))
        return abs(mean_final_rank(n_b, 2, n_b + 1) - float(exact_mean)) / n_b

    assert normalized_gap(6) < normalized_gap(3)
