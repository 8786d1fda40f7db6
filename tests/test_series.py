import ast
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from _reference import EULERIAN_ROWS, SECOND_GF_ROWS
from racerank import lattice_oracle, series, two_race
from racerank.combinatorics import eulerian, factorial
from racerank.series import (
    SERIES_ORDER_BUDGET,
    ExactDivisionError,
    coefficient_to_distribution,
    eulerian_gf,
    second_gf_expand,
)
from racerank.two_race import full_distribution


def test_polyy_division():
    # (1 - y^2) / (1 - y) = 1 + y and (1 - y^3) / (1 - y) = 1 + y + y^2
    assert series._div_one_minus_y([1, 0, -1]) == [1, 1]
    assert series._div_one_minus_y([1, 0, 0, -1]) == [1, 1, 1]
    assert series._div_one_minus_y([0]) == []


def test_series_order_mismatch_rejected():
    assert eulerian_gf(4) != eulerian_gf(5)


def test_eulerian_gf_printed_rows():
    g = eulerian_gf(8)
    assert g.order == 8
    assert g.rows[0] == []
    for n, row in enumerate(EULERIAN_ROWS, start=1):
        assert g.rows[n] == row


def test_series_div_exact_detects_nonpolynomial_quotient():
    # 1 / (1 - y) and y / (1 - y) are not polynomials: must fail loudly
    for r in ([1], [0, 1], [1, 2, -2]):
        with pytest.raises(ExactDivisionError):
            series._div_one_minus_y(r)


def test_series_div_round_trip():
    # g times e^{xy} - y e^x gives back e^x - e^{xy} (mod x^9); in n! [x^n]:
    # sum_k C(n, k) q_k (y^(n-k) - y) = 1 - y^n with q_k = k! [x^k] g
    g = eulerian_gf(8)
    for n in range(9):
        product = [0] * (n + 1)
        for k in range(n + 1):
            for i, a in enumerate(g.rows[k]):
                product[i + n - k] += comb(n, k) * a
                product[i + 1] -= comb(n, k) * a
        numerator = [1] + [0] * n
        numerator[n] -= 1
        assert product == numerator


def test_integration():
    # second_gf_expand = (y - 1) * integral(g) + g - x, where the x^n
    # coefficient of integral(g) is the x^(n-1) coefficient of g over n
    g, h = eulerian_gf(8), second_gf_expand(8)

    def coefficient(s, n, k):
        row = s.rows[n]
        return Fraction(row[k], factorial(n)) if 0 <= k < len(row) else 0

    assert h.rows[0] == []
    for n in range(1, 9):
        expected = [
            coefficient(g, n, k)
            + (coefficient(g, n - 1, k - 1) - coefficient(g, n - 1, k)) / n
            - (n == 1 and k == 0)
            for k in range(n + 1)
        ]
        assert [coefficient(h, n, k) for k in range(n + 1)] == expected


def test_second_gf_printed_rows():
    h = second_gf_expand(8)
    for n, row in SECOND_GF_ROWS.items():
        assert h.rows[n] == row
    # its own bound comes before the order check every builder shares
    for order in (1, -1):
        with pytest.raises(ValueError, match=f"^order must be >= 2, got {order}$"):
            second_gf_expand(order)


def test_coefficient_to_distribution_examples():
    g = eulerian_gf(10)
    d5 = coefficient_to_distribution(g, 5)
    assert d5.probs == tuple(Fraction(c, 120) for c in (1, 26, 66, 26, 1, 0))
    h = second_gf_expand(10)
    assert coefficient_to_distribution(h, 3, n_t=3) == full_distribution(3, 3)
    d2 = coefficient_to_distribution(h, 2, n_t=2)
    assert d2.probs == (1, 0, 0)


def test_coefficient_to_distribution_refuses_a_foreign_score():
    # the middle row once came back labelled with any n_t it was given
    g = eulerian_gf(5)
    for n_t in (3, 99):
        with pytest.raises(ValueError, match=f"n_t = n_b \\+ 1 = 4, got n_t = {n_t}"):
            coefficient_to_distribution(g, 3, n_t=n_t)
    assert coefficient_to_distribution(g, 3, n_t=4) == full_distribution(3, 4)
    h = second_gf_expand(5)
    assert coefficient_to_distribution(h, 3) == full_distribution(3, 3)
    with pytest.raises(ValueError, match="n_t = n_b \\+ 0 = 3, got n_t = 4"):
        coefficient_to_distribution(h, 3, n_t=4)
    assert (g.score_offset, h.score_offset) == (1, 0)
    assert (g.rank_one_power, h.rank_one_power) == (0, 1)


def test_coefficient_to_distribution_shifted_flag():
    # by default the read follows the power each series records; g's row n_b
    # has n_b entries, so the shifted read of rank n_b + 1 lies past its end
    # at every order the budget admits
    for order in (8, SERIES_ORDER_BUDGET):
        g, h = eulerian_gf(order), second_gf_expand(order)
        for n_b in range(1, order + 1):
            d = coefficient_to_distribution(g, n_b)
            assert coefficient_to_distribution(g, n_b, shifted=True) == d
            assert d == full_distribution(n_b, n_b + 1)
        for n_b in range(2, order + 1):
            assert coefficient_to_distribution(h, n_b, shifted=False) == (
                coefficient_to_distribution(h, n_b)
            )


def test_coefficient_to_distribution_beyond_truncation():
    with pytest.raises(ValueError):
        coefficient_to_distribution(eulerian_gf(4), 5)


@pytest.mark.parametrize("gf", [eulerian_gf, second_gf_expand])
def test_order_budget_trips_before_any_series(monkeypatch, gf):
    def unreachable(*args, **kwargs):
        raise AssertionError("a series was built past the budget check")

    monkeypatch.setattr(series, "_div_one_minus_y", unreachable)
    order = series.SERIES_ORDER_BUDGET + 1
    message = f"order = {order} exceeds the series budget {series.SERIES_ORDER_BUDGET}"
    with pytest.raises(ValueError, match=message):
        gf(order)


def test_eulerian_gf_rows_equal_eulerian_numbers_to_budget():
    g = eulerian_gf(SERIES_ORDER_BUDGET)
    for n in range(1, SERIES_ORDER_BUDGET + 1):
        assert g.rows[n] == [eulerian(n, k) for k in range(n)]


def test_second_gf_rows_equal_full_distribution_to_budget():
    h = second_gf_expand(SERIES_ORDER_BUDGET)
    for n_b in range(2, SERIES_ORDER_BUDGET + 1):
        assert coefficient_to_distribution(h, n_b, n_t=n_b) == full_distribution(n_b, n_b)


_RESULT_TYPE_ONLY = [("two_race", "RankDistribution")]
_TRIANGLES_ONLY = [("combinatorics", name) for name in ("factorial", "stirling2")]


@pytest.mark.parametrize(
    "module, expected",
    [
        pytest.param(series, _RESULT_TYPE_ONLY, id="racerank.series"),
        pytest.param(lattice_oracle, _RESULT_TYPE_ONLY, id="racerank.lattice_oracle"),
        pytest.param(two_race, _TRIANGLES_ONLY, id="racerank.two_race"),
    ],
)
def test_route_imports_no_formula(module, expected):
    # series and lattice_oracle check the closed forms, so they may share only
    # the result type; the closed forms read the recurrence triangles, never
    # the explicit-sum stirling_diagonal that verify pits against them
    imported = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("racerank")):
            source = (node.module or "").removeprefix("racerank.")
            imported += [(source, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(a.name, None) for a in node.names if a.name.startswith("racerank")]
    assert imported == expected
