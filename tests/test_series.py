import ast
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from racerank import lattice_oracle, series, two_race
from racerank.combinatorics import eulerian, factorial
from racerank.series import (
    SERIES_ORDER_BUDGET,
    ExactDivisionError,
    PolyY,
    SeriesX,
    coefficient_to_distribution,
    eulerian_gf,
    middle_score_gf,
    second_gf_expand,
)
from racerank.two_race import full_distribution, p_middle

ONE = PolyY((1,))

# n! * (x^n coefficient of g) for n = 1..6, as printed rows
G_ROWS = {
    1: [1],
    2: [1, 1],
    3: [1, 4, 1],
    4: [1, 11, 11, 1],
    5: [1, 26, 66, 26, 1],
    6: [1, 57, 302, 302, 57, 1],
}

# x^n coefficient of the second generating function, n = 2..6
SECOND_ROWS = {
    2: PolyY((0, 1)),
    3: PolyY((0, Fraction(2, 3), Fraction(1, 3))),
    4: PolyY((0, Fraction(4, 12), Fraction(7, 12), Fraction(1, 12))),
    5: PolyY((0, Fraction(8, 60), Fraction(33, 60), Fraction(18, 60), Fraction(1, 60))),
    6: PolyY(
        (
            0,
            Fraction(16, 360),
            Fraction(131, 360),
            Fraction(171, 360),
            Fraction(41, 360),
            Fraction(1, 360),
        )
    ),
}


def test_polyy_canonical_form():
    assert PolyY((1, 2, 0, 0)) == PolyY((1, 2))
    assert PolyY((0, 0)).degree == -1
    assert PolyY((0,)).coeffs == ()
    assert PolyY((Fraction(1, 2),))[0] == Fraction(1, 2)
    assert PolyY((1,))[5] == 0


def test_polyy_rejects_inexact_coefficients():
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            PolyY((1, bad))


def test_polyy_arithmetic():
    # only scalar products remain; the series are expanded in integer rows
    p = PolyY((1, 2))
    assert p * 2 == PolyY((2, 4))
    assert 2 * p == PolyY((2, 4))
    assert p * Fraction(1, 2) == PolyY((Fraction(1, 2), 1))
    with pytest.raises(TypeError):
        p * p
    with pytest.raises(TypeError):
        p + p


def test_polyy_division():
    # (1 - y^2) / (1 - y) = 1 + y and (1 - y^3) / (1 - y) = 1 + y + y^2
    assert series._div_one_minus_y([1, 0, -1]) == [1, 1]
    assert series._div_one_minus_y([1, 0, 0, -1]) == [1, 1, 1]
    assert series._div_one_minus_y([0]) == []


def test_series_order_mismatch_rejected():
    with pytest.raises(ValueError):
        SeriesX(2, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        SeriesX(-1)
    assert SeriesX(3, (0, 1)).coefficient(3) == PolyY()
    assert eulerian_gf(4) != eulerian_gf(5)


def test_eulerian_gf_printed_rows():
    g = eulerian_gf(8)
    assert g.coefficient(0) == PolyY()
    assert g.coefficient(1) == ONE
    for n, row in G_ROWS.items():
        assert g.coefficient(n) * factorial(n) == PolyY(row)


def test_eulerian_gf_rows_are_palindromic_eulerian_rows():
    g = eulerian_gf(12)
    for n in range(1, 13):
        poly = g.coefficient(n) * factorial(n)
        coeffs = [poly[k] for k in range(n)]
        assert poly.degree <= n - 1
        assert coeffs == coeffs[::-1]
        assert all(c >= 0 and c.denominator == 1 for c in coeffs)
        assert sum(coeffs) == factorial(n)
        assert coeffs == [eulerian(n, k) for k in range(n)]


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
        product = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            for i, a in enumerate((g.coefficient(k) * factorial(k)).coeffs):
                product[i + n - k] += comb(n, k) * a
                product[i + 1] -= comb(n, k) * a
        numerator = [1] + [0] * n
        numerator[n] -= 1
        assert PolyY(product) == PolyY(numerator)


def test_integration():
    # second_gf_expand = (y - 1) * integral(g) + g - x, where the x^n
    # coefficient of integral(g) is the x^(n-1) coefficient of g over n
    g, h = eulerian_gf(8), second_gf_expand(8)
    assert h.coefficient(0) == PolyY()
    for n in range(1, 9):
        prev = g.coefficient(n - 1)
        expected = [
            g.coefficient(n)[k] + (prev[k - 1] - prev[k]) / n - (n == 1 and k == 0)
            for k in range(n + 1)
        ]
        assert h.coefficient(n) == PolyY(expected)


def test_second_gf_printed_rows():
    h = second_gf_expand(8)
    for n, row in SECOND_ROWS.items():
        assert h.coefficient(n) == row
    with pytest.raises(ValueError):
        second_gf_expand(1)


def test_coefficient_to_distribution_examples():
    yg = middle_score_gf(10)
    d5 = coefficient_to_distribution(yg, 5)
    assert d5.probs == tuple(Fraction(c, 120) for c in (1, 26, 66, 26, 1, 0))
    h = second_gf_expand(10)
    assert coefficient_to_distribution(h, 3, n_t=3) == full_distribution(3, 3)
    d2 = coefficient_to_distribution(h, 2, n_t=2)
    assert d2.probs == (1, 0, 0)


def test_coefficient_to_distribution_refuses_a_foreign_score():
    # the middle row once came back labelled with any n_t it was given
    yg = middle_score_gf(5)
    for n_t in (3, 99):
        with pytest.raises(ValueError, match=f"n_t = n_b \\+ 1 = 4, got n_t = {n_t}"):
            coefficient_to_distribution(yg, 3, n_t=n_t)
    assert coefficient_to_distribution(yg, 3, n_t=4) == full_distribution(3, 4)
    h = second_gf_expand(5)
    assert coefficient_to_distribution(h, 3) == full_distribution(3, 3)
    with pytest.raises(ValueError, match="n_t = n_b \\+ 0 = 3, got n_t = 4"):
        coefficient_to_distribution(h, 3, n_t=4)
    assert (eulerian_gf(5).score_offset, yg.score_offset, h.score_offset) == (1, 1, 0)


def test_hand_built_series_takes_any_score():
    s = SeriesX(1, (0, PolyY((0, 1))))
    assert s.score_offset is None
    assert coefficient_to_distribution(s, 1).n_t == 2
    assert coefficient_to_distribution(s, 1, n_t=7).n_t == 7
    assert s != SeriesX(1, (0, PolyY((0, 1))), score_offset=1)


def test_coefficient_to_distribution_shifted_flag():
    g = eulerian_gf(8)
    yg = middle_score_gf(8)
    for n_b in range(1, 9):
        assert coefficient_to_distribution(g, n_b, shifted=True) == (
            coefficient_to_distribution(yg, n_b)
        )


def test_coefficient_to_distribution_beyond_truncation():
    with pytest.raises(ValueError):
        coefficient_to_distribution(middle_score_gf(4), 5)


def test_series_rows_match_two_race_to_10():
    yg = middle_score_gf(10)
    for n_b in range(1, 11):
        d = coefficient_to_distribution(yg, n_b)
        assert d.probs == tuple(p_middle(n_b, m) for m in range(1, n_b + 2))
    h = second_gf_expand(10)
    for n_b in range(2, 11):
        assert coefficient_to_distribution(h, n_b, n_t=n_b) == full_distribution(
            n_b, n_b
        )


@pytest.mark.parametrize("gf", [eulerian_gf, middle_score_gf, second_gf_expand])
def test_order_budget_trips_before_any_series(monkeypatch, gf):
    def unreachable(*args, **kwargs):
        raise AssertionError("a series was built past the budget check")

    monkeypatch.setattr(series, "_div_one_minus_y", unreachable)
    order = series.SERIES_ORDER_BUDGET + 1
    message = f"order = {order} exceeds the series budget {series.SERIES_ORDER_BUDGET}"
    with pytest.raises(ValueError, match=message):
        gf(order)


def test_seriesx_budget_trips_before_any_padding(monkeypatch):
    assert SeriesX(SERIES_ORDER_BUDGET).order == SERIES_ORDER_BUDGET

    def unreachable(*args, **kwargs):
        raise AssertionError("a coefficient was padded past the budget check")

    monkeypatch.setattr(series, "PolyY", unreachable)
    with pytest.raises(ValueError, match="exceeds the series budget"):
        SeriesX(SERIES_ORDER_BUDGET + 1)


def test_eulerian_gf_rows_equal_eulerian_numbers_to_budget():
    g = eulerian_gf(SERIES_ORDER_BUDGET)
    for n in range(1, SERIES_ORDER_BUDGET + 1):
        poly = g.coefficient(n) * factorial(n)
        assert poly.coeffs == tuple(eulerian(n, k) for k in range(n))


def test_second_gf_rows_equal_full_distribution_to_budget():
    h = second_gf_expand(SERIES_ORDER_BUDGET)
    for n_b in range(2, SERIES_ORDER_BUDGET + 1):
        assert coefficient_to_distribution(h, n_b, n_t=n_b) == full_distribution(n_b, n_b)


_RESULT_TYPE_ONLY = [("two_race", "RankDistribution")]
_TRIANGLES_ONLY = [("combinatorics", name) for name in ("eulerian", "factorial", "stirling2")]


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
