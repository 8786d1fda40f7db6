from fractions import Fraction

import pytest

from racerank import series
from racerank.combinatorics import eulerian, factorial
from racerank.series import (
    ExactDivisionError,
    PolyY,
    SeriesX,
    coefficient_to_distribution,
    eulerian_gf,
    exp_xy,
    middle_score_gf,
    second_gf_expand,
    series_div_exact,
    x_monomial,
)
from racerank.two_race import full_distribution, p_middle

Y = PolyY((0, 1))
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
    assert not PolyY()
    assert PolyY((Fraction(1, 2),))[0] == Fraction(1, 2)
    assert PolyY((1,))[5] == 0


def test_polyy_arithmetic():
    p = PolyY((1, 2))
    q = PolyY((0, 1, 3))
    assert p + q == PolyY((1, 3, 3))
    assert p - p == PolyY()
    assert p * q == PolyY((0, 1, 5, 6))
    assert p * 2 == PolyY((2, 4))
    assert 2 * p == PolyY((2, 4))
    assert p * Fraction(1, 2) == PolyY((Fraction(1, 2), 1))


def test_polyy_division():
    # (1 - y^2) / (1 - y) = 1 + y
    num = PolyY((1, 0, -1))
    den = PolyY((1, -1))
    assert num.div_exact(den) == PolyY((1, 1))
    q, r = divmod(PolyY((1,)), den)
    assert q == PolyY() and r == ONE
    with pytest.raises(ExactDivisionError):
        PolyY((1,)).div_exact(den)
    with pytest.raises(ZeroDivisionError):
        divmod(num, PolyY())


def test_polyy_str():
    assert str(PolyY((1, 4, 1))) == "y^2 + 4*y + 1"
    assert str(PolyY()) == "0"
    assert str(PolyY((0, -1))) == "-y"


def test_series_basic_arithmetic():
    x = x_monomial(6)
    x2 = x * x
    assert x2.coefficient(2) == ONE and x2.coefficient(1) == PolyY()
    ex = exp_xy(1, 6)
    emx = exp_xy(-1, 6)
    prod = ex * emx
    assert prod.coefficient(0) == ONE
    for n in range(1, 7):
        assert prod.coefficient(n) == PolyY()


def test_series_order_mismatch_rejected():
    with pytest.raises(ValueError):
        exp_xy(1, 4) * exp_xy(1, 5)
    with pytest.raises(ValueError):
        exp_xy(1, 4) + exp_xy(1, 5)


def test_exp_xy_coefficients():
    exy = exp_xy(Y, 5)
    assert exy.coefficient(3) == PolyY((0, 0, 0, Fraction(1, 6)))
    assert exp_xy(1, 5).coefficient(0) == ONE
    # division pivot of the Eulerian generating function
    den = exp_xy(Y, 5) - exp_xy(1, 5) * Y
    assert den.coefficient(0) == PolyY((1, -1))
    num = exp_xy(1, 5) - exp_xy(Y, 5)
    assert num.coefficient(1) == PolyY((1, -1))


def test_exp_xy_rejects_high_degree_weight():
    with pytest.raises(ValueError):
        exp_xy(PolyY((0, 0, 1)), 4)


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
    # 1 / (1 - y) is not a polynomial: must fail loudly at order 0
    num = exp_xy(1, 3)
    den = exp_xy(Y, 3) - exp_xy(1, 3) * Y
    with pytest.raises(ExactDivisionError):
        series_div_exact(num, den)


def test_series_div_exact_zero_pivot():
    x = x_monomial(3)
    with pytest.raises(ZeroDivisionError):
        series_div_exact(exp_xy(1, 3), x)


def test_series_div_round_trip():
    # q = num / den reproduces num when multiplied back (mod x^9)
    g = eulerian_gf(8)
    num = exp_xy(1, 8) - exp_xy(Y, 8)
    den = exp_xy(Y, 8) - exp_xy(1, 8) * Y
    assert g * den == num


def test_integration():
    one = SeriesX(4, (ONE,))
    assert one.integrate().coefficient(1) == ONE
    x = x_monomial(4)
    assert x.integrate().coefficient(2) == PolyY((Fraction(1, 2),))
    ig = eulerian_gf(6).integrate()
    assert ig.coefficient(0) == PolyY()
    assert ig.coefficient(2) == PolyY((Fraction(1, 2),))  # from the x^1 term of g
    assert ig.coefficient(3) == PolyY((Fraction(1, 6), Fraction(1, 6)))  # (1+y)/(3*2!)


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

    monkeypatch.setattr(series, "exp_xy", unreachable)
    order = series.SERIES_ORDER_BUDGET + 1
    message = f"order = {order} exceeds the series budget {series.SERIES_ORDER_BUDGET}"
    with pytest.raises(ValueError, match=message):
        gf(order)
