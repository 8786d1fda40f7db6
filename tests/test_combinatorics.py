from fractions import Fraction

import pytest

from racerank import combinatorics, two_race
from racerank.combinatorics import (
    binomial,
    eulerian,
    eulerian_from_stirling,
    eulerian_triangle,
    factorial,
    stirling2,
    stirling_binomial_sum,
    stirling_diagonal,
    stirling_triangle,
)

def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(4) == 24
    assert factorial(7) == 5040


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


@pytest.mark.parametrize(
    "n, k, expected",
    [(4, 2, 6), (2, 3, 0), (4, 1, 4), (0, 0, 1), (-1, 0, 0), (5, -2, 0)],
)
def test_binomial(n, k, expected):
    assert binomial(n, k) == expected


def test_eulerian_values():
    assert eulerian(3, 1) == 4
    assert eulerian(6, 2) == 302
    assert eulerian(5, 4) == 1
    assert eulerian(4, -1) == 0
    assert eulerian(4, 4) == 0
    with pytest.raises(ValueError):
        eulerian(0, 0)


def test_stirling2_values():
    assert stirling2(4, 2) == 7
    assert stirling2(4, 3) == 6
    for n in range(13):
        assert stirling2(n, n) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(5, 6) == 0
    assert stirling2(0, 0) == 1


def test_stirling_triangle_row4():
    assert stirling_triangle(4)[3] == [1, 7, 6, 1]


def _bell_numbers(n_max):
    # Bell triangle, independent of the module's recurrence; returns B_0..B_n_max
    rows = [[1]]
    for _ in range(n_max):
        prev = rows[-1]
        new = [prev[-1]]
        for v in prev:
            new.append(new[-1] + v)
        rows.append(new)
    return [r[0] for r in rows]


def test_stirling_rows_sum_to_bell():
    bell = _bell_numbers(10)
    for n in range(1, 11):
        assert sum(stirling_triangle(n)[-1]) == bell[n]


def test_stirling_diagonal_worked_list():
    assert [stirling_diagonal(5, i) for i in (1, 2, 3, 4)] == [1, 6, 7, 1]


def test_stirling_diagonal_rejects_out_of_range():
    with pytest.raises(ValueError):
        stirling_diagonal(5, 0)
    with pytest.raises(ValueError):
        stirling_diagonal(5, 5)
    with pytest.raises(ValueError):
        stirling_diagonal(1, 1)


def test_eulerian_from_stirling_values():
    # -C(2,1)*1!*S(3,1) + C(1,1)*2!*S(3,2) = -2 + 6
    assert eulerian_from_stirling(3, 1) == 4
    assert eulerian_from_stirling(3, 0) == 1
    assert eulerian_from_stirling(4, 1) == 11


def test_eulerian_from_stirling_rejects_out_of_range():
    with pytest.raises(ValueError):
        eulerian_from_stirling(4, 4)
    with pytest.raises(ValueError):
        eulerian_from_stirling(4, -1)


def test_stirling_binomial_sum_values():
    # S(1,1)C(4,1) + S(2,1)C(4,2) + S(3,1)C(4,3) + S(4,1)C(4,4) = 4+6+4+1
    assert stirling_binomial_sum(4, 1) == 15
    assert stirling_binomial_sum(3, 1) == 7
    for n in range(13):
        assert stirling_binomial_sum(n, n) == 1


def test_fraction_arithmetic_is_canonical():
    # the exact-rational carrier used across the package
    pairs = [(1, 2), (-3, 7), (10, 4), (6, -8), (123456789, 987654321)]
    for a, b in pairs:
        x = Fraction(a, b)
        assert x * (1 / x) == 1
        assert Fraction(x.numerator, x.denominator) == x  # normalization idempotent
        assert x.denominator > 0
    assert Fraction(2, 4) == Fraction(1, 2)



class _NoNewRows(list):
    def append(self, row):
        raise AssertionError("a triangle row was built")


TRIANGLE_ENTRY_POINTS = {
    "eulerian": lambda n: eulerian(n, 0),
    "eulerian_triangle": eulerian_triangle,
    "stirling2": lambda n: stirling2(n, 0),
    "stirling_triangle": stirling_triangle,
    "eulerian_from_stirling": lambda n: eulerian_from_stirling(n, 0),
    "stirling_binomial_sum": lambda n: stirling_binomial_sum(n, 0),
    "stirling_diagonal": lambda n: stirling_diagonal(n + 1, 1),  # reads row score - 1
}


@pytest.mark.parametrize("entry", TRIANGLE_ENTRY_POINTS)
def test_triangle_budget_trips_before_any_row(monkeypatch, entry):
    monkeypatch.setattr(combinatorics, "_eulerian_rows", _NoNewRows([[1]]))
    monkeypatch.setattr(combinatorics, "_stirling_rows", _NoNewRows([[1]]))
    budget = combinatorics.TRIANGLE_ROW_BUDGET
    message = (
        f"row n = {budget + 1} exceeds the triangle budget {budget} "
        r"\(combinatorics.TRIANGLE_ROW_BUDGET\)"
    )
    with pytest.raises(ValueError, match=message):
        TRIANGLE_ENTRY_POINTS[entry](budget + 1)


@pytest.mark.parametrize("entry", TRIANGLE_ENTRY_POINTS)
def test_triangle_budget_admits_its_bound(monkeypatch, entry):
    # two_race reads rows up to its own budget; fresh caches keep the rows
    # this test builds out of the rest of the session
    assert combinatorics.TRIANGLE_ROW_BUDGET >= two_race.EXACT_N_B_BUDGET
    monkeypatch.setattr(combinatorics, "_eulerian_rows", [[1]])
    monkeypatch.setattr(combinatorics, "_stirling_rows", [[1]])
    TRIANGLE_ENTRY_POINTS[entry](combinatorics.TRIANGLE_ROW_BUDGET)
