import inspect
import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racerank import lattice_oracle
from racerank.combinatorics import stirling_diagonal
from racerank.lattice_oracle import (
    brute_force_composition,
    brute_force_score,
    brute_force_two_race,
    count_compatible_subsets,
)
from racerank.two_race import full_distribution


def test_count_compatible_subsets_worked_example():
    assert count_compatible_subsets(5) == [1, 6, 7, 1]


def test_count_compatible_subsets_by_direct_subset_filter():
    # independent in-test recount: filter all subsets explicitly
    for n_t in range(2, 7):
        pts = [(x, y) for x in range(1, n_t) for y in range(1, n_t) if x + y < n_t]
        direct = [
            sum(
                1
                for sub in itertools.combinations(pts, size)
                if all(
                    p[0] != q[0] and p[1] != q[1]
                    for p, q in itertools.combinations(sub, 2)
                )
            )
            for size in range(n_t)
        ]
        # no n_t - 1 points of the staircase share no row and no column
        assert direct[-1] == 0
        assert count_compatible_subsets(n_t) == direct[:-1]


def test_count_compatible_subsets_matches_diagonal_stirling():
    # up to n_t = 12, the last score the budget admits
    for n_t in range(2, 13):
        row = [stirling_diagonal(n_t, i + 1) for i in range(n_t - 1)]
        assert count_compatible_subsets(n_t) == row


def test_count_compatible_subsets_budget_edge():
    assert math.factorial(11) <= lattice_oracle.DEFAULT_BUDGET < math.factorial(12)
    assert count_compatible_subsets(12)[1] == math.comb(11, 2) == 55
    with pytest.raises(ValueError, match=r"^enumeration needs 12! configurations"):
        count_compatible_subsets(13)


def test_brute_force_two_race_examples():
    assert brute_force_two_race(3, 4).probs == (
        Fraction(1, 6),
        Fraction(2, 3),
        Fraction(1, 6),
        Fraction(0),
    )
    assert brute_force_two_race(3, 3).probs == (Fraction(2, 3), Fraction(1, 3), 0, 0)
    assert brute_force_two_race(2, 2).probs == (1, 0, 0)


def test_brute_force_two_race_budget_and_range(monkeypatch):
    monkeypatch.setattr(lattice_oracle, "DEFAULT_BUDGET", 1000)
    with pytest.raises(ValueError, match="budget"):
        brute_force_two_race(9, 5)
    # `racerank dist --form bruteforce` prints these messages verbatim
    for args, message in (
        ((3, 8), "score n_t must be in [2, 7], got 8"),
        ((3, 1), "score n_t must be in [2, 7], got 1"),
        ((0, 2), "n_b must be >= 1, got 0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            brute_force_two_race(*args)


def test_brute_force_score_consistency_at_two_races():
    for n_t in range(2, 8):
        assert brute_force_score(3, 2, n_t) == brute_force_two_race(3, n_t)


def test_brute_force_score_frozen_values():
    # frozen from the oracle, cross-checked against a full unrelabeled
    # enumeration of all (n_b!)^n_r configurations
    assert brute_force_score(3, 3, 6).probs == (
        Fraction(1, 18),
        Fraction(7, 9),
        Fraction(1, 6),
        Fraction(0),
    )
    assert brute_force_score(2, 3, 4).probs == (Fraction(3, 4), Fraction(1, 4), 0)


@pytest.mark.parametrize(
    "n_b, n_r, n_t",
    [(3, 3, 6)]
    + [(n_b, 1, n_t) for n_b in range(1, 5) for n_t in range(1, n_b + 2)]
    + [(4, 3, n_t) for n_t in (5, 8, 11)],
)
def test_brute_force_score_unrelabeled_crosscheck(n_b, n_r, n_t):
    perms = list(itertools.permutations(range(1, n_b + 1)))
    counts = Counter()
    for races in itertools.product(perms, repeat=n_r):
        m = 1 + sum(
            1 for i in range(n_b) if sum(r[i] for r in races) < n_t
        )
        counts[m] += 1
    total = len(perms) ** n_r
    expected = tuple(Fraction(counts[m], total) for m in range(1, n_b + 2))
    assert brute_force_score(n_b, n_r, n_t).probs == expected


@pytest.mark.parametrize("n_t", range(2, 20))
def test_brute_force_two_race_past_the_order_table(n_t):
    # n_b = 9 deals two values of the last race before the 7-wide table
    assert brute_force_two_race(9, n_t) == full_distribution(9, n_t)


@pytest.mark.parametrize("r", range(1, 10))
def test_brute_force_composition_one_race_past_the_order_table(r):
    # exactly r - 1 of the leftover values 1..9 without r lie below r
    probs = brute_force_composition(9, (r,)).probs
    assert probs == tuple(Fraction(int(m == r)) for m in range(1, 10))


@st.composite
def enumerations(draw):
    """(fixed, races) of a small score-mode fleet at n_r in {1, 2, 3}, as
    ``brute_force_score`` deals it, or of a composition-mode one at
    n_r <= 3, as ``brute_force_composition`` deals it; n_b = 8 at n_r = 2
    deals one value before the 7-wide order table."""
    n_r = draw(st.integers(1, 3))
    if draw(st.booleans()):
        n_b = draw(st.integers(1, {1: 9, 2: 8, 3: 4}[n_r]))
        values = range(1, n_b + 1)
        return values, [values] * (n_r - 1)
    n_b = draw(st.integers(1, {1: 9, 2: 6, 3: 4}[n_r]))
    ranks = draw(st.lists(st.integers(1, n_b), min_size=n_r, max_size=n_r))
    return [0] * (n_b - 1), [[v for v in range(1, n_b + 1) if v != r] for r in ranks]


@settings(max_examples=60, deadline=None)
@given(enumerations(), st.data())
def test_rank_law_over_thresholds_equals_one_call_per_threshold(case, data):
    fixed, races = case
    top = len(fixed) * (len(races) + 1) + 2
    thresholds = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=8, unique=True))
    # each comparison's BATCH_CELLS bounds a batch of heads at one threshold
    cells = data.draw(st.sampled_from([1, 700, lattice_oracle.BATCH_CELLS]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice_oracle, "BATCH_CELLS", cells)
        rows, need = lattice_oracle._rank_law(fixed, races, thresholds)
    alone = [lattice_oracle._rank_law(fixed, races, [t]) for t in thresholds]
    assert rows == [row for (row,), _ in alone]
    assert {need} == {n for _, n in alone}
    assert all(sum(row) == need for row in rows)


@pytest.mark.parametrize("cells", [700, lattice_oracle.BATCH_CELLS])
@pytest.mark.parametrize("n_b, n_r", [(4, 3), (5, 2), (6, 2), (7, 2)])
def test_comparisons_stay_within_batch_cells(monkeypatch, cells, n_b, n_r):
    # every score of the fleet in one walk, and no comparison of the order
    # table wider than BATCH_CELLS, or than one row of the table
    values = range(1, n_b + 1)
    scores = list(range(n_r, n_r * n_b + 2))
    expected = lattice_oracle._rank_law(values, [values] * (n_r - 1), scores)
    sizes = []
    real = lattice_oracle._orders

    class Recording(np.ndarray):
        def __lt__(self, other):
            out = np.asarray(self) < other
            sizes.append(out.size)
            return out

    monkeypatch.setattr(lattice_oracle, "_orders", lambda k: real(k).view(Recording))
    monkeypatch.setattr(lattice_oracle, "BATCH_CELLS", cells)
    assert lattice_oracle._rank_law(values, [values] * (n_r - 1), scores) == expected
    assert sizes and max(sizes) <= max(cells, real(n_b).size)


@pytest.mark.parametrize("n_b", [4, 5])
def test_rank_law_walks_the_heads_once_for_all_thresholds(monkeypatch, n_b):
    # score mode at n_r = 3 has one head race: its n_b! orders are walked
    # once, for every score of the fleet as for one score
    heads = []

    class Counting:
        def __getattr__(self, name):
            return getattr(itertools, name)

        def product(self, *races):
            for head in itertools.product(*races):
                heads.append(head)
                yield head

    monkeypatch.setattr(lattice_oracle, "itertools", Counting())
    scores = list(range(3, 3 * n_b + 2))
    laws = lattice_oracle._score_laws(n_b, 3, scores)
    assert len(heads) == math.factorial(n_b)
    heads.clear()
    assert lattice_oracle._score_laws(n_b, 3, scores[:1]) == laws[:1]
    assert len(heads) == math.factorial(n_b)


@pytest.mark.parametrize("k", range(lattice_oracle.ORDER_TABLE_WIDTH + 1))
def test_order_table_holds_every_order_once(k):
    # the oracle is exhaustive only if the table misses no order and repeats none
    table = lattice_oracle._orders(k)
    orders = [tuple(column) for column in table.T.tolist()]
    assert table.shape == (k, math.factorial(k))
    # row j is boat j's position in every order, contiguous, and the cached table is shared
    assert table.flags.c_contiguous and not table.flags.writeable
    assert len(set(orders)) == len(orders)
    assert set(orders) == set(itertools.permutations(range(k)))


def test_brute_force_score_budget(monkeypatch):
    monkeypatch.setattr(lattice_oracle, "DEFAULT_BUDGET", 10**6)
    with pytest.raises(ValueError, match="budget"):
        brute_force_score(6, 5, 12)


@pytest.mark.parametrize(
    "n_b, n_r, n_t, message",
    [
        (3, 2, 1, "score n_t must be in [2, 7], got 1"),
        (3, 2, 8, "score n_t must be in [2, 7], got 8"),
        (2, 3, 2, "score n_t must be in [3, 7], got 2"),
        (2, 3, 8, "score n_t must be in [3, 7], got 8"),
        (4, 1, 0, "score n_t must be in [1, 5], got 0"),
    ],
)
def test_brute_force_score_rejects_unreachable_scores(n_b, n_r, n_t, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        brute_force_score(n_b, n_r, n_t)


@pytest.mark.parametrize(
    "oracle, args",
    [
        (brute_force_two_race, (9, 5)),
        (brute_force_score, (6, 2, 7)),
        (brute_force_score, (4, 3, 7)),
        (brute_force_composition, (5, (1, 2, 3))),
    ],
)
def test_budget_trips_before_any_permutation(monkeypatch, oracle, args):
    def refuse(*_):
        raise AssertionError("a permutation was generated over budget")

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} was used over budget")

    monkeypatch.setattr(lattice_oracle.itertools, "permutations", refuse)
    monkeypatch.setattr(lattice_oracle, "np", NoNumpy())
    monkeypatch.setattr(lattice_oracle, "DEFAULT_BUDGET", 10)
    with pytest.raises(ValueError, match="budget"):
        oracle(*args)


# each enumeration with its configuration count and the label that names it
ENUMERATIONS = [
    (lambda: count_compatible_subsets(5), 24, "4!"),
    (lambda: brute_force_two_race(3, 4), 6, "3!"),
    (lambda: brute_force_score(3, 3, 6), 36, "(3!)^2"),
    (lambda: brute_force_composition(4, (1, 2)), 36, "(3!)^2"),
]


@pytest.mark.parametrize(
    "call, need, label",
    ENUMERATIONS,
    ids=["count_compatible_subsets", "brute_force_two_race", "brute_force_score",
         "brute_force_composition"],
)
def test_default_budget_governs_every_enumeration(monkeypatch, call, need, label):
    # read when called: a patched budget moves every bound to the same edge
    monkeypatch.setattr(lattice_oracle, "DEFAULT_BUDGET", need)
    call()
    monkeypatch.setattr(lattice_oracle, "DEFAULT_BUDGET", need - 1)
    message = (
        f"enumeration needs {label} configurations, budget is {need - 1} "
        "(lattice_oracle.DEFAULT_BUDGET)"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_no_enumeration_takes_a_budget():
    for name in lattice_oracle.__all__:
        assert "budget" not in inspect.signature(getattr(lattice_oracle, name)).parameters


def test_brute_force_composition_dependence():
    d_equal = brute_force_composition(3, (2, 2, 2))
    d_split = brute_force_composition(3, (1, 2, 3))
    assert d_equal.n_t == d_split.n_t == 6
    assert d_equal.probs == (0, 1, 0)
    assert d_split.probs == (Fraction(1, 4), Fraction(3, 4), 0)
    assert d_equal.probs != d_split.probs


@pytest.mark.parametrize("n_b, ranks", [(1, (1, 1)), (4, (3,)), (4, (1, 4, 2))])
def test_brute_force_composition_unrelabeled_crosscheck(n_b, ranks):
    # every full race tuple in which boat 0 holds its fixed rank in each race
    perms = list(itertools.permutations(range(1, n_b + 1)))
    score = sum(ranks)
    counts = Counter()
    for races in itertools.product(perms, repeat=len(ranks)):
        if all(r[0] == rank for r, rank in zip(races, ranks)):
            m = 1 + sum(
                1 for i in range(1, n_b) if sum(r[i] for r in races) < score
            )
            counts[m] += 1
    total = sum(counts.values())
    expected = tuple(Fraction(counts[m], total) for m in range(1, n_b + 1))
    assert brute_force_composition(n_b, ranks).probs == expected


def test_brute_force_composition_trivial_and_errors(monkeypatch):
    assert brute_force_composition(2, (1, 1)).probs == (1, 0)
    with pytest.raises(ValueError):
        brute_force_composition(3, (0, 2, 2))
    with pytest.raises(ValueError):
        brute_force_composition(3, (4, 2, 2))
    monkeypatch.setattr(lattice_oracle, "DEFAULT_BUDGET", 10**3)
    with pytest.raises(ValueError, match="budget"):
        brute_force_composition(8, (1,) * 8)


def test_distributions_sum_to_one():
    for dist in (
        brute_force_two_race(4, 6),
        brute_force_score(3, 3, 7),
        brute_force_composition(4, (2, 3)),
    ):
        assert sum(dist.probs) == 1
