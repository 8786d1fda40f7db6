"""The exact routes' value classes are namedtuples that validate in
``__new__``: each keeps the repr and hash it had as a frozen dataclass,
refuses assignment, and checks the fields ``_replace`` and ``_make`` give it
as its constructor does."""

from fractions import Fraction

import pytest

from racerank import (
    AsymptoticParams,
    RankDistribution,
    eulerian_gf,
    full_distribution,
    rank_moments_theory,
)


def test_reprs_and_hashes_are_those_of_the_dataclasses():
    d = full_distribution(3, 4)
    assert repr(d) == "RankDistribution(n_b=3, n_t=4, counts=(1, 4, 1, 0), total=6)"
    assert hash(d) == hash((3, 4, (1, 4, 1, 0), 6)) == 3301799234102449858
    p = AsymptoticParams(200, 30)
    assert repr(p) == "AsymptoticParams(n_b=200, n_r=30)"
    assert hash(p) == hash((200, 30)) == -8653794153026940794
    m = rank_moments_theory(3)
    assert repr(m) == (
        "RankMoments(mean=Fraction(2, 1), var_diag=Fraction(2, 3), cov_offdiag=Fraction(-1, 3))"
    )
    assert hash(m) == hash((Fraction(2), Fraction(2, 3), Fraction(-1, 3))) == 1084448918386811073
    s = eulerian_gf(3)
    assert repr(s) == "SeriesX(rows=[[], [1], [1, 1], [1, 4, 1]], score_offset=1, rank_one_power=0)"
    with pytest.raises(TypeError, match="^unhashable type: 'list'$"):
        hash(s)  # its rows are lists, as they were


def test_fields_cannot_be_assigned():
    d = full_distribution(3, 4)
    with pytest.raises(AttributeError):
        d.total = 2
    with pytest.raises(AttributeError):
        d.extra = 1  # no instance __dict__: every class sets __slots__ = ()
    assert d == (3, 4, (1, 4, 1, 0), 6)  # the tuple of its fields, unchanged


def test_replace_and_make_are_checked_by_the_constructor():
    d = full_distribution(3, 4)
    with pytest.raises(ValueError, match=r"^RankDistribution: total must be positive, got 0$"):
        d._replace(total=0)
    with pytest.raises(ValueError, match="^RankDistribution: probabilities must sum to exactly 1$"):
        RankDistribution._make((3, 4, (1, 1), 1))
    # an accepted row is reduced as the constructor reduces it
    assert d._replace(counts=(2, 8, 2, 0), total=12) == d
    assert RankDistribution._make((3, 4, (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6), 0))) == d
    p = AsymptoticParams(200, 30)
    with pytest.raises(ValueError, match="^n_b and n_r must be >= 1$"):
        p._replace(n_r=0)
    with pytest.raises(ValueError, match="^n_b and n_r must be >= 1$"):
        AsymptoticParams._make((0, 30))
    with pytest.raises(TypeError):
        p._replace(n_b=2.5)


def test_smallest_geometry_is_admitted():
    p = AsymptoticParams(1, 1)
    assert p == (1, 1)
    assert (p.middle_score, p.lam) == (1, Fraction(1, 6))
