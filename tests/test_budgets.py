"""One budget table over ``racerank.__all__``, the one proof of every budget
path; the other budget tests check each budget's edge.

Every public name either has oversized calls or an entry saying why no
argument of it sizes the work.  The ``OVERSIZED`` table, in
``tests/_budgets.py`` with the refusal templates every budget test reads,
lists one (call, message) pair per path to a name's budget, such as both
halves of a two-race law or each way a Monte Carlo run spends its words.
Each call must be refused with a ``ValueError`` whose message is exactly the
pinned one, which names the budget constant, before any of the name's
builders is touched.  A new public name with neither entry fails
``test_every_public_name_has_an_entry``, a budget constant that no pinned
message names fails ``test_every_budget_is_proved``, and a refusal's text
written outside ``tests/_budgets.py`` fails
``test_refusal_texts_are_written_once``.  A blocked builder fails through
the one stand-in of ``tests/_doubles.py``, and a test module that writes its
own fails ``test_stand_ins_are_written_once``.
"""

import ast
from pathlib import Path

import pytest

from _budgets import OVERSIZED, REFUSAL_TEXT, assert_refused
import racerank
from racerank import combinatorics, lattice_oracle, montecarlo, series, two_race

# public name -> why no argument sizes its work
NO_SIZE = {
    "AsymptoticParams": "two Fractions of n_b and n_r",
    "rank_moments_theory": "three Fractions of n_b",
    "centered_score": "a few float operations",
    "mean_final_rank": "a few float operations",
    "variance_final_rank": "a few float operations",
    "normal_cdf": "one erf",
    "CurvePoint": "a record of given numbers",
    "RankMoments": "a record of given numbers",
    "RankMomentsEstimate": "a record of given numbers",
    "SimResult": "a record of given numbers",
    "SeriesX": "holds the rows it is given",
    "RankDistribution": "checks the counts it is given",
    "distribution_moments": "one pass over a given distribution",
    "coefficient_to_distribution": "reads one coefficient of a series already built",
}


def test_every_public_name_has_an_entry():
    assert not OVERSIZED.keys() & NO_SIZE.keys()
    assert sorted(racerank.__all__) == sorted(OVERSIZED.keys() | NO_SIZE.keys())


def test_every_budget_is_proved():
    # every refusal ends by naming the constant that sets it, so a budget
    # added without a row here fails
    modules = combinatorics, two_race, series, lattice_oracle, montecarlo
    declared = {
        f"{module.__name__.rpartition('.')[2]}.{name}"
        for module in modules
        for name in vars(module)
        if name.endswith("_BUDGET")
    }
    named = {
        message.rpartition("(")[2].removesuffix(")")
        for _, *refusals in OVERSIZED.values()
        for _, message in refusals
    }
    assert named == declared


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_call_refuses_before_building(monkeypatch, name):
    builders, *refusals = OVERSIZED[name]
    for call, message in refusals:
        assert_refused(monkeypatch, builders, call, message)


def test_refusal_texts_are_written_once():
    # every budget test reads its refusal from tests/_budgets.py, so a
    # budget's text is edited in one place
    copies = [
        f"{path.name}:{number}"
        for path in sorted(Path(__file__).parent.glob("*.py"))
        if path.name != "_budgets.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if REFUSAL_TEXT.search(line)
    ]
    assert copies == []


def _is_stand_in(node):
    # a function whose whole body, past a docstring, is `raise AssertionError(...)`
    if not isinstance(node, ast.FunctionDef):
        return False
    match node.body[1:] if ast.get_docstring(node) else node.body:
        case [ast.Raise(exc=ast.Name("AssertionError") | ast.Call(func=ast.Name("AssertionError")))]:
            return True
    return False


def test_stand_ins_are_written_once():
    # code that must not run is blocked with _doubles.block, whose failure
    # names what was reached
    stand_ins = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(__file__).parent.glob("*.py"))
        if path.name != "_doubles.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if _is_stand_in(node)
    ]
    assert stand_ins == []
