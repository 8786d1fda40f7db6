"""Acceptance gates for the package: one test per shipped guarantee, each
printing a PASS/FAIL line (visible with ``pytest -rA`` or ``-s``).

Gates 1-9 are exact (Fraction/int equality, no tolerances).  Gates 10-12
are statistical, run with the fixed default seed below, and sized so the
expected false-failure rate of the whole suite is well under 1e-3.

Gates 02-08 state no identity of their own: each runs its entries of
``racerank.checks.CHECKS`` (the one statement of every cross-route
identity, which ``racerank verify`` runs too) at their ``full`` bounds:

- 02: "middle-score identity" (the n_t = n_b + 1 law is the Eulerian row over n_b!)
- 03: "alternating-sum form vs Stirling form"
- 04: "closed form vs brute-force enumeration"
- 05: "excedance histogram vs Eulerian rows"
- 06: "lattice subset counts vs diagonal Stirling"
- 07: "lattice partition recurrence" and "binomial-weighted Stirling sum"
- 08: "Eulerian via Stirling transform"

``tests/test_checks.py`` shows that each entry catches a corrupted route.

Known red
---------
Gate 11a (mean sweep) fails by construction and is left failing on
purpose.  The normal-limit mean curve n_b * Phi(z) keeps only the leading
"number of boats beaten" term of the final rank m = 1 + #beaten, so Monte
Carlo means sit ~0.9 rank above the curve (the +1, minus a ~0.13 lattice
continuity correction at the middle).  At 10^4 trials the Monte Carlo
standard error is ~0.04, so a 3-standard-error gate resolves the omitted
term at ~20 sigma; no seed or in-range grid can pass it.  The variance
gate 11b is offset-free (variances ignore shifts) and passes.  The
formula's docstring (racerank.asymptotics.mean_final_rank) states the
truncation, and the "Recent" section of ROADMAP.md gives the measured
offsets at every grid point.
"""

import math

import pytest

import racerank.montecarlo as mc
from _reference import EULERIAN_ROWS, SECOND_GF_ROWS
from racerank.asymptotics import rank_moments_theory
from racerank.checks import CHECKS
from racerank.combinatorics import eulerian_triangle
from racerank.lattice_oracle import brute_force_composition, brute_force_two_race
from racerank.montecarlo import (
    SimConfig,
    curve_sweep,
    empirical_rank_moments,
    middle_band_grid,
    simulate,
)
from racerank.series import (
    coefficient_to_distribution,
    eulerian_gf,
    second_gf_expand,
)
from racerank.two_race import full_distribution

SEED = 20260809


def report(gate: str, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {gate} {label}: {'PASS' if ok else 'FAIL'}")


# CHECKS entry name -> (full bound, check)
FULL_CHECKS = {name: (full, check) for name, _, _, full, check in CHECKS}


def full_check(name: str) -> bool:
    """Run the ``checks.CHECKS`` entry called ``name`` at its full bound."""
    bound, check = FULL_CHECKS[name]
    return bool(check(bound))


def test_01_eulerian_tables():
    ok = eulerian_triangle(7) == EULERIAN_ROWS
    report("01", "Eulerian rows 1..7 match the reference table", ok)
    assert ok


def test_02_middle_score_identity():
    ok = full_check("middle-score identity")
    report("02", "middle-score identity n_b! P(m) = E(n_b, m - 1) (n_b <= 10)", ok)
    assert ok


def test_03_formula_equivalence():
    ok = full_check("alternating-sum form vs Stirling form")
    report("03", "alternating-sum form = Stirling form (n_b <= 8, exact)", ok)
    assert ok


def test_04_oracle_equivalence():
    ok = full_check("closed form vs brute-force enumeration")
    report("04", "closed form = brute-force enumeration (n_b <= 7, all scores)", ok)
    assert ok


def test_05_excedance_statistic():
    ok = full_check("excedance histogram vs Eulerian rows")
    report("05", "excedance histogram = Eulerian rows (n <= 8)", ok)
    assert ok


def test_06_lattice_stirling_bridge():
    ok = full_check("lattice subset counts vs diagonal Stirling")
    report("06", "lattice subset counts = diagonal Stirling numbers (n_t <= 8)", ok)
    assert ok


def test_07_recurrence_chain():
    ok = full_check("lattice partition recurrence") and full_check(
        "binomial-weighted Stirling sum"
    )
    report("07", "partition recurrence on oracle counts and Stirling sum", ok)
    assert ok


def test_08_eulerian_stirling_correspondence():
    ok = full_check("Eulerian via Stirling transform")
    report("08", "Eulerian = Stirling-transform route (n <= 10)", ok)
    assert ok


def test_09_generating_functions():
    g = eulerian_gf(12)
    ok = g.rows[1] == [1]
    for n in range(1, 7):
        ok = ok and g.rows[n] == EULERIAN_ROWS[n - 1]
    second = second_gf_expand(12)
    for n, row in SECOND_GF_ROWS.items():
        ok = ok and second.rows[n] == row
    for n_b in range(1, 11):  # g is written one y power low
        dist = coefficient_to_distribution(g, n_b, shifted=True)
        ok = ok and dist == full_distribution(n_b, n_b + 1)
    for n_b in range(2, 11):
        ok = ok and coefficient_to_distribution(second, n_b, n_t=n_b) == (
            full_distribution(n_b, n_b)
        )
    for n_b in range(1, 8):  # brute-force oracle within its enumeration cap
        ok = ok and coefficient_to_distribution(g, n_b, shifted=True) == brute_force_two_race(
            n_b, n_b + 1
        )
        if n_b >= 2:
            ok = ok and coefficient_to_distribution(second, n_b, n_t=n_b) == (
                brute_force_two_race(n_b, n_b)
            )
    report("09", "generating functions match printed rows and exact/oracle rows", ok)
    assert ok


def _binwise_ok(empirical, exact, trials, sigmas=4.0):
    for p_hat, p in zip(empirical, exact):
        se = math.sqrt(p_hat * (1 - p_hat) / trials)
        if abs(p_hat - float(p)) > sigmas * max(se, 1e-12):
            return False
    return True


def test_10_composition_dependence():
    d_equal = brute_force_composition(3, (2, 2, 2))
    d_split = brute_force_composition(3, (1, 2, 3))
    ok = d_equal.probs != d_split.probs
    trials = 1_000_000
    mc_equal = simulate(
        SimConfig(n_b=3, n_r=3, trials=trials, seed=SEED, tracked_ranks=(2, 2, 2),
                  stream=0)
    )
    mc_split = simulate(
        SimConfig(n_b=3, n_r=3, trials=trials, seed=SEED, tracked_ranks=(1, 2, 3),
                  stream=1)
    )
    ok = ok and _binwise_ok(mc_equal.empirical_probs, d_equal.probs, trials)
    ok = ok and _binwise_ok(mc_split.empirical_probs, d_split.probs, trials)
    report("10", "same-score compositions differ; Monte Carlo agrees per bin", ok)
    assert ok


@pytest.fixture(scope="module")
def fig_sweep():
    grid = middle_band_grid(200, 30, points=21)
    assert len(grid) >= 21
    return curve_sweep(200, 30, grid, trials=10_000, seed=SEED)


def test_11a_sweep_mean_gate(fig_sweep):
    violations = []
    for row in fig_sweep:
        gap = abs(row.mean_mc - row.mean_theory)
        if gap > 3 * row.stderr_mean:
            violations.append((row.n_t, gap, row.stderr_mean))
    ok = not violations
    report("11a", "sweep means within 3 SE of n_b*Phi (known red)", ok)
    table = "\n".join(
        f"  n_t={n_t}: |mc - theory| = {gap:.3f}, 3*SE = {3 * se:.3f}"
        for n_t, gap, se in violations
    )
    assert ok, (
        "mean sweep gate failed, as analysed: the leading-order curve "
        "n_b*Phi(z) omits the +1 of m = 1 + #beaten, which 10^4 trials "
        "resolve at ~20 sigma (see this module's docstring and the "
        f"mean_final_rank docstring).  Violations:\n{table}"
    )


def test_11b_sweep_variance_gate(fig_sweep):
    middle = [row for row in fig_sweep if row.n_t == 3015]
    assert middle, "middle score missing from the sweep grid"
    row = middle[0]
    gap = abs(row.var_mc - row.var_theory)
    ok = gap <= 3 * row.stderr_var
    report("11b", "middle-score variance within 3 SE of damped formula", ok)
    assert ok, f"variance gap {gap:.3f} exceeds 3*SE = {3 * row.stderr_var:.3f}"


def test_12_correlated_rank_moments():
    ok = True
    trials = 100_000
    for n_b in (3, 10, 200):
        est = empirical_rank_moments(n_b, trials, seed=SEED)
        theory = rank_moments_theory(n_b)
        ok = ok and abs(est.mean - float(theory.mean)) <= 4 * est.se_mean
        ok = ok and abs(est.var_diag - float(theory.var_diag)) <= 4 * est.se_var
        ok = ok and abs(est.cov_offdiag - float(theory.cov_offdiag)) <= 4 * est.se_cov
        # sum rule holds exactly on every sample the estimator consumed,
        # ranked by the estimator's own scorer
        expected_sum = n_b * (n_b + 1) // 2
        tags, score = mc._rank_sums(trials, 1, n_b)
        for orders in mc._order_chunks(SEED, 0, trials, tags):
            ranks = score(orders)
            ok = ok and bool((ranks.sum(axis=1) == expected_sum).all())
    report("12", "permutation moments match theory at 4 SE; sum rule exact", ok)
    assert ok
