"""Tests of the benchmark itself, on shrunken workloads.

    PYTHONPATH=src python -m pytest bench
"""

import time

import numpy as np
import pytest

import racerank.cli
import racerank.montecarlo
import racerank.two_race
import workloads
from calibration import TICK_S, Speed, work_clock
from tracing import NUMPY_METRICS, SELF_TIME_METRICS


@pytest.fixture
def small(monkeypatch):
    for name, value in {
        "CURVE_TRIALS": 5,
        "TRACKED_TRIALS": 2000,
        "DROP_WORST_TRIALS": 2000,
        "MOMENTS_TRIALS": 2000,
        "EXACT_N_B": 8,
        "SERIES_ORDER": 8,
        "BRUTE_FORCE": ((3, 4), (4, 5)),
    }.items():
        monkeypatch.setattr(workloads, name, value)


def test_corrupted_output_raises_fail_ratio(small, monkeypatch):
    clean = workloads.measure(workloads.ExactRoutes(1), 0.0, False, None)
    assert clean.checks.failed == 0

    real = racerank.two_race.stirling_form_distribution

    def corrupted(n_b, n_t):
        d = real(n_b, n_t)
        if n_t != n_b + 1:
            return d
        return racerank.two_race.RankDistribution(n_b, n_t, (d.probs[1], d.probs[0]) + d.probs[2:])

    monkeypatch.setattr(racerank.two_race, "stirling_form_distribution", corrupted)
    bad = workloads.measure(workloads.ExactRoutes(1), 0.0, False, None)
    failed = {name for name, ok, _ in bad.checks.results if not ok}
    assert failed == {"exact.full_eq_stirling.n_t9"}
    assert bad.checks.fail_ratio > clean.checks.fail_ratio


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_self_times_add_up_to_traced_wall(small, name):
    main = racerank.cli.main
    result = workloads.measure(workloads.WORKLOADS[name](1), 0.0, True, None)
    layers = result.layers
    parts = [layers[m] for m in SELF_TIME_METRICS.values()]
    parts += [layers[f"montecarlo.np.{fn}_s"] for fn in NUMPY_METRICS]
    parts.append(layers["montecarlo.np.other_s"])
    assert layers["trace.wall_s"] > 0
    assert sum(parts) == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert racerank.montecarlo.np is np and racerank.cli.main is main


def test_kernel_runs_inside_one_long_call_and_is_left_out_of_its_time():
    speed = Speed("python")
    with speed.sampling():
        wall0, work0 = time.perf_counter(), work_clock()
        while time.perf_counter() - wall0 < 6 * TICK_S:
            pass
        wall, work = time.perf_counter() - wall0, work_clock() - work0
    inside = speed.kernel_s[1:]
    assert len(inside) >= 3
    # The two clocks are read a few microseconds apart.
    assert wall - work == pytest.approx(sum(inside), abs=1e-4)
