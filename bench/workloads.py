"""The benchmark's workloads, their output checks and the timed loop.

A workload is a closed loop of public racerank calls: one caller issues
each call after the previous one returns, in one process with no extra
threads.  A *round* issues the workload's fixed set of calls once.  Inputs
come only from the seed, so every round of a run returns the same output:
the first (warm-up) round is checked against independent routes and every
later round must reproduce its digest.

Each workload class has ``run_round()``, which issues one round;
``text(raw)``, the canonical text of a round's outputs that is digested;
and ``check(raw, checks)``.  Rounds and calls are timed on
``calibration.work_clock``, which leaves out the calibration kernel's runs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import resource
import statistics
from dataclasses import astuple, dataclass, field

from racerank import asymptotics, cli, lattice_oracle, montecarlo, series, two_race

from calibration import Speed, work_clock
from tracing import Tracer, install

_now = work_clock

# Rounds timed per run at least, however long a round takes.
MIN_ROUNDS = 2


@dataclass
class RoundOutput:
    """One round's raw outputs, the work it did (``items``), the latency of
    each timed call, and the bytes ``cli.main`` printed."""

    raw: object
    items: int
    call_s: list[float]
    cli_bytes: int = 0


@dataclass
class Checks:
    """Output-check outcomes; ``fail_ratio`` is failed checks over checks run."""

    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


def _run_cli(argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = _now()
        code = cli.main(argv)
        elapsed = _now() - t0
    return code, buf.getvalue(), elapsed


def _timed(fn, *args, **kwargs):
    t0 = _now()
    result = fn(*args, **kwargs)
    return result, _now() - t0


def _bins_within(checks: Checks, label: str, empirical, exact, trials: int, sigmas: float) -> None:
    for m, (p_hat, p) in enumerate(zip(empirical, exact), start=1):
        se = math.sqrt(p_hat * (1 - p_hat) / trials)
        gap = abs(p_hat - float(p))
        checks.check(
            f"{label}.bin{m}", gap <= sigmas * max(se, 1e-12),
            f"|{p_hat} - {float(p)}| = {gap:.3g}, {sigmas:g} SE = {sigmas * se:.3g}",
        )


# ------------------------------------------------------------- curve_200x30

CURVE_N_B, CURVE_N_R = 200, 30
CURVE_POINTS = 21
# Per grid point: one full ~34 MB chunk (699 trials at 200 x 30) and a
# partial one, the shape of the gates' 10^4-trial points (14 full chunks and
# a partial one), at a tenth of their length.
CURVE_TRIALS = 1000


class Curve200x30:
    """``racerank curve 200 30`` over the default 21-point grid, CSV kept in
    memory: the paper's headline sweep, where the sort and scatter of
    200-value rows dominate and the exact layers do nothing."""

    name = "curve_200x30"
    items_name = "Monte Carlo trials"
    calibration = "numpy"
    seed_free_digest = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run_round(self) -> RoundOutput:
        code, text, elapsed = _run_cli(
            ["curve", str(CURVE_N_B), str(CURVE_N_R), "--trials", str(CURVE_TRIALS),
             "--seed", str(self.seed)]
        )
        rows = max(text.count("\n") - 1, 0)
        return RoundOutput((code, text), rows * CURVE_TRIALS, [elapsed], len(text.encode()))

    def text(self, raw) -> str:
        code, text = raw
        return f"exit {code}\n{text}"

    def check(self, raw, checks: Checks) -> None:
        code, text = raw
        checks.check("curve.exit_code", code == 0, f"exit {code}")
        rows = list(csv.DictReader(io.StringIO(text)))
        n_ts = [int(r["n_t"]) for r in rows]
        checks.check("curve.rows", len(rows) == CURVE_POINTS, f"{len(rows)} rows")
        checks.check("curve.n_t_ascending", all(a < b for a, b in zip(n_ts, n_ts[1:])))
        middle = int(asymptotics.AsymptoticParams(CURVE_N_B, CURVE_N_R).middle_score)
        if middle not in n_ts:
            checks.check("curve.middle_variance", False, f"score {middle} missing")
            return
        idx = n_ts.index(middle)
        # The CSV carries no standard error of the variance, so the middle
        # grid point is simulated again on its substream (its grid index).
        # That call must reproduce the row exactly, and gives the row's SE.
        config = montecarlo.SimConfig(n_b=CURVE_N_B, n_r=CURVE_N_R, trials=CURVE_TRIALS,
                                      seed=self.seed, n_t=middle, stream=idx)
        again = montecarlo.simulate(config)
        checks.check("curve.middle_row_reproduces", rows[idx]["var_mc"] == repr(again.variance))
        se = again.std_error_variance
        # Gate 11b's criterion.  Means are not checked against n_b * Phi:
        # that curve omits the +1 of m = 1 + #beaten (gate 11a, red).
        theory = asymptotics.variance_final_rank(CURVE_N_B, CURVE_N_R, middle)
        var_mc = float(rows[idx]["var_mc"])
        gap = abs(var_mc - theory)
        bound = 3 * se
        checks.check(
            "curve.middle_variance", gap <= bound,
            f"|{var_mc} - {theory}| = {gap:.4g}, 3 SE = {bound:.4g}",
        )


# ----------------------------------------------------------- simulate_small

TRACKED_RANKS = ((2, 2, 2), (1, 2, 3))
TRACKED_TRIALS = 1_000_000
DROP_WORST = {"n_b": 10, "n_r": 5, "n_t": 20}
DROP_WORST_TRIALS = 100_000
MOMENTS_N_B = (3, 10)
MOMENTS_TRIALS = 200_000


class SimulateSmall:
    """``simulate`` and ``empirical_rank_moments`` on fleets of 3 to 10
    boats: rows are short, so bit generation, padding, conversion and
    per-chunk overhead dominate instead of the sort."""

    name = "simulate_small"
    items_name = "Monte Carlo trials"
    calibration = "numpy"
    seed_free_digest = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run_round(self) -> RoundOutput:
        sims, moments, calls = {}, {}, []
        for stream, ranks in enumerate(TRACKED_RANKS):
            config = montecarlo.SimConfig(n_b=3, n_r=3, trials=TRACKED_TRIALS, seed=self.seed,
                                          tracked_ranks=ranks, stream=stream)
            sims[f"tracked{ranks}"], elapsed = _timed(montecarlo.simulate, config)
            calls.append(elapsed)
        config = montecarlo.SimConfig(trials=DROP_WORST_TRIALS, seed=self.seed, drop_worst=True,
                                      stream=len(TRACKED_RANKS), **DROP_WORST)
        sims["drop_worst"], elapsed = _timed(montecarlo.simulate, config)
        calls.append(elapsed)
        for i, n_b in enumerate(MOMENTS_N_B):
            moments[n_b], elapsed = _timed(
                montecarlo.empirical_rank_moments, n_b, MOMENTS_TRIALS, seed=self.seed,
                stream=len(TRACKED_RANKS) + 1 + i,
            )
            calls.append(elapsed)
        items = sum(r.config.trials for r in sims.values()) + MOMENTS_TRIALS * len(MOMENTS_N_B)
        return RoundOutput((sims, moments), items, calls)

    def text(self, raw) -> str:
        sims, moments = raw
        lines = [f"{label} counts {r.counts}" for label, r in sims.items()]
        lines += [f"moments n_b={n_b} {astuple(est)!r}" for n_b, est in moments.items()]
        return "\n".join(lines) + "\n"

    def check(self, raw, checks: Checks) -> None:
        sims, moments = raw
        for label, result in sims.items():
            checks.check(f"simulate.{label}.counts_sum", sum(result.counts) == result.config.trials)
        for ranks in TRACKED_RANKS:
            result = sims[f"tracked{ranks}"]
            exact = lattice_oracle.brute_force_composition(3, ranks)
            # Gate 10's criterion.
            _bins_within(checks, f"simulate.tracked{ranks}", result.empirical_probs, exact.probs,
                         result.config.trials, 4.0)
        for n_b, est in moments.items():
            theory = asymptotics.rank_moments_theory(n_b)
            for stat, se in (("mean", est.se_mean), ("var_diag", est.se_var),
                             ("cov_offdiag", est.se_cov)):
                value, exact = getattr(est, stat), float(getattr(theory, stat))
                checks.check(
                    f"simulate.moments{n_b}.{stat}", abs(value - exact) <= 4 * se,
                    f"|{value} - {exact}| = {abs(value - exact):.3g}, 4 SE = {4 * se:.3g}",
                )


# ------------------------------------------------------------- exact_routes

EXACT_N_B = 60
SERIES_ORDER = 24
BRUTE_FORCE = tuple((n_b, n_t) for n_b in range(1, 8) for n_t in range(2, 2 * n_b + 2)) + (
    (8, 8), (8, 9), (8, 10),
)


class ExactRoutes:
    """Exact rationals only: both closed forms over every score at n_b = 60,
    the generating functions read back as distributions, brute-force
    enumeration and ``racerank verify --level full``."""

    name = "exact_routes"
    items_name = "exact rank distributions"
    calibration = "python"
    # Exact outputs do not depend on the seed, which only orders the calls.
    seed_free_digest = True

    def __init__(self, seed: int) -> None:
        self.calls = [(route, n_t) for route in ("full", "stirling")
                      for n_t in range(2, 2 * EXACT_N_B + 2)]
        random.Random(seed).shuffle(self.calls)

    def run_round(self) -> RoundOutput:
        routes = {"full": two_race.full_distribution,
                  "stirling": two_race.stirling_form_distribution}
        dists, calls = {}, []
        for route, n_t in self.calls:
            dists[route, n_t], elapsed = _timed(routes[route], EXACT_N_B, n_t)
            calls.append(elapsed)
        middle_gf = series.eulerian_gf(SERIES_ORDER)
        below_gf = series.second_gf_expand(SERIES_ORDER)
        middle = {n_b: series.coefficient_to_distribution(middle_gf, n_b, shifted=True)
                  for n_b in range(1, SERIES_ORDER + 1)}
        below = {n_b: series.coefficient_to_distribution(below_gf, n_b, n_t=n_b)
                 for n_b in range(2, SERIES_ORDER + 1)}
        brute = {key: lattice_oracle.brute_force_two_race(*key) for key in BRUTE_FORCE}
        code, text, _ = _run_cli(["verify", "--level", "full"])
        items = len(dists) + len(middle) + len(below) + len(brute)
        return RoundOutput((dists, middle, below, brute, code), items, calls, len(text.encode()))

    def text(self, raw) -> str:
        # Only the exact rows: verify's report is checked by its exit code,
        # so rewording it or adding timings to it changes no digest.
        dists, middle, below, brute, _ = raw

        def row(d) -> str:
            return f"{d.n_b} {d.n_t}: " + " ".join(map(str, d.probs))

        lines = [f"{route} {row(dists[route, n_t])}" for route, n_t in sorted(dists)]
        lines += [f"series middle {row(middle[n_b])}" for n_b in sorted(middle)]
        lines += [f"series below {row(below[n_b])}" for n_b in sorted(below)]
        lines += [f"brute {row(brute[key])}" for key in sorted(brute)]
        return "\n".join(lines) + "\n"

    def check(self, raw, checks: Checks) -> None:
        dists, middle, below, brute, code = raw
        for n_t in range(2, 2 * EXACT_N_B + 2):
            checks.check(f"exact.full_eq_stirling.n_t{n_t}",
                         dists["full", n_t] == dists["stirling", n_t])
        for n_b, d in middle.items():
            checks.check(f"exact.series_middle.n_b{n_b}",
                         d == two_race.full_distribution(n_b, n_b + 1))
        for n_b, d in below.items():
            checks.check(f"exact.series_below.n_b{n_b}", d == two_race.full_distribution(n_b, n_b))
        for (n_b, n_t), d in brute.items():
            checks.check(f"exact.brute_force.n_b{n_b}.n_t{n_t}",
                         d == two_race.full_distribution(n_b, n_t))
        checks.check("exact.verify_exit", code == 0, f"exit {code}")


WORKLOADS = {w.name: w for w in (Curve200x30, SimulateSmall, ExactRoutes)}


# ---------------------------------------------------------------- measuring


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Timing:
    """Timed rounds of one phase.  Raw round and call times, and each
    round's machine-speed factor; the ``norm_*`` views divide by it."""

    rounds_s: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    call_s: list[list[float]] = field(default_factory=list)
    items: int = 0

    @property
    def norm_rounds_s(self) -> list[float]:
        return [r / f for r, f in zip(self.rounds_s, self.speed)]

    @property
    def norm_call_s(self) -> list[float]:
        return [c / f for calls, f in zip(self.call_s, self.speed) for c in calls]


@dataclass
class Measurement:
    """What one run measured: the untraced rounds, and for a traced run the
    traced rounds, per-layer metrics and spans."""

    untraced: Timing
    checks: Checks
    digest: str
    peak_rss_mb: float
    traced: Timing | None = None
    layers: dict[str, float] | None = None
    tracer: Tracer | None = None


def _rounds(workload, budget_s: float, min_rounds: int, expected: str, checks: Checks,
            tracer: Tracer | None = None) -> Timing:
    """Run rounds until the next one would end past ``budget_s``.

    Untraced rounds sample the machine speed while they work; traced rounds
    only before and after, so that no kernel runs inside a span.
    """
    timing = Timing()
    start = _now()
    speed = Speed(workload.calibration)
    while (len(timing.rounds_s) < min_rounds
           or _now() - start + statistics.median(timing.rounds_s) <= budget_s):
        if tracer is None:
            with speed.sampling():
                t0 = _now()
                out = workload.run_round()
                elapsed = _now() - t0
        else:
            with tracer.round(len(timing.rounds_s)):
                t0 = _now()
                out = workload.run_round()
                elapsed = _now() - t0
            tracer.add("cli.output_bytes", out.cli_bytes)
        timing.rounds_s.append(elapsed)
        timing.speed.append(speed.round_done())
        timing.call_s.append(out.call_s)
        timing.items += out.items
        checks.check(f"round{len(timing.rounds_s)}.same_digest",
                     digest(workload.text(out.raw)) == expected)
    return timing


def measure(workload, seconds: float, trace: bool, reference: str | None) -> Measurement:
    """Warm up with one round, time rounds for ``seconds``, then check the
    warm-up round's output.

    With ``trace`` the time is split: untraced rounds first (no wrapper is
    installed for them), then traced rounds, which give the per-layer
    metrics and the tracing overhead.  ``reference`` is the digest the
    warm-up output must match, when one applies to this seed.
    """
    checks = Checks()
    warm = workload.run_round()
    # The warm-up round issues the same calls as every timed round, without
    # the calibration kernel, so its peak is the workload's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    expected = digest(workload.text(warm.raw))
    if reference is not None:
        checks.check("digest.reference", expected == reference, expected)
    budget = seconds / 2 if trace else seconds
    result = Measurement(
        _rounds(workload, budget, 1 if trace else MIN_ROUNDS, expected, checks), checks, expected,
        peak_rss_mb,
    )
    if trace:
        tracer = Tracer()
        with install(tracer):
            result.traced = _rounds(workload, budget, 1, expected, checks, tracer)
        result.layers = tracer.summary().layer_metrics(len(result.traced.rounds_s))
        result.layers["trace.overhead_ratio"] = (
            statistics.median(result.traced.norm_rounds_s)
            / statistics.median(result.untraced.norm_rounds_s)
        )
        result.tracer = tracer
    workload.check(warm.raw, checks)
    return result
