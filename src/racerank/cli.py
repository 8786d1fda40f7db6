"""Command-line interface.

Subcommands
-----------
eulerian N / stirling N      print triangle rows 1..N
dist N_B N_T [--form ...]    exact rank distribution, four independent routes
curve N_B N_R [...]          CSV sweep: Monte Carlo vs normal-limit columns
approx N_B N_R N_T           normal-limit numbers for one score
simulate N_B N_R [...]       one Monte Carlo run
verify [--level quick|full]  run the racerank.checks suite; exit 1 on any failure

Exact values are printed as integers or "p/q" rational strings, never
silently as floats; ``--json`` wraps any command's output in a machine
readable record naming the module that produced it.  Randomized commands
either take ``--seed`` or log the generated seed on stderr, so every
emitted number can be reproduced.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import secrets
import sys
from dataclasses import astuple
from typing import Callable, Sequence

from . import (
    asymptotics,
    checks,
    combinatorics,
    lattice_oracle,
    montecarlo,
    series,
    two_race,
)

__all__ = ["main"]

CURVE_COLUMNS = [
    "n_t",
    "n_t_centered",
    "mean_rank_theory",
    "mean_rank_mc",
    "var_theory",
    "var_mc",
    "stderr",
]


def _emit(args: argparse.Namespace, parameters: dict, results: dict, provenance: str,
          human: Callable[[], None]) -> None:
    """Print ``human()``'s text or, under ``--json``, the record naming the
    command, its parameters, its results and the module that produced them."""
    if args.json:
        record = {"command": args.command, "parameters": parameters,
                  "results": results, "provenance": provenance}
        print(json.dumps(record, indent=2))
    else:
        human()


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(64)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


# ---------------------------------------------------------------- triangles


# looked up when called, like _FORMS, so a patched combinatorics is seen
_TRIANGLES = {
    "eulerian": lambda n: combinatorics.eulerian_triangle(n),
    "stirling": lambda n: combinatorics.stirling_triangle(n),
}


def _cmd_triangle(args: argparse.Namespace) -> int:
    rows = _TRIANGLES[args.command](args.n_max)
    _emit(args, {"n_max": args.n_max}, {"rows": rows}, "combinatorics",
          lambda: print("\n".join(" ".join(map(str, r)) for r in rows)))
    return 0


# --------------------------------------------------------------------- dist


def _series_distribution(args: argparse.Namespace) -> two_race.RankDistribution:
    n_b, n_t = args.n_b, args.n_t
    two_race._check_score(n_b, n_t)  # before any series is built
    # keyed by the score_offset each series records, so its rows label n_t
    gf = {1: series.eulerian_gf, 0: series.second_gf_expand}.get(n_t - n_b)
    if gf is None:
        raise ValueError("--form=series supports n_t = n_b or n_t = n_b + 1 only")
    # the x^n_b coefficient is exact at any order >= n_b
    return series.coefficient_to_distribution(gf(max(n_b, 2)), n_b)


# --form -> (route, provenance); routes look up their function when called.
# "two_race.p_stirling_form" names the Stirling form of P(m), not a function;
# it is printed output, so the label stays byte for byte.
_FORMS = {
    "exact": (lambda a: two_race.full_distribution(a.n_b, a.n_t), "two_race"),
    "stirling": (lambda a: two_race.stirling_form_distribution(a.n_b, a.n_t),
                 "two_race.p_stirling_form"),
    "bruteforce": (lambda a: lattice_oracle.brute_force_two_race(a.n_b, a.n_t),
                   "lattice_oracle"),
    "series": (_series_distribution, "series"),
}


def _cmd_dist(args: argparse.Namespace) -> int:
    route, provenance = _FORMS[args.form]
    probs = [str(p) for p in route(args).probs]

    def human() -> None:
        print(f"n_b={args.n_b} n_t={args.n_t} form={args.form} ({provenance})")
        print(" ".join(probs))

    _emit(args, {"n_b": args.n_b, "n_t": args.n_t, "form": args.form},
          {"m": list(range(1, len(probs) + 1)), "p": probs}, provenance, human)
    return 0


# -------------------------------------------------------------------- curve


def _cmd_curve(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    grid = montecarlo.middle_band_grid(args.n_b, args.n_r, points=args.points)
    rows = montecarlo.curve_sweep(args.n_b, args.n_r, grid, args.trials, seed)
    # CURVE_COLUMNS name CurvePoint's fields in order; stderr_var is not shown
    table = [dict(zip(CURVE_COLUMNS, astuple(p))) for p in rows]

    def human() -> None:
        writer = csv.DictWriter(sys.stdout, fieldnames=CURVE_COLUMNS)
        writer.writeheader()
        for row in table:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})

    parameters = {"n_b": args.n_b, "n_r": args.n_r, "points": args.points,
                  "trials": args.trials, "seed": seed}
    _emit(args, parameters, {"rows": table}, "montecarlo+asymptotics", human)
    return 0


# ------------------------------------------------------------------- approx


def _cmd_approx(args: argparse.Namespace) -> int:
    params = asymptotics.AsymptoticParams(args.n_b, args.n_r)
    centered = asymptotics.centered_score(args.n_t, args.n_b, args.n_r)
    mean = asymptotics.mean_final_rank(args.n_b, args.n_r, args.n_t)
    var = asymptotics.variance_final_rank(args.n_b, args.n_r, args.n_t)
    results = {
        "middle_score": str(params.middle_score),
        "lambda": str(params.lam),
        "centered_score": centered,
        "mean_final_rank": mean,
        "variance_final_rank": var,
    }

    def human() -> None:
        for key, value in results.items():
            print(f"{key}: {value!r}" if isinstance(value, float) else f"{key}: {value}")

    _emit(args, {"n_b": args.n_b, "n_r": args.n_r, "n_t": args.n_t}, results,
          "asymptotics", human)
    return 0


# ----------------------------------------------------------------- simulate


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    tracked = None
    if args.tracked_ranks:
        try:
            tracked = tuple(int(tok) for tok in args.tracked_ranks.split(","))
        except ValueError as exc:
            raise ValueError(f"bad --tracked-ranks: {exc}") from None
    config = montecarlo.SimConfig(
        n_b=args.n_b,
        n_r=args.n_r,
        trials=args.trials,
        seed=seed,
        n_t=args.n_t,
        drop_worst=args.drop_worst,
        tracked_ranks=tracked,
    )
    result = montecarlo.simulate(config)
    results = {
        "counts": list(result.counts),
        "empirical_probs": list(result.empirical_probs),
        "mean": result.mean,
        "variance": result.variance,
        "std_error_mean": result.std_error_mean,
    }

    def human() -> None:
        print("m counts prob")
        for m, (c, p) in enumerate(zip(results["counts"], results["empirical_probs"]), start=1):
            print(f"{m} {c} {p!r}")
        for key in ("mean", "variance", "std_error_mean"):
            print(f"{key} {results[key]!r}")

    parameters = {
        "n_b": args.n_b,
        "n_r": args.n_r,
        "n_t": args.n_t,
        "trials": args.trials,
        "seed": seed,
        "drop_worst": args.drop_worst,
        "tracked_ranks": list(tracked) if tracked else None,
    }
    _emit(args, parameters, results, "montecarlo", human)
    return 0


# ------------------------------------------------------------------- verify


def _cmd_verify(args: argparse.Namespace) -> int:
    outcomes = checks.run(args.level)
    failed = [o for o in outcomes if not o["ok"]]

    def human() -> None:
        for o in outcomes:
            print(f"{'PASS' if o['ok'] else 'FAIL'} {o['name']} ({o['scope']})")
        print(f"{len(outcomes) - len(failed)}/{len(outcomes)} checks passed")

    _emit(args, {"level": args.level}, {"checks": outcomes, "ok": not failed}, "checks", human)
    return 1 if failed else 0


# -------------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racerank",
        description="Final-rank distributions in multi-race scored fleets: "
        "exact enumeration, generating functions, normal asymptotics, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _TRIANGLES:
        p = sub.add_parser(name, help=f"print {name.capitalize()} triangle rows 1..N")
        p.add_argument("n_max", type=int)
        p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("dist", help="exact final-rank distribution for a score")
    p.add_argument("n_b", type=int)
    p.add_argument("n_t", type=int)
    p.add_argument("--form", choices=list(_FORMS), default="exact")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("curve", help="Monte Carlo vs normal-limit sweep (CSV)")
    p.add_argument("n_b", type=int)
    p.add_argument("n_r", type=int)
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("approx", help="normal-limit mean/variance for one score")
    p.add_argument("n_b", type=int)
    p.add_argument("n_r", type=int)
    p.add_argument("n_t", type=int)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("simulate", help="one seeded Monte Carlo run")
    p.add_argument("n_b", type=int)
    p.add_argument("n_r", type=int)
    competitor = p.add_mutually_exclusive_group()
    competitor.add_argument("--n-t", type=int, default=None,
                            help="virtual competitor's score")
    competitor.add_argument("--tracked-ranks", type=str, default=None,
                            help="comma-separated fixed ranks of a tracked real boat")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--drop-worst", action="store_true",
                   help="drop each boat's single worst rank from its score")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the identity cross-check suite")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.set_defaults(func=_cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head`): point it at /dev/null so
        # the interpreter's flush at exit stays quiet, and stop.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
