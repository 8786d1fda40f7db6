"""Command-line interface.

Subcommands
-----------
eulerian N / stirling N      print triangle rows 1..N
dist N_B N_T [--form ...]    exact rank distribution, four independent routes
curve N_B N_R [...]          CSV sweep: Monte Carlo vs normal-limit columns
approx N_B N_R N_T           normal-limit numbers for one score
simulate N_B N_R [...]       one Monte Carlo run
verify [--level quick|full]  run the cross-check suite; exit 1 on any failure

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import (
    asymptotics,
    combinatorics,
    lattice_oracle,
    montecarlo,
    series,
    two_race,
)

__all__ = ["main", "OutputRecord", "CLIError"]

CURVE_COLUMNS = [
    "n_t",
    "n_t_centered",
    "mean_rank_theory",
    "mean_rank_mc",
    "var_theory",
    "var_mc",
    "stderr",
]


class CLIError(Exception):
    """User-facing command error (bad arguments, unsupported combination)."""


@dataclass
class OutputRecord:
    """Machine-readable result envelope for ``--json`` output."""

    command: str
    parameters: dict
    results: dict
    provenance: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "parameters": self.parameters,
                "results": self.results,
                "provenance": self.provenance,
            },
            indent=2,
        )


def _emit(args: argparse.Namespace, record: OutputRecord, human: Callable[[], None]) -> None:
    if getattr(args, "json", False):
        print(record.to_json())
    else:
        human()


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(64)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _frac_str(value: Fraction) -> str:
    return str(value)


# ---------------------------------------------------------------- triangles


def _cmd_eulerian(args: argparse.Namespace) -> int:
    if args.n_max > args.cap:
        raise CLIError(f"n_max {args.n_max} exceeds cap {args.cap} (raise --cap)")
    rows = combinatorics.eulerian_triangle(args.n_max)
    record = OutputRecord(
        "eulerian", {"n_max": args.n_max}, {"rows": rows}, "combinatorics"
    )
    _emit(args, record, lambda: print("\n".join(" ".join(map(str, r)) for r in rows)))
    return 0


def _cmd_stirling(args: argparse.Namespace) -> int:
    if args.n_max > args.cap:
        raise CLIError(f"n_max {args.n_max} exceeds cap {args.cap} (raise --cap)")
    rows = combinatorics.stirling_triangle(args.n_max)
    record = OutputRecord(
        "stirling", {"n_max": args.n_max}, {"rows": rows}, "combinatorics"
    )
    _emit(args, record, lambda: print("\n".join(" ".join(map(str, r)) for r in rows)))
    return 0


# --------------------------------------------------------------------- dist


def _dist_distribution(args: argparse.Namespace) -> tuple[two_race.RankDistribution, str]:
    n_b, n_t, form = args.n_b, args.n_t, args.form
    if form == "exact":
        return two_race.full_distribution(n_b, n_t), "two_race"
    if form == "stirling":
        return two_race.stirling_form_distribution(n_b, n_t), "two_race.p_stirling_form"
    if form == "bruteforce":
        return (
            lattice_oracle.brute_force_two_race(n_b, n_t, budget=args.cap),
            "lattice_oracle",
        )
    if form == "series":
        order = max(args.order, n_b, 2)
        if n_t == n_b + 1:
            dist = series.coefficient_to_distribution(
                series.middle_score_gf(order), n_b
            )
        elif n_t == n_b:
            dist = series.coefficient_to_distribution(
                series.second_gf_expand(order), n_b, n_t=n_t
            )
        else:
            raise CLIError("--form=series supports n_t = n_b or n_t = n_b + 1 only")
        return dist, "series"
    raise CLIError(f"unknown form {form!r}")


def _cmd_dist(args: argparse.Namespace) -> int:
    dist, provenance = _dist_distribution(args)
    probs = [_frac_str(p) for p in dist.probs]
    record = OutputRecord(
        "dist",
        {"n_b": args.n_b, "n_t": args.n_t, "form": args.form},
        {"m": list(range(1, len(probs) + 1)), "p": probs},
        provenance,
    )

    def human() -> None:
        print(f"n_b={args.n_b} n_t={args.n_t} form={args.form} ({provenance})")
        print(" ".join(probs))

    _emit(args, record, human)
    return 0


# -------------------------------------------------------------------- curve


def _cmd_curve(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    grid = montecarlo.middle_band_grid(args.n_b, args.n_r, points=args.points)
    rows = montecarlo.curve_sweep(args.n_b, args.n_r, grid, args.trials, seed)
    table = [
        {
            "n_t": p.n_t,
            "n_t_centered": p.centered,
            "mean_rank_theory": p.mean_theory,
            "mean_rank_mc": p.mean_mc,
            "var_theory": p.var_theory,
            "var_mc": p.var_mc,
            "stderr": p.stderr_mean,
        }
        for p in rows
    ]
    if args.json:
        record = OutputRecord(
            "curve",
            {
                "n_b": args.n_b,
                "n_r": args.n_r,
                "points": args.points,
                "trials": args.trials,
                "seed": seed,
            },
            {"rows": table},
            "montecarlo+asymptotics",
        )
        print(record.to_json())
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=CURVE_COLUMNS)
        writer.writeheader()
        for row in table:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return 0


# ------------------------------------------------------------------- approx


def _cmd_approx(args: argparse.Namespace) -> int:
    params = asymptotics.AsymptoticParams(args.n_b, args.n_r)
    centered = asymptotics.centered_score(args.n_t, args.n_b, args.n_r)
    mean = asymptotics.mean_final_rank(args.n_b, args.n_r, args.n_t)
    var = asymptotics.variance_final_rank(args.n_b, args.n_r, args.n_t)
    results = {
        "middle_score": _frac_str(params.middle_score),
        "lambda": _frac_str(params.lam),
        "centered_score": centered,
        "mean_final_rank": mean,
        "variance_final_rank": var,
    }
    record = OutputRecord(
        "approx",
        {"n_b": args.n_b, "n_r": args.n_r, "n_t": args.n_t},
        results,
        "asymptotics",
    )

    def human() -> None:
        for key, value in results.items():
            print(f"{key}: {value!r}" if isinstance(value, float) else f"{key}: {value}")

    _emit(args, record, human)
    return 0


# ----------------------------------------------------------------- simulate


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    tracked = None
    if args.tracked_ranks:
        try:
            tracked = tuple(int(tok) for tok in args.tracked_ranks.split(","))
        except ValueError as exc:
            raise CLIError(f"bad --tracked-ranks: {exc}") from None
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
    record = OutputRecord(
        "simulate",
        {
            "n_b": args.n_b,
            "n_r": args.n_r,
            "n_t": args.n_t,
            "trials": args.trials,
            "seed": seed,
            "drop_worst": args.drop_worst,
            "tracked_ranks": list(tracked) if tracked else None,
        },
        results,
        "montecarlo",
    )

    def human() -> None:
        print("m counts prob")
        for m, (c, p) in enumerate(zip(result.counts, result.empirical_probs), start=1):
            print(f"{m} {c} {p!r}")
        print(f"mean {result.mean!r}")
        print(f"variance {result.variance!r}")
        print(f"std_error_mean {result.std_error_mean!r}")

    _emit(args, record, human)
    return 0


# ------------------------------------------------------------------- verify


@dataclass
class _Check:
    name: str
    scope: str
    run: Callable[[], bool]


def _eulerian_reference_ok() -> bool:
    expected = [
        [1],
        [1, 1],
        [1, 4, 1],
        [1, 11, 11, 1],
        [1, 26, 66, 26, 1],
        [1, 57, 302, 302, 57, 1],
        [1, 120, 1191, 2416, 1191, 120, 1],
    ]
    return combinatorics.eulerian_triangle(7) == expected


def _corrupted_reference_ok() -> bool:
    corrupted = [[1], [1, 1], [1, 4, 1], [1, 11, 12, 1]]
    return combinatorics.eulerian_triangle(4) == corrupted


def _row_properties_ok(n_max: int) -> bool:
    for n in range(1, n_max + 1):
        row = combinatorics.eulerian_triangle(n)[-1]
        if sum(row) != combinatorics.factorial(n) or row != row[::-1]:
            return False
    return True


def _stirling_diagonal_ok(n_max: int) -> bool:
    return all(
        combinatorics.stirling_diagonal(score, i)
        == combinatorics.stirling2(score - 1, score - i)
        for score in range(2, n_max + 1)
        for i in range(1, score)
    )


def _eulerian_from_stirling_ok(n_max: int) -> bool:
    return all(
        combinatorics.eulerian_from_stirling(n, k) == combinatorics.eulerian(n, k)
        for n in range(1, n_max + 1)
        for k in range(n)
    )


def _stirling_sum_ok(n_max: int) -> bool:
    return all(
        combinatorics.stirling_binomial_sum(n, k) == combinatorics.stirling2(n + 1, k + 1)
        for n in range(n_max + 1)
        for k in range(n + 1)
    )


def _forms_agree_ok(n_b_max: int) -> bool:
    for n_b in range(1, n_b_max + 1):
        for n_t in range(2, n_b + 2):
            for m in range(1, n_b + 2):
                if two_race.p_exact(n_b, n_t, m) != two_race.p_stirling_form(n_b, n_t, m):
                    return False
    return True


def _oracle_agrees_ok(n_b_max: int) -> bool:
    for n_b in range(1, n_b_max + 1):
        for n_t in range(2, 2 * n_b + 2):
            if two_race.full_distribution(n_b, n_t) != lattice_oracle.brute_force_two_race(n_b, n_t):
                return False
    return True


def _excedance_ok(n_max: int) -> bool:
    for n in range(1, n_max + 1):
        hist = two_race.excedance_distribution(n)
        if list(hist.counts) != combinatorics.eulerian_triangle(n)[-1]:
            return False
    return True


def _lattice_counts_ok(n_t_max: int) -> bool:
    for n_t in range(2, n_t_max + 1):
        n_b = n_t - 1
        for i in range(n_t - 1):
            if lattice_oracle.count_compatible_subsets(n_b, n_t, i) != combinatorics.stirling_diagonal(n_t, i + 1):
                return False
    return True


def _lattice_recurrence_ok(n_t_max: int) -> bool:
    def count(n_t: int, i: int) -> int:
        return lattice_oracle.count_compatible_subsets(n_t, n_t + 1, i)

    for n_t in range(2, n_t_max + 1):
        for i in range(n_t - 1):
            rhs = sum(
                count(n_t - kp - 1, i - kp) * combinatorics.binomial(n_t - 1, kp)
                for kp in range(i + 1)
                if n_t - kp >= 2
            )
            if count(n_t, i) != rhs:
                return False
        if count(n_t, n_t - 1) != 1:
            return False
    return True


def _series_rows_ok(order: int) -> bool:
    g = series.eulerian_gf(order)
    for n in range(1, order + 1):
        poly = g.coefficient(n) * combinatorics.factorial(n)
        if [poly[k] for k in range(n)] != combinatorics.eulerian_triangle(n)[-1]:
            return False
    second = series.second_gf_expand(order)
    for n_b in range(2, order + 1):
        dist = series.coefficient_to_distribution(second, n_b, n_t=n_b)
        if dist != two_race.full_distribution(n_b, n_b):
            return False
    return True


def _middle_identity_ok(n_b_max: int) -> bool:
    return all(
        two_race.p_middle(n_b, m) * combinatorics.factorial(n_b)
        == combinatorics.eulerian(n_b, m - 1)
        for n_b in range(1, n_b_max + 1)
        for m in range(1, n_b + 2)
    )


def _verify_checks(level: str, inject_failure: bool) -> list[_Check]:
    deep = level == "full"
    checks = [
        _Check("eulerian rows vs reference table", "n <= 7", _eulerian_reference_ok),
        _Check(
            "eulerian row sums and palindrome",
            f"n <= {12 if deep else 8}",
            lambda: _row_properties_ok(12 if deep else 8),
        ),
        _Check(
            "diagonal Stirling vs recurrence Stirling",
            f"score <= {12 if deep else 8}",
            lambda: _stirling_diagonal_ok(12 if deep else 8),
        ),
        _Check(
            "Eulerian via Stirling transform",
            f"n <= {10 if deep else 8}",
            lambda: _eulerian_from_stirling_ok(10 if deep else 8),
        ),
        _Check(
            "binomial-weighted Stirling sum",
            f"n <= {12 if deep else 8}",
            lambda: _stirling_sum_ok(12 if deep else 8),
        ),
        _Check(
            "alternating-sum form vs Stirling form",
            f"n_b <= {8 if deep else 6}",
            lambda: _forms_agree_ok(8 if deep else 6),
        ),
        _Check(
            "closed form vs brute-force enumeration",
            f"n_b <= {7 if deep else 5}",
            lambda: _oracle_agrees_ok(7 if deep else 5),
        ),
        _Check(
            "excedance histogram vs Eulerian rows",
            f"n <= {8 if deep else 6}",
            lambda: _excedance_ok(8 if deep else 6),
        ),
        _Check(
            "lattice subset counts vs diagonal Stirling",
            f"score <= {8 if deep else 6}",
            lambda: _lattice_counts_ok(8 if deep else 6),
        ),
        _Check(
            "lattice partition recurrence",
            f"score <= {8 if deep else 6}",
            lambda: _lattice_recurrence_ok(8 if deep else 6),
        ),
        _Check(
            "generating-function rows vs exact rows",
            f"order <= {12 if deep else 8}",
            lambda: _series_rows_ok(12 if deep else 8),
        ),
        _Check(
            "middle-score identity",
            f"n_b <= {10 if deep else 8}",
            lambda: _middle_identity_ok(10 if deep else 8),
        ),
    ]
    if inject_failure:
        checks.insert(
            0,
            _Check(
                "eulerian rows vs corrupted table (test fixture)",
                "n <= 4",
                _corrupted_reference_ok,
            ),
        )
    return checks


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = _verify_checks(args.level, args.inject_failure)
    outcomes = []
    for check in checks:
        ok = bool(check.run())
        outcomes.append({"name": check.name, "scope": check.scope, "ok": ok})
    failed = [o for o in outcomes if not o["ok"]]
    if args.json:
        record = OutputRecord(
            "verify",
            {"level": args.level},
            {"checks": outcomes, "ok": not failed},
            "cli",
        )
        print(record.to_json())
    else:
        for o in outcomes:
            print(f"{'PASS' if o['ok'] else 'FAIL'} {o['name']} ({o['scope']})")
        print(f"{len(outcomes) - len(failed)}/{len(outcomes)} checks passed")
    return 1 if failed else 0


# -------------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racerank",
        description="Final-rank distributions in multi-race scored fleets: "
        "exact enumeration, generating functions, normal asymptotics, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eulerian", help="print Eulerian triangle rows 1..N")
    p.add_argument("n_max", type=int)
    p.add_argument("--cap", type=int, default=60, help="largest allowed depth")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eulerian)

    p = sub.add_parser("stirling", help="print Stirling triangle rows 1..N")
    p.add_argument("n_max", type=int)
    p.add_argument("--cap", type=int, default=60, help="largest allowed depth")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stirling)

    p = sub.add_parser("dist", help="exact final-rank distribution for a score")
    p.add_argument("n_b", type=int)
    p.add_argument("n_t", type=int)
    p.add_argument(
        "--form",
        choices=["exact", "stirling", "bruteforce", "series"],
        default="exact",
    )
    p.add_argument("--order", type=int, default=12, help="series truncation order")
    p.add_argument("--cap", type=int, default=lattice_oracle.DEFAULT_BUDGET,
                   help="enumeration budget for --form=bruteforce")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("curve", help="Monte Carlo vs normal-limit sweep (CSV)")
    p.add_argument("n_b", type=int)
    p.add_argument("n_r", type=int)
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("approx", help="normal-limit mean/variance for one score")
    p.add_argument("n_b", type=int)
    p.add_argument("n_r", type=int)
    p.add_argument("n_t", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("simulate", help="one seeded Monte Carlo run")
    p.add_argument("n_b", type=int)
    p.add_argument("n_r", type=int)
    p.add_argument("--n-t", type=int, default=None, help="virtual competitor's score")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--drop-worst", action="store_true",
                   help="drop each boat's single worst rank from its score")
    p.add_argument("--tracked-ranks", type=str, default=None,
                   help="comma-separated fixed ranks of a tracked real boat")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the identity cross-check suite")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--json", action="store_true")
    p.add_argument("--inject-failure", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify)

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
    except (CLIError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
