import contextlib
import csv
import hashlib
import io
import json
import os
import random
import secrets
import shlex
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import racerank
from _budgets import (
    COMBINATORICS, ENUMERATION, FLEET, GRID, MONTECARLO, NEEDS, ORDER, PHILOX, ROW, SERIES,
    TWO_RACE, WORDS,
)
from _doubles import block, record
from racerank import combinatorics, montecarlo, series
from racerank.cli import CURVE_COLUMNS, _build_parser, main
from racerank.two_race import full_distribution


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# SHA-256 of stdout, recorded before the identity checks moved out of cli.py;
# every byte these commands print must stay the same.  The two `verify --json`
# records were re-recorded when their provenance became "checks", and
# `dist --help`, `eulerian --help` and `stirling --help` when `--cap` left
# each of them; no other byte of them changed.
GOLDEN_STDOUT = [
    ("verify --level quick", "bfc0d690477b5f56d74c35bd0321801e0da96bbb3a5c30df52f773efd4bbd0aa"),
    ("verify --level quick --json", "e418f72e447468e2aed097adb5776ccc1075d71fe7b98cc9357fdfa49dc7a22c"),
    ("verify --level full", "56a55774413842601caa0168f8fb79fda405e6bad195d175d0fc9d994ad4432b"),
    ("verify --level full --json", "c9a0b9b86131d8b740fcdd4737875f7c6f2010f2906099929bc6d38ba177b579"),
    ("dist 6 2 --form exact", "e9017b87965cc312b89e272ab4c0666c7ea37db5c912e3db7aaff7b4d6e1cda2"),
    ("dist 6 2 --form stirling", "4dc6f34b656c9ddd70535a4ec9522dd157592df15d5827f8b4e89777f9953a2b"),
    ("dist 6 2 --form bruteforce", "eeedee936180b039fedff56f74e0b2bc6374aafb33a50c8ab34cb0c487a6b473"),
    ("dist 6 5 --form exact", "6f63b21e1a16e9a11d5ea2596b0f503a3419efe5c8a57e27f780bdac4ee60218"),
    ("dist 6 5 --form stirling", "9050390b0870b08d15e3f10e42c6bf5da676848c7d27cf52219951747af12e25"),
    ("dist 6 5 --form bruteforce", "d8c432597f016b9926945ccd68ec97ba06852bc7aec902d1c1bc2ee45e1f03ee"),
    ("dist 6 7 --form exact", "93446b34c4f5f96d0e66e0133a41a4d783558663f993035e8b2c26ff0adeb513"),
    ("dist 6 7 --form stirling", "77ce4e42c5905be8dff27512b01edadc1bee6b93fb4ad5caa25fecaad6060a72"),
    ("dist 6 7 --form bruteforce", "87ddd8743d0e09a2350fd3f1535170e13595feeee500fe7b2488abbf85401de7"),
    ("dist 6 8 --form exact", "af47fea09ec8dc3205a8323c50609ff2f00e178e751dc79ab97f8be2342537bf"),
    ("dist 6 8 --form stirling", "49175a333d179d126a50abdc324da1318c18fc47cd87d4066f44db355a4cf662"),
    ("dist 6 8 --form bruteforce", "4dca87fde66f011b5738abd597ebc89bb621c924052f9dabf388979105e37448"),
    ("dist 6 9 --form exact", "59149b9325c8a2bf9bd0d1982db180f7fc47c1125df445274039210558247a14"),
    ("dist 6 9 --form stirling", "55f7e4bb3ef9e608498fee9a095c37fbab53423463e59a01126d19c9a4a35d3b"),
    ("dist 6 9 --form bruteforce", "3891c52af37da8a171683dd3643ea5318110d8ad5259245f2b1fb090d874a245"),
    ("dist 6 11 --form exact", "fff0045ae8bd5b8a835042c00d96d47cc2fdbb9f61a8accfbf03a44be6d6e6e0"),
    ("dist 6 11 --form stirling", "2d4ed143968509cade2f2adcb1ef6c0630dc1bffdee01e4fdaf91e07c2e91bd9"),
    ("dist 6 11 --form bruteforce", "67c375f1103286ba38b4d90567df54bd08d6830b034202185257cc905f604569"),
    ("dist 6 13 --form exact", "c089cf1101ce9ac9a5c20faf7d18389d6f1386b5b8a36a197381d6dfe1aa3e82"),
    ("dist 6 13 --form stirling", "573185e735d02a8b8470c5b4d4f4d6843f607582bdf224621acd934d1b11cda3"),
    ("dist 6 13 --form bruteforce", "ab6541866f17ac7d6b297aef74371a1b0735e1c3fa945db605961a71c3cfecc5"),
    ("approx 200 30 3015", "753ba12ac7997ea404caa92af74dbfedce505a07ea19745136239803b415a159"),
    ("approx 200 30 3015 --json", "65e202f5553d08d4366b746d4c950e9942506f46fe6910da2f125e77e64f89b0"),
    ("eulerian 6 --json", "fb9163a92f167f5955f4df2bb0b7692dc686881264fecaa9697b96f6457149c2"),
    ("stirling 6", "bc5182a4d44f24072c6eb06dc3641aa5d157a226cb61b44f86411900e8ac7eef"),
    # recorded before every command shared one output path; --help at COLUMNS=80
    ("curve 21 4 --points 5 --trials 500 --seed 11", "5359472e5f04d014220e8aa606fd37f8a2dda0c694dd6e8a39b3b3742be20391"),
    ("curve 21 4 --points 3 --trials 200 --seed 5 --json", "7b17ca8dcf5894dc17f9958c7d3949540525ebbcb6cab6d4dc2ab869dfabb532"),
    ("simulate 3 2 --n-t 4 --trials 5000 --seed 3", "8a49c24a55787912489f04f21eb82fdedc03f3a7cc48f4548a2006edaa0ca295"),
    ("simulate 3 2 --n-t 4 --trials 5000 --seed 3 --json", "6d8a0ab8322a1e94fea44cb3013b4fae29ec9c698a74cf968232974456d1c554"),
    ("simulate 10 5 --n-t 20 --drop-worst --trials 3000 --seed 4", "c8437fcfa748cb5cbe9b9bbb3f91ac2f801fea389856ed7825454222cbd9ab74"),
    ("simulate 3 3 --tracked-ranks 1,2,3 --trials 3000 --seed 3 --json", "63c55f9902a2cd19fb2db86e3edb078149314c6f85d5b0a6739fe0c517113fcc"),
    ("dist 6 7 --form series", "a0a20e92795b902c06575d8dade09f144537ee3a9f0127c08f1180987a56d496"),
    ("dist 6 6 --form series --json", "6e1f21c5c6df4ab0e008d5eaf482513a5a4b03987ace02af2381faf549eb6d50"),
    ("dist 4 5 --json", "bbbb1ff30241661b0086581a797455d9a88e126539c6385e83b6e24b4f464742"),
    ("eulerian 6", "daa388effad1d07337eecabb329fb6212b60eec1dafdd520bc3ab7ac40bd5faf"),
    ("stirling 6 --json", "f9a9022313cb486b2a3148dfb2d605ee39ada26c1a835dfb689167acdaa66743"),
    ("approx 21 4 40", "d75723f295d7373134a01410c1eb73d8a294662503535cb0390de966e6232159"),
    ("--help", "8807a8811120535255a94ee173f8ac5688555129a9e0edf8e345512385661afd"),
    ("eulerian --help", "9be232c0b4ae633681b9e4764847fa79175fcc9e427171aed915797ab2d65953"),
    ("stirling --help", "8357356f9d03cebd53614af2b32991d7358ac7fd835cbefeb872da50d2d07744"),
    ("dist --help", "3dc9152d01d678e9360b6b08a5f87764e74c2c81c899b4da8d08d3e22f1b1673"),
    ("curve --help", "a6c40349c3dbc0329006a799cdbc125f30f220f6085571133763eba2cfd33602"),
    ("approx --help", "16db1feb6c02100220d1e4eb2b228d7bd94cfd17cea524beb6c419a50b1f3925"),
    ("simulate --help", "c1f7569ab5e4c528a25fd1e9342a73f6f88c1a34df5cd04fb2c7de970bc4cdde"),
    ("verify --help", "c9b27c30abc5be870a2bed3bf278a1bd90ea18b8be33c64aa723757707f0ef1e"),
]


@pytest.mark.parametrize("command,digest", GOLDEN_STDOUT, ids=[c for c, _ in GOLDEN_STDOUT])
def test_cli_output_golden(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code, out, _ = run_cli(capsys, *command.split())
    except SystemExit as exc:  # argparse exits after printing --help
        code, out = exc.code, capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_eulerian_rows(capsys):
    code, out, _ = run_cli(capsys, "eulerian", "4")
    assert code == 0
    assert out.splitlines() == ["1", "1 1", "1 4 1", "1 11 11 1"]


def test_eulerian_single_row(capsys):
    code, out, _ = run_cli(capsys, "eulerian", "1")
    assert code == 0 and out.strip() == "1"


def test_triangle_is_looked_up_when_called(capsys, monkeypatch):
    def sevens(n_max):
        return [[7] * n for n in range(1, n_max + 1)]

    monkeypatch.setattr(combinatorics, "eulerian_triangle", sevens)
    code, out, _ = run_cli(capsys, "eulerian", "3")
    assert code == 0
    assert out.splitlines() == ["7", "7 7", "7 7 7"]


# bench/tracing.py sets a traced view of combinatorics as cli.combinatorics:
# the attribute must resolve before any command runs, and the triangle
# commands must call whatever value sits there.
def test_triangles_call_what_sits_at_cli_combinatorics(capsys, monkeypatch):
    from racerank import cli

    assert cli.combinatorics is combinatorics
    assert not hasattr(cli, "numpy")

    class StandIn:
        @staticmethod
        def eulerian_triangle(n_max):
            return [[7] * n for n in range(1, n_max + 1)]

    monkeypatch.setattr(cli, "combinatorics", StandIn)
    code, out, _ = run_cli(capsys, "eulerian", "3")
    assert code == 0
    assert out.splitlines() == ["7", "7 7", "7 7 7"]


def test_stirling_rows(capsys):
    code, out, _ = run_cli(capsys, "stirling", "4")
    assert code == 0
    assert out.splitlines()[-1] == "1 7 6 1"


@pytest.mark.parametrize("command", ["eulerian", "stirling"])
def test_triangles_have_no_cap(capsys, command):
    with pytest.raises(SystemExit):
        run_cli(capsys, command, "10", "--cap", "5")
    assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eulerian", "stirling"])
def test_triangle_rows_bounded_only_by_the_budget(capsys, command):
    # 61 rows lie under combinatorics.TRIANGLE_ROW_BUDGET, the one bound
    code, out, _ = run_cli(capsys, command, "61")
    assert code == 0
    assert len(out.splitlines()) == 61


@pytest.mark.parametrize("form", ["exact", "stirling", "bruteforce", "series"])
def test_dist_forms_identical_output(capsys, form):
    code, out, _ = run_cli(capsys, "dist", "3", "4", "--form", form)
    assert code == 0
    assert out.splitlines()[-1] == "1/6 2/3 1/6 0"
    code, out, _ = run_cli(capsys, "dist", "3", "3", "--form", form)
    assert code == 0
    assert out.splitlines()[-1] == "2/3 1/3 0 0"


def test_dist_reflection_case(capsys):
    for form in ("exact", "stirling", "bruteforce"):
        code, out, _ = run_cli(capsys, "dist", "3", "7", "--form", form)
        assert code == 0
        assert out.splitlines()[-1] == "0 0 0 1"


@pytest.mark.parametrize(
    "n_b,n_t",
    [(n_b, n_b + 1) for n_b in range(1, 15)] + [(n_b, n_b) for n_b in range(2, 15)],
)
def test_dist_series_equals_exact(capsys, n_b, n_t):
    # dist truncates the series at order max(n_b, 2), so this reaches orders above 12
    _, exact, _ = run_cli(capsys, "dist", str(n_b), str(n_t), "--form", "exact")
    code, out, _ = run_cli(capsys, "dist", str(n_b), str(n_t), "--form", "series")
    assert code == 0
    assert out.splitlines()[-1] == exact.splitlines()[-1]


@pytest.mark.parametrize("n_t,built", [(5, "eulerian_gf"), (4, "second_gf_expand")])
def test_dist_series_builds_one_series(capsys, monkeypatch, n_t, built):
    calls = {name: record(monkeypatch, series, name) for name in ("eulerian_gf", "second_gf_expand")}
    code, _, _ = run_cli(capsys, "dist", "4", str(n_t), "--form", "series")
    assert code == 0
    assert {name: c for name, c in calls.items() if c} == {built: Counter({(4,): 1})}  # order n_b


def test_dist_series_domain_restriction(capsys):
    code, _, err = run_cli(capsys, "dist", "3", "7", "--form", "series")
    assert code == 2
    assert "series" in err


@pytest.mark.parametrize("form", ["exact", "stirling", "bruteforce", "series"])
@pytest.mark.parametrize(
    "n_b,n_t,message",
    [
        (1, 1, "score n_t must be in [2, 3], got 1"),
        (2, 7, "score n_t must be in [2, 5], got 7"),
        (0, 2, "n_b must be >= 1, got 0"),
    ],
)
def test_dist_forms_refuse_bad_input_alike(capsys, monkeypatch, form, n_b, n_t, message):
    block(monkeypatch, SERIES)
    code, out, err = run_cli(capsys, "dist", str(n_b), str(n_t), "--form", form)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_dist_out_of_range(capsys):
    code, _, err = run_cli(capsys, "dist", "3", "1")
    assert code == 2 and "error" in err


def test_dist_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "dist", "4", "5", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "dist"
    assert record["provenance"] == "two_race"
    parsed = [Fraction(s) for s in record["results"]["p"]]
    assert tuple(parsed) == full_distribution(4, 5).probs


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level=quick")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "12/12" in lines[-1]


def test_verify_full_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level=full")
    assert code == 0


def test_verify_corrupted_table_fails(capsys, monkeypatch):
    real = combinatorics.eulerian_triangle

    def corrupted(n_max):
        rows = real(n_max)
        if n_max >= 4:
            rows[3] = [1, 11, 12, 1]
        return rows

    monkeypatch.setattr(combinatorics, "eulerian_triangle", corrupted)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert out.splitlines()[0] == "FAIL eulerian rows vs reference table (n <= 7)"
    code, out, _ = run_cli(capsys, "verify", "--json")
    assert code == 1
    assert json.loads(out)["results"]["ok"] is False


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json")
    record = json.loads(out)
    assert record["results"]["ok"] is True
    assert code == 0


def test_approx_output(capsys):
    code, out, _ = run_cli(capsys, "approx", "200", "30", "3015", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["results"]["middle_score"] == "3015"
    assert record["results"]["mean_final_rank"] == 100.0
    assert record["results"]["centered_score"] == 0.0


def test_approx_rejects_out_of_range_score(capsys):
    code, _, err = run_cli(capsys, "approx", "200", "30", "29")
    assert code == 2 and "score" in err


def test_curve_csv_deterministic(capsys):
    args = ("curve", "21", "4", "--points", "5", "--trials", "500", "--seed", "11")
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical under a fixed seed
    assert err1 == ""  # explicit seed: nothing logged
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert list(rows[0].keys()) == CURVE_COLUMNS
    # float columns round-trip exactly (emitted via repr)
    for row in rows:
        for col in CURVE_COLUMNS[1:]:
            assert repr(float(row[col])) == row[col]
        assert row["n_t"] == str(int(row["n_t"]))


@pytest.mark.parametrize("points", ["0", "-1"])
def test_curve_rejects_empty_grid(capsys, points):
    code, out, err = run_cli(capsys, "curve", "21", "4", "--points", points, "--seed", "1")
    assert code == 2 and out == ""
    assert err == f"error: points must be >= 1, got {points}\n"


def test_curve_single_point_is_middle_score(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "200", "30", "--points", "1", "--trials", "100", "--seed", "1"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["n_t"] for row in rows] == ["3015"]


def test_curve_logs_generated_seed(capsys):
    code, out, err = run_cli(capsys, "curve", "21", "4", "--points", "3", "--trials", "200")
    assert code == 0
    assert err.startswith("seed: ")
    int(err.split()[1])  # parses as an integer


def test_generated_seed_is_eight_urandom_bytes(capsys, monkeypatch):
    monkeypatch.setattr(os, "urandom", lambda n: bytes(range(1, n + 1)))
    seed = 0x0102030405060708
    args = ("simulate", "3", "2", "--n-t", "4", "--trials", "10")
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == f"seed: {seed}\n"
    assert out == run_cli(capsys, *args, "--seed", str(seed))[1]
    code, out, err = run_cli(capsys, *args, "--json")
    assert code == 0 and err == f"seed: {seed}\n"
    assert json.loads(out)["parameters"]["seed"] == seed
    # the integer secrets.randbits(64) makes of the same eight bytes
    monkeypatch.setattr(random, "_urandom", os.urandom)
    assert secrets.randbits(64) == seed


@pytest.mark.parametrize(
    "argv, message",
    [
        (("simulate", "3", "2"), "n_t is required unless tracked_ranks is given"),
        (("simulate", "3", "2", "--n-t", "4", "--trials", "0"), "trials must be >= 1"),
        (("simulate", "3", "2", "--tracked-ranks", "2,x"),
         "bad --tracked-ranks: invalid literal for int() with base 10: 'x'"),
        (("curve", "3", "2", "--points", "0"), "points must be >= 1, got 0"),
        (("curve", "3", "2", "--trials", "0"), "trials must be >= 1"),
        # an explicit id, so that editing the WORDS template renames no test
        pytest.param(("curve", "5000", "1000"), WORDS("n_b*n_r = 5000000"),
                     id="argv5-trial word budget"),
    ],
)
def test_refused_run_logs_no_seed(capsys, argv, message):
    # a generated seed is named only for a run whose arguments are accepted
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command", ["simulate 3 2 --n-t 4 --trials 10", "curve 21 4 --points 3 --trials 20"]
)
def test_generated_seed_is_logged_before_any_output(capsys, monkeypatch, command):
    monkeypatch.setattr(os, "urandom", lambda n: bytes(range(1, n + 1)))
    seed = 0x0102030405060708
    merged = io.StringIO()
    with contextlib.redirect_stdout(merged), contextlib.redirect_stderr(merged):
        assert main(shlex.split(command)) == 0
    out = run_cli(capsys, *shlex.split(command), "--seed", str(seed))[1]
    assert merged.getvalue() == f"seed: {seed}\n{out}"


def test_curve_json(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "21", "4", "--points", "3", "--trials", "200",
        "--seed", "5", "--json",
    )
    record = json.loads(out)
    assert len(record["results"]["rows"]) == 3
    assert record["parameters"]["seed"] == 5


def test_simulate_human_and_json(capsys):
    args = ("simulate", "3", "2", "--n-t", "4", "--trials", "5000", "--seed", "3")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out.splitlines()[0] == "m counts prob"
    code, out, _ = run_cli(capsys, *args, "--json")
    record = json.loads(out)
    assert sum(record["results"]["counts"]) == 5000
    assert record["provenance"] == "montecarlo"


def test_simulate_tracked_ranks(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "3", "3", "--tracked-ranks", "2,2,2",
        "--trials", "2000", "--seed", "3", "--json",
    )
    record = json.loads(out)
    assert record["results"]["empirical_probs"] == [0.0, 1.0, 0.0]


def test_simulate_score_and_tracked_ranks_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "3", "3", "--n-t", "4", "--tracked-ranks", "2,2,2", "--seed", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --tracked-ranks: not allowed with argument --n-t" in err


def test_simulate_bad_tracked_ranks(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "3", "3", "--tracked-ranks", "2,x", "--seed", "1"
    )
    assert code == 2 and "tracked" in err


def test_simulate_missing_score(capsys):
    code, _, err = run_cli(capsys, "simulate", "3", "2", "--seed", "1")
    assert code == 2


_WIDE = WORDS("n_b*n_r = 5000000")
_TRACKED = ",".join(["1"] * 1000)

# id -> (a command line a budget refuses, the builders it must not touch
# first, its refusal); the ids are written out, so that editing a template
# in tests/_budgets.py renames no test
ONE_LINE_REFUSALS = {
    "simulate n_t trial words": (["simulate", "5000", "1000", "--n-t", "4", "--seed", "1"],
                                 PHILOX, _WIDE),
    "simulate tracked trial words": (
        ["simulate", "5000", "1000", "--tracked-ranks", _TRACKED, "--seed", "1"], PHILOX, _WIDE
    ),
    "curve trial words": (["curve", "5000", "1000", "--seed", "1"], PHILOX, _WIDE),
    "dist exact fleet": (["dist", "451", "10", "--form", "exact"], TWO_RACE, FLEET(451)),
    "dist stirling fleet": (["dist", "451", "10", "--form", "stirling"], TWO_RACE, FLEET(451)),
    "eulerian row": (["eulerian", "600"], COMBINATORICS, ROW(600)),
    "stirling row": (["stirling", "600"], COMBINATORICS, ROW(600)),
    # n_t = n_b + 1 reads the first series, n_t = n_b the second
    "dist series first order": (["dist", "61", "62", "--form", "series"], SERIES, ORDER(61)),
    "dist series second order": (["dist", "61", "61", "--form", "series"], SERIES, ORDER(61)),
    # 2000! has 5736 digits; the refusal names it without building it
    "dist bruteforce enumeration": (["dist", "2000", "2000", "--form", "bruteforce"],
                                    ENUMERATION, NEEDS("2000!")),
    "curve grid points": (["curve", "200", "30", "--points", "100000000", "--seed", "1"],
                          MONTECARLO, GRID(10**8)),
}


@pytest.mark.parametrize(
    "argv, builders, message", ONE_LINE_REFUSALS.values(), ids=ONE_LINE_REFUSALS.keys()
)
def test_oversized_command_is_one_error_line(capsys, monkeypatch, argv, builders, message):
    block(monkeypatch, builders)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_line_parses(argv):
    # parsed, not run: a flag the parser no longer knows fails here
    assert argv[0] == "racerank"
    _build_parser().parse_args(argv[1:])


def test_readme_library_example_runs():
    # run, not parsed: a name the package no longer exports fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_dist_has_no_enumeration_cap(capsys):
    with pytest.raises(SystemExit):
        run_cli(capsys, "dist", "3", "4", "--form", "bruteforce", "--cap", "10")
    assert "unrecognized arguments: --cap 10" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc",
    [MemoryError("Unable to allocate 34.3 GiB"), MemoryError(), ArithmeticError("overflow")],
)
def test_resource_errors_are_one_line(capsys, monkeypatch, exc):
    def fail(config):
        raise exc

    monkeypatch.setattr(montecarlo, "simulate", fail)
    code, out, err = run_cli(capsys, "simulate", "3", "2", "--n-t", "4", "--seed", "1")
    assert code == 2 and out == ""
    assert err == f"error: {str(exc) or type(exc).__name__}\n"


def test_closed_stdout_exits_quietly():
    src = str(Path(racerank.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    with subprocess.Popen(
        [sys.executable, "-m", "racerank.cli", "curve", "20", "5", "--trials", "200", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        proc.stdout.close()  # the reader is gone before the first write
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""
