import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import racerank
from racerank import montecarlo
from racerank.cli import CURVE_COLUMNS, main
from racerank.two_race import full_distribution


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eulerian_rows(capsys):
    code, out, _ = run_cli(capsys, "eulerian", "4")
    assert code == 0
    assert out.splitlines() == ["1", "1 1", "1 4 1", "1 11 11 1"]


def test_eulerian_single_row(capsys):
    code, out, _ = run_cli(capsys, "eulerian", "1")
    assert code == 0 and out.strip() == "1"


def test_stirling_rows(capsys):
    code, out, _ = run_cli(capsys, "stirling", "4")
    assert code == 0
    assert out.splitlines()[-1] == "1 7 6 1"


def test_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "eulerian", "10", "--cap", "5")
    assert code == 2
    assert "cap" in err


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


def test_dist_series_domain_restriction(capsys):
    code, _, err = run_cli(capsys, "dist", "3", "7", "--form", "series")
    assert code == 2
    assert "series" in err


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


def test_verify_corrupted_table_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--inject-failure")
    assert code == 1
    assert "FAIL" in out


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


def test_curve_logs_generated_seed(capsys):
    code, out, err = run_cli(capsys, "curve", "21", "4", "--points", "3", "--trials", "200")
    assert code == 0
    assert err.startswith("seed: ")
    int(err.split()[1])  # parses as an integer


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


def test_simulate_bad_tracked_ranks(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "3", "3", "--tracked-ranks", "2,x", "--seed", "1"
    )
    assert code == 2 and "tracked" in err


def test_simulate_missing_score(capsys):
    code, _, err = run_cli(capsys, "simulate", "3", "2", "--seed", "1")
    assert code == 2


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
    proc = subprocess.Popen(
        [sys.executable, "-m", "racerank.cli", "curve", "20", "5", "--trials", "200", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""
