import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import racerank

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(racerank.__path__))


PUBLIC_NAMES = [
    "AsymptoticParams",
    "CurvePoint",
    "RankDistribution",
    "RankMoments",
    "RankMomentsEstimate",
    "SeriesX",
    "SimConfig",
    "SimResult",
    "binomial",
    "brute_force_composition",
    "brute_force_score",
    "brute_force_two_race",
    "centered_score",
    "coefficient_to_distribution",
    "count_compatible_subsets",
    "curve_sweep",
    "distribution_moments",
    "empirical_rank_moments",
    "eulerian",
    "eulerian_from_stirling",
    "eulerian_gf",
    "eulerian_triangle",
    "factorial",
    "full_distribution",
    "mean_final_rank",
    "middle_band_grid",
    "normal_cdf",
    "rank_moments_theory",
    "second_gf_expand",
    "simulate",
    "stirling2",
    "stirling_binomial_sum",
    "stirling_diagonal",
    "stirling_form_distribution",
    "stirling_triangle",
    "variance_final_rank",
]


def test_public_names_pinned():
    assert sorted(racerank.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module_name", ["racerank"] + [f"racerank.{m}" for m in SUBMODULES])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


# The exact routes are pure Python: importing the package or the CLI, and
# running the exact commands, must leave numpy unloaded, and reading a name of
# a numpy-backed module must load it.  Checked in fresh interpreters, because
# this one has numpy loaded already.  Nor do they load STARTUP_FREE: only
# montecarlo's dataclasses, `--json` and `curve`'s CSV use those.
EXACT_COMMANDS = [
    ["dist", "8", "9", "--form", "exact"],
    ["dist", "8", "9", "--form", "stirling"],
    ["dist", "8", "9", "--form", "series"],
    ["eulerian", "5"],
    ["stirling", "5"],
    ["approx", "200", "30", "3015"],
]

STARTUP_FREE = {"dataclasses", "inspect", "json", "csv"}

NUMPY_FREE = f"""\
import contextlib, io, sys
before = set(sys.modules)
loaded = lambda: sorted({STARTUP_FREE!r} & (set(sys.modules) - before))
import racerank
from racerank import cli
import racerank.cli
assert "numpy" not in sys.modules, "import"
assert loaded() == [], ("import", loaded())
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {EXACT_COMMANDS!r}:
        assert cli.main(argv) == 0, argv
        assert "numpy" not in sys.modules, argv
        assert loaded() == [], (argv, loaded())
    assert cli.main(["eulerian", "5", "--json"]) == 0
assert "json" in sys.modules, "--json"
"""

# `import *` reads `__all__` before any name, so the second script's numpy
# comes from the `__all__` read; each name then resolves from its module.
LAZY_READS = {
    "attribute": NUMPY_FREE + """\
assert racerank.simulate is racerank.montecarlo.simulate
assert "numpy" in sys.modules
""",
    "star": f"""\
import sys
import racerank
from racerank import *
assert "numpy" in sys.modules
assert all(globals()[n] is getattr(racerank, n) for n in racerank.__all__)
assert sorted(racerank.__all__) == {PUBLIC_NAMES!r}
""",
}


@pytest.mark.parametrize("read", list(LAZY_READS))
def test_numpy_loads_only_on_a_lazy_read(read):
    src = str(Path(racerank.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", LAZY_READS[read]],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# `typing` is one stdlib module the exact commands never need; `-S` keeps the
# site hooks, which may import it themselves, out of the check.
TYPING_FREE = """\
import contextlib, io, sys
import racerank, racerank.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert racerank.cli.main(["dist", "8", "9"]) == 0
assert "typing" not in sys.modules
"""


def test_exact_command_loads_no_typing():
    src = str(Path(racerank.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", TYPING_FREE],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
