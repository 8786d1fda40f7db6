"""Run one racerank benchmark workload and print its metrics.

    python3 bench/run.py --workload curve_200x30 --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (output checks) and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The lines above it repeat every metric with
its unit, the fail ratio, the output digest and the machine and run facts.
The full record, and the spans of a traced run, are written to
``bench/out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Everything runs in one process; numeric libraries get one thread each.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Fresh processes whose import time makes up setup_s.  Each child times
# the import, then runs the Python calibration kernel SETUP_KERNEL_RUNS times
# and reports its speed factor from the median run (robust to a run the OS
# interrupts); setup_s is the median calibrated import time.
SETUP_RUNS = 15
SETUP_KERNEL_RUNS = 5
SETUP_CODE = f"""\
import time
t0 = time.perf_counter()
import racerank
import racerank.cli
racerank.cli.main
elapsed = time.perf_counter() - t0
import statistics
from calibration import KERNELS
kernel, reference = KERNELS["python"]
kernel_s = []
for _ in range({SETUP_KERNEL_RUNS}):
    t0 = time.perf_counter()
    kernel()
    kernel_s.append(time.perf_counter() - t0)
print(repr(elapsed), repr(statistics.median(kernel_s) / reference))
"""


def _setup_seconds(env: dict[str, str]) -> tuple[float, float]:
    """Raw import seconds in a fresh process, and that process's speed factor."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    elapsed, factor = map(float, proc.stdout.split())
    return elapsed, factor


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine_facts() -> dict:
    import numpy
    import racerank

    cpu = {}
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        if key in ("model name", "cache size") and key not in cpu:
            cpu[key] = value.strip()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level.strip()}{kind.strip()[0].lower()}"] = size.strip()
    source = hashlib.sha256()
    for path in sorted((SRC / "racerank").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name"),
        "cpu_cache": cpu.get("cache size"),
        "caches": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "racerank": racerank.__version__,
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _quantiles(values: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the seed the reference digests are for)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "racerank" / "__init__.py").is_file():
        print(f"error: no racerank sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    setup_raw, setup_speed = zip(*(_setup_seconds(env) for _ in range(SETUP_RUNS)))

    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    references = json.loads((HERE / "reference_digests.json").read_text())
    seed = references["seed"] if args.seed is None else args.seed
    workload = workloads.WORKLOADS[args.workload](seed)
    reference = None
    if workload.seed_free_digest or seed == references["seed"]:
        reference = references["digests"][args.workload]

    result = workloads.measure(workload, args.seconds, bool(args.trace), reference)
    checks = result.checks

    untraced = result.untraced
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = result.layers
        listed = [m["name"] for m in spec["per_layer"]]
    else:
        p50, p90 = _quantiles(untraced.norm_call_s)
        wall_s = statistics.median(untraced.norm_rounds_s)
        values = {
            "setup_s": statistics.median(r / f for r, f in zip(setup_raw, setup_speed)),
            "wall_s": wall_s,
            "items_per_s": untraced.items / len(untraced.rounds_s) / wall_s,
            "call_p50_ms": p50 * 1e3,
            "call_p90_ms": p90 * 1e3,
            "peak_rss_mb": result.peak_rss_mb,
        }
        listed = [m["name"] for m in spec["end_to_end"]]
    if sorted(values) != sorted(listed):
        raise SystemExit(f"measured metrics {sorted(values)} differ from BENCHMARK.json {sorted(listed)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in listed}

    facts = machine_facts()
    run = {"workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
           "rounds": len(untraced.rounds_s), "timed_calls": len(untraced.norm_call_s),
           "items": workload.items_name, "calibration": workload.calibration,
           "raw_wall_s": statistics.median(untraced.rounds_s)}
    timings = {"setup_s": list(setup_raw), "setup_speed": list(setup_speed),
               "untraced_rounds_s": untraced.rounds_s,
               "untraced_speed": untraced.speed}
    if result.traced is not None:
        timings.update(traced_rounds_s=result.traced.rounds_s, traced_speed=result.traced.speed)
    print(f"run {json.dumps(run)}")
    print(f"facts {json.dumps(facts)}")
    for name in listed:
        print(f"{name} {values[name]!r} {units[name]}")
    print(f"fail_ratio {checks.failed}/{checks.attempted} = {checks.fail_ratio!r}")
    for name, ok, detail in checks.results:
        if not ok:
            print(f"FAIL {name} {detail}")
    status = "not checked for this seed" if reference is None else (
        "matches reference" if reference == result.digest else "DIFFERS from reference")
    print(f"digest sha256 {result.digest} ({status})")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    record = {"run": run, "facts": facts, "metrics": metrics, "timings": timings,
              "digest": result.digest,
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results],
              "written": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.write(OUT / f"{stem}.spans.npz")

    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
