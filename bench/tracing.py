"""Span tracing installed from outside the library, for the traced run only.

``install`` wraps racerank's public functions where callers look them up
(each module's globals, so internal calls between public functions are
seen too) and puts a timing view of numpy in place of
``racerank.montecarlo.np``.  Nothing is wrapped unless ``install`` runs,
and ``Installation.close`` puts every original back.

Every wrapped call records one span: name, start, end, parent span and the
run id (the index of the benchmark round it belongs to).  Spans stay in
flat arrays in memory and are summarised, and optionally written out, when
the traced rounds are over.  A span's self time is its duration minus the
durations of its direct children; since the benchmark is single-threaded,
self times of all spans in a round add up to the round's duration.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
import types
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_now = time.perf_counter

# numpy functions montecarlo calls that get a per-layer metric of their own;
# every other numpy callable is summed into montecarlo.np.other_s.
NUMPY_METRICS = ("random_raw", "argsort", "put_along_axis", "take_along_axis", "bincount")

# Layers whose per-layer time is the sum of the self times of their spans.
# The suffix follows the layer: ``.s`` for layers that call into no other
# traced layer (self time equals total time), ``.self_s`` for the others.
SELF_TIME_METRICS = {
    "bench": "bench.self_s",
    "cli": "cli.self_s",
    "montecarlo": "montecarlo.self_s",
    "asymptotics": "asymptotics.s",
    "two_race": "two_race.self_s",
    "combinatorics": "combinatorics.s",
    "series": "series.self_s",
    "lattice_oracle": "lattice_oracle.s",
}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.run = array("H")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span called ``name``; ``count(counters, args)``
        may add work counts taken from the call's bound arguments."""
        nid = self._intern(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counters, bound.arguments)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def round(self, run_id: int) -> "_RoundSpan":
        """Context manager for the root span of one benchmark round."""
        self.run_id = run_id
        return _RoundSpan(self, self._intern("bench.round"))

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def summary(self) -> "Summary":
        n = len(self.name_id)
        name_id = np.frombuffer(self.name_id, dtype=np.uint16, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        duration = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=n
        )
        self_time = duration - children
        k = len(self.names)
        return Summary(
            names=list(self.names),
            calls=np.bincount(name_id, minlength=k),
            total_s=np.bincount(name_id, weights=duration, minlength=k),
            self_s=np.bincount(name_id, weights=self_time, minlength=k),
            counters=dict(self.counters),
        )

    def write(self, path: Path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        n = len(self.name_id)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            run_id=np.frombuffer(self.run, dtype=np.uint16, count=n),
            start=np.frombuffer(self.start, count=n),
            end=np.frombuffer(self.end, count=n),
        )


class _RoundSpan:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid

    def __enter__(self) -> None:
        self._idx = self._tracer._open(self._nid)

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._idx)


@dataclass
class Summary:
    """Per span name: call count, total (inclusive) time and self time."""

    names: list[str]
    calls: np.ndarray
    total_s: np.ndarray
    self_s: np.ndarray
    counters: dict[str, float]

    def _sum(self, field: np.ndarray, pick) -> float:
        return float(sum(field[i] for i, name in enumerate(self.names) if pick(name)))

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, per traced round (counts and times are means
        over the rounds; ``series.order`` is the largest order expanded)."""

        def layer(name: str) -> str:
            return "montecarlo.np" if name.startswith("montecarlo.np.") else name.split(".")[0]

        def per_round(value: float) -> float:
            return value / rounds

        out: dict[str, float] = {}
        for lay, metric in SELF_TIME_METRICS.items():
            out[metric] = per_round(self._sum(self.self_s, lambda n: layer(n) == lay))
        for lay in ("montecarlo", "asymptotics", "two_race", "combinatorics", "series", "lattice_oracle"):
            out[f"{lay}.calls"] = per_round(self._sum(self.calls, lambda n: layer(n) == lay))
        for fn in NUMPY_METRICS:
            out[f"montecarlo.np.{fn}_s"] = per_round(
                self._sum(self.total_s, lambda n: n == f"montecarlo.np.{fn}")
            )
        named = {f"montecarlo.np.{fn}" for fn in NUMPY_METRICS}
        out["montecarlo.np.other_s"] = per_round(
            self._sum(self.total_s, lambda n: layer(n) == "montecarlo.np" and n not in named)
        )
        out["montecarlo.simulate_s"] = per_round(
            self._sum(
                self.total_s,
                lambda n: n in ("montecarlo.simulate", "montecarlo.empirical_rank_moments"),
            )
        )
        c = self.counters
        drawn = c.get("montecarlo.words_drawn", 0)
        out["montecarlo.trials"] = per_round(c.get("montecarlo.trials", 0))
        out["montecarlo.words_drawn"] = per_round(drawn)
        out["montecarlo.word_use_ratio"] = c.get("montecarlo.words_used", 0) / drawn if drawn else 0.0
        out["cli.output_bytes"] = per_round(c.get("cli.output_bytes", 0))
        out["series.order"] = float(c.get("series.order", 0))
        configs = c.get("lattice_oracle.configurations", 0)
        out["lattice_oracle.configurations"] = per_round(configs)
        lattice_s = out["lattice_oracle.s"]
        out["lattice_oracle.configs_per_s"] = per_round(configs) / lattice_s if lattice_s else 0.0
        out["trace.wall_s"] = per_round(self._sum(self.total_s, lambda n: n == "bench.round"))
        return out


# ------------------------------------------------------------ work counters


def _count_simulate(c: dict, a: dict) -> None:
    cfg = a["config"]
    per_trial = cfg.n_r * (cfg.n_b if cfg.tracked_ranks is None else cfg.n_b - 1)
    _count_words(c, per_trial, cfg.trials)


def _count_moments(c: dict, a: dict) -> None:
    _count_words(c, a["n_b"], a["trials"])


def _count_words(c: dict, per_trial: int, trials: int) -> None:
    # Philox yields 4 words per counter block and each trial starts a new block.
    c["montecarlo.trials"] = c.get("montecarlo.trials", 0) + trials
    c["montecarlo.words_drawn"] = c.get("montecarlo.words_drawn", 0) + -(-per_trial // 4) * 4 * trials
    c["montecarlo.words_used"] = c.get("montecarlo.words_used", 0) + per_trial * trials


def _count_configs(configs):
    def count(c: dict, a: dict) -> None:
        key = "lattice_oracle.configurations"
        c[key] = c.get(key, 0) + configs(a)

    return count


def _count_order(c: dict, a: dict) -> None:
    c["series.order"] = max(c.get("series.order", 0), a["order"])


COUNTERS = {
    "montecarlo.simulate": _count_simulate,
    "montecarlo.empirical_rank_moments": _count_moments,
    "lattice_oracle.brute_force_two_race": _count_configs(lambda a: math.factorial(a["n_b"])),
    "lattice_oracle.brute_force_score": _count_configs(
        lambda a: math.factorial(a["n_b"]) ** (a["n_r"] - 1)
    ),
    "lattice_oracle.brute_force_composition": _count_configs(
        lambda a: math.factorial(a["n_b"] - 1) ** len(a["ranks"])
    ),
    "series.eulerian_gf": _count_order,
    "series.middle_score_gf": _count_order,
    "series.second_gf_expand": _count_order,
}


# ------------------------------------------------------------------- views


class _View:
    """Stands in for a module as one importer sees it; attributes are
    resolved once, through ``resolve(name, value)``, and cached."""

    def __init__(self, module: types.ModuleType, resolve) -> None:
        self._module = module
        self._resolve = resolve

    def __getattr__(self, name: str):
        value = self._resolve(name, getattr(self._module, name))
        setattr(self, name, value)
        return value


def numpy_view(tracer: Tracer, module: types.ModuleType = np, prefix: str = "montecarlo.np") -> _View:
    """numpy as ``racerank.montecarlo`` sees it in the traced run: every
    function is timed under ``prefix.<name>``; bit generators it builds
    time their ``random_raw``."""

    def resolve(name: str, value):
        if isinstance(value, types.ModuleType):
            return numpy_view(tracer, value, prefix)
        if isinstance(value, type) and issubclass(value, np.random.BitGenerator):
            return tracer.wrap(f"{prefix}.{name}", lambda *a, **k: _bit_generator_view(value(*a, **k)))
        if callable(value) and not isinstance(value, type):
            return tracer.wrap(f"{prefix}.{name}", value)
        return value

    def _bit_generator_view(bitgen):
        def resolve_method(name: str, value):
            if name == "random_raw":
                return tracer.wrap(f"{prefix}.random_raw", value)
            return value

        return _View(bitgen, resolve_method)

    return _View(module, resolve)


class Installation:
    """The set of patches ``install`` made; ``close`` undoes them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def close(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def install(tracer: Tracer) -> Installation:
    """Wrap racerank's public functions at its module boundaries.

    Each layer's public functions (its ``__all__``) are replaced wherever a
    racerank module holds them: in the layer itself and under the names
    other modules imported.  ``combinatorics`` is the exception: its own
    internal calls stay unwrapped (they are millions of tiny calls inside
    ``stirling_diagonal``), and it is wrapped as imported into
    ``two_race`` and, through a view of the module, as ``cli`` calls it.
    """
    import racerank
    from racerank import (
        asymptotics,
        cli,
        combinatorics,
        lattice_oracle,
        montecarlo,
        series,
        two_race,
    )

    layers = (combinatorics, two_race, lattice_oracle, series, asymptotics, montecarlo, cli)
    wrappers = {}
    for layer in layers:
        short = layer.__name__.rsplit(".", 1)[1]
        for name in layer.__all__:
            fn = getattr(layer, name)
            if inspect.isfunction(fn):
                span = f"{short}.{name}"
                wrappers[fn] = tracer.wrap(span, fn, COUNTERS.get(span))

    patches = Installation()
    for module in (racerank,) + layers:
        if module is combinatorics:
            continue
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                patches.set(module, name, wrappers[value])
    patches.set(
        cli,
        "combinatorics",
        _View(combinatorics, lambda name, value: wrappers.get(value, value)
              if inspect.isfunction(value) else value),
    )
    patches.set(montecarlo, "np", numpy_view(tracer))
    return patches
