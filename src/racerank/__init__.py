"""Final-rank probability distributions in multi-race scored competitions:
exact enumeration and special-number combinatorics, generating functions,
normal-limit asymptotics and seeded Monte Carlo, cross-verifying each other.

Each library module's ``__all__`` is its public surface, and the package
re-exports exactly those names.  Budgets stay module attributes, read as
``module.NAME`` (e.g. ``two_race.EXACT_N_B_BUDGET``).

``import racerank`` loads no library module: each loads the first time one
of its names is read (``__all__``, as ``import *`` reads it, loads them all).
A name is looked for in the pure-Python modules before the numpy-backed
``lattice_oracle`` and ``montecarlo``, so the exact routes never import numpy.
"""

from importlib import import_module as _import_module
from importlib.util import find_spec as _find_spec

__version__ = "0.1.0"

# the re-exporting modules in __all__'s order: a name read is looked for in
# them in turn, importing each only until one holds it, so the pure-Python
# modules come first and a name of theirs never imports numpy
_EXPORTERS = ("combinatorics", "two_race", "series", "asymptotics", "lattice_oracle", "montecarlo")


def __getattr__(name):
    # a submodule loads alone (this is also the probe `from racerank import cli` makes)
    if name.isidentifier() and _find_spec(f"{__name__}.{name}"):
        return _import_module(f"{__name__}.{name}")
    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    modules = (_import_module(f"{__name__}.{m}") for m in _EXPORTERS)
    if name == "__all__":
        value = [n for m in modules for n in m.__all__]
    else:
        owner = next((m for m in modules if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value
