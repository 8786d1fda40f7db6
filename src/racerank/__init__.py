"""Final-rank probability distributions in multi-race scored competitions:
exact enumeration and special-number combinatorics, generating functions,
normal-limit asymptotics and seeded Monte Carlo, cross-verifying each other.

Each library module's ``__all__`` is its public surface, and the package
re-exports exactly those names.  Budgets stay module attributes, read as
``module.NAME`` (e.g. ``two_race.EXACT_N_B_BUDGET``).

The numpy-backed modules, ``lattice_oracle`` and ``montecarlo``, load on
first use: reading one of their names (or ``__all__``, as ``import *``
does) imports them, so the exact routes never import numpy.
"""

from importlib import import_module as _import_module
from importlib.util import find_spec as _find_spec

from . import asymptotics, combinatorics, series, two_race
from .combinatorics import *  # noqa: F403
from .two_race import *  # noqa: F403
from .series import *  # noqa: F403
from .asymptotics import *  # noqa: F403

__version__ = "0.1.0"

# the re-exported modules in __all__'s order; lattice_oracle and montecarlo,
# not imported above, load here the first time one of their names is read
_EXPORTERS = ("combinatorics", "two_race", "lattice_oracle", "series", "asymptotics", "montecarlo")


def __getattr__(name):
    # a submodule loads alone (this is also the probe `from racerank import cli` makes)
    if name.isidentifier() and _find_spec(f"{__name__}.{name}"):
        return _import_module(f"{__name__}.{name}")
    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    modules = [_import_module(f"{__name__}.{m}") for m in _EXPORTERS]
    if name == "__all__":
        value = [n for m in modules for n in m.__all__]
    else:
        owner = next((m for m in modules if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value
