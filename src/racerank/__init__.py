"""Final-rank probability distributions in multi-race scored competitions:
exact enumeration and special-number combinatorics, generating functions,
normal-limit asymptotics and seeded Monte Carlo, cross-verifying each other.

Each library module's ``__all__`` is its public surface, and the package
re-exports exactly those names.  Budgets stay module attributes, read as
``module.NAME`` (e.g. ``two_race.EXACT_N_B_BUDGET``).
"""

from . import asymptotics, combinatorics, lattice_oracle, montecarlo, series, two_race
from .combinatorics import *  # noqa: F403
from .two_race import *  # noqa: F403
from .lattice_oracle import *  # noqa: F403
from .series import *  # noqa: F403
from .asymptotics import *  # noqa: F403
from .montecarlo import *  # noqa: F403

__version__ = "0.1.0"

__all__ = []
__all__ += combinatorics.__all__
__all__ += two_race.__all__
__all__ += lattice_oracle.__all__
__all__ += series.__all__
__all__ += asymptotics.__all__
__all__ += montecarlo.__all__
