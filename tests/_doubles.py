"""The tests' two doubles, both undone by ``monkeypatch`` when the test ends:
:func:`block` for code that must not run, whose first use fails with its
name, and :func:`record` for how often, and with what, code runs.
``tests/test_budgets.py`` fails on a test module that writes its own
``raise AssertionError`` stand-in."""

import builtins
from collections import Counter


class _Unreachable:
    """Stands in for a blocked name: any use of it fails, naming it."""

    def __init__(self, name):
        self.name = name

    def _fail(self, *_, **__):
        raise AssertionError(f"{self.name} was used before the check that guards it")

    __call__ = __getattr__ = __len__ = __iter__ = __getitem__ = _fail


def block(monkeypatch, builders):
    """Put a stand-in that fails on any use in place of each (module, name)
    of ``builders``."""
    # a name that was renamed or removed would otherwise be added to its
    # module by the patch and block nothing
    assert [(m, n) for m, n in builders if not hasattr(m, n) and not hasattr(builtins, n)] == []
    for module, name in builders:
        blocked = _Unreachable(f"{module.__name__}.{name}")
        monkeypatch.setattr(module, name, blocked, raising=False)


def record(monkeypatch, module, name, key=None):
    """Put a wrapper at ``module.name`` that calls the real function, and
    return the ``Counter`` of each call's key: its positional arguments, or
    ``key(*args, **kwargs)`` where those are arrays, lists or keywords."""
    calls = Counter()
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        assert key or not kwargs, f"{name} was called with keywords: record it with a key"
        calls[key(*args, **kwargs) if key else args] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls
