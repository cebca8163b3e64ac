"""Verification toolkit for sharp coefficient bounds of starlike functions
whose logarithmic derivative is driven by z + cosh(z).

The package builds the relevant extremal functions by exact truncated-series
algebra, evaluates every coefficient functional in closed form over the
parametrized Caratheodory class, implements the auxiliary piecewise maximum
lemmas next to brute-force oracles, and reproduces each sharp constant by a
deterministic global grid search.

Public names have one list each: the ``__all__`` of ``series_engine``,
``caratheodory``, ``functionals``, ``lemmas`` and ``verifier``.  The package
resolves ``coeffsharp.<name>`` from them, in that order, on first use, and a
submodule name gives the submodule.  So importing the package imports no
numpy; neither do the ``series`` and ``eval`` commands, which are exact
rational work.  ``lemmas`` and ``verifier`` import numpy, and with them the
``lemma`` and ``verify`` commands.
"""

import importlib.util

__version__ = "0.1.0"

_MODULES = ("series_engine", "caratheodory", "functionals", "lemmas", "verifier")


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name.isidentifier() and importlib.util.find_spec(f"{__name__}.{name}"):
        return _module(name)
    for module in map(_module, _MODULES):
        if name in module.__all__:
            value = globals()[name] = getattr(module, name)  # later lookups skip the hook
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *(name for m in _MODULES for name in _module(m).__all__)})
