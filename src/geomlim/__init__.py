"""Limits of orthogonal and unitary geometries: two-dimensional algebra
scalars, matrix groups over them, conjugacy limits and their cell
complexes, Heisenberg-plane representations, and regeneration of
parallelogram surface groups.

The submodules load on first use (``geomlim.limits``, ``from geomlim
import cells``).  numpy loads with the numeric ones: ``matrices``,
``heisenberg``, ``regeneration`` and the Lie-algebra half of ``limits``.
``algebra``, ``cells`` and the combinatorial half of ``limits`` run
without it.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["algebra", "matrices", "limits", "cells", "heisenberg",
           "regeneration", "__version__"]


def __getattr__(name):
    # PEP 562: import a submodule the first time it is asked for; the
    # import binds it as a package attribute, so this runs once per name
    if name in __all__:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(
        "module {!r} has no attribute {!r}".format(__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
