"""PEP 562 lazy package exports (stdlib only).

A package ``__init__`` that re-exports names from its submodules imports
every submodule, and with them NumPy, as soon as anything under the
package is imported.  ``repro store-serve`` and ``repro.cli``'s parser
need only a few NumPy-free modules, so the packages on their import path
resolve their exports on first attribute access instead::

    _EXPORTS = {"encoding": ("BinnedDataset",), "registry": ("load",)}

    def __getattr__(name: str) -> object:
        return export(__name__, _EXPORTS, name)

The same names are imported under ``TYPE_CHECKING`` so static checkers
see their real types, and ``__all__`` stays a literal list.
"""

from __future__ import annotations

import importlib
import sys
from typing import Mapping

__all__ = ["export"]


def export(package: str, exports: Mapping[str, tuple[str, ...]], name: str) -> object:
    """Import ``name`` from the submodule of ``package`` that ``exports``
    lists it under, and bind it on the package so the lookup runs once."""
    for module, names in exports.items():
        if name in names:
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
            setattr(sys.modules[package], name, value)
            return value
    raise AttributeError(f"module {package!r} has no attribute {name!r}")
