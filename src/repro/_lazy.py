"""Lazy package exports (PEP 562).

Every package ``__init__`` of ``repro`` (except ``repro.cli``) lists its
public names once, by the submodule that defines them, and gets its
module ``__getattr__``, ``__dir__`` and ``__all__`` from
:func:`lazy_exports`::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "tracer": ("Tracer", "use_run"),
        "export": ("write_chrome_trace",),
    })

A name's submodule is imported the first time the name is read, and the
name is then cached in the package, so ``import repro`` loads only what
a run touches.  Modules still import what they use at their top; the
table only decides what importing the package itself loads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps each submodule, relative to ``package`` (dots allowed:
    ``"core.api"``), to the names it exports; a name equal to its
    submodule's (``"atomics": ("atomics",)``) exports the submodule
    itself.  Any other name that is a submodule (``repro.gpu.emulator``)
    resolves by importing it; the rest raise :class:`AttributeError`.
    """
    origin = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = importlib.import_module(f"{package}.{module}")
            if name != module:
                value = getattr(value, name)
            setattr(sys.modules[package], name, value)
            return value
        if name.isidentifier():
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
