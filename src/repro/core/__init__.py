"""Core PROCLUS algorithms: baseline, FAST, FAST*, and the public API.

``repro.core.proclus`` is the baseline engine's module; the function
is :func:`repro.proclus` (defined in :mod:`repro.core.api`).  The
import system binds a loaded submodule on its package, so a lazily
exported function of the same name would be one or the other depending
on import order.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "api": ("run_parameter_study", "BACKENDS"),
    "proclus": ("ProclusEngine",),
    "fast": ("FastProclusEngine",),
    "fast_star": ("FastStarProclusEngine",),
    "multiparam": ("MultiParamResult", "ReuseLevel"),
    "predict": ("assign_new_points",),
    "serialization": ("save_result", "load_result"),
    "trace": ("RunTrace", "IterationRecord"),
})
