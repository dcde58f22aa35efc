"""GPU-FAST-PROCLUS: fast (simulated-)GPU-parallelized projected clustering.

A full reproduction of "GPU-FAST-PROCLUS: A Fast GPU-parallelized
Approach to Projected Clustering" (EDBT 2022): the PROCLUS baseline,
the FAST / FAST* algorithmic strategies, GPU parallelizations of all
three on a simulated CUDA device with a calibrated performance model,
multi-core CPU variants, and the multi-parameter reuse strategies.

Entry points:

* :func:`repro.proclus` — run one clustering with any backend;
* :func:`repro.run_parameter_study` — run a (k, l) grid with the
  multi-parameter reuse strategies;
* :mod:`repro.data` — synthetic generator and real-world stand-ins;
* :mod:`repro.bench` — the harness regenerating the paper's figures.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core.api": ("proclus", "run_parameter_study", "BACKENDS"),
    "params": ("ProclusParams", "ParameterGrid"),
    "result": ("ProclusResult", "RunStats", "OUTLIER_LABEL"),
    "core.multiparam": ("MultiParamResult", "ReuseLevel"),
    "core.predict": ("assign_new_points",),
    "core.serialization": (
        "save_result", "load_result", "save_engine_state", "load_engine_state",
    ),
    "core.state": ("IterativeState",),
    "core.trace": ("RunTrace",),
    "estimator": ("PROCLUS",),
    "rng": ("RandomSource",),
    "exceptions": (
        "ReproError",
        "ParameterError",
        "DataValidationError",
        "DeviceError",
        "DeviceOutOfMemoryError",
        "KernelLaunchError",
        "EmulationError",
        "TransientDeviceError",
        "TransferCorruptionError",
        "KernelTimeoutError",
        "CheckpointError",
        "ResilienceExhaustedError",
        "ServeError",
        "AdmissionError",
    ),
    "resilience.faults": ("FaultInjector",),
    "obs.tracer": ("use_run",),
    "resilience.policy": ("RetryPolicy",),
    "resilience.runner": ("ResilientRunner", "resilient_fit"),
    "serve.service": ("ClusterService",),
    "data.fingerprint": ("dataset_fingerprint",),
})
__all__.append("__version__")
