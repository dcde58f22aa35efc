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

from .core.api import BACKENDS, proclus, run_parameter_study
from .core.multiparam import MultiParamResult, ReuseLevel
from .core.predict import assign_new_points
from .core.serialization import (
    load_engine_state,
    load_result,
    save_engine_state,
    save_result,
)
from .core.state import IterativeState
from .core.trace import RunTrace
from .estimator import PROCLUS
from .params import ParameterGrid, ProclusParams
from .result import OUTLIER_LABEL, ProclusResult, RunStats
from .rng import RandomSource
from .exceptions import (
    AdmissionError,
    CheckpointError,
    DataValidationError,
    DeviceError,
    DeviceOutOfMemoryError,
    EmulationError,
    KernelLaunchError,
    KernelTimeoutError,
    ParameterError,
    ReproError,
    ResilienceExhaustedError,
    ServeError,
    TransferCorruptionError,
    TransientDeviceError,
)
from .obs.tracer import use_run
from .resilience import (
    FaultInjector,
    RetryPolicy,
    ResilientRunner,
    resilient_fit,
)
from .data.fingerprint import dataset_fingerprint

# Imported last: repro.serve builds on most of the layers above.
from .serve import ClusterService

__version__ = "1.0.0"

__all__ = [
    "proclus",
    "run_parameter_study",
    "BACKENDS",
    "ProclusParams",
    "ParameterGrid",
    "ProclusResult",
    "RunStats",
    "MultiParamResult",
    "ReuseLevel",
    "assign_new_points",
    "save_result",
    "load_result",
    "save_engine_state",
    "load_engine_state",
    "IterativeState",
    "RunTrace",
    "PROCLUS",
    "RandomSource",
    "OUTLIER_LABEL",
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
    "FaultInjector",
    "use_run",
    "RetryPolicy",
    "ResilientRunner",
    "resilient_fit",
    "ClusterService",
    "ServeError",
    "AdmissionError",
    "dataset_fingerprint",
    "__version__",
]
