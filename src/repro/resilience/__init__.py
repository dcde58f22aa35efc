"""Fault injection + resilient execution for the simulated GPU substrate.

The production north star needs runs that survive device mishaps; the
simulated substrate lets us *test* that deterministically.  This
package provides the three layers (see ``docs/robustness.md``):

* :mod:`repro.resilience.faults` — a deterministic, seedable fault
  injector threaded into allocations, kernel launches, transfers, and
  emulated kernels;
* :mod:`repro.resilience.policy` / :mod:`repro.resilience.runner` —
  typed-error classification, bounded retry with RNG-state
  restoration, and the degradation ladder
  (GPU-FAST → chunked cache → GPU-PROCLUS → CPU FAST-PROCLUS);
* :mod:`repro.resilience.checkpoint` — checkpoint/resume for
  multi-parameter studies (driven by
  :func:`repro.core.multiparam.run_study`).

Quickstart::

    from repro.obs import use_run
    from repro.resilience import FaultInjector, ResilientRunner, RetryPolicy

    injector = FaultInjector(["transient@compute_l.*#2"], seed=0)
    with use_run(injector=injector):
        outcome = ResilientRunner(RetryPolicy()).fit(
            data, backend="gpu-fast", seed=0
        )
    outcome.result      # identical to the fault-free clustering
    outcome.events      # the retries/degradations that got it there

The injector is one field of the run's
:class:`~repro.obs.tracer.RunContext`, beside its tracer, flight
recorder and correlation id.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "faults": (
        "FAULT_KINDS",
        "FaultSpec",
        "FaultInjector",
        "InjectionRecord",
        "parse_fault",
    ),
    "policy": (
        "ErrorClass",
        "classify_error",
        "LadderStep",
        "RetryPolicy",
        "DEFAULT_LADDERS",
        "default_ladder",
    ),
    "runner": (
        "ResilienceEvent",
        "ResilientOutcome",
        "ResilientRunner",
        "resilient_fit",
    ),
    "checkpoint": ("StudyCheckpoint", "data_fingerprint"),
})
