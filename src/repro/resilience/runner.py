"""Resilient execution of one PROCLUS fit.

:class:`ResilientRunner` wraps engine construction +
:meth:`~repro.core.base.EngineBase.fit` with the recovery loop the
:class:`~repro.resilience.policy.RetryPolicy` describes:

1. classify the error (:func:`~repro.resilience.policy.classify_error`);
2. **FATAL** — re-raise unchanged;
3. **TRANSIENT** — reset the device context (clearing sticky errors),
   restore the RNG state and the shared study state to their
   pre-attempt snapshots, wait the deterministic backoff, and retry the
   *same* ladder rung (at most ``max_retries`` times);
4. **DEVICE_LOSS** on a fleet rung — re-shard elastically: zero the
   dead members' weights (:func:`~repro.fleet.recovery.plan_recovery`,
   which re-runs the exact largest-remainder partition over the
   survivors), resume from the engine's ``IterativeState`` checkpoint
   when the run writes one, and retry the *same* rung on the shrunken
   fleet — recorded as a ``reshard`` event/span with
   ``fleet.recovery.*`` counters (reshards, devices lost, MTTR);
5. **CAPACITY** (or exhausted retries / unrecoverable loss) — step
   down the degradation ladder and start over on the next rung.

Because engines are single-use and every attempt restores the RNG and
shared-cache state bit-for-bit, a retried or degraded run produces the
clustering the fault-free run would have produced — the determinism
guarantee the differential tests assert.

The runner reads its tracer, flight recorder, fault injector and
correlation id from the :class:`~repro.obs.tracer.RunContext` it is
called in, and runs each attempt in that context with the correlation
id extended to ``<parent>:r<rung>a<attempt>``.

One method, :meth:`ResilientRunner._record`, records every recovery
action: it appends the :class:`ResilienceEvent` to the run's log,
forwards it to the recorder's rings, emits a ``resilience``-category
span, and bumps the ``resilience.*`` (or ``fleet.recovery.*``)
counters, so ``repro trace`` shows exactly where a run retried or
degraded.

With a :class:`~repro.obs.recorder.FlightRecorder` in the context, the
runner also captures the replayable job context (data, params, seed
state, policy, fault schedule) at entry and — on
:class:`~repro.exceptions.ResilienceExhaustedError` — auto-dumps a
postmortem bundle before raising.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..core.state import SharedStudyState
from ..exceptions import ReproError, ResilienceExhaustedError
from ..obs.tracer import RunContext, current_run, use_run
from ..result import ProclusResult
from ..rng import RandomSource
from .policy import ErrorClass, LadderStep, RetryPolicy, classify_error

__all__ = ["ResilienceEvent", "ResilientOutcome", "ResilientRunner", "resilient_fit"]

#: Engine kwargs that only GPU backends accept; dropped when a ladder
#: rung degrades to a CPU backend.
_GPU_ONLY_KWARGS = ("gpu_spec", "dist_chunks")

#: Engine kwargs that only the sharded ``fleet-*`` backends accept;
#: dropped when a ladder rung degrades to a solo backend.
_FLEET_ONLY_KWARGS = ("fleet",)

#: Per recovery action: the event fields its span carries, and the
#: counter it bumps before its ``resilience.faults.*`` counter.
_SPAN_FIELDS = {
    "retry": ("rung", "attempt", "error_type", "backoff_s"),
    "degrade": ("rung", "to_rung", "error_type", "error_class"),
    "reshard": ("rung", "to_rung", "error_type"),
}
_COUNTERS = {
    "retry": "resilience.retries",
    "degrade": "resilience.degradations",
    "reshard": "fleet.recovery.reshards",
}


@dataclass(slots=True)
class ResilienceEvent:
    """One recovery action taken by the runner."""

    kind: str  #: "retry" | "degrade" | "reshard" | "checkpoint" | "resume"
    rung: str  #: ladder rung description (e.g. "gpu-fast(dist_chunks=2)")
    attempt: int  #: attempt number on that rung (1-based)
    error_type: str = ""  #: class name of the triggering error
    error_class: str = ""  #: transient / capacity / device-loss / fatal
    detail: str = ""  #: the error message (or checkpoint path)
    backoff_s: float = 0.0  #: deterministic backoff recorded before retry
    to_rung: str = ""  #: target rung of a "degrade"/"reshard" event
    recovery_s: float = 0.0  #: wall seconds from a "reshard" to success

    def as_dict(self) -> dict[str, Any]:
        """Plain-data form for JSON event logs."""
        return asdict(self)


@dataclass(slots=True)
class ResilientOutcome:
    """Result of a resilient fit plus its recovery history."""

    result: ProclusResult
    backend: str  #: backend that actually produced the result
    rung: str  #: full rung description, incl. degradation kwargs
    attempts: int  #: total fit attempts across all rungs
    events: list[ResilienceEvent] = field(default_factory=list)
    best_positions: np.ndarray | None = None  #: for study warm starts

    @property
    def degraded(self) -> bool:
        """Whether the result came from a lower rung than requested."""
        return any(event.kind == "degrade" for event in self.events)


def _snapshot_shared(shared: SharedStudyState | None) -> dict[str, Any] | None:
    """Copy the mutable parts of a shared study state."""
    if shared is None:
        return None
    cache = shared.cache
    return {
        "dist": cache.dist.copy(),
        "dist_found": cache.dist_found.copy(),
        "h": cache.h.copy(),
        "prev_delta": cache.prev_delta.copy(),
        "size_l": cache.size_l.copy(),
        "data_uploaded": shared.data_uploaded,
    }


def _restore_shared(shared: SharedStudyState | None, snap: dict[str, Any] | None) -> None:
    """Restore a snapshot in place (other references stay valid)."""
    if shared is None or snap is None:
        return
    cache = shared.cache
    cache.dist[...] = snap["dist"]
    cache.dist_found[...] = snap["dist_found"]
    cache.h[...] = snap["h"]
    cache.prev_delta[...] = snap["prev_delta"]
    cache.size_l[...] = snap["size_l"]
    shared.data_uploaded = snap["data_uploaded"]


class ResilientRunner:
    """Runs engine fits under a :class:`RetryPolicy` (see module doc)."""

    def __init__(self, policy: RetryPolicy | None = None) -> None:
        self.policy = policy if policy is not None else RetryPolicy()

    def engines_for(self, backend: str) -> list[type]:
        """The engine class of each ladder rung a fit of ``backend`` may
        run on."""
        from ..core.api import BACKENDS  # deferred: api imports engines

        return [BACKENDS[step.backend] for step in self.policy.ladder_for(backend)]

    # ------------------------------------------------------------------
    def fit(
        self,
        data: np.ndarray,
        backend: str = "gpu-fast",
        params=None,
        seed: int | RandomSource | None = 0,
        shared_state: SharedStudyState | None = None,
        initial_medoids: np.ndarray | None = None,
        charge_greedy: bool = True,
        engine_kwargs: dict[str, Any] | None = None,
    ) -> ResilientOutcome:
        """Fit ``backend`` on ``data``, recovering per the policy."""
        # Deferred: api imports engines.
        from ..core.api import BACKENDS, resolve_backend

        resolve_backend(backend)
        policy = self.policy
        ladder = policy.ladder_for(backend)
        engine_kwargs = dict(engine_kwargs or {})
        run = current_run()
        obs, recorder, injector = run.tracer, run.recorder, run.injector

        rng_snapshot = seed.get_state() if isinstance(seed, RandomSource) else None
        shared_snapshot = _snapshot_shared(shared_state)

        base_corr = run.corr or "fit"
        if recorder is not None:
            recorder.set_job(
                data=data, backend=backend, params=params, seed=seed,
                policy=policy, engine_kwargs=engine_kwargs,
            )
            if injector is not None and injector.schedule:
                recorder.set_fault_schedule(
                    [spec.describe() for spec in injector.schedule],
                    injector.seed,
                )

        events: list[ResilienceEvent] = []
        attempts = 0
        rung_index = 0
        last_error: ReproError | None = None
        #: Reshard events awaiting their recovery-time stamp, member
        #: indices already counted as lost, reshards taken so far.
        pending_reshards: list[tuple[ResilienceEvent, float]] = []
        known_dead: set[int] = set()
        reshards = 0
        #: Rung label after an elastic re-shard, e.g.
        #: "fleet-gpu-fast[2/3 devices]" — reported on the outcome so
        #: callers see which shard plan actually produced the result.
        reshard_label: str | None = None
        while rung_index < len(ladder):
            step = ladder[rung_index]
            rung_attempt = 0
            while True:
                rung_attempt += 1
                attempts += 1
                engine = None
                self._reset_for_attempt(injector, seed, rng_snapshot,
                                        shared_state, shared_snapshot,
                                        attempts)
                attempt_span = obs.span(
                    "attempt", category="resilience",
                    rung=step.describe(), backend=step.backend,
                    attempt=rung_attempt,
                )
                attempt_corr = f"{base_corr}:r{rung_index}a{rung_attempt}"
                try:
                    with use_run(corr=attempt_corr), attempt_span:
                        engine = BACKENDS[step.backend](
                            params=params,
                            seed=seed,
                            shared_state=shared_state,
                            initial_medoids=initial_medoids,
                            charge_greedy=charge_greedy,
                            **self._merge_kwargs(step, engine_kwargs),
                        )
                        result = engine.fit(data)
                        attempt_span.set(outcome="ok")
                    self._finalize_reshards(obs, pending_reshards)
                    return ResilientOutcome(
                        result=result,
                        backend=step.backend,
                        rung=reshard_label or step.describe(),
                        attempts=attempts,
                        events=events,
                        best_positions=getattr(engine, "best_positions_", None),
                    )
                except ReproError as error:
                    error_class = classify_error(error)
                    attempt_span.set(
                        outcome="error",
                        error_type=type(error).__name__,
                        error_class=error_class.value,
                    )
                    if error_class is ErrorClass.FATAL:
                        raise
                    last_error = error
                    if error_class is ErrorClass.DEVICE_LOSS:
                        plan = self._reshard_plan(
                            step, engine, error, injector
                        )
                        reshard_cap = (
                            policy.max_reshards
                            if policy.max_reshards is not None
                            else plan.fleet.num_devices
                            if plan is not None
                            else 0
                        )
                        if plan is not None and reshards < reshard_cap:
                            reshards += 1
                            newly = [
                                index for index in plan.dead
                                if index not in known_dead
                            ]
                            known_dead.update(plan.dead)
                            engine_kwargs["fleet"] = plan.survivors
                            resume = self._resume_path(step, engine_kwargs)
                            if resume is not None:
                                engine_kwargs["resume_from"] = resume
                            detail = plan.describe()
                            if resume is not None:
                                detail += f"; resuming from {resume}"
                            reshard_label = (
                                f"{step.backend}[{plan.active}/"
                                f"{plan.fleet.num_devices} devices]"
                            )
                            event = self._record(
                                run, events, "reshard", step, rung_attempt,
                                error, devices_lost=len(newly),
                                detail=detail, to_rung=reshard_label,
                            )
                            pending_reshards.append(
                                (event, time.perf_counter())
                            )
                            continue
                        break  # nothing left to re-shard onto: degrade
                    if (
                        error_class is ErrorClass.TRANSIENT
                        and rung_attempt <= policy.max_retries
                    ):
                        self._record(
                            run, events, "retry", step, rung_attempt, error,
                            backoff_s=policy.backoff_seconds(rung_attempt),
                        )
                        continue
                    break  # capacity, or transient retries exhausted
            # Step down the ladder.
            if rung_index + 1 < len(ladder) and policy.allow_degraded:
                self._record(
                    run, events, "degrade", step, rung_attempt, last_error,
                    to_rung=ladder[rung_index + 1].describe(),
                )
                rung_index += 1
                reshard_label = None
                continue
            exhausted = ResilienceExhaustedError(
                f"all recovery options exhausted after {attempts} attempts "
                f"over {rung_index + 1} ladder rungs "
                f"(last error: {type(last_error).__name__}: {last_error})",
                last_error=last_error,
                events=events,
            )
            if recorder is not None:
                recorder.record_failure("resilience-exhausted", exhausted)
                recorder.auto_dump("resilience-exhausted", exhausted)
            raise exhausted
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _merge_kwargs(step: LadderStep, engine_kwargs: dict[str, Any]) -> dict[str, Any]:
        merged = dict(engine_kwargs)
        if not step.backend.startswith(("gpu", "fleet-")):
            for key in _GPU_ONLY_KWARGS:
                merged.pop(key, None)
        if not step.backend.startswith("fleet-"):
            for key in _FLEET_ONLY_KWARGS:
                merged.pop(key, None)
        merged.update(step.engine_kwargs)
        return merged

    @staticmethod
    def _reset_for_attempt(
        injector, seed, rng_snapshot, shared_state, shared_snapshot,
        attempts: int,
    ) -> None:
        """Restore pre-attempt state (no-op on the very first attempt)."""
        if injector is not None:
            injector.device_reset()
        if attempts == 1:
            return
        if rng_snapshot is not None:
            seed.set_state(rng_snapshot)
        _restore_shared(shared_state, shared_snapshot)

    @staticmethod
    def _reshard_plan(step: LadderStep, engine, error, injector):
        """The elastic re-shard plan for a fleet rung's device loss.

        ``None`` when the rung is not a fleet rung, the dead members
        cannot be identified, or no member with capacity survives.
        """
        if not step.backend.startswith("fleet-"):
            return None
        fleet = getattr(engine, "fleet", None)
        if fleet is None:
            return None
        from ..fleet.recovery import dead_device_indices, plan_recovery

        tags = set()
        if injector is not None:
            tags |= set(injector.dead_devices)
        device = getattr(error, "device", "")
        if device:
            tags.add(device)
        dead = dead_device_indices(tags)
        if not dead:
            return None
        return plan_recovery(fleet, dead)

    @staticmethod
    def _resume_path(step: LadderStep, engine_kwargs: dict) -> "str | None":
        """The IterativeState checkpoint to resume from, if one exists.

        Runs configured with ``checkpoint_path`` persist their loop
        state every ``checkpoint_every`` iterations (PR 3 machinery);
        a re-sharded attempt resumes the current iteration from that
        snapshot instead of replaying from scratch.  Runs without
        checkpointing replay fully — which also reproduces the solo
        work counters bit for bit.
        """
        merged = {**engine_kwargs, **step.engine_kwargs}
        path = merged.get("checkpoint_path")
        if path and Path(path).exists():
            return str(path)
        return None

    @staticmethod
    def _finalize_reshards(obs, pending: list) -> None:
        """Stamp recovery wall time (MTTR) on completed reshards.

        ``recovery_s`` is wall-clock and therefore *excluded* from the
        event-log determinism contract (everything else in the log is
        bit-reproducible for a fixed seed + schedule).
        """
        for event, started in pending:
            recovery = time.perf_counter() - started
            event.recovery_s = recovery
            if obs.enabled:
                obs.metrics.counter("fleet.recovery.mttr_seconds").inc(
                    recovery
                )
                obs.metrics.histogram("fleet.recovery.mttr").observe(recovery)
        pending.clear()

    def _record(
        self, run: RunContext, events: list[ResilienceEvent], kind: str,
        step: LadderStep, attempt: int, error: ReproError,
        devices_lost: int | None = None, **fields: Any,
    ) -> ResilienceEvent:
        """Record one recovery action in every place that reports it.

        Builds its :class:`ResilienceEvent` (``fields`` set the
        kind-specific ones), appends it to the run's log, forwards it to
        the recorder with the run's correlation id, opens its
        ``resilience`` span (a retry waits out its backoff inside it),
        and bumps its counters, the fault-class counter last.
        ``devices_lost`` (reshards) joins the span and the counters.
        """
        fields.setdefault("detail", str(error))
        event = ResilienceEvent(
            kind=kind, rung=step.describe(), attempt=attempt,
            error_type=type(error).__name__,
            error_class=classify_error(error).value, **fields,
        )
        events.append(event)
        if run.recorder is not None:
            run.recorder.record_resilience(event.as_dict(), run.corr)
        attrs = {name: getattr(event, name) for name in _SPAN_FIELDS[kind]}
        if devices_lost is not None:
            attrs["devices_lost"] = devices_lost
        obs = run.tracer
        with obs.span(kind, category="resilience", **attrs):
            if event.backoff_s > 0.0:
                time.sleep(event.backoff_s)
        if obs.enabled:
            obs.metrics.counter(_COUNTERS[kind]).inc()
            if devices_lost is not None:
                obs.metrics.counter("fleet.recovery.devices_lost").inc(
                    devices_lost
                )
            obs.metrics.counter(f"resilience.faults.{event.error_class}").inc()
        return event


def resilient_fit(
    data: np.ndarray,
    backend: str = "gpu-fast",
    policy: RetryPolicy | None = None,
    **kwargs: Any,
) -> ResilientOutcome:
    """Convenience wrapper: one resilient fit with a fresh runner."""
    return ResilientRunner(policy).fit(data, backend=backend, **kwargs)
