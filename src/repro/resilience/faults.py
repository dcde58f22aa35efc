"""Deterministic, seedable fault injection for the GPU substrate.

A real GPU cannot fail on demand; the simulated device can.  The
:class:`FaultInjector` threads into every operation of the substrate —
allocations (:mod:`repro.gpu.memory`), kernel launches and host-to-device
transfers (:mod:`repro.gpu.device`), and emulated kernel launches
(:mod:`repro.gpu.emulator`) — and raises the *same typed errors the
substrate itself would raise*, so recovery code cannot distinguish an
injected fault from an organic one.

Fault classes (``FaultSpec.kind``):

==============  ====================================================
kind            raises / fires on
==============  ====================================================
``oom``         :class:`~repro.exceptions.DeviceOutOfMemoryError`
                on a device allocation
``launch``      :class:`~repro.exceptions.KernelLaunchError` on a
                kernel launch (non-sticky: the context survives)
``transient``   :class:`~repro.exceptions.TransientDeviceError` on a
                kernel launch; *sticky* by default — every subsequent
                operation fails until :meth:`FaultInjector.device_reset`
``corrupt``     :class:`~repro.exceptions.TransferCorruptionError` on
                a host-to-device transfer (ECC-style, detected)
``timeout``     :class:`~repro.exceptions.KernelTimeoutError` on a
                kernel launch (vectorized or emulated) — the watchdog
``device-down`` :class:`~repro.exceptions.DeviceLostError` on *any*
                operation; the matched device is dead permanently —
                every later alloc/launch/transfer naming it raises,
                and :meth:`FaultInjector.device_reset` does **not**
                bring it back (only :meth:`FaultInjector.revive`)
==============  ====================================================

Schedules are deterministic: a spec fires on the Nth operation whose
name matches its ``site`` pattern (``fnmatch`` syntax), or with a
seeded per-operation probability.  Two runs with the same schedule and
seed inject the identical fault sequence, which is what makes the
determinism-under-faults differential tests possible.

A run's injector is the ``injector`` field of its
:class:`~repro.obs.tracer.RunContext`, installed with
``use_run(injector=...)``: the substrate hooks read it from
:func:`~repro.obs.tracer.current_run` and are a single ``None`` check
when none is installed.  Each firing also goes to the run's flight
recorder, stamped with the run's correlation id.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterator

import numpy as np

from ..exceptions import (
    DeviceLostError,
    DeviceOutOfMemoryError,
    KernelLaunchError,
    KernelTimeoutError,
    ParameterError,
    TransferCorruptionError,
    TransientDeviceError,
)
from ..obs.tracer import current_run

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "InjectionRecord",
    "FaultInjector",
    "parse_fault",
]

#: Fault kind -> the substrate operation it targets.  ``"any"`` means
#: the spec is evaluated on every operation class (device loss strikes
#: whatever touches the device next).
FAULT_KINDS: dict[str, str] = {
    "oom": "alloc",
    "launch": "launch",
    "transient": "launch",
    "corrupt": "transfer",
    "timeout": "launch",
    "device-down": "any",
}

_DEVICE_TAG_RE = re.compile(r"^dev\d+$")

#: ``count`` value meaning "keep firing forever".
FOREVER = -1


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One scheduled fault.

    Parameters
    ----------
    kind:
        Fault class, one of :data:`FAULT_KINDS`.
    site:
        ``fnmatch`` pattern matched (case-sensitively) against the
        operation name: the allocation name for ``oom``, the kernel
        name for launch-class faults, ``h2d:<name>`` for transfers
        (the dataset upload is the only copy).  ``*`` (the default)
        matches every operation.  For ``device-down``, a bare device
        tag (``dev1``) is shorthand for ``*@dev1`` — the first operation
        touching that fleet shard kills it.
    at:
        Fire on the Nth *matching* operation (1-based).
    count:
        How many consecutive matching operations fire, starting at
        ``at``; :data:`FOREVER` (-1) keeps firing.
    probability:
        When set, ignore ``at``/``count`` and fire each matching
        operation with this probability (drawn from the injector's
        seeded generator — deterministic per schedule).
    sticky:
        Only meaningful for ``transient``: whether the device context
        is poisoned until :meth:`FaultInjector.device_reset`.
    """

    kind: str
    site: str = "*"
    at: int = 1
    count: int = 1
    probability: float | None = None
    sticky: bool = True

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ParameterError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(sorted(FAULT_KINDS))}"
            )
        if self.at < 1:
            raise ParameterError(f"fault 'at' must be >= 1, got {self.at}")
        if self.count < 1 and self.count != FOREVER:
            raise ParameterError(
                f"fault 'count' must be >= 1 or {FOREVER} (forever), "
                f"got {self.count}"
            )
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise ParameterError(
                f"fault probability must be in (0, 1], got {self.probability}"
            )

    @property
    def operation(self) -> str:
        """The substrate operation this spec targets (``"any"`` = all)."""
        return FAULT_KINDS[self.kind]

    @property
    def site_pattern(self) -> str:
        """The effective ``fnmatch`` pattern (expands device shorthand)."""
        if self.kind == "device-down" and _DEVICE_TAG_RE.match(self.site):
            return f"*@{self.site}"
        return self.site

    def describe(self) -> str:
        """Compact one-line rendering (the parseable schedule syntax)."""
        text = f"{self.kind}@{self.site}"
        if self.probability is not None:
            text += f"?{self.probability!r}"
        elif self.at != 1 or self.count != 1:
            text += f"#{self.at}"
            if self.count == FOREVER:
                text += "+*"
            elif self.count != 1:
                text += f"+{self.count}"
        if self.kind == "transient" and not self.sticky:
            text += "!nonsticky"
        return text


_FAULT_RE = re.compile(
    r"^(?P<kind>[a-z][a-z-]*)"
    r"(?:@(?P<site>[^#?!]+))?"
    r"(?:\#(?P<at>\d+)(?:\+(?P<count>\d+|\*))?)?"
    r"(?:\?(?P<prob>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?))?"
    r"(?P<nonsticky>!nonsticky)?$"
)


def parse_fault(text: str) -> FaultSpec:
    """Parse the CLI schedule syntax into a :class:`FaultSpec`.

    Syntax: ``kind[@site][#at[+count|+*]][?probability][!nonsticky]``.
    Examples: ``oom@Dist``, ``launch@assign_points#3``,
    ``transient@compute_l.*#2``, ``corrupt@h2d:*``, ``oom#2+*``
    (every allocation from the 2nd on), ``timeout?0.25``,
    ``device-down@dev1`` (kill fleet shard 1 on first touch).
    """
    match = _FAULT_RE.match(text.strip())
    if match is None:
        raise ParameterError(f"unparseable fault spec {text!r}")
    count_text = match.group("count")
    count = (
        1 if count_text is None
        else FOREVER if count_text == "*"
        else int(count_text)
    )
    prob_text = match.group("prob")
    try:
        probability = float(prob_text) if prob_text else None
    except ValueError as exc:  # pragma: no cover - regex forbids this
        raise ParameterError(
            f"unparseable fault probability in {text!r}"
        ) from exc
    return FaultSpec(
        kind=match.group("kind"),
        site=match.group("site") or "*",
        at=int(match.group("at") or 1),
        count=count,
        probability=probability,
        sticky=match.group("nonsticky") is None,
    )


@dataclass(slots=True)
class InjectionRecord:
    """One injected fault (for event logs and assertions)."""

    kind: str
    operation: str
    site: str
    sequence: int  #: 1-based index among matching operations of the spec
    spec: str  #: the firing spec, in schedule syntax


class FaultInjector:
    """Evaluates fault schedules against substrate operations.

    Construct with a list of :class:`FaultSpec` (or schedule strings)
    and install with ``use_run(injector=...)``; the substrate hooks call
    :meth:`on_alloc` / :meth:`on_launch` / :meth:`on_transfer` /
    :meth:`on_emulated_launch`, which raise the scheduled typed errors.
    All firings are appended to :attr:`injected`.
    """

    def __init__(
        self,
        schedule: Iterator[FaultSpec | str] | list[FaultSpec | str] = (),
        seed: int = 0,
    ) -> None:
        self.schedule: list[FaultSpec] = [
            spec if isinstance(spec, FaultSpec) else parse_fault(spec)
            for spec in schedule
        ]
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        #: Per-spec count of operations that matched so far.
        self._matches = [0] * len(self.schedule)
        self.injected: list[InjectionRecord] = []
        self._sticky_error: str | None = None
        #: Tags of permanently lost devices (``"dev1"``, or ``"device"``
        #: for an untagged solo card).  Survives :meth:`device_reset`.
        self._dead_devices: set[str] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def device_reset(self) -> None:
        """Clear a sticky error (models context teardown + rebuild).

        A lost device stays lost: resets rebuild the context, not the
        hardware.
        """
        self._sticky_error = None

    def revive(self, device: str | None = None) -> None:
        """Bring a lost device back (models physical replacement).

        ``device`` is one tag (``"dev1"``); ``None`` revives everything.
        """
        if device is None:
            self._dead_devices.clear()
        else:
            self._dead_devices.discard(device)

    @property
    def sticky_failed(self) -> bool:
        """Whether the device context is currently poisoned."""
        return self._sticky_error is not None

    @property
    def dead_devices(self) -> frozenset[str]:
        """Tags of the devices lost so far."""
        return frozenset(self._dead_devices)

    @property
    def seed(self) -> int:
        """The probability-draw seed (recorded into postmortem bundles)."""
        return self._seed

    # ------------------------------------------------------------------
    # Schedule evaluation
    # ------------------------------------------------------------------
    def _firing_spec(self, operation: str, name: str) -> tuple[FaultSpec, int] | None:
        """The first spec firing on this operation, if any.

        ``device-down`` specs are evaluated separately (by
        :meth:`_check_lost`, which runs on every operation class).
        """
        for index, spec in enumerate(self.schedule):
            if spec.kind == "device-down" or spec.operation != operation:
                continue
            if not fnmatchcase(name, spec.site_pattern):
                continue
            self._matches[index] += 1
            seen = self._matches[index]
            if spec.probability is not None:
                if self._rng.random() < spec.probability:
                    return spec, seen
            elif seen >= spec.at and (
                spec.count == FOREVER or seen < spec.at + spec.count
            ):
                return spec, seen
        return None

    def _record(self, spec: FaultSpec, operation: str, name: str, seen: int) -> None:
        record = InjectionRecord(
            kind=spec.kind,
            operation=operation,
            site=name,
            sequence=seen,
            spec=spec.describe(),
        )
        self.injected.append(record)
        run = current_run()
        if run.recorder is not None:
            run.recorder.record_fault(record, run.corr)

    def _check_sticky(self) -> None:
        if self._sticky_error is not None:
            raise TransientDeviceError(
                f"device context poisoned by earlier sticky error "
                f"({self._sticky_error}); reset required",
                sticky=True,
            )

    @staticmethod
    def _device_tag(name: str) -> str:
        """The device an operation name addresses.

        Fleet shard operations carry an ``@dev{i}`` suffix; anything
        else runs on the (single) ambient device, tagged ``"device"``.
        """
        if "@" in name:
            tag = name.rsplit("@", 1)[1]
            if _DEVICE_TAG_RE.match(tag):
                return tag
        return "device"

    def _check_lost(self, operation: str, name: str) -> None:
        """Raise when ``name`` addresses a dead device; else evaluate
        any ``device-down`` spec and, on a firing, kill the device."""
        if self._dead_devices:
            tag = self._device_tag(name)
            if tag in self._dead_devices or "device" in self._dead_devices:
                error = DeviceLostError(
                    f"{operation} {name!r} failed: device {tag} is lost",
                    device=tag,
                )
                error.injected = True
                raise error
        fired = self._firing_spec_down(operation, name)
        if fired is None:
            return
        spec, seen = fired
        tag = self._device_tag(name)
        if tag == "device" and _DEVICE_TAG_RE.match(spec.site):
            tag = spec.site  # targeted member, op not yet suffixed
        self._dead_devices.add(tag)
        self._record(spec, operation, name, seen)
        error = DeviceLostError(
            f"device {tag} fell off the bus during {operation} {name!r}",
            device=tag,
        )
        error.injected = True
        raise error

    def _firing_spec_down(
        self, operation: str, name: str
    ) -> tuple[FaultSpec, int] | None:
        """Like :meth:`_firing_spec`, restricted to ``device-down``."""
        for index, spec in enumerate(self.schedule):
            if spec.kind != "device-down":
                continue
            if not fnmatchcase(name, spec.site_pattern):
                continue
            self._matches[index] += 1
            seen = self._matches[index]
            if spec.probability is not None:
                if self._rng.random() < spec.probability:
                    return spec, seen
            elif seen >= spec.at and (
                spec.count == FOREVER or seen < spec.at + spec.count
            ):
                return spec, seen
        return None

    # ------------------------------------------------------------------
    # Substrate hooks
    # ------------------------------------------------------------------
    def on_alloc(self, name: str, nbytes: int, free: int, total: int) -> None:
        """Called by :meth:`repro.gpu.memory.MemoryManager.alloc`."""
        self._check_sticky()
        self._check_lost("alloc", name)
        fired = self._firing_spec("alloc", name)
        if fired is None:
            return
        spec, seen = fired
        self._record(spec, "alloc", name, seen)
        error = DeviceOutOfMemoryError(nbytes, min(free, max(0, nbytes - 1)), total)
        error.injected = True
        raise error

    def on_launch(self, name: str, phase: str) -> None:
        """Called by :meth:`repro.gpu.device.Device.launch`."""
        self._check_sticky()
        self._check_lost("launch", name)
        fired = self._firing_spec("launch", name)
        if fired is None:
            return
        spec, seen = fired
        self._record(spec, "launch", name, seen)
        if spec.kind == "transient":
            if spec.sticky:
                self._sticky_error = f"{name} ({phase})"
            error: Exception = TransientDeviceError(
                f"transient failure launching {name!r} in phase {phase!r}",
                sticky=spec.sticky,
            )
        elif spec.kind == "timeout":
            error = KernelTimeoutError(
                f"kernel {name!r} exceeded the watchdog time limit"
            )
        else:
            error = KernelLaunchError(f"injected launch failure for {name!r}")
        error.injected = True
        raise error

    def on_transfer(self, direction: str, name: str, nbytes: int) -> None:
        """Called by :meth:`repro.gpu.device.Device.to_device`."""
        self._check_sticky()
        site = f"{direction}:{name}"
        self._check_lost("transfer", site)
        fired = self._firing_spec("transfer", site)
        if fired is None:
            return
        spec, seen = fired
        self._record(spec, "transfer", site, seen)
        error = TransferCorruptionError(
            f"ECC error detected on {direction} transfer of {name!r} "
            f"({nbytes} B)"
        )
        error.injected = True
        raise error

    def on_emulated_launch(self, name: str) -> None:
        """Called by :meth:`repro.gpu.emulator.SimtEmulator.launch`."""
        # Emulated launches share the launch-class schedule.
        self.on_launch(name, "emulated")
