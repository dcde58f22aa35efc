"""Elastic fleet recovery: lose a card mid-run, keep the answer.

The fleet backends (:mod:`repro.fleet.engine`) shard one job across D
modeled devices; this module is what happens when one of them dies.
Two pieces:

* :func:`degraded_fleet` / :func:`plan_recovery` — rebuild the shard
  plan over the surviving members.  The degraded fleet keeps the dead
  member *in place* with weight zero (so device numbering — and hence
  every ``@dev{i}`` fault site and trace track — stays stable) and
  re-apportions its rows over the survivors with the same
  largest-remainder :func:`~repro.fleet.partition.split_exact` the
  original plan used.  By the exact-partial-sum + fixed
  ``tree_merge`` determinism contract, the re-sharded run returns the
  bit-identical clustering;
* the recovery path itself lives in
  :class:`~repro.resilience.runner.ResilientRunner`: on
  :class:`~repro.exceptions.DeviceLostError` it snapshots what the
  engine persisted (the PR 3 ``IterativeState`` checkpoint, when the
  run checkpoints), swaps the engine's fleet for the survivors, and
  retries the rung — emitting a ``reshard`` resilience span and
  ``fleet.recovery.*`` counters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .fleet import Fleet
from .partition import ShardPlan

__all__ = [
    "dead_device_indices",
    "active_devices",
    "degraded_fleet",
    "RecoveryPlan",
    "plan_recovery",
]

_TAG_RE = re.compile(r"^dev(\d+)$")


def dead_device_indices(tags: Iterable[str]) -> tuple[int, ...]:
    """Member indices named by injector device tags (``"dev1"`` -> 1).

    Unrecognized tags (the solo ``"device"`` tag) are ignored — they
    name no fleet member.
    """
    indices = set()
    for tag in tags:
        match = _TAG_RE.match(tag)
        if match:
            indices.add(int(match.group(1)))
    return tuple(sorted(indices))


def active_devices(fleet: Fleet) -> int:
    """Members actually holding points (positive effective weight)."""
    return sum(1 for weight in fleet.effective_weights() if weight > 0)


def degraded_fleet(fleet: Fleet, dead: Iterable[int]) -> Fleet | None:
    """``fleet`` with the ``dead`` members' weights zeroed in place.

    Keeping dead members in the spec tuple (at weight zero) preserves
    device numbering: the survivors keep their ``@dev{i}`` identities,
    so a schedule that killed ``dev1`` cannot accidentally re-kill a
    renumbered survivor, and per-device ledgers stay comparable across
    the loss.  Returns ``None`` when no member with capacity survives
    (nothing to re-shard onto).
    """
    weights = list(fleet.effective_weights())
    for index in dead:
        if 0 <= int(index) < len(weights):
            weights[int(index)] = 0.0
    if sum(weights) <= 0:
        return None
    return Fleet(specs=fleet.specs, weights=tuple(weights))


@dataclass(frozen=True, slots=True)
class RecoveryPlan:
    """One re-shard decision: who died, who survives, how rows move."""

    fleet: Fleet  #: the fleet as it was before the loss
    dead: tuple[int, ...]  #: member indices lost
    survivors: Fleet  #: same members, dead weights zeroed

    @property
    def active(self) -> int:
        """Surviving members that will hold points."""
        return active_devices(self.survivors)

    def shard_plan(self, n: int) -> ShardPlan:
        """The re-computed exact row partition over the survivors."""
        return self.survivors.shard_plan(n)

    def describe(self) -> str:
        lost = ", ".join(f"dev{i}" for i in self.dead) or "none"
        return (
            f"lost {lost}; re-sharding over "
            f"{self.active} of {self.fleet.num_devices} devices"
        )


def plan_recovery(fleet: Fleet, dead: Iterable[int]) -> RecoveryPlan | None:
    """Build the re-shard plan after losing ``dead`` members.

    Returns ``None`` when recovery within the fleet is impossible
    (every member with capacity is gone) — the caller must degrade to
    a solo rung instead.
    """
    dead_tuple = tuple(sorted({int(i) for i in dead}))
    survivors = degraded_fleet(fleet, dead_tuple)
    if survivors is None:
        return None
    return RecoveryPlan(fleet=fleet, dead=dead_tuple, survivors=survivors)
