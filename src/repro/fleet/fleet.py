"""Fleet description: which modeled devices a job may shard across.

A :class:`Fleet` is an ordered tuple of :class:`~repro.hardware.specs.GpuSpec`
(heterogeneous mixes welcome — the canonical example pairs the paper's
GTX 1660 Ti with its RTX 3090).  Points are apportioned in proportion
to each member's modeled throughput so a faster card gets more rows and
the per-iteration barrier waits stay small; a zero-capacity member
(modeled failed/drained card) gets weight zero and hence no points, no
device arrays, and no ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ParameterError
from ..hardware.specs import GTX_1660_TI, RTX_3090, GpuSpec
from .partition import ShardPlan, split_exact

__all__ = ["Fleet", "default_fleet", "mixed_fleet"]


def _throughput_weight(spec: GpuSpec) -> float:
    """Relative capability of one member for PROCLUS-shaped kernels.

    The heavy kernels are bandwidth-bound (compute_l.distances,
    x_sums), so effective memory bandwidth is the natural proportion;
    a usable-memory term guards degenerate specs.
    """
    if spec.usable_bytes <= 0:
        return 0.0
    return spec.effective_bandwidth


@dataclass(frozen=True)
class Fleet:
    """An ordered set of modeled devices one job can shard across."""

    specs: tuple[GpuSpec, ...]
    #: Optional explicit shard weights; derived from modeled
    #: throughput when omitted.  Zero means "member takes no points".
    weights: tuple[float, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        if not self.specs:
            raise ParameterError("a fleet needs at least one device")
        if not all(isinstance(spec, GpuSpec) for spec in self.specs):
            raise ParameterError("fleet members must be GpuSpec instances")
        if self.weights is not None:
            if len(self.weights) != len(self.specs):
                raise ParameterError(
                    f"{len(self.weights)} weights for {len(self.specs)} devices"
                )
            if any(w < 0 for w in self.weights):
                raise ParameterError("fleet weights must be >= 0")
            if sum(self.weights) <= 0:
                raise ParameterError("at least one fleet weight must be positive")

    @property
    def num_devices(self) -> int:
        return len(self.specs)

    @property
    def name(self) -> str:
        counts: dict[str, int] = {}
        for spec in self.specs:
            counts[spec.name] = counts.get(spec.name, 0) + 1
        members = ", ".join(
            name if count == 1 else f"{count}x {name}"
            for name, count in counts.items()
        )
        return f"fleet[{self.num_devices}]({members})"

    def effective_weights(self) -> tuple[float, ...]:
        """Shard weights actually used (explicit, or modeled throughput)."""
        if self.weights is not None:
            return tuple(
                w if self.specs[i].usable_bytes > 0 else 0.0
                for i, w in enumerate(self.weights)
            )
        weights = tuple(_throughput_weight(spec) for spec in self.specs)
        if sum(weights) <= 0:
            raise ParameterError("no fleet member has usable memory")
        return weights

    def shard_plan(self, n: int) -> ShardPlan:
        """Contiguous row partition of ``n`` points over the members."""
        return ShardPlan(n=n, counts=split_exact(n, self.effective_weights()))


def default_fleet(devices: int = 2, spec: GpuSpec = GTX_1660_TI) -> Fleet:
    """A homogeneous fleet of ``devices`` copies of ``spec``."""
    if not isinstance(devices, int) or isinstance(devices, bool):
        raise ParameterError(
            f"devices must be an int, got {type(devices).__name__}"
        )
    if devices < 1:
        raise ParameterError(f"devices must be >= 1, got {devices}")
    return Fleet(specs=(spec,) * devices)


def mixed_fleet(small: int = 1, large: int = 1) -> Fleet:
    """The paper's two evaluation cards side by side.

    ``small`` GTX 1660 Ti members plus ``large`` RTX 3090 members — the
    heterogeneous mix the scheduler tests exercise (a ~3.2x bandwidth
    spread, so balanced sharding matters).
    """
    if small < 0 or large < 0 or small + large < 1:
        raise ParameterError(
            f"need at least one device, got small={small} large={large}"
        )
    return Fleet(specs=(GTX_1660_TI,) * small + (RTX_3090,) * large)
