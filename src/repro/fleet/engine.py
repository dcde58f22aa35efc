"""Fleet engines: the GPU variants sharded across D modeled devices.

:class:`FleetEngineMixin` swaps the single :class:`~repro.gpu.device.Device`
for a :class:`~repro.fleet.device.FleetDevice` and reroutes the per-point
math hooks of :class:`~repro.core.base.EngineBase` through the shard
partition:

* distance rows and point assignment are per-row operations, and a
  per-point value does not depend on which rows share a primitive call
  (:mod:`repro.core.distance`), so the fleet makes the solo call over
  all rows: computing each shard's rows on their own would return the
  same bits.  The fleet models the per-shard kernels (time, per-device
  work) through its launch dispatch;
* the per-dimension sums (``H`` / ``X``) are one partial per shard,
  over that shard's selected rows (found with one ``flatnonzero`` and
  cut at the shard bounds with one ``searchsorted``), from one
  :func:`~repro.core.distance.abs_diff_dim_sums` call that gathers the
  selected rows once, merged with
  :func:`~repro.fleet.partition.tree_merge`; under the
  exact-accumulation invariant of :mod:`repro.core.distance` the merged
  float64 sums match the solo single-pass sums bit for bit;
* cluster evaluation keeps the canonical single-pass implementation:
  its centroid-relative terms are not exactly representable, so NumPy's
  pairwise summation makes a genuinely sharded reduction order-sensitive
  in the last bits.  The fleet models the sharded *kernel* (time,
  per-device work) but computes the *value* canonically — see
  ``docs/fleet.md`` for the full determinism contract.

Every derived backend therefore returns the identical clustering —
labels, dimensions, cost, and counters — as its solo counterpart for
the same seed, for any device count and any shard weighting.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import abs_diff_dim_sums
from ..exceptions import ParameterError
from ..gpu_impl.accounting import F32, GpuEngineMixin
from ..gpu_impl.gpu_fast import GpuFastProclusEngine
from ..gpu_impl.gpu_fast_star import GpuFastStarProclusEngine
from ..gpu_impl.gpu_proclus import GpuProclusEngine
from ..hardware.cost_model import HardwareModel
from ..hardware.specs import gpu_for_problem
from .device import FleetDevice
from .fleet import Fleet, default_fleet
from .model import FleetModel
from .partition import tree_merge

__all__ = [
    "FleetEngineMixin",
    "FleetGpuProclusEngine",
    "FleetGpuFastProclusEngine",
    "FleetGpuFastStarProclusEngine",
]

F64 = 8


class FleetEngineMixin(GpuEngineMixin):
    """Shard the job of one engine across a :class:`Fleet` of devices."""

    def __init__(
        self,
        *args,
        fleet: Fleet | int | None = None,
        **kwargs,
    ) -> None:
        """``fleet``: the devices to shard across — a :class:`Fleet`,
        an int (that many default cards), or ``None`` for two.
        """
        if fleet is None:
            fleet = default_fleet(2)
        elif isinstance(fleet, int) and not isinstance(fleet, bool):
            fleet = default_fleet(fleet)
        elif not isinstance(fleet, Fleet):
            raise ParameterError(
                f"fleet must be a Fleet or int, got {type(fleet).__name__}"
            )
        self.fleet = fleet
        self._plan = None
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------------
    # Model / device lifecycle
    # ------------------------------------------------------------------
    def _make_model(self, n: int, d: int) -> HardwareModel:
        spec = self._gpu_spec if self._gpu_spec is not None else gpu_for_problem(n)
        return FleetModel(self.fleet, spec)

    def _make_device(self, data: np.ndarray) -> FleetDevice:
        assert isinstance(self.model, FleetModel)
        n, d = data.shape
        self._plan = self.fleet.shard_plan(n)
        #: Where one non-empty shard's rows end and the next one's
        #: begin, with 0 and n: the s-th non-empty shard holds rows
        #: bounds[s]:bounds[s+1].
        self._bounds = np.array(sorted({0, n, *self._plan.offsets}))
        device = FleetDevice(
            self.fleet, model=self.model, tracer=self._obs, plan=self._plan
        )
        k = self.params.k
        l = self.params.l
        # Collective payloads per sharded kernel: what partial state it
        # leaves distributed (all-reduced before the next root step) and
        # what root-held parameters it needs broadcast first.
        device.configure_collectives(
            reduce_bytes={
                # Distance-row segments needed for the k x k delta kernel.
                "compute_l.distances": k * k * F32,
                # Per-medoid sphere sizes |L_i|.
                "compute_l.build_l": k * F32,
                # H partial sums (k x d float64) + membership counts.
                "find_dimensions.x_sums": k * d * F64 + k * F32,
                # Cluster sizes |C_i|.
                "assign_points": k * F32,
                # Centroid partials + per-cluster cost partials.
                "evaluate_cluster": k * d * F64 + k * F32 + k * F64,
                "refinement.x_sums": k * d * F64 + k * F32,
            },
            bcast_bytes={
                # Medoid points + selected dimension masks.
                "assign_points": k * d * F32 + k * l * F32,
                "compute_l.distances": k * d * F32,
            },
            # Any other root -> shard transition ships the medoid points.
            default_bcast=k * d * F32,
        )
        return device

    # ------------------------------------------------------------------
    # Sharded math (bit-identical by construction; see module docstring)
    # ------------------------------------------------------------------
    # The per-row hooks are the solo ones.  They stay named here so
    # that the benchmark's layer map (perfbench/layers.py) can time the
    # fleet's hooks on their own.
    def _distance_row(self, point: np.ndarray) -> np.ndarray:
        return super()._distance_row(point)

    def _dim_sums(self, mask: np.ndarray, point: np.ndarray) -> np.ndarray:
        # The selected rows, cut at the shard bounds: one partial per
        # shard, each the bits of that shard's own slice.
        rows = np.flatnonzero(mask)
        cuts = np.searchsorted(rows, self._bounds).tolist()
        return tree_merge(abs_diff_dim_sums(self._columns, point, rows, cuts))

    def _assign_points(
        self, medoid_points: np.ndarray, dims
    ) -> tuple[np.ndarray, np.ndarray]:
        return super()._assign_points(medoid_points, dims)

    # _evaluate_clusters intentionally NOT overridden: the cost value is
    # computed canonically (order-sensitive pairwise sums); only its
    # kernel time/work is sharded by the FleetDevice launch dispatch.


class FleetGpuProclusEngine(FleetEngineMixin, GpuProclusEngine):
    """GPU-PROCLUS sharded across a fleet of modeled devices."""

    backend_name = "fleet-gpu-proclus"


class FleetGpuFastProclusEngine(FleetEngineMixin, GpuFastProclusEngine):
    """GPU-FAST-PROCLUS sharded across a fleet of modeled devices."""

    backend_name = "fleet-gpu-fast-proclus"


class FleetGpuFastStarProclusEngine(FleetEngineMixin, GpuFastStarProclusEngine):
    """GPU-FAST*-PROCLUS sharded across a fleet of modeled devices."""

    backend_name = "fleet-gpu-fast-star-proclus"
