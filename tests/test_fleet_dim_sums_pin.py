"""Pin the fleet's sharded per-dimension sums to their per-slice body.

``ref_dim_sums`` below is the per-slice body of
``FleetEngineMixin._dim_sums``: each non-empty shard's partial is
``abs_diff_dim_sums`` over that shard's row range of the fit's column
copy, with slice-local row indices, and the partials are merged in
device order with ``tree_merge``.  The library must return the same
bits (bytes, dtype and shape):

* for every ``_dim_sums`` call a real fleet fit makes, on the FAST
  engine (incremental ``H``) and the PROCLUS engine (full sums);
* for probe masks checked at the fit's first call: one per shard that
  selects no row of that shard, an empty mask, a full mask, a single
  row, and a dense random mask;
* on ``default_fleet(2..4)``, ``mixed_fleet()`` (unequal shards) and a
  three-card fleet whose middle member has zero weight (an empty
  shard);
* on min-max normalized data, where every sum is exact, and on data
  whose rows mix two scales (every third row shrunk by 1e-9).  There a
  medoid near zero gives terms with bits far finer than the large
  partial sums they join, so the sums round, and a changed partial,
  split or merge order would show.  The probes run with the fit's
  point and with a shrunken row as the medoid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import BACKENDS
from repro.core.distance import abs_diff_dim_sums
from repro.data import generate_subspace_data, minmax_normalize
from repro.fleet import Fleet, default_fleet, mixed_fleet
from repro.fleet.partition import tree_merge
from repro.hardware.specs import GTX_1660_TI
from repro.params import ProclusParams


def ref_dim_sums(engine, mask, point):
    partials = [
        abs_diff_dim_sums(
            engine._columns[start:stop], point,
            np.flatnonzero(mask[start:stop]),
        )
        for start, stop in engine._plan.ranges()
        if stop > start
    ]
    return tree_merge(partials)


FLEETS = {
    "default-2": default_fleet(2),
    "default-3": default_fleet(3),
    "default-4": default_fleet(4),
    "mixed": mixed_fleet(),
    "zero-weight": Fleet(specs=(GTX_1660_TI,) * 3, weights=(1.0, 0.0, 1.0)),
}
ENGINES = ("fleet-gpu-fast", "fleet-gpu")


def probe_masks(plan, rng):
    """Masks that leave shards empty, plus the degenerate ones."""
    n = plan.n
    masks = []
    for start, stop in plan.ranges():
        if stop > start:
            mask = rng.random(n) < 0.3
            mask[start:stop] = False
            masks.append(mask)
    single = np.zeros(n, dtype=bool)
    single[n - 1] = True
    masks += [
        np.zeros(n, dtype=bool),
        np.ones(n, dtype=bool),
        single,
        rng.random(n) < 0.9,
    ]
    return masks


def same_bits(got, expected):
    return (
        got.dtype == expected.dtype
        and got.shape == expected.shape
        and got.tobytes() == expected.tobytes()
    )


def checked_fit(backend, fleet, data):
    """Fit ``data``, checking every ``_dim_sums`` call; returns the checks."""
    checks = []
    rng = np.random.default_rng(7)

    class Checked(BACKENDS[backend]):
        def _dim_sums(self, mask, point):
            got = super()._dim_sums(mask, point)
            if not checks:
                for medoid in (point, self._columns[0]):
                    for probe in probe_masks(self._plan, rng):
                        checks.append(same_bits(
                            super()._dim_sums(probe, medoid),
                            ref_dim_sums(self, probe, medoid),
                        ))
            checks.append(same_bits(got, ref_dim_sums(self, mask, point)))
            return got

    Checked(params=ProclusParams(k=5, l=4), seed=3, fleet=fleet).fit(data)
    return checks


def make_data(kind):
    data = generate_subspace_data(
        n=N, d=10, n_clusters=5, subspace_dims=4, std=5.0, seed=21
    ).data
    if kind == "unit":
        return minmax_normalize(data)
    data = np.asarray(data, dtype=np.float32)
    data[::3] *= np.float32(1e-9)
    return data


N = 1800


@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("fleet", sorted(FLEETS))
@pytest.mark.parametrize("kind", ["unit", "mixed-scale"])
def test_dim_sums_match_per_slice_body(backend, fleet, kind):
    checks = checked_fit(backend, FLEETS[fleet], make_data(kind))
    probes = 2 * len(
        probe_masks(FLEETS[fleet].shard_plan(N), np.random.default_rng(0))
    )
    # The probes plus at least one call from the fit itself.
    assert len(checks) > probes
    assert all(checks)
