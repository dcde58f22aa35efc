"""Pin the reuse of the baseline's ComputeL rows and sphere sums.

The modeled baseline recomputes every distance row and every sphere
each iteration; its host executor copies what the previous ComputeL
call of the same fit already had.  ``ProclusEngine._compute_l_and_x``
(``proclus``, ``gpu``, ``fleet-gpu``) copies the row of every medoid
point id that call also had, at any slot, and
``EngineBase._full_sphere_x`` (those engines and ``fast-dist-only``)
reuses the ``X`` row and ``|L_i|`` of every medoid whose point id and
float32 radius ``δ_i`` both match.  On mixed-scale data, where the
per-dimension sums round, each fit checks that:

* every call returns the ``(X, |L|)`` of the reference bodies in
  ``tests/test_phase_step_pins.py``, which build every row and sphere;
* each call is lent exactly the previous call's rows and sums, builds
  exactly the rows and spheres that call did not have, and keeps
  exactly its own;
* the engine holds none of them after ``fit``, whether it returns or
  raises.

The fits are chosen so that medoids stay, leave and come back, and
kept medoids change radius, so a key without ``δ_i``, rows keyed by
slot and a store of more than the previous call each fail.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import BACKENDS
from repro.core.distance import euclidean_to_point
from repro.params import ProclusParams
from tests.test_chunk_and_launch_pins import mixed_scale, same_bits
from tests.test_phase_step_pins import ref_dist_only_l_and_x, ref_proclus_l_and_x

REFERENCES = {
    "proclus": ref_proclus_l_and_x,
    "gpu": ref_proclus_l_and_x,
    "fleet-gpu": ref_proclus_l_and_x,
    "fast-dist-only": ref_dist_only_l_and_x,
}
#: Backends whose rows go through ``ProclusEngine._compute_l_and_x``.
ROW_REUSE = {"proclus", "gpu", "fleet-gpu"}
PARAMS = ProclusParams(k=5, l=3, a=20, b=5, patience=12, max_iterations=12)


def make_engine(backend, calls):
    """A ``backend`` engine that records, for every ComputeL call, what
    it was lent, what it built, what it kept and what it returned,
    beside the reference body's ``(X, |L|)``."""
    base = BACKENDS[backend]

    class Spy(base):
        _built = None

        def _distance_row(self, point):
            if self._built is not None:
                self._built["rows"].append(point.tobytes())
            return super()._distance_row(point)

        def _dim_sums(self, mask, point):
            if self._built is not None:
                self._built["spheres"].append(point.tobytes())
            return super()._dim_sums(mask, point)

        def _compute_l_and_x(self, mcur):
            call = {
                "ids": self._medoid_ids[mcur].tolist(),
                "lent": (self._last_rows, self._last_spheres),
                "rows": [],
                "spheres": [],
            }
            self._built = call
            try:
                x, sizes = super()._compute_l_and_x(mcur)
            finally:
                self._built = None
            call["kept"] = (self._last_rows, self._last_spheres)
            call["got"] = (x.copy(), sizes.copy())
            call["expected"] = REFERENCES[backend](self, mcur)
            call["radii"] = radii(self, call["ids"])
            calls.append(call)
            return x, sizes

    kwargs = {"fleet": 2} if backend.startswith("fleet-") else {}
    return Spy(params=PARAMS, seed=2, **kwargs)


def radii(engine, ids):
    """Each medoid's float32 distance to its nearest other medoid."""
    rows = np.stack([engine._distance_row(engine._data[i]) for i in ids])
    medoid_dist = rows[:, ids]
    np.fill_diagonal(medoid_dist, np.inf)
    return medoid_dist.min(axis=1).tolist()


def data():
    return mixed_scale(np.random.default_rng(2), (300, 8))


@pytest.mark.parametrize("backend", sorted(REFERENCES))
def test_each_call_reuses_exactly_the_previous_call(backend):
    points = data()
    calls = []
    engine = make_engine(backend, calls)
    engine.fit(points)
    assert len(calls) == PARAMS.max_iterations

    def point(i):
        return points[i].tobytes()

    columns = np.asfortranarray(points)

    seen = set()
    previous = None
    stayed = moved = returned = 0
    for call in calls:
        ids = call["ids"]
        keys = list(zip(ids, call["radii"]))
        x, sizes = call["got"]
        ref_x, ref_sizes = call["expected"]
        assert same_bits(x, ref_x)
        assert sizes.dtype == ref_sizes.dtype
        assert np.array_equal(sizes, ref_sizes)

        lent_rows, lent_spheres = call["lent"]
        kept_rows, kept_spheres = call["kept"]
        old_ids, old_keys = (set(), set()) if previous is None else (
            set(previous["ids"]),
            set(zip(previous["ids"], previous["radii"])),
        )
        # Lent exactly what the previous call kept (nothing at first).
        if previous is None:
            assert lent_spheres is None and lent_rows is None
        else:
            assert lent_spheres is previous["kept"][1]
            assert lent_rows is previous["kept"][0]
        # Kept exactly its own spheres: keys, X rows and sizes.
        assert kept_spheres[0] == keys
        assert same_bits(kept_spheres[1], x)
        assert np.array_equal(kept_spheres[2], sizes)
        # Summed exactly the spheres the previous call did not have.
        assert sorted(call["spheres"]) == sorted(
            point(i) for i, r in keys if (i, r) not in old_keys
        )
        if backend in ROW_REUSE:
            # Built exactly the rows the previous call did not have ...
            assert sorted(call["rows"]) == sorted(
                point(i) for i in ids if i not in old_ids
            )
            # ... and kept exactly its own k rows, each a fresh build's.
            assert kept_rows[0].tolist() == ids
            assert kept_rows[1].shape == (len(ids), len(points))
            for i, row in zip(ids, kept_rows[1]):
                assert same_bits(row, euclidean_to_point(columns, points[i]))
        else:
            assert kept_rows is None
        stayed += len(old_ids & set(ids))
        moved += sum(
            1 for i, r in keys if i in old_ids and (i, r) not in old_keys
        )
        returned += len((set(ids) - old_ids) & seen)
        seen |= set(ids)
        previous = call

    # The fit exercises every case a wrong key or store would get wrong.
    assert stayed and moved and returned
    assert engine._last_rows is None and engine._last_spheres is None


@pytest.mark.parametrize("backend", ["proclus", "fast-dist-only"])
def test_a_failed_fit_keeps_nothing(backend):
    calls = []
    engine = make_engine(backend, calls)

    def fail(*args):
        if len(calls) == 3:
            raise RuntimeError("injected")
        return type(engine)._evaluate_clusters(engine, *args)

    engine._evaluate_clusters = fail
    with pytest.raises(RuntimeError, match="injected"):
        engine.fit(data())
    assert len(calls) == 3 and calls[-1]["kept"][1] is not None
    assert engine._last_rows is None and engine._last_spheres is None
