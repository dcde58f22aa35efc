"""A fleet holds a job that no single member could.

Each shard books only its own rows of every device array, so two cards
that each hold half of a fit run it, bit-identical to the solo run,
while cards too small for even one shard's part raise the usual typed
out-of-memory error on the first shard that runs out.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.api import BACKENDS
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.exceptions import DeviceOutOfMemoryError
from repro.fleet import Fleet
from repro.hardware.specs import GTX_1660_TI
from repro.params import ProclusParams
from repro.result import bit_identical

N, D = 2000, 8
PARAMS = ProclusParams(k=4, l=3, a=20, b=4)
#: The solo run's device footprint, and each of two shards' part of it.
SOLO_BYTES = 265_408
SHARD_BYTES = 133_408


def two_cards(usable_bytes: int) -> Fleet:
    card = replace(
        GTX_1660_TI, memory_bytes=GTX_1660_TI.reserved_bytes + usable_bytes
    )
    return Fleet(specs=(card, card))


@pytest.fixture(scope="module")
def data():
    generated = generate_subspace_data(n=N, d=D, n_clusters=4, seed=3)
    return minmax_normalize(generated.data)


def test_two_cards_hold_what_one_cannot(data):
    solo = BACKENDS["gpu-fast"](params=PARAMS, seed=0).fit(data)
    assert solo.stats.peak_device_bytes == SOLO_BYTES
    engine = BACKENDS["fleet-gpu-fast"](
        params=PARAMS, seed=0, fleet=two_cards(200_000)
    )
    result = engine.fit(data)
    assert bit_identical(result, solo)
    assert result.stats.peak_device_bytes == SHARD_BYTES
    assert [shard.peak_bytes for shard in engine.device.shards] == [
        SHARD_BYTES, SHARD_BYTES
    ]


def test_cards_smaller_than_a_shard_run_out(data):
    engine = BACKENDS["fleet-gpu-fast"](
        params=PARAMS, seed=0, fleet=two_cards(120_000)
    )
    with pytest.raises(DeviceOutOfMemoryError) as info:
        engine.fit(data)
    assert info.value.total == 120_000
