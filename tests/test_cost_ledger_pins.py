"""Pin the GPU cost ledger to its reference accrual.

``ref_launch`` below is the per-call body of ``GpuModel.launch``:
record the launch on the counter, evaluate the roofline, and account
the fixed launch overhead plus the roofline maximum on its dominant
component.  Over Hypothesis-drawn launch sequences that repeat
launches, on both evaluation cards, the library's model must end with
the same ledger as a model driven through the reference: every
``CostEvent`` field, ``phase_seconds``, ``total_seconds``, the
counters and the ordered launch list, and each call must return the
same seconds.

The model evaluates the roofline once per distinct launch and keeps
those costs to itself: ``launch_time`` and ``dominant_component`` run
once per distinct launch per model, and a second model on another
card never reuses the first one's costs.

``ref_bound_by`` is the profiler's earlier stand-alone roofline; the
profiler's ``bound_by`` label must still equal it.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.gpu.profiler import _bound_by
from repro.hardware.cost_model import GpuModel, to_units
from repro.hardware.counters import KernelLaunch
from repro.hardware.specs import GTX_1660_TI, RTX_3090

SPECS = (GTX_1660_TI, RTX_3090)


def ref_launch(model: GpuModel, launch: KernelLaunch) -> float:
    model.counter.record_launch(launch)
    seconds = model.launch_time(launch)
    return model.account(
        "kernel",
        launch.name,
        launch.phase,
        seconds,
        parts=(("launch", to_units(model.spec.kernel_launch_overhead_s)),),
        residual=model.dominant_component(launch),
        launch=launch,
    )


def ref_bound_by(model: GpuModel, launch: KernelLaunch) -> str:
    spec = model.spec
    mem_util, compute_util = model._utilization(launch)
    terms = {
        "launch": spec.kernel_launch_overhead_s,
        "memory": launch.gmem_bytes / (spec.effective_bandwidth * mem_util),
        "compute": launch.flops
        / (spec.core_count * spec.clock_hz * launch.ipc * compute_util),
        "atomics": launch.atomic_ops / spec.atomic_ops_per_s,
    }
    return max(terms, key=terms.get)


class CountingModel(GpuModel):
    """A ``GpuModel`` that counts its roofline evaluations per launch."""

    def __init__(self, spec) -> None:
        super().__init__(spec)
        self.evaluations: Counter = Counter()

    def launch_time(self, launch):
        self.evaluations["launch_time", launch] += 1
        return super().launch_time(launch)

    def dominant_component(self, launch):
        self.evaluations["dominant_component", launch] += 1
        return super().dominant_component(launch)


def once_each(stream) -> Counter:
    return Counter(
        {
            (method, launch): 1
            for method in ("launch_time", "dominant_component")
            for launch in stream
        }
    )


#: Work amounts: zero (all-tied terms), whole counts, and fractions.
_work = st.one_of(
    st.just(0.0),
    st.integers(0, 10**10).map(float),
    st.floats(0.0, 1e10, allow_nan=False, allow_infinity=False),
)

launches = st.builds(
    KernelLaunch,
    name=st.sampled_from(
        ("compute_l.distances", "assign_points", "greedy.pick", "medoid_kxk")
    ),
    phase=st.sampled_from(("initialization", "compute_l", "assign_points")),
    grid_blocks=st.integers(1, 200_000),
    threads_per_block=st.sampled_from((1, 32, 96, 128, 256, 1024)),
    flops=_work,
    gmem_bytes=_work,
    atomic_ops=_work,
    smem_bytes_per_block=st.sampled_from((0, 1024, 12_288, 49_152)),
    registers_per_thread=st.sampled_from((0, 16, 32, 64)),
    ipc=st.sampled_from((0.25, 0.5, 1.0)),
)

#: A pool of distinct launches and an index sequence into it, so the
#: drawn stream repeats launches the way the engines do.
streams = st.lists(launches, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(
        st.sampled_from(pool), min_size=1, max_size=40
    )
)


def assert_same_ledger(model: GpuModel, reference: GpuModel) -> None:
    assert model.events == reference.events
    assert [e.launch for e in model.events] == [
        e.launch for e in reference.events
    ]
    assert model.phase_seconds == reference.phase_seconds
    assert list(model.phase_seconds) == list(reference.phase_seconds)
    assert model.total_seconds == reference.total_seconds
    assert model.counter.as_dict() == reference.counter.as_dict()
    assert list(model.counter.as_dict()) == list(reference.counter.as_dict())
    assert model.counter.kernel_launches == reference.counter.kernel_launches


class TestLedgerMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(stream=streams, spec=st.sampled_from(SPECS))
    def test_same_ledger(self, stream, spec):
        model, reference = GpuModel(spec), GpuModel(spec)
        for launch in stream:
            assert model.launch(launch) == ref_launch(reference, launch)
        assert_same_ledger(model, reference)

    @settings(max_examples=60, deadline=None)
    @given(stream=streams)
    def test_same_ledger_with_transfers_between(self, stream):
        model, reference = GpuModel(GTX_1660_TI), GpuModel(GTX_1660_TI)
        for i, launch in enumerate(stream):
            for target in (model, reference):
                target.account(
                    "transfer", f"h2d:x{i}", "transfer", 1e-5 + i * 1e-7,
                    residual="transfer",
                )
            assert model.launch(launch) == ref_launch(reference, launch)
        assert_same_ledger(model, reference)


class TestRooflineOncePerDistinctLaunch:
    @settings(max_examples=100, deadline=None)
    @given(stream=streams, spec=st.sampled_from(SPECS))
    def test_once_per_distinct_launch(self, stream, spec):
        model = CountingModel(spec)
        for launch in stream:
            model.launch(launch)
        assert model.evaluations == once_each(stream)

    @settings(max_examples=100, deadline=None)
    @given(stream=streams)
    def test_models_on_different_cards_never_share_a_cost(self, stream):
        models = [CountingModel(spec) for spec in SPECS]
        references = [GpuModel(spec) for spec in SPECS]
        for launch in stream:
            for model, reference in zip(models, references):
                assert model.launch(launch) == ref_launch(reference, launch)
        for model, reference in zip(models, references):
            assert_same_ledger(model, reference)
            assert model.evaluations == once_each(stream)


class TestProfilerBoundBy:
    @settings(max_examples=200, deadline=None)
    @given(launch=launches, spec=st.sampled_from(SPECS))
    def test_matches_reference(self, launch, spec):
        model = GpuModel(spec)
        assert _bound_by(model, launch) == ref_bound_by(model, launch)
