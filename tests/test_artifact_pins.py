"""Pins of the observability artifacts, byte for byte.

Each test regenerates one artifact from fixed seeds and compares it
with a JSON fixture under ``tests/artifact_pins/``:

* the Chrome traces of traced gpu-fast and fleet-gpu-fast fits (the
  fleet on ``default_fleet(2)``) and of a level-3 parameter study,
  whose spans carry shared-work links;
* a flight recorder's rings after a served gpu-fast fit that retries a
  transient fault: spans, kernels, counters, faults, resilience and
  serve records, each with its correlation id;
* the ``repro.postmortem/1`` bundle of a served fleet crash
  (``device-down@dev1``, ``--no-degrade``, ``--max-reshards 0``);
* ``events.jsonl`` of a monitored service fed one request at a time,
  with a cache hit, an admission rejection, and a quarantine and
  readmit on a 2-card fleet.

Only wall-clock values are masked: host-track ``ts``, ``dur`` and
thread ids, span ``start`` and ``duration``, serve ``ts``,
``recovery_s``, ``created``, ``environment`` and ``trace_id``.
Everything else, modeled seconds included, must match exactly; key
order is compared too.  The artifacts are built only through the CLI
and :class:`~repro.serve.ClusterService`, so the pins do not depend on
how a run installs its tracer, recorder, injector and correlation id.

Regenerate the fixtures (after a deliberate artifact change) with::

    PYTHONPATH=src python tests/test_artifact_pins.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.exceptions import AdmissionError
from repro.fleet import default_fleet
from repro.obs import FlightRecorder
from repro.params import ProclusParams
from repro.resilience import FaultInjector
from repro.serve import ClusterService

FIXTURES = Path(__file__).parent / "artifact_pins"

#: Replaces every masked wall-clock value.
WALL = "<wall>"

#: Data and parameter flags shared by the traced CLI runs.
RUN_FLAGS = [
    "--n", "600", "--d", "8", "--clusters", "3", "--subspace-dims", "3",
    "--k", "3", "--l", "3", "--a", "20", "--b", "4", "--patience", "2",
    "--seed", "5",
]


# ----------------------------------------------------------------------
# Masking
# ----------------------------------------------------------------------
def _mask_chrome(trace: dict) -> dict:
    """Mask the host (wall-clock) track of a Chrome trace."""
    host = next(
        event["pid"] for event in trace["traceEvents"]
        if event["ph"] == "M"
        and event["args"]["name"].startswith("host")
    )
    for event in trace["traceEvents"]:
        if event["pid"] != host:
            continue
        for key in ("ts", "dur", "tid"):
            if key in event:
                event[key] = WALL
    return trace


def _mask_rings(rings: dict) -> dict:
    """Mask wall-clock fields of a recorder snapshot's rings."""
    for record in rings["streams"]["spans"]:
        record["start"] = record["duration"] = WALL
    for record in rings["streams"]["serve"]:
        record["ts"] = WALL
    return rings


def _mask_bundle(bundle: dict) -> dict:
    bundle["created"] = bundle["environment"] = WALL
    for event in bundle["failure"]["events"]:
        event["recovery_s"] = WALL
    _mask_rings(bundle["rings"])
    return bundle


def _mask_event(record: dict) -> dict:
    record["ts"] = record["trace_id"] = WALL
    return record


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------
def _traced(tmp: Path, *flags: str) -> dict:
    """The Chrome trace ``repro trace`` writes for one run."""
    assert main(["trace", *RUN_FLAGS, "--out", str(tmp), *flags]) == 0
    (path,) = tmp.glob("trace_*.json")
    return _mask_chrome(json.loads(path.read_text()))


def chrome_gpu_fast(tmp: Path) -> dict:
    return _traced(tmp, "--backend", "gpu-fast")


def chrome_fleet_gpu_fast(tmp: Path) -> dict:
    return _traced(tmp, "--backend", "fleet-gpu-fast")


def chrome_study_level3(tmp: Path) -> dict:
    return _traced(
        tmp, "--backend", "gpu-fast", "--study-level", "3",
        "--ks", "4", "3", "--ls", "2",
    )


def _data(n: int = 600, seed: int = 7):
    dataset = generate_subspace_data(
        n=n, d=8, n_clusters=3, subspace_dims=3, std=2.0, seed=seed
    )
    return minmax_normalize(dataset.data)


def recorder_rings(tmp: Path) -> dict:
    """Rings after a served gpu-fast fit that retries a transient."""
    recorder = FlightRecorder(capacity=128)
    injector = FaultInjector(["transient@compute_l.*#2"], seed=0)
    with ClusterService(
        workers=1, recorder=recorder, injector=injector
    ) as service:
        handle = service.submit(
            data=_data(), backend="gpu-fast",
            params=ProclusParams(k=3, l=3, a=20, b=4, patience=2), seed=3,
        )
        handle.result(timeout=120)
    assert [record.kind for record in injector.injected] == ["transient"]
    return _mask_rings(recorder.snapshot())


def crash_bundle(tmp: Path) -> dict:
    """The bundle ``repro serve`` dumps for a terminal fleet loss."""
    spool, pm = tmp / "spool", tmp / "pm"
    assert main([
        "submit", str(spool), "--n", "400", "--d", "8", "--clusters", "4",
        "--k", "4", "--l", "3", "--a", "25", "--b", "5",
        "--backend", "fleet-gpu-fast", "--id", "ci-crash",
    ]) == 0
    assert main([
        "serve", str(spool), "--once", "--devices", "2",
        "--fault", "device-down@dev1", "--no-degrade",
        "--max-reshards", "0", "--record-dir", str(pm),
    ]) == 0
    (path,) = pm.glob("postmortem-*.json")
    return _mask_bundle(json.loads(path.read_text()))


def serve_events(tmp: Path) -> list:
    """``events.jsonl`` of a monitored 2-card service, one job at a time.

    The backlog budget admits a backend's first job (no estimate yet)
    and rejects its next distinct one.
    """
    monitor = tmp / "monitor"
    data = _data(seed=9)
    params = ProclusParams(k=3, l=3, a=20, b=4)
    with ClusterService(
        workers=1, fleet=default_fleet(2), monitor_dir=str(monitor),
        max_backlog_seconds=1e-9,
    ) as service:
        def fit(backend: str, seed: int) -> None:
            service.submit(
                data=data, backend=backend, params=params, seed=seed
            ).result(timeout=120)

        fit("gpu-fast", 0)
        fit("gpu-fast", 0)  # cache hit
        with pytest.raises(AdmissionError) as rejected:
            fit("gpu-fast", 1)
        assert rejected.value.reason == "backlog"
        assert service.quarantine_device(1, reason="drill")
        fit("fleet-gpu-fast", 0)
        assert service.readmit_device(1)
    lines = (monitor / "events.jsonl").read_text().splitlines()
    return [_mask_event(json.loads(line)) for line in lines]


ARTIFACTS = {
    "chrome_gpu_fast": chrome_gpu_fast,
    "chrome_fleet_gpu_fast": chrome_fleet_gpu_fast,
    "chrome_study_level3": chrome_study_level3,
    "recorder_rings": recorder_rings,
    "crash_bundle": crash_bundle,
    "serve_events": serve_events,
}


def _text(artifact) -> str:
    return json.dumps(artifact) + "\n"


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_artifact_matches_its_pin(name, tmp_path):
    pinned = (FIXTURES / f"{name}.json").read_text()
    fresh = _text(ARTIFACTS[name](tmp_path))
    if fresh != pinned:
        at = next(
            (i for i, (a, b) in enumerate(zip(fresh, pinned)) if a != b),
            min(len(fresh), len(pinned)),
        )
        pytest.fail(
            f"{name} differs from its pin at character {at}:\n"
            f"  fresh:  ...{fresh[max(0, at - 120):at + 80]}\n"
            f"  pinned: ...{pinned[max(0, at - 120):at + 80]}"
        )


if __name__ == "__main__":
    import tempfile

    FIXTURES.mkdir(exist_ok=True)
    for name, build in ARTIFACTS.items():
        with tempfile.TemporaryDirectory() as tmp:
            text = _text(build(Path(tmp)))
        (FIXTURES / f"{name}.json").write_text(text)
        print(f"{name}: {len(text)} bytes")
