"""Wall-clock benchmark of fits, a device fleet and the serving layer.

    python3 perfbench/run.py --workload fit-small --seed 1 --seconds 10 --trace 0

Run from the repository root; ``repro`` is imported from ``src/``.

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``fit-small`` -- one caller, closed loop of ``proclus()`` fits rotating
  gpu / gpu-fast / gpu-fast-star, n=4096 d=15 k=10 l=5;
* ``fit-large`` -- the same with gpu-fast only, n=32768 d=30;
* ``fleet-d4`` -- fleet-gpu-fast on ``default_fleet(4)``, n=8192 d=15;
* ``serve-mix`` -- Poisson open loop at a fixed rate from one thread
  into ``ClusterService(workers=2)``, then a closed loop of 2 callers.

``--trace 0`` times the workload and prints the end-to-end metrics.
``--trace 1`` times it untraced, then again with every layer's
functions wrapped (``perfbench/layers.py``), and prints the per-layer
metrics.  Both check every output against an oracle computed untimed:
the sequential ``fast`` backend on the same input for a fit, a solo
``proclus()`` for a served request.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable table.

End-to-end metrics: ``throughput_per_s`` (fits, or served requests of
the closed loop), ``latency_p50_s`` / ``latency_p90_s`` (per fit, or
per open-loop request timed from its due time), ``ok_frac`` (ops that
neither failed, were refused nor differed from the oracle, over ops
attempted: ``1 - failed_frac``, which the table prints), ``modeled_s``
(mean modeled device seconds per fit over the first ``min_ops`` fits;
for serve-mix, per open-loop request run solo), ``setup_s`` (import,
build and warm-up, median of :data:`PROBES` fresh interpreters) and
``peak_rss_mb`` (resident high-water mark of the timed phase).

Wall-clock figures are scaled to the reference machine of
:func:`spec.calibration`, using calibration loops taken next to the
timed work; the table also prints them unscaled.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import layers  # noqa: E402
import spec  # noqa: E402

#: Set-ups per ``--trace 0`` run, each in a fresh interpreter;
#: ``setup_s`` is their median.
PROBES = 5
#: An open loop whose generator sent its 99th-percentile request later
#: than this after its due time did not offer the stated rate.
MAX_GEN_LAG_S = 0.1
#: An open loop whose mean queue depth over its last quarter exceeds
#: that over its first quarter by more than this was saturated.
MAX_DEPTH_GROWTH = 3.0
#: Idle seconds before a due request that leave room for a calibration.
CALIBRATION_ROOM_S = 0.01
#: A served request is scaled by the calibrations taken within this
#: many seconds of its due time.
CALIBRATION_WINDOW_S = 0.5
#: Slices of a timed phase whose median rate is ``throughput_per_s``.
SLICES = 5
#: Value reported for a latency percentile that falls on a refused or
#: failed request (which misses any latency limit).
MISSED_S = 1e9


class Run:
    """Metrics, counts and problems of one benchmark run."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        #: Unscaled wall-clock values of scaled metrics, for the table.
        self.raw: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def metric(self, name: str, value: float, unit: str, raw=None) -> None:
        value = float(value)
        self.metrics[name] = {
            "value": value if math.isfinite(value) else MISSED_S, "unit": unit,
        }
        if raw is not None:
            self.raw[name] = raw

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    def check(self, outcomes) -> None:
        """Count ``(ok, what)`` pairs as attempted/failed ops."""
        bad = [what for ok, what in outcomes if not ok]
        self.attempted += len(outcomes)
        self.failed += len(bad)
        if bad:
            self.problem(f"{len(bad)} of {len(outcomes)} ops failed: {bad[:3]}")

    def emit(self) -> None:
        for name, metric in self.metrics.items():
            raw = f"  (unscaled {self.raw[name]:.6g})" if name in self.raw else ""
            print(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}{raw}")
        print(json.dumps({
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }))


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``inf`` entries count as misses)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def latency_metrics(run: Run, latencies, raw, label: str) -> None:
    """p50 and p90 of scaled latencies (``raw``: the unscaled ones)."""
    p90 = percentile(latencies, 90)
    beyond = sum(1 for value in latencies if value > p90)
    run.metric("latency_p50_s", statistics.median(latencies), "s",
               statistics.median(raw))
    run.metric("latency_p90_s", p90, "s", percentile(raw, 90))
    print(f"{label}: {len(latencies)} latency samples, {beyond} beyond p90")


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def probe_setups(workload: str, seed: int) -> list[dict]:
    """Run :data:`PROBES` set-ups, one fresh interpreter each."""
    out = []
    for _ in range(PROBES):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
            cwd=spec.ROOT, capture_output=True, text=True, timeout=150,
            check=True,
        )
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def setup_metrics(run: Run, system, probes) -> None:
    scaled = [
        p["setup_s"] * spec.REFERENCE_CALIBRATION_S / p["calibration_s"]
        for p in probes
    ]
    run.metric("setup_s", statistics.median(scaled), "s",
               statistics.median(p["setup_s"] for p in probes))
    digest = spec.exact_digest(system.warmup)
    if any(p["digest"] != digest for p in probes):
        run.problem("warm-up modeled seconds or counters differ between set-ups")


def closed_loop(call, min_ops: int, seconds: float = 0.0):
    """One caller: ``call(0), call(1), ...`` for ``seconds`` and at least
    ``min_ops`` ops, each right after a calibration loop.  Returns the
    results (an exception for a failed op), the scaled per-op latencies
    and the unscaled ones."""
    results, scaled, raw = [], [], []
    deadline = time.perf_counter() + seconds
    op = 0
    while op < min_ops or time.perf_counter() < deadline:
        calibration = spec.calibration()
        began = time.perf_counter()
        try:
            result = call(op)
        except Exception as error:  # noqa: BLE001 - a failed op is data
            traceback.print_exc()
            result = error
        latency = time.perf_counter() - began
        raw.append(latency)
        scaled.append(latency * spec.REFERENCE_CALIBRATION_S / calibration)
        results.append(result)
        op += 1
    return results, scaled, raw


def throughput(latencies) -> float:
    """Ops per second from per-op times: the median over :data:`SLICES`
    consecutive slices of the ops of each slice's rate, so a burst of
    interference on the machine moves one slice, not the figure."""
    size = len(latencies) / SLICES
    slices = [
        latencies[round(i * size): round((i + 1) * size)] for i in range(SLICES)
    ]
    return statistics.median(len(part) / sum(part) for part in slices)


def counter_totals(results) -> dict[str, float]:
    totals: dict[str, float] = {}
    for result in results:
        for name, value in result.stats.counters.items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


# ----------------------------------------------------------------------
# Fit workloads
# ----------------------------------------------------------------------
def expected_ops(workload, system, seconds: float) -> int:
    """Ops a timed phase of ``seconds`` will likely run."""
    return max(workload.min_ops, int(seconds / system.warmup_s) + 1)


def check_fits(run: Run, inputs, results) -> None:
    """Every fit must cluster exactly as FAST-PROCLUS does."""
    run.check([
        (
            not isinstance(result, Exception)
            and spec.same_clustering(result, inputs.reference(op)),
            f"op {op}",
        )
        for op, result in enumerate(results)
    ])


def fit_run(repro, workload, seed: int, seconds: float, run: Run) -> None:
    probes = probe_setups(workload.name, seed)
    system = spec.System(repro, workload, seed)
    setup_metrics(run, system, probes)
    inputs = system.inputs
    for op in range(expected_ops(workload, system, seconds)):
        inputs.reference(op)
    gc.collect()
    reset_peak_rss()
    results, latencies, raw = closed_loop(inputs.call, workload.min_ops, seconds)
    run.metric("peak_rss_mb", peak_rss_mb(), "MiB")
    check_fits(run, inputs, results)
    if run.problems:
        return
    run.metric("throughput_per_s", throughput(latencies), "1/s", throughput(raw))
    latency_metrics(run, latencies, raw, workload.name)
    run.metric("ok_frac", 1 - run.failed / run.attempted, "ratio")
    modeled = [r.stats.modeled_seconds for r in results[: workload.min_ops]]
    run.metric("modeled_s", sum(modeled) / len(modeled), "s")
    print(f"{workload.name}: {len(results)} fits in {sum(raw):.3f} s; "
          f"failed_frac {run.failed / run.attempted} ratio")


def fit_trace(repro, workload, seed: int, seconds: float, run: Run) -> None:
    system = spec.System(repro, workload, seed)
    inputs = system.inputs
    for op in range(expected_ops(workload, system, seconds / 2)):
        inputs.reference(op)
    untraced, latencies, _ = closed_loop(
        inputs.call, workload.min_ops, seconds / 2
    )
    count = len(untraced)
    solo = None
    if workload.devices:
        _, solo, _ = closed_loop(
            lambda op: inputs.call(op, backend="gpu-fast"), count
        )
    trace = layers.LayerTrace()
    trace.install()
    trace.reset()
    traced, traced_latencies, _ = closed_loop(
        trace.wrap(inputs.call, ("other", "perfbench.op")), count
    )
    totals = trace.totals()
    silent = trace.silent(workload.name)
    check_fits(run, inputs, traced)
    if run.problems:
        return
    if silent:
        run.problem(f"wrappers recorded no call on {workload.name}: {silent}")
    if not all(spec.same_bits(a, b) for a, b in zip(untraced, traced)):
        run.problem("a traced result differs from the untraced one")
    counters = counter_totals(traced)
    launches = trace.calls("repro.gpu.device:Device.launch")
    if workload.name == "fit-small" and launches != counters["gpu.kernel_launches"]:
        run.problem(
            f"Device.launch wrapper saw {launches} calls, RunStats "
            f"{counters['gpu.kernel_launches']} kernel launches"
        )
    modeled = sum(r.stats.modeled_seconds for r in traced)
    extra = {
        "fleet.wall_vs_solo": (
            statistics.median(latencies) / statistics.median(solo) if solo else 0.0
        ),
        "fleet.comm_frac": counters.get("fleet.comm_seconds", 0.0) / modeled,
        "trace.overhead_frac": sum(traced_latencies) / sum(latencies) - 1,
    }
    layer_metrics(run, trace, totals, count, counters, extra)


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
def arrivals(workload, seed: int, seconds: float):
    """Open-loop schedule: ``(offset, request)`` pairs within ``seconds``.

    Sweeps arrive as a Poisson process, each sweep's requests at once.
    The request count is fixed at ``rate * seconds`` and the sweep
    offsets are drawn uniformly: a Poisson process conditioned on its
    count, so every seed offers the same load."""
    total = round(workload.rate * seconds)
    sweeps, count = [], 0
    for sweep in spec.sweep_stream(workload, seed, 0):
        sweeps.append(sweep[: total - count])
        count += len(sweeps[-1])
        if count == total:
            break
    rng = spec.rng_for(workload.name, seed, 2)
    offsets = np.sort(rng.uniform(0.0, seconds, len(sweeps)))
    return [
        (float(offset), request)
        for offset, sweep in zip(offsets, sweeps) for request in sweep
    ]


class OpenLoop:
    """What one open-loop phase sent, saw and got back.

    While every request sent so far has its reply and the next one is
    not due for a while, the generator runs calibration loops: the
    service is idle then, so they measure the machine, not the load.
    """

    def __init__(self, inputs, service, schedule) -> None:
        from repro.exceptions import AdmissionError

        self.sent = []  # (request, due, handle or refusal error)
        self.lags, self.depths, self.calibrations = [], [], []
        pending = []
        epoch_low, epoch_high = -math.inf, math.inf
        start = time.perf_counter() + 0.01
        for offset, request in schedule:
            due = start + offset
            while due - time.perf_counter() > CALIBRATION_ROOM_S:
                pending = [handle for handle in pending if not handle.done()]
                if not pending:
                    self.calibrations.append(
                        (time.perf_counter(), spec.calibration())
                    )
                    continue
                room = due - time.perf_counter() - CALIBRATION_ROOM_S
                try:
                    pending[0].result(max(0.0, room))
                except Exception:  # noqa: BLE001 - timed out, or the job
                    pass  # failed (checked later): either way, look again
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            began = time.perf_counter()
            try:
                handle = inputs.submit(service, request)
            except AdmissionError as error:
                handle = error
            ended = time.perf_counter()
            self.lags.append(began - due)
            self.depths.append(service.scheduler.depth)
            self.sent.append((request, due, handle))
            if not isinstance(handle, Exception):
                pending.append(handle)
                # The service clock's origin, bracketed by this submit.
                epoch_low = max(epoch_low, began - handle.submitted_at)
                epoch_high = min(epoch_high, ended - handle.submitted_at)
        stats = service.stats()
        self.backlog_end = stats["queued"] + stats["running"]
        epoch = (epoch_low + epoch_high) / 2
        self.latencies, self.results = [], []
        for request, due, handle in self.sent:
            result = handle
            if not isinstance(handle, Exception):
                try:
                    result = handle.result(spec.REPLY_TIMEOUT_S)
                except Exception as error:  # noqa: BLE001 - a failed request
                    result = error
            self.results.append((request, result))
            self.latencies.append(
                math.inf if isinstance(result, Exception)
                else handle.finished_at + epoch - due
            )
        overall = [seconds for _, seconds in self.calibrations] or [
            spec.calibration()
        ]
        self.scaled = []
        for (_, due, _), latency in zip(self.sent, self.latencies):
            near = [
                seconds for at, seconds in self.calibrations
                if due - CALIBRATION_WINDOW_S <= at <= due + CALIBRATION_WINDOW_S
            ]
            calibration = statistics.median(near or overall)
            self.scaled.append(
                latency * spec.REFERENCE_CALIBRATION_S / calibration
            )

    def hygiene(self, run: Run) -> None:
        """Invalidate a run whose generator or queue fell behind."""
        lag = percentile(self.lags, 99)
        if lag > MAX_GEN_LAG_S:
            run.problem(f"open-loop generator ran {lag:.3f} s late (p99)")
        quarter = max(1, len(self.depths) // 4)
        growth = (
            statistics.mean(self.depths[-quarter:])
            - statistics.mean(self.depths[:quarter])
        )
        if growth > MAX_DEPTH_GROWTH:
            run.problem(f"queue depth grew by {growth:.1f} across the open loop")


def serve_closed_loop(inputs, service, workload, seed: int, seconds: float):
    """Closed loop of ``workload.callers`` callers, for ``seconds``.

    Callers go in rounds: each sends one request and waits for its
    reply; between rounds, with the service idle, a calibration loop
    runs.  Returns ``[(request, handle, result or error)]``, the raw
    requests-per-second and the scaled one, each the median rate over
    :data:`SLICES` consecutive slices of the rounds."""
    stream = itertools.chain.from_iterable(spec.sweep_stream(workload, seed, 1))
    callers = workload.callers
    barrier = threading.Barrier(callers + 1)
    batch: list = [None] * callers
    out: list = [None] * callers
    stop = threading.Event()

    def caller(index: int) -> None:
        while True:
            barrier.wait()
            if stop.is_set():
                return
            handle = None
            try:
                handle = inputs.submit(service, batch[index])
                result = handle.result(spec.REPLY_TIMEOUT_S)
            except Exception as error:  # noqa: BLE001 - a failed request
                result = error
            out[index] = (batch[index], handle, result)
            barrier.wait()

    threads = [threading.Thread(target=caller, args=(index,), daemon=True)
               for index in range(callers)]
    for thread in threads:
        thread.start()
    sent, raw, scaled = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        calibration = spec.calibration()
        batch[:] = [next(stream) for _ in range(callers)]
        began = time.perf_counter()
        barrier.wait()
        barrier.wait(spec.REPLY_TIMEOUT_S + 10)
        # Per request, so the slices' rates count requests.
        share = (time.perf_counter() - began) / callers
        raw += [share] * callers
        scaled += [share * spec.REFERENCE_CALIBRATION_S / calibration] * callers
        sent.extend(out)
    stop.set()
    barrier.wait()
    for thread in threads:
        thread.join()
    return sent, throughput(raw), throughput(scaled)


def check_served(run: Run, inputs, pairs) -> None:
    """Every reply must equal the solo run of its request."""
    run.check([
        (
            not isinstance(result, Exception)
            and spec.same_clustering(result, inputs.reference(request)),
            f"{request}",
        )
        for request, result in pairs
    ])


def serve_phases(workload, seconds: float) -> tuple[float, float]:
    open_s = seconds * workload.open_share
    return open_s, seconds - open_s


def serve_run(repro, workload, seed: int, seconds: float, run: Run) -> None:
    probes = probe_setups(workload.name, seed)
    system = spec.System(repro, workload, seed)
    setup_metrics(run, system, probes)
    inputs = system.inputs
    open_s, closed_s = serve_phases(workload, seconds)
    schedule = arrivals(workload, seed, open_s)
    closed_service = spec.new_service(repro, workload)
    system.warm(closed_service)
    for _, request in schedule:
        inputs.reference(request)
    gc.collect()
    reset_peak_rss()
    opened = OpenLoop(inputs, system.service, schedule)
    closed, raw_rate, rate = serve_closed_loop(
        inputs, closed_service, workload, seed, closed_s
    )
    run.metric("peak_rss_mb", peak_rss_mb(), "MiB")
    system.service.shutdown()
    closed_service.shutdown()
    opened.hygiene(run)
    check_served(run, inputs, opened.results + [(r, x) for r, _, x in closed])
    if run.problems:
        return
    run.metric("throughput_per_s", rate, "1/s", raw_rate)
    latency_metrics(
        run, opened.scaled, opened.latencies, f"{workload.name} open loop"
    )
    run.metric("ok_frac", 1 - run.failed / run.attempted, "ratio")
    modeled = [inputs.reference(request).stats.modeled_seconds
               for _, request in schedule]
    run.metric("modeled_s", sum(modeled) / len(modeled), "s")
    print(f"{workload.name}: open loop {len(schedule)} requests at "
          f"{workload.rate} req/s offered, generator lag p99 "
          f"{percentile(opened.lags, 99):.6f} s, backlog at end "
          f"{opened.backlog_end}; closed loop {len(closed)} requests from "
          f"{workload.callers} callers; {inputs.unique_references} unique "
          f"requests; {len(opened.calibrations)} idle calibrations; "
          f"failed_frac {run.failed / run.attempted} ratio")


def queue_wait_p50(service) -> float:
    """Median admit-to-start wait from the service's event log."""
    admitted, waits = {}, []
    for event in service.log.snapshot():
        if event.kind == "admit":
            admitted[event.job_id] = event.ts
        elif event.kind == "start" and event.job_id in admitted:
            waits.append(event.ts - admitted.pop(event.job_id))
    return statistics.median(waits)


def executed(service, warmup) -> tuple[int, dict[str, float]]:
    """Engine runs a service executed and their summed counters, less
    its warm-up request."""
    runs = service.stats()["counters"].get("serve.executed", 0) - 1
    counters = dict(service.executed_stats.counters)
    for name, value in warmup.stats.counters.items():
        counters[name] -= value
    return runs, counters


def serve_trace(repro, workload, seed: int, seconds: float, run: Run) -> None:
    system = spec.System(repro, workload, seed)
    inputs = system.inputs
    open_s, closed_s = serve_phases(workload, seconds)
    schedule = arrivals(workload, seed, open_s)
    for _, request in schedule:
        inputs.reference(request)
    untraced, _, rate_untraced = serve_closed_loop(
        inputs, system.service, workload, seed, closed_s
    )
    system.service.shutdown()
    trace = layers.LayerTrace()
    trace.install()
    services = [spec.new_service(repro, workload) for _ in range(2)]
    for service in services:
        system.warm(service)
    trace.reset()
    opened = OpenLoop(inputs, services[0], schedule)
    closed, _, rate_traced = serve_closed_loop(
        inputs, services[1], workload, seed, closed_s
    )
    for service in services:
        service.drain()
    totals = trace.totals()
    silent = trace.silent(workload.name)
    for service in services:
        service.shutdown()
    check_served(run, inputs, opened.results + [(r, x) for r, _, x in closed]
                 + [(r, x) for r, _, x in untraced])
    if run.problems:
        return
    if silent:
        run.problem(f"wrappers recorded no call on {workload.name}: {silent}")
    requests = len(opened.sent) + len(closed)
    runs, counters = 0, {}
    for service in services:
        service_runs, service_counters = executed(service, system.warmup)
        runs += service_runs
        for name, value in service_counters.items():
            counters[name] = counters.get(name, 0.0) + value
    hits = sum(
        1 for handle in [h for _, _, h in opened.sent] + [h for _, h, _ in closed]
        if handle is not None and not isinstance(handle, Exception) and handle.cached
    )
    extra = {
        "serve.queue_wait_p50_s": queue_wait_p50(services[0]),
        "serve.cache_hit_ratio": hits / requests,
        "serve.executions_per_request": runs / requests,
        "serve.backlog_end": opened.backlog_end,
        "serve.gen_lag_p99_s": percentile(opened.lags, 99),
        "trace.overhead_frac": rate_untraced / rate_traced - 1,
    }
    layer_metrics(run, trace, totals, requests, counters, extra)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer metrics that only some workloads produce; the others
#: report 0 for them.
WORKLOAD_SPECIFIC = {
    "fleet.wall_vs_solo": "ratio",
    "fleet.comm_frac": "ratio",
    "serve.queue_wait_p50_s": "s",
    "serve.cache_hit_ratio": "ratio",
    "serve.executions_per_request": "ratio",
    "serve.backlog_end": "count",
    "serve.gen_lag_p99_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(run: Run, trace, totals, ops: int, counters, extra) -> None:
    """Per-op layer self times and counts, layer shares, counters."""
    by_layer = trace.by_layer()
    busy_total = sum(busy for _, busy in by_layer.values())
    for layer in layers.LAYERS:
        busy = by_layer[layer][1]
        name = "data.fingerprint_busy_s" if layer == "data" else f"{layer}.busy_s"
        run.metric(name, busy / ops, "s")
        run.metric(f"{layer}.share", busy / busy_total, "ratio")
    for layer in ("core", "hardware"):
        run.metric(f"{layer}.calls", by_layer[layer][0] / ops, "count")
    hit = counters.get("cache.dist_rows_hit", 0.0)
    missed = counters.get("cache.dist_rows_missed", 0.0)
    run.metric("core.dist_hit_ratio", hit / (hit + missed), "ratio")
    run.metric("gpu.launches", counters["gpu.kernel_launches"] / ops, "count")
    run.metric("gpu.gmem_bytes", counters["gpu.gmem_bytes"] / ops, "B")
    run.metric("gpu.flops_per_byte",
               counters["gpu.flops"] / counters["gpu.gmem_bytes"], "flop/B")
    run.metric("fleet.launches",
               trace.calls("repro.fleet.device:FleetDevice.launch") / ops, "count")
    submit = totals.get(("serve", "repro.serve.service:ClusterService.submit"))
    run.metric("serve.submit_busy_s", submit[1] / ops if submit else 0.0, "s")
    for name, unit in WORKLOAD_SPECIFIC.items():
        run.metric(name, extra.get(name, 0.0), unit)
    print(f"per-layer metrics per op over {ops} traced ops")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        repro = spec.import_repro()
    except ImportError as error:
        print(f"perfbench: cannot import repro from {spec.SRC}: {error}",
              file=sys.stderr)
        return 2
    workload = spec.WORKLOADS[args.workload]
    serve = isinstance(workload, spec.ServeSpec)
    if args.trace:
        body = serve_trace if serve else fit_trace
    else:
        body = serve_run if serve else fit_run
    run = Run()
    body(repro, workload, args.seed, args.seconds, run)
    run.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
