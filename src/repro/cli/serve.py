"""``repro serve``: process a spool of clustering requests."""

from __future__ import annotations

import argparse

from ._common import (
    GPU_SPECS,
    build_fleet,
    fault_injector,
    flight_recorder,
    retry_policy,
)


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve", help="process clustering requests from a spool directory"
    )
    parser.add_argument("spool", help="spool directory (created if missing)")
    parser.add_argument("--workers", type=int, default=2,
                        help="service worker threads (default 2)")
    parser.add_argument("--gpu", choices=sorted(GPU_SPECS), default="gtx1660ti",
                        help="modeled card for capacity decisions")
    parser.add_argument("--devices", type=int, default=None,
                        help="serve against a fleet of this many modeled "
                             "cards (fleet-* requests shard across them)")
    parser.add_argument("--cache-entries", type=int, default=64,
                        help="result-cache capacity (0 disables; default 64)")
    parser.add_argument("--once", action="store_true",
                        help="process the current requests and exit")
    parser.add_argument("--poll-seconds", type=float, default=0.2,
                        help="spool poll interval (default 0.2)")
    parser.add_argument("--max-batches", type=int, default=None,
                        help="stop after this many non-empty sweeps")
    parser.add_argument("--timeline", action="store_true",
                        help="print the queue/occupancy lanes at exit")
    parser.add_argument("--monitor-dir", metavar="DIR",
                        help="write live monitoring output (event log, "
                             "Prometheus scrape, health.json) here; flushed "
                             "on exit and on SIGTERM")
    parser.add_argument("--record-dir", metavar="DIR",
                        help="run under a flight recorder; terminal failures "
                             "and SIGTERM dump a postmortem bundle here "
                             "(inspect with 'repro postmortem DIR')")
    parser.add_argument("--record-capacity", type=int, default=256,
                        help="flight-recorder ring capacity per stream "
                             "(default 256)")
    parser.add_argument("--fault", action="append", metavar="SPEC",
                        help="inject faults into served jobs: "
                             "'kind[@site][#at[+count|+*]][?prob]' "
                             "(repeatable; e.g. device-down@dev1)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="fault-injector seed (default 0)")
    parser.add_argument("--no-degrade", action="store_true",
                        help="forbid degradation: capacity errors and "
                             "exhausted retries fail the job instead of "
                             "stepping down the ladder")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="transient-error retries per ladder rung")
    parser.add_argument("--max-reshards", type=int, default=None,
                        help="cap within-rung fleet re-shards after device "
                             "loss (0 makes any loss terminal)")
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    import signal

    from ..serve import ClusterService, serve_spool
    from ..viz import render_health, render_serve_lanes

    fleet = build_fleet(args) if args.devices is not None else None
    injector = fault_injector(args.fault, args.fault_seed)
    service = ClusterService(
        workers=args.workers,
        gpu_spec=GPU_SPECS[args.gpu],
        fleet=fleet,
        policy=retry_policy(args),
        cache_entries=args.cache_entries,
        monitor_dir=args.monitor_dir,
        recorder=flight_recorder(args.record_dir, args.record_capacity),
        injector=injector,
    )
    # --record-dir's recorder, else the $REPRO_FLIGHT_RECORDER one.
    recorder = service.recorder
    where = (
        f"a {fleet.num_devices}-card modeled fleet"
        if fleet is not None else f"modeled {GPU_SPECS[args.gpu].name}"
    )
    print(f"serving spool {args.spool} on {where} "
          f"({args.workers} workers)")
    if args.monitor_dir:
        print(f"monitoring output in {args.monitor_dir} "
              f"(watch with: repro monitor {args.monitor_dir})")
    if injector is not None:
        print(f"fault injection active: {', '.join(args.fault)} "
              f"(seed {args.fault_seed})")
    if recorder is not None:
        print(f"flight recorder on: postmortem bundles land in "
              f"{args.record_dir or recorder.bundle_dir}")

    def _on_sigterm(signum, frame):
        # Unwind through the KeyboardInterrupt path so the finally
        # block below flushes the final monitoring snapshot.
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    handled = 0
    interrupted = False
    try:
        handled = serve_spool(
            args.spool, service,
            once=args.once,
            poll_seconds=args.poll_seconds,
            max_batches=args.max_batches,
            progress=print,
        )
    except KeyboardInterrupt:
        interrupted = True
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
        if interrupted and recorder is not None:
            recorder.record_failure(
                "sigterm",
                detail="service terminated by signal mid-stream",
            )
            bundle = recorder.auto_dump("sigterm")
            if bundle is not None:
                print(f"postmortem bundle written to {bundle}")
        health = service.shutdown()
        if health is not None:
            print()
            print(render_health(health))
        if recorder is not None and recorder.dumped_paths:
            print(f"\n{len(recorder.dumped_paths)} postmortem bundle(s): "
                  + ", ".join(str(path) for path in recorder.dumped_paths))
    stats = service.stats()
    print(f"\n{handled} requests handled "
          f"(cache hits {stats['cache']['hits']}, "
          f"coalesced {int(stats['counters'].get('serve.coalesced', 0))}, "
          f"modeled {stats['executed_modeled_seconds'] * 1e3:.3f} ms executed)")
    if args.timeline and len(service.log):
        print()
        print(render_serve_lanes(service.log.snapshot()))
    return 0
