"""``repro chaos``: fault-injection sweep over (backend, scenario) rows.

A solo scenario is a fault class (or the custom ``--fault`` schedule).
With ``--fleet``, a scenario is ``down-dev{i}@{stage}``: fleet member
``i`` is killed at that stage.  Contract per row: the injected fault
fired and the run completed bit-identical to the fault-free solo
reference, degrading only along the documented ladder; a device loss
must also be recovered, by re-sharding within the fleet or degrading.
Exit 1 on any violation.
"""

from __future__ import annotations

import argparse

from ..core.api import BACKENDS
from ._common import (
    add_run_arguments,
    fault_injector,
    flight_recorder,
    load_data,
    params_from,
    retry_policy,
    write_json,
)

#: Fault class -> default chaos schedule (fires early in every run).
CHAOS_FAULTS: dict[str, tuple[str, ...]] = {
    "oom": ("oom#1",),
    "launch": ("launch#2",),
    "transient": ("transient#2",),
    "corrupt": ("corrupt#1",),
    "timeout": ("timeout#2",),
}

#: Fleet chaos stages: kill each member early (during the data upload)
#: and mid-run (inside the iterative phase).
FLEET_CHAOS_AT = {"upload": 1, "iterate": 8}


def init_subparser(subparsers) -> None:
    parser = subparsers.add_parser(
        "chaos",
        help="fault-injection sweep: each fault class x each GPU backend",
    )
    add_run_arguments(parser)
    parser.add_argument(
        "--backends", nargs="+", metavar="NAME",
        choices=sorted(
            b for b in BACKENDS if b.startswith(("gpu", "fleet-"))
        ),
        default=["gpu", "gpu-fast", "gpu-fast-star"],
        help="GPU backends to sweep (default: gpu gpu-fast gpu-fast-star)",
    )
    parser.add_argument(
        "--fault", action="append", metavar="SPEC",
        help="custom fault spec 'kind[@site][#at[+count|+*]][?prob]' "
             "(repeatable; replaces the default per-class sweep)",
    )
    parser.add_argument(
        "--fleet", action="store_true",
        help="device-loss sweep instead: kill each fleet member at each "
             "stage and require the bit-identical solo clustering after "
             "re-sharding (fleet-* backends only)",
    )
    parser.add_argument(
        "--devices", type=int, default=3,
        help="fleet size for --fleet (default 3)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=3,
        help="transient-error retries per ladder rung (default 3)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the structured event log as JSON ('-' = stdout)",
    )
    parser.add_argument(
        "--record-dir", metavar="DIR",
        help="run under a flight recorder; dump a postmortem bundle "
             "there on any contract violation or terminal failure",
    )
    parser.set_defaults(run=run, n=4000, d=12, clusters=5, k=6, l=4)


def _sweep(args: argparse.Namespace):
    """The sweep's backends and its {scenario: fault schedule} table."""
    if not args.fleet:
        return args.backends, (
            {"custom": tuple(args.fault)} if args.fault else CHAOS_FAULTS
        )
    backends = [
        backend for backend in args.backends if backend.startswith("fleet-")
    ] or ["fleet-gpu-fast", "fleet-gpu"]
    return backends, {
        f"down-dev{device}@{stage}": (f"device-down@dev{device}#{at}",)
        for device in range(args.devices)
        for stage, at in FLEET_CHAOS_AT.items()
    }


def run(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from ..core.api import proclus
    from ..exceptions import ReproError
    from ..obs import current_run, report_envelope, use_run
    from ..obs.postmortem import result_digest
    from ..resilience import ResilientRunner
    from ..result import bit_identical

    fleet = args.fleet
    data, _ = load_data(args)
    params = params_from(args)
    policy = retry_policy(args)
    runner = ResilientRunner(policy)
    recorder = flight_recorder(args.record_dir)
    if recorder is None:
        recorder = current_run().recorder  # e.g. $REPRO_FLIGHT_RECORDER
    backends, scenarios = _sweep(args)
    engine_kwargs = {"fleet": args.devices} if fleet else None
    key = "scenario" if fleet else "fault_class"
    # Column widths: backend, scenario, final rung.
    wb, ws, wr = (16, 22, 30) if fleet else (14, 10, 26)

    if fleet:
        print(f"fleet chaos sweep: {len(backends)} backend(s) x "
              f"{args.devices} device(s) x {len(FLEET_CHAOS_AT)} stage(s), "
              f"n={data.shape[0]}, k={params.k}, l={params.l}")
    else:
        print(f"chaos sweep: {len(backends)} backend(s) x "
              f"{len(scenarios)} fault class(es), n={data.shape[0]}, "
              f"k={params.k}, l={params.l}")
    print(f"{'backend':<{wb}} {'scenario' if fleet else 'fault':<{ws}} "
          f"{'fired':>5} {'attempts':>8} {'final rung':<{wr}} "
          f"{'identical':<9} ok")
    rows: list[dict] = []
    for backend in backends:
        reference = proclus(
            data, backend=backend.removeprefix("fleet-"), params=params,
            seed=args.seed,
        )
        rungs = [step.describe() for step in policy.ladder_for(backend)]
        for scenario, schedule in scenarios.items():
            injector = fault_injector(schedule, args.seed)
            row = {"backend": backend, key: scenario, "schedule": list(schedule)}
            if fleet:
                row["devices"] = args.devices
            rows.append(row)
            try:
                with use_run(injector=injector, recorder=recorder):
                    outcome = runner.fit(
                        data, backend=backend, params=params, seed=args.seed,
                        engine_kwargs=engine_kwargs,
                    )
            except ReproError as error:
                fired = len(injector.injected)
                row.update(error=f"{type(error).__name__}: {error}",
                           ok=False, fired=fired)
                print(f"{backend:<{wb}} {scenario:<{ws}} {fired:>5} "
                      f"{'-':>8} {'-':<{wr}} {'-':<9} "
                      f"FAIL ({type(error).__name__})")
                continue
            fired = len(injector.injected)
            identical = bit_identical(outcome.result, reference)
            resharded = any(event.kind == "reshard" for event in outcome.events)
            along_ladder = outcome.rung in rungs and all(
                event.to_rung in rungs
                for event in outcome.events
                if event.kind == "degrade"
            )
            if fleet:
                recovered = resharded or (outcome.degraded and along_ladder)
                verdict = {"resharded": resharded, "identical": identical}
            else:
                recovered = along_ladder
                verdict = {"identical": identical, "along_ladder": along_ladder}
            ok = identical and recovered and fired > 0
            if not ok and recorder is not None:
                # Chaos-contract violation: the run completed but broke
                # the contract; pin the fault-free reference digest so a
                # replay can check the solo bits from the bundle alone.
                recorder.set_reference_digest(result_digest(reference))
                recorder.record_failure(
                    "chaos-contract",
                    events=outcome.events,
                    detail=(
                        f"{backend} x {scenario}: identical={identical}, "
                        f"along_ladder={along_ladder}, fired={fired}"
                    ),
                )
                recorder.auto_dump("chaos-contract")
            row.update(
                fired=fired,
                attempts=outcome.attempts,
                rung=outcome.rung,
                degraded=outcome.degraded,
                **verdict,
                ok=ok,
                injected=[asdict(record) for record in injector.injected],
                events=[event.as_dict() for event in outcome.events],
            )
            final = next(
                (event.to_rung for event in reversed(outcome.events)
                 if event.kind in ("reshard", "degrade")),
                outcome.rung,
            )
            print(f"{backend:<{wb}} {scenario:<{ws}} {fired:>5} "
                  f"{outcome.attempts:>8} {final:<{wr}} "
                  f"{str(identical).lower():<9} "
                  f"{'ok' if ok else 'VIOLATION'}")

    failures = [row for row in rows if not row["ok"]]
    print()
    if failures and fleet:
        print(f"{len(failures)}/{len(rows)} device-loss runs violated the "
              f"bit-identical-after-recovery contract")
    elif failures:
        print(f"{len(failures)}/{len(rows)} runs violated the "
              f"completes-identical-or-degrades-along-ladder contract")
    elif fleet:
        print(f"all {len(rows)} device-loss runs recovered with the "
              f"solo clustering (re-sharding within the fleet or "
              f"degrading along the ladder)")
    else:
        print(f"all {len(rows)} injected runs completed with the "
              f"fault-free clustering (degrading along the ladder "
              f"where needed)")
    if args.json:
        payload = {
            **report_envelope("repro.chaos/1"),
            **({"mode": "fleet"} if fleet else {}),
            "n": int(data.shape[0]),
            "d": int(data.shape[1]),
            "k": params.k,
            "l": params.l,
            "seed": args.seed,
            **({"devices": args.devices} if fleet else {}),
            "max_retries": args.max_retries,
            "ok": not failures,
            "rows": rows,
        }
        write_json(payload, args.json, "event log")
    return 1 if failures else 0
