"""One set-up measurement, run in a fresh interpreter by ``run.py``.

    python3 perfbench/probe.py <workload> <seed>

Times importing ``repro``, building what the workload drives and its
warm-up op, minus the benchmark's own input generation, and prints one
JSON line: ``{"setup_s": ..., "calibration_s": ..., "digest": {...}}``.
``calibration_s`` is the median of five calibration loops run right
after set-up.  The digest holds the warm-up's modeled seconds and work
counters, which must equal the parent's for the same seed.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spec  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    repro = spec.import_repro()
    system = spec.System(repro, spec.WORKLOADS[workload], seed)
    setup_s = time.perf_counter() - _STARTED - system.generation_s
    if system.service is not None:
        system.service.shutdown()
    calibration_s = sorted(spec.calibration() for _ in range(5))[2]
    print(json.dumps({
        "setup_s": setup_s,
        "calibration_s": calibration_s,
        "digest": spec.exact_digest(system.warmup),
    }))


if __name__ == "__main__":
    main()
