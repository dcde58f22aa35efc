"""The paper's reported numbers, as structured data.

A single authoritative place for every quantitative statement the paper
makes.  The claims registry (:mod:`repro.bench.claims`) takes the paper
values it checks or prints from :func:`lookup`, so a reader can grep
where each number is used.  Values are transcribed from the paper text
verbatim; see ``EXPERIMENTS.md`` for the comparison against this
reproduction's measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PaperNumber",
    "PAPER_NUMBERS",
    "DEFAULT_PARAMETERS",
    "DEFAULT_SYNTHETIC",
    "REAL_WORLD_DATASETS",
    "HARDWARE",
    "lookup",
]


@dataclass(frozen=True, slots=True)
class PaperNumber:
    """One reported value with its provenance."""

    key: str
    value: float | tuple
    unit: str
    source: str
    quote: str  #: the sentence (abridged) the value comes from


#: Section 5, "Algorithm parameters".
DEFAULT_PARAMETERS = {
    "k": 10, "l": 5, "A": 100, "B": 10, "minDev": 0.7, "itrPat": 5,
}

#: Section 5, "Synthetic data".
DEFAULT_SYNTHETIC = {
    "n": 64_000, "d": 15, "clusters": 10, "subspace_dims": 5,
    "std": 5.0, "value_range": (0, 100),
}

#: Section 5, "Real-world data": name -> (n, d).
REAL_WORLD_DATASETS = {
    "glass": (214, 9),
    "vowel": (990, 10),
    "pendigits": (7_494, 16),
    "sky-1x1": (30_390, 17),
    "sky-2x2": (133_095, 17),
    "sky-5x5": (934_073, 17),
}

#: Section 5, first paragraph.
HARDWARE = {
    "small": ("Intel Core i7-9750H 2.6GHz", "GeForce GTX 1660 Ti 6GB", "16GB RAM"),
    "large": ("Intel Core i9-10940X 3.3GHz", "GeForce RTX 3090 24GB", "258GB RAM"),
}

PAPER_NUMBERS: tuple[PaperNumber, ...] = (
    PaperNumber(
        "overall-speedup", 1000.0, "x", "Abstract",
        "we obtain 3 orders of magnitude speedup compared to PROCLUS",
    ),
    PaperNumber(
        "gpu-parallelization-speedup", 2000.0, "x", "Sec. 5.1",
        "the GPU-parallelization of each strategy provides an additional 2,000x speedup",
    ),
    PaperNumber(
        "algorithmic-speedup-band", (1.2, 1.4), "x", "Sec. 5.1 / Fig. 1",
        "the algorithmic strategies provide a factor of 1.2 to 1.4x speedup",
    ),
    PaperNumber(
        "fast-star-slowdown-band", (1.05, 1.1), "x", "Sec. 5.1 / Fig. 1",
        "for FAST* compared to FAST, we see approximately 1.05 to 1.1x slowdown",
    ),
    PaperNumber(
        "multicore-speedup", 6.0, "x", "Sec. 5.1",
        "the multi-core CPU-version provides up to 6x speedup",
    ),
    PaperNumber(
        "real-time-budget", 0.1, "s", "Sec. 1 / 5.1",
        "executing data analysis within 100ms ... for even 1,000,000 data points",
    ),
    PaperNumber(
        "dim-speedup-band", (896.0, 1265.0), "x", "Sec. 5.1 / Fig. 2c-2d",
        "the factor of speedup is higher for a lower number of dimensions, "
        "ranging from 896 to 1,265x",
    ),
    PaperNumber(
        "param-sweep-speedup", 1100.0, "x", "Sec. 5.2",
        "the factor of speedup remains relatively constant at around 1100x",
    ),
    PaperNumber(
        "multiparam-speedup", 7000.0, "x", "Sec. 5.3 / Fig. 3",
        "GPU-FAST-PROCLUS provides up to around 7000x speedup w.r.t PROCLUS",
    ),
    PaperNumber(
        "multiparam-level-speedups", (1.4, 1.6, 2.3), "x", "Sec. 5.3",
        "reuse of partial computations ~1.4x, also greedy picking ~1.6x, "
        "also previous best medoids ~2.3x",
    ),
    PaperNumber(
        "multiparam-max-points", 8_000_000, "points", "Sec. 5.3 / Fig. 3e",
        "run on more than 8,000,000 points ... average execution time never "
        "exceeds a second",
    ),
    PaperNumber(
        "oom-free-memory", 4.2, "GB", "Sec. 5.3",
        "space becomes the limiting factor, exceeding the 4.2 GB of free "
        "memory on our relatively small GPU",
    ),
    PaperNumber(
        "evaluate-occupancy-4m", (100.00, 99.99, 86.54), "%", "Sec. 5.4",
        "theoretical occupancy of 100.00%, achieved occupancy of 99.99%, "
        "and memory throughput of 86.54% at 4,096,000 points",
    ),
    PaperNumber(
        "evaluate-occupancy-8k", (78.12, 77.98, 50.06), "%", "Sec. 5.4",
        "reducing the dataset size to 8,000 points reduces the utilization",
    ),
    PaperNumber(
        "delta-kernel-occupancy", (50.00, 3.12, 1.64), "%", "Sec. 5.4",
        "this kernel has a theoretical occupancy of 50.00%, achieved "
        "occupancy of 3.12%, and memory throughput of 1.64%",
    ),
    PaperNumber(
        "sky5x5-speedup", 5490.0, "x", "Sec. 5.5 / Fig. 3g",
        "GPU-FAST-PROCLUS achieves 5490x speedup compared to PROCLUS on the "
        "sky 5x5 dataset",
    ),
    PaperNumber(
        "fast-star-space-ratio", 0.5, "ratio", "Sec. 5.1 / Fig. 3f",
        "the space usage of GPU-FAST*-PROCLUS is approximately half of that "
        "of GPU-FAST-PROCLUS",
    ),
)

_INDEX = {number.key: number for number in PAPER_NUMBERS}


def lookup(key: str) -> PaperNumber:
    """Fetch a reported number by key; raises ``KeyError`` with the
    available keys when unknown."""
    try:
        return _INDEX[key]
    except KeyError:
        raise KeyError(
            f"unknown paper number {key!r}; available: {sorted(_INDEX)}"
        ) from None
