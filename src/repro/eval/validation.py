"""Cross-variant validation report.

Runs every registered backend on a common workload with a common seed
and checks the paper's correctness premise — identical clusterings —
programmatically, with :func:`~repro.result.bit_identical`: labels,
medoids, subspaces, both costs and the iteration trajectory.  Exposed
through ``python -m repro validate`` so a user can re-establish the
invariant on their own machine in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.api import BACKENDS, proclus
from ..data.normalize import minmax_normalize
from ..data.synthetic import generate_subspace_data
from ..params import ProclusParams
from ..result import bit_identical

__all__ = ["ValidationReport", "validate_equivalence"]


@dataclass(slots=True)
class ValidationReport:
    """Outcome of one cross-variant equivalence check."""

    n: int
    d: int
    seeds: tuple[int, ...]
    backends: tuple[str, ...]
    #: (backend, seed) pairs that diverged from the baseline (empty = pass).
    failures: list[tuple[str, int]] = field(default_factory=list)
    runs: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"cross-variant equivalence: {len(self.backends)} backends x "
            f"{len(self.seeds)} seeds on n={self.n}, d={self.d} "
            f"({self.runs} runs)",
        ]
        if self.passed:
            lines.append("PASS — all clusterings bitwise identical")
        else:
            lines.append(f"FAIL — {len(self.failures)} divergent runs:")
            for backend, seed in self.failures:
                lines.append(f"  {backend} at seed {seed}")
        return "\n".join(lines)


def validate_equivalence(
    n: int = 2_000,
    d: int = 10,
    seeds: tuple[int, ...] = (0, 1, 2),
    params: ProclusParams | None = None,
    backends: tuple[str, ...] | None = None,
) -> ValidationReport:
    """Check that every backend reproduces the baseline bit for bit."""
    if params is None:
        params = ProclusParams(k=5, l=4, a=30, b=5)
    names = tuple(backends) if backends is not None else tuple(sorted(BACKENDS))
    dataset = generate_subspace_data(
        n=n, d=d, n_clusters=params.k, subspace_dims=min(4, d), seed=7
    )
    data = minmax_normalize(dataset.data)
    report = ValidationReport(n=n, d=d, seeds=tuple(seeds), backends=names)
    for seed in seeds:
        baseline = proclus(data, backend="proclus", params=params, seed=seed)
        report.runs += 1
        for name in names:
            if name == "proclus":
                continue
            result = proclus(data, backend=name, params=params, seed=seed)
            report.runs += 1
            if not bit_identical(result, baseline):
                report.failures.append((name, seed))
    return report
