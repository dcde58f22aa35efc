"""Performance attribution & regression triage (``repro explain``).

The explain layer turns the substrate's cost ledger
(:class:`~repro.hardware.cost_model.CostEvent`) into actionable
*attribution*: which kernel, pipeline, and cost component the modeled
seconds belong to, where the launch-overhead (fusion) headroom is, what
the Dist cache saved, how occupied the device was — plus differential
attribution between two runs (the ``repro regress`` triage section) and
fleet straggler/imbalance analysis.

All internal arithmetic is exact: the ledger holds integer amounts of
``2**-1074`` s, which the attribution sums as integers and turns into a
:class:`fractions.Fraction` once per table bucket.  So the attribution
*conserves*: summing any regrouping of the ledger reproduces the run's
modeled seconds bit for bit.
"""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "attribution": (
        "KernelAttribution",
        "RunAttribution",
        "attribute_run",
        "attribution_record",
    ),
    "diff": (
        "diff_attribution",
        "diff_counters",
        "load_comparable",
        "summarize_attribution",
        "triage_record",
        "triage_lines",
    ),
    "fleetattr": ("fleet_attribution",),
    "flamegraph": ("collapsed_stacks", "format_collapsed", "speedscope_profile"),
    "report": ("EXPLAIN_SCHEMA", "explain_report", "validate_explain_report"),
})
