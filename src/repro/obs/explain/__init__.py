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

from .attribution import (
    KernelAttribution,
    RunAttribution,
    attribute_run,
    attribution_record,
)
from .diff import (
    diff_attribution,
    diff_counters,
    load_comparable,
    summarize_attribution,
    triage_record,
    triage_lines,
)
from .fleetattr import fleet_attribution
from .flamegraph import collapsed_stacks, format_collapsed, speedscope_profile
from .report import EXPLAIN_SCHEMA, explain_report, validate_explain_report

__all__ = [
    "KernelAttribution",
    "RunAttribution",
    "attribute_run",
    "attribution_record",
    "diff_attribution",
    "diff_counters",
    "load_comparable",
    "summarize_attribution",
    "triage_record",
    "triage_lines",
    "fleet_attribution",
    "collapsed_stacks",
    "format_collapsed",
    "speedscope_profile",
    "EXPLAIN_SCHEMA",
    "explain_report",
    "validate_explain_report",
]
