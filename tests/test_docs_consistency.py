"""Meta-tests keeping the documentation honest.

Docs that reference modules, backends, experiments, or examples drift
silently; these tests pin the cross-references so a rename or an added
experiment fails loudly until the docs follow.
"""

from __future__ import annotations

import importlib
import itertools
import re
from pathlib import Path

import pytest

from repro import BACKENDS
from repro.bench.runner import ALL_EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


DOC_FILES = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


class TestReadme:
    def test_mentions_every_deliverable_file(self):
        text = read("README.md")
        for name in ("DESIGN.md", "EXPERIMENTS.md"):
            assert name in text

    def test_backend_table_covers_registry(self):
        text = read("README.md")
        for backend in BACKENDS:
            base = backend.replace("-star", "")  # rendered as \* variants
            assert base.split("-")[0] in text

    def test_every_example_listed(self):
        text = read("README.md")
        for script in sorted((ROOT / "examples").glob("*.py")):
            assert script.name in text, f"{script.name} missing from README"


class TestDesignDoc:
    def test_every_benchmark_file_in_index(self):
        text = read("DESIGN.md")
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            if bench.stem == "bench_paper_claims":
                continue  # the claims registry is documented separately
            assert bench.name in text, f"{bench.name} missing from DESIGN.md"

    def test_substitution_table_present(self):
        text = read("DESIGN.md")
        assert "Substitutions" in text
        assert "GTX 1660 Ti" in text

    def test_layout_block_lists_every_module(self):
        """The "Repository layout" block names each ``src/repro``
        module under its package (package ``__init__.py`` aside)."""
        block = read("DESIGN.md").split("## Repository layout", 1)[1]
        lines = block.split("```")[1].split("src/repro/\n", 1)[1]
        listed, top, sub, sub_col = set(), "", "", 0
        for line in itertools.takewhile(
            lambda line: line.startswith(" "), lines.splitlines()
        ):
            col = len(line) - len(line.lstrip())
            if col == 2 and line.split()[0].endswith("/"):
                top, sub = line.split()[0], ""
            elif sub and col <= sub_col:
                sub = ""
            for word in line.split():
                if word.endswith("/") and word != top:
                    sub, sub_col = word, line.index(word)
                elif word.endswith(".py"):
                    listed.add(top + sub + word)
        src = ROOT / "src" / "repro"
        modules = {
            path.relative_to(src).as_posix()
            for path in src.rglob("*.py")
            if path.name != "__init__.py" or path.parent == src
        }
        assert listed == modules


class TestExperimentsDoc:
    def test_every_experiment_discussed(self):
        text = read("EXPERIMENTS.md")
        for exp_id in ALL_EXPERIMENTS:
            token = exp_id.replace("fig", "Fig").replace("sec", "Section ")
            assert (exp_id in text) or (token.split("_")[0] in text), exp_id

    def test_deviations_are_documented(self):
        text = read("EXPERIMENTS.md")
        assert "Deviation" in text  # honest reporting, not just wins


class TestCliConsistency:
    def test_every_experiment_has_a_benchmark_file(self):
        stems = {p.stem for p in (ROOT / "benchmarks").glob("bench_*.py")}
        for exp_id in ALL_EXPERIMENTS:
            assert any(exp_id.replace("fig", "fig") in s for s in stems), exp_id


class TestDocsDirectory:
    @pytest.mark.parametrize(
        "doc", ["algorithm.md", "architecture.md", "performance_model.md",
                "usage.md", "reproducing.md", "faq.md", "observability.md",
                "robustness.md", "serving.md", "fleet.md"]
    )
    def test_docs_exist_and_nonempty(self, doc):
        path = ROOT / "docs" / doc
        assert path.exists()
        assert len(path.read_text()) > 500

    def test_referenced_modules_exist(self):
        """Every `repro/...py` path mentioned in docs/ must exist."""
        pattern = re.compile(r"`(repro/[A-Za-z0-9_/]+\.py)`")
        for doc in (ROOT / "docs").glob("*.md"):
            for match in pattern.findall(doc.read_text()):
                assert (ROOT / "src" / match).exists(), f"{doc.name}: {match}"

    def test_usage_examples_reference_real_symbols(self):
        import repro

        text = read("docs/usage.md")
        for symbol in ("proclus", "run_parameter_study", "assign_new_points",
                       "ParameterGrid", "ReuseLevel"):
            assert symbol in text
            assert hasattr(repro, symbol)

    def test_dotted_names_resolve(self):
        """Every backticked `repro.x.y` in the docs is a module or attribute.

        Schema ids such as `repro.health/1` are names, not code, and are
        skipped by the ``/`` lookahead.
        """
        pattern = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?![\w/])")
        stale = [f"{doc.name}: {name}" for doc in DOC_FILES
                 for name in sorted(set(pattern.findall(doc.read_text())))
                 if not _resolves(name)]
        assert not stale, stale

    def test_python_fence_imports_resolve(self):
        """Every name a ``from repro... import`` statement in a python fence
        imports exists.  Statements are scanned one by one rather than
        parsing whole blocks, which may hold placeholders like
        ``<measured>``."""
        fence = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
        statement = re.compile(
            r"^\s*from\s+(repro[\w.]*)\s+import\s+(\([^)]*\)|[^\n]*)", re.M)
        stale = []
        for doc in DOC_FILES:
            for block in fence.findall(doc.read_text()):
                for module, names in statement.findall(block):
                    names = re.sub(r"#[^\n]*", "", names).strip().strip("()")
                    for name in names.split(","):
                        name = name.split(" as ")[0].strip()
                        if name and not _resolves(f"{module}.{name}"):
                            stale.append(f"{doc.name}: {module}.{name}")
        assert not stale, stale

    def test_readme_examples_exist(self):
        names = set(re.findall(r"examples/(\w+\.py)", read("README.md")))
        missing = sorted(n for n in names
                         if not (ROOT / "examples" / n).exists())
        assert not missing, missing


class TestServingDoc:
    def test_cli_subcommands_documented(self):
        text = read("docs/serving.md")
        for subcommand in ("serve", "submit", "loadgen"):
            assert f"repro {subcommand}" in text

    def test_schemas_match_the_code(self):
        from repro.serve.loadgen import SERVE_BENCH_SCHEMA
        from repro.serve.spool import REQUEST_SCHEMA, RESPONSE_SCHEMA

        text = read("docs/serving.md")
        for schema in (SERVE_BENCH_SCHEMA, REQUEST_SCHEMA, RESPONSE_SCHEMA):
            assert schema.split("/")[0] in text

    def test_usage_and_architecture_point_here(self):
        assert "serving.md" in read("docs/usage.md")
        assert "serving.md" in read("docs/architecture.md")
        assert "ClusterService" in read("docs/usage.md")


class TestFleetDoc:
    def test_every_fleet_backend_documented(self):
        text = read("docs/fleet.md")
        for backend in BACKENDS:
            if backend.startswith("fleet-"):
                assert backend in text, backend

    def test_cli_surfaces_documented(self):
        text = read("docs/fleet.md")
        for surface in ("repro fleet", "repro bench fleet",
                        "BENCH_fleet.json", "--check"):
            assert surface in text, surface

    def test_interconnect_model_documented(self):
        from repro.fleet import allreduce_seconds, broadcast_seconds

        text = read("docs/fleet.md")
        assert "all-reduce" in text and "broadcast" in text
        assert "interconnect_bandwidth_bytes_per_s" in text
        assert "interconnect_latency_s" in text
        assert allreduce_seconds is not None and broadcast_seconds is not None

    def test_determinism_contract_section_present(self):
        text = read("docs/fleet.md")
        assert "Determinism contract" in text
        # The honest caveat: evaluation math is never re-derived from
        # per-shard partial sums.
        assert "evaluate_clusters" in text

    def test_entry_points_exist(self):
        import repro.fleet as fleet

        for symbol in ("Fleet", "default_fleet", "mixed_fleet",
                       "fleet_report", "run_fleet_bench"):
            assert hasattr(fleet, symbol), symbol

    def test_readme_architecture_and_usage_point_here(self):
        assert "fleet" in read("README.md")
        assert "fleet.md" in read("docs/architecture.md")
        assert "fleet.md" in read("docs/usage.md")

    def test_ci_runs_the_fleet_smoke(self):
        text = read(".github/workflows/ci.yml")
        assert "repro bench fleet" in text
        assert "BENCH_fleet.json" in text


class TestFleetRecoveryDoc:
    def test_robustness_doc_covers_fleet_recovery(self):
        text = read("docs/robustness.md")
        assert "## Fleet recovery" in text
        assert "device-down" in text
        assert "DeviceLostError" in text
        assert "reshard" in text
        assert "recovery_s" in text

    def test_fleet_doc_covers_device_loss_and_quarantine(self):
        text = read("docs/fleet.md")
        assert "## Device loss & quarantine" in text
        for surface in ("quarantine_device", "readmit_device",
                        "fleet-availability", "fleet-mttr",
                        "repro chaos --fleet", "--devices"):
            assert surface in text, surface

    def test_entry_points_exist(self):
        import repro.fleet as fleet

        for symbol in ("RecoveryPlan", "plan_recovery",
                       "degraded_fleet", "active_devices",
                       "dead_device_indices"):
            assert hasattr(fleet, symbol), symbol

    def test_fault_table_lists_every_kind(self):
        from repro.resilience import FAULT_KINDS

        text = read("docs/robustness.md")
        for kind in FAULT_KINDS:
            assert f"`{kind}`" in text, kind

    def test_observability_doc_names_the_fleet_slos(self):
        text = read("docs/observability.md")
        assert "fleet-mttr" in text
        assert "fleet-availability" in text
        assert "record_recovery" in text

    def test_ci_runs_the_fleet_chaos_sweep(self):
        text = read(".github/workflows/ci.yml")
        assert "chaos --fleet" in text
        assert "fleet_chaos_events.json" in text


class TestMonitoringDoc:
    def test_cli_surfaces_documented(self):
        text = read("docs/observability.md") + read("docs/usage.md")
        for surface in ("repro monitor", "repro regress",
                        "repro bench quick", "--save-baseline",
                        "--monitor-dir"):
            assert surface in text, surface

    def test_schemas_match_the_code(self):
        from repro.bench.baseline import BASELINE_SCHEMA, BENCH_QUICK_SCHEMA
        from repro.bench.regress import REGRESS_SCHEMA
        from repro.obs.monitor import HEALTH_SCHEMA

        text = read("docs/observability.md")
        for schema in (BASELINE_SCHEMA, BENCH_QUICK_SCHEMA,
                       REGRESS_SCHEMA, HEALTH_SCHEMA):
            assert schema in text, schema

    def test_default_slos_documented_by_name(self):
        from repro.obs import SLOS

        text = read("docs/observability.md")
        for objective in SLOS:
            assert objective.name in text, objective.name

    def test_baseline_store_location_matches_the_code(self):
        from repro.bench.baseline import DEFAULT_BASELINE_DIR

        assert DEFAULT_BASELINE_DIR in read("docs/observability.md")
        assert DEFAULT_BASELINE_DIR in read("README.md")
        assert (ROOT / DEFAULT_BASELINE_DIR).is_dir()

    def test_injection_choices_documented(self):
        from repro.cli.regress import REGRESS_INJECTIONS

        text = read("docs/observability.md") + read("docs/usage.md")
        for name in REGRESS_INJECTIONS:
            assert name in text, name

    def test_readme_health_snippet_matches_renderer(self):
        # The README shows a `repro monitor --once` transcript; keep its
        # header line in sync with the actual renderer.
        assert "service health @" in read("README.md")
        from repro.viz import render_health

        assert render_health is not None

    def test_ci_runs_the_gate_and_the_health_check(self):
        text = read(".github/workflows/ci.yml")
        assert "repro regress" in text
        assert "repro monitor" in text
        assert "--monitor-dir" in text


class TestExplainDoc:
    """docs stay honest about the attribution & triage layer."""

    def test_schema_and_components_documented(self):
        from repro.obs.explain import EXPLAIN_SCHEMA
        from repro.obs.explain.attribution import COMPONENTS

        text = read("docs/observability.md")
        assert EXPLAIN_SCHEMA in text
        for component in COMPONENTS:
            assert f"`{component}`" in text or component in text, component

    def test_attribution_section_present(self):
        text = read("docs/observability.md")
        assert "Attribution & triage" in text
        for topic in ("fusion headroom", "dist-cache savings", "occupancy",
                      "conservation", "repro explain", "--diff",
                      "--flamegraph", "--speedscope", "speedscope"):
            assert topic in text, topic

    def test_fleet_doc_covers_straggler_analysis(self):
        text = read("docs/fleet.md")
        for topic in ("straggler index", "imbalance", "comm fraction",
                      "busy", "sync", "idle", "repro explain",
                      "repro monitor --fleet"):
            assert topic in text, topic

    def test_usage_and_readme_show_explain(self):
        usage = read("docs/usage.md")
        readme = read("README.md")
        for text in (usage, readme):
            assert "repro explain" in text
        assert "--diff" in usage
        assert "--workload gpu-fast-n8k" in usage
        assert "cache.dist_rows_hit" in readme
        assert "repro.explain/1" in readme

    def test_diffable_workload_examples_exist(self):
        # The documented diff example must reference a real committed
        # baseline file and a real quick-tier workload name.
        from repro.bench.baseline import DEFAULT_BASELINE_DIR, QUICK_TIER

        usage = read("docs/usage.md")
        names = {workload.name for workload in QUICK_TIER}
        documented = set(re.findall(r"--workload (\S+)", usage))
        assert documented and documented <= names
        for name in documented:
            assert (ROOT / DEFAULT_BASELINE_DIR / f"{name}.json").is_file()

    def test_ci_runs_the_explain_smoke_and_triage_control(self):
        text = read(".github/workflows/ci.yml")
        assert "explain-smoke" in text
        assert "repro explain" in text
        assert "--flamegraph" in text
        assert "validate_explain_report" in text
        assert "--inject no-dist-cache" in text
        assert "cache.dist_rows" in text
        # The diff step must target a committed baseline.
        assert "benchmarks/baselines/gpu-fast-n8k.json" in text


class TestPostmortemDoc:
    """docs stay honest about the flight recorder & postmortem layer."""

    def test_schemas_match_the_code(self):
        from repro.obs import POSTMORTEM_REPORT_SCHEMA, POSTMORTEM_SCHEMA

        text = read("docs/observability.md")
        assert POSTMORTEM_SCHEMA in text
        assert POSTMORTEM_REPORT_SCHEMA in text
        assert POSTMORTEM_SCHEMA in read("README.md")

    def test_every_recorder_stream_documented(self):
        from repro.obs import RECORDER_STREAMS

        text = read("docs/observability.md")
        for stream in RECORDER_STREAMS:
            assert f"`{stream}`" in text, stream

    def test_cli_surfaces_documented(self):
        text = read("docs/observability.md") + read("docs/usage.md")
        for surface in ("repro postmortem", "--replay", "--record-dir",
                        "--postmortem-dir", "--fault", "--no-degrade",
                        "--max-reshards", "REPRO_FLIGHT_RECORDER"):
            assert surface in text, surface

    def test_replay_contract_documented(self):
        from repro.obs.postmortem import WALL_CLOCK_EVENT_FIELDS

        text = read("docs/observability.md")
        assert "from the bundle alone" in text
        for field in WALL_CLOCK_EVENT_FIELDS:
            assert field in text, field

    def test_readme_shows_the_postmortem_loop(self):
        text = read("README.md")
        assert "repro postmortem" in text
        assert "--replay" in text
        assert "REPRO_FLIGHT_RECORDER" in text

    def test_rotation_and_escaping_documented(self):
        text = read("docs/observability.md")
        assert "MAX_LOG_BYTES" in text
        assert "LOG_SEGMENTS" in text
        assert "escape_label_value" in text
        assert "parse_labels" in text

    def test_ci_runs_the_postmortem_smoke(self):
        text = read(".github/workflows/ci.yml")
        assert "postmortem-smoke" in text
        assert "repro postmortem" in text
        assert "--replay" in text
        assert "device-down@dev1" in text
        assert "REPRO_FLIGHT_RECORDER" in text
