"""The experiment registry (:mod:`.benchruns`, runners in
:mod:`.experiments`), table rendering, and the benchmark-record
pipeline."""

from .benchgate import (
    GateConfig,
    GateReport,
    GateTolerance,
    Verdict,
    bootstrap_median_ratio_ci,
    compare_dirs,
    compare_records,
    is_wallclock_column,
    mannwhitney_u,
    render_report,
)
from .benchjson import (
    BENCH_SCHEMA,
    BENCH_SUMMARY_SCHEMA,
    bench_record,
    environment_fingerprint,
    list_bench_json,
    load_bench_json,
    validate_bench_record,
    write_bench_json,
    write_bench_summary,
)
from .benchruns import (
    BENCH_RUNS,
    BenchSpec,
    FAST_GATE_IDS,
    resolve_specs,
    run_benches,
    run_spec,
)
from .experiments import Row, fit_exponent
from .report import generate_report, write_report
from .tracetables import (
    trace_cost_breakdown,
    trace_phase_table,
)
from .tables import print_table, render_table

__all__ = [
    "BENCH_RUNS",
    "BENCH_SCHEMA",
    "BENCH_SUMMARY_SCHEMA",
    "BenchSpec",
    "FAST_GATE_IDS",
    "GateConfig",
    "GateReport",
    "GateTolerance",
    "Row",
    "Verdict",
    "bench_record",
    "bootstrap_median_ratio_ci",
    "compare_dirs",
    "compare_records",
    "environment_fingerprint",
    "is_wallclock_column",
    "list_bench_json",
    "load_bench_json",
    "mannwhitney_u",
    "render_report",
    "resolve_specs",
    "run_benches",
    "run_spec",
    "validate_bench_record",
    "write_bench_json",
    "write_bench_summary",
    "fit_exponent",
    "render_table",
    "print_table",
    "generate_report",
    "write_report",
    "trace_cost_breakdown",
    "trace_phase_table",
]
