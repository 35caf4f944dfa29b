"""One-command reproduction report.

``python -m repro report`` reruns every experiment of the registry
(:mod:`repro.analysis.benchruns`) with the current library and writes one
self-contained markdown file — each table with its claim's verdict, the
artefact a reviewer can diff against the committed EXPERIMENTS.md to
check the claims still hold on their machine.  ``--fast`` shrinks the
sweeps to finish in seconds and leaves the claims unjudged.
"""

from __future__ import annotations

import pathlib
import time

from .benchruns import BENCH_RUNS, run_spec


def generate_report(fast: bool = False) -> str:
    """Run every experiment; return the markdown report text."""
    lines = [
        "# Reproduction report",
        "",
        "Generated by `python -m repro report"
        + (" --fast" if fast else "") + "`.",
        "Compare against the committed EXPERIMENTS.md; the *shapes*"
        " (exponents, crossovers, bounds) are the reproduction targets.",
        "",
    ]
    t_total = time.perf_counter()
    for spec in BENCH_RUNS:
        record, text = run_spec(spec, fast=fast)
        title, _, body = text.partition("\n")
        lines += [f"## {title}", "", "```", body, "```",
                  f"_{len(record['rows'])} rows in "
                  f"{record['meta']['runner_seconds']:.1f}s_", ""]
    lines += [f"_Total: {time.perf_counter() - t_total:.1f}s, "
              f"{len(BENCH_RUNS)} experiments._", ""]
    return "\n".join(lines)


def write_report(path: str, fast: bool = False) -> str:
    pathlib.Path(path).write_text(generate_report(fast=fast))
    return path
