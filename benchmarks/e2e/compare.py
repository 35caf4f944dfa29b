"""Compare end-to-end benchmark results, one row per workload and metric.

    python3 benchmarks/e2e/compare.py BASE CAND

BASE and CAND are result files written by ``run.py`` or directories of
them, one file per run.  Each row reads ``better``, ``unchanged``,
``worse`` or ``unresolved``, judged against the metric's bound in
BENCHMARK.json:

* the medians of the two sides differ by less than the bound: unchanged;
* the spread (quartile distance over median) of either side is wider than
  the bound: unresolved, unless every CAND run beats every BASE run;
* otherwise better or worse, by the direction of the change.

Of the metrics BENCHMARK.json does not list, the three that read 0 on a
healthy run compare exactly and the ``*_raw_*`` ones are skipped.  When
both sides solved the very same instances, the metrics that depend only on
the instances (``EXACT_METRICS``) must also be identical.  Exits 1 if any
row is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import BENCHMARK_JSON, E2E_METRICS, EXACT_METRICS


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        raise SystemExit(f"compare.py: no result files in {path}")
    if any(r["trace"] for r in runs):
        raise SystemExit(f"compare.py: {path} holds traced runs, which "
                         "carry no end-to-end metrics")
    return runs


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def judge(base: list[float], cand: list[float], bound: float,
          better: str, exact: bool = False) -> str:
    sign = 1 if better == "lower" else -1  # positive loss means worse
    b, c = statistics.median(base), statistics.median(cand)
    if exact:
        if sorted(base) == sorted(cand):
            return "unchanged"
        return "worse" if sign * (c - b) > 0 else "better"
    loss = sign * (c - b) / abs(b) if b else sign * (c - b)
    if max(spread(base), spread(cand)) > bound:
        beats = all(sign * (x - y) < 0 for x in cand for y in base)
        return "better" if beats else "unresolved"
    if loss > bound:
        return "worse"
    if loss < -bound:
        return "better"
    return "unchanged"


def compare(base_runs: list[dict], cand_runs: list[dict]) -> list[tuple]:
    bounds = {m["name"]: m["bound"]
              for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}
    rows = []
    # a run may hold one workload (``--workload``) or all of them
    for wl in dict.fromkeys(wl for r in base_runs for wl in r["workloads"]):
        base = [r["workloads"][wl] for r in base_runs if wl in r["workloads"]]
        cand = [r["workloads"][wl] for r in cand_runs if wl in r["workloads"]]
        if not cand:
            continue
        same_inputs = len({w["instances_sha256"] for w in base + cand}) == 1
        for name, (unit, better) in E2E_METRICS.items():
            if name not in bounds and name not in EXACT_METRICS:
                continue  # raw wall-clock, reported but not gated
            bv = [w["metrics"][name]["value"] for w in base]
            cv = [w["metrics"][name]["value"] for w in cand]
            exact = name not in bounds or (same_inputs
                                           and name in EXACT_METRICS)
            verdict = judge(bv, cv, bounds.get(name, 0.0), better, exact)
            rows.append((wl, name, statistics.median(bv),
                         statistics.median(cv), unit,
                         "exact" if exact else f"{bounds[name]:.0%}",
                         verdict))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("cand", type=Path)
    args = ap.parse_args(argv)
    rows = compare(load_runs(args.base), load_runs(args.cand))
    print(f"{'workload':18} {'metric':20} {'base':>12} {'cand':>12} "
          f"{'unit':10} {'bound':>6}  verdict")
    for wl, name, b, c, unit, bound, verdict in rows:
        print(f"{wl:18} {name:20} {b:12.6g} {c:12.6g} {unit:10} "
              f"{bound:>6}  {verdict}")
    return 1 if any(r[-1] in ("worse", "unresolved") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
