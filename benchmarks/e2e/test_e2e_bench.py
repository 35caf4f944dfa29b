"""Tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402
from repro import CostAccumulator, solve_sssp_resilient  # noqa: E402
from repro.graph import hidden_potential_graph  # noqa: E402
from repro.runtime import SerialBackend  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME,
    WORKLOADS,
    check_answers,
    check_cycle_verdict,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENGINES = WORKLOADS[-1].engines


def bench(tmp_path: Path, *args: str) -> tuple[dict, str]:
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out),
         *args], capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), proc.stdout


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("quick")
    return {"plain": bench(tmp, "--seed", "0"),
            "plain_again": bench(tmp, "--seed", "0"),
            "other_seed": bench(tmp, "--seed", "1"),
            "traced": bench(tmp, "--seed", "0", "--traced"),
            "traced_again": bench(tmp, "--seed", "0", "--traced")}


def test_benchmark_json_follows_the_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS]
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[k]]
    assert all(name_re.match(n) for n in names)
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert (m["unit"], m["better"]) == run.E2E_METRICS[m["name"]]
    units = run.per_layer_units()
    assert len(units) == 80
    for m in SPEC["per_layer"]:
        assert m["unit"] == units[m["name"]]


def test_quick_run_emits_every_metric_with_its_unit(quick):
    for key, section in (("plain", "end_to_end"), ("traced", "per_layer")):
        doc, stdout = quick[key]
        for wl in SPEC["workloads"]:
            res = doc["workloads"][wl["name"]]
            assert res["failed"] == 0
            for m in SPEC[section]:
                got = res["metrics"][m["name"]]
                assert got["unit"] == m["unit"]
                assert re.search(rf"^{wl['name']} {re.escape(m['name'])} "
                                 rf"\S+ {re.escape(m['unit'])}", stdout,
                                 re.M), (wl["name"], m["name"])
    for res in quick["traced"][0]["workloads"].values():
        assert set(res["metrics"]) == set(run.per_layer_units())
    for res in quick["plain"][0]["workloads"].values():
        assert set(res["metrics"]) == set(run.E2E_METRICS)


def test_same_seed_same_instances_counts_and_model_metrics(quick):
    def exact(doc, suffixes):
        return {(wl, k): m["value"]
                for wl, res in doc["workloads"].items()
                for k, m in res["metrics"].items() if k.endswith(suffixes)}

    plain, again = quick["plain"][0], quick["plain_again"][0]
    assert exact(plain, run.EXACT_METRICS) == exact(again, run.EXACT_METRICS)
    traced, again = quick["traced"][0], quick["traced_again"][0]
    assert exact(traced, (".calls",)) == exact(again, (".calls",))
    digests = {k: {wl: r["instances_sha256"]
                   for wl, r in quick[k][0]["workloads"].items()}
               for k in ("plain", "plain_again", "traced", "other_seed")}
    assert digests["plain"] == digests["plain_again"] == digests["traced"]
    for wl, digest in digests["other_seed"].items():
        assert digest != digests["plain"][wl]


def _attribute_snapshot() -> dict:
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in list(vars(mod).items()):
                snap[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in list(vars(value).items()):
                        snap[(name, attr, cattr)] = cvalue
    return snap


def _lookup(key):
    obj = sys.modules[key[0]]
    for attr in key[1:]:
        obj = vars(obj)[attr]
    return obj


def test_uninstall_restores_every_patched_attribute_by_identity():
    backend = SerialBackend()
    before = _attribute_snapshot()
    tracer = LayerTracer(backend)
    with tracer:
        changed = [k for k, v in before.items() if _lookup(k) is not v]
        assert "map_blocks" in vars(backend)
    assert len(changed) >= len(LAYERS) - 2
    assert all(_lookup(k) is v for k, v in before.items())
    assert "map_blocks" not in vars(backend)


def _solve_all(g, backend, solve=solve_sssp_resilient):
    return [solve(g, 0, engine=e, seed=7, backend=backend) for e in ENGINES]


def test_wrappers_change_neither_distances_nor_costs():
    g = hidden_potential_graph(120, 480, seed=3)
    backend = SerialBackend()
    plain = _solve_all(g, backend)
    tracer = LayerTracer(backend)
    with tracer:
        traced = _solve_all(g, backend, tracer.root(solve_sssp_resilient))
    for a, b in zip(plain, traced):
        assert a.dist.tobytes() == b.dist.tobytes()
        assert a.cost == b.cost
    assert tracer.stats["solve"][0] == len(ENGINES)
    assert tracer.stats["runtime.map_blocks"][0] > 0


def test_self_times_add_up_to_the_solve_time():
    g = hidden_potential_graph(200, 800, potential_spread=16, seed=5)
    tracer = LayerTracer()
    with tracer:
        tracer.root(solve_sssp_resilient)(g, 0, acc=CostAccumulator())
    total_self = sum(st[1] for st in tracer.stats.values())
    solve_incl = tracer.stats["solve"][2]
    assert abs(total_self - solve_incl) <= 0.01 * solve_incl
    assert tracer.stats["graph.DiGraph"][0] > 0


def test_oracles_reject_wrong_answers():
    g = hidden_potential_graph(50, 200, seed=1)
    good = solve_sssp_resilient(g, 0)
    bad = dataclasses.replace(good, dist=good.dist.copy())
    bad.dist[3] += 1
    feasible, mix = BY_NAME["hidden-potential"], BY_NAME["engine-mix"]
    assert check_answers(feasible, g, [good]) is None
    assert check_answers(feasible, g, [bad]) is not None
    assert check_answers(mix, g, [good, bad]) is not None
    assert check_answers(BY_NAME["planted-cycle"], g, [good]) is not None
    assert check_cycle_verdict(g) is not None


def test_compare_reads_a_run_against_itself_as_unchanged(quick):
    doc = quick["plain"][0]
    rows = compare.compare([doc], [doc])
    assert {r[-1] for r in rows} == {"unchanged"}
    gated = {m["name"] for m in SPEC["end_to_end"]} | set(run.EXACT_METRICS)
    assert {r[1] for r in rows} == gated
    worse = json.loads(json.dumps(doc))
    res = worse["workloads"]["hidden-potential"]["metrics"]
    res["model_span"]["value"] *= 1.0001
    res["solve_p50_ms"]["value"] *= 2
    verdicts = {(r[0], r[1]): r[-1] for r in compare.compare([doc], [worse])}
    assert verdicts[("hidden-potential", "model_span")] == "worse"
    assert verdicts[("hidden-potential", "solve_p50_ms")] == "worse"
    assert verdicts[("zero-heavy", "solve_p50_ms")] == "unchanged"


def test_compare_flags_a_spread_wider_than_the_bound_as_unresolved():
    assert compare.judge([1.0, 1.5, 2.0, 2.5], [1.1, 1.6, 2.1, 2.6],
                         0.1, "lower") == "unresolved"
    assert compare.judge([2.0, 2.5, 3.0, 3.5], [1.0, 1.1, 1.2, 1.3],
                         0.1, "lower") == "better"
    assert compare.judge([100.0], [95.0], 0.1, "higher") == "unchanged"


def test_fails_without_a_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "latest*"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "small-batch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
