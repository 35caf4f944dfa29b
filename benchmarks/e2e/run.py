"""End-to-end benchmark of the negative-weight SSSP solver.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0            # end to end
    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 --traced   # per layer

Each workload (``workloads.py``) runs as a closed loop of solves through
``solve_sssp_resilient``, with every answer checked outside the timed
window.  The loop is split over five fresh subprocesses run one after
another: each times its own cold start, then solves every fifth instance
for a fifth of the run.  The set-up metrics are the median of the five
cold starts, and the other metrics pool the samples of all five, which
also averages out how one process's memory layout happens to favour or
hurt small operations.  Every metric is printed as ``workload metric
value unit`` and the run is written to a JSON file.  A traced run wraps
each layer's entry points (``layers.py``) and alternates traced and
untraced solves of the same instances.

The speed of a small shared host swings by up to 2x within seconds, which
moves every wall-clock percentile of a 20 s run by 10-30% from run to run.
So each sample also times a fixed probe that runs no repro code
(``probe.py``) right before and right after the solve, and the gated solve
times are scaled from the host speed the probes saw to the probe's
nominal speed: ``t * PROBE_NOMINAL_S / probe``, with the mean of the two
probes.  A cold start is scaled the same way, by the median of nine
probes without the heap loop right after it (``setup_probe_s``, nominal
``SETUP_PROBE_NOMINAL_S``).  A graph load is gated as a multiple of a bare
numpy CSR build of the same edges, timed alongside it (``load_p50_x``).
The unscaled ``*_raw_*`` metrics are reported too.

``--workload NAME --seconds S`` runs one workload, measuring for S seconds
in all (the oracle checks included, the cold starts not), and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and the
``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``) metrics
listed in BENCHMARK.json.  Exit codes: 0 ok, 1 a wrong answer or a failed
solve, 2 the benchmark itself could not run.  ``src/`` is found relative
to this file, so PYTHONPATH is optional.
"""

import time

_T0 = time.perf_counter()  # a cold start is timed from this line

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from probe import csr_build, probe_s, setup_probe_s  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: End-to-end metrics: name -> (unit, better).  Bounds live in
#: BENCHMARK.json, which gates the wall-clock metrics in their forms
#: steadied against the host's speed; the ``*_raw_*`` forms are reported
#: only.
#: The three that read 0 on a healthy run are not listed there either,
#: because a listed metric must never be 0; they compare as exact.
E2E_METRICS = {
    "solve_p50_ms": ("ms", "lower"),
    "solve_p90_ms": ("ms", "lower"),
    "edges_per_s": ("edges/s", "higher"),
    "load_p50_x": ("x", "lower"),
    "setup_s": ("s", "lower"),
    "solve_p50_raw_ms": ("ms", "lower"),
    "solve_p90_raw_ms": ("ms", "lower"),
    "edges_per_raw_s": ("edges/s", "higher"),
    "load_p50_raw_ms": ("ms", "lower"),
    "setup_raw_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("fraction", "lower"),
    "fallback_frac": ("fraction", "lower"),
    "retries_per_solve": ("count", "lower"),
    "model_work_per_edge": ("work/edge", "lower"),
    "model_span": ("span", "lower"),
}
#: cold-start metrics, each the median over the cold starts of a run
SETUP_METRICS = ("setup_s", "setup_raw_s")
#: p90 lines are printed with their sample count and tail size
P90_METRICS = ("solve_p90_ms", "solve_p90_raw_ms")
#: Metrics that depend only on the instances, so two runs over the same
#: instances must agree on them exactly.
EXACT_METRICS = ("failed_frac", "fallback_frac", "retries_per_solve",
                 "model_work_per_edge", "model_span")
#: ns per model-work unit: layer -> the ``acc.stages`` bucket it divides by
STAGE_OF = {"reach.scc": "scc", "dag01.dag01_limited_sssp": "dag01",
            "limited.limited_sssp": "chain-elimination"}

#: fresh subprocesses per workload run, each a cold start and a share
PARTS = 5
SETUP_PROBES = 9
LOAD_REPEATS, LOAD_EDGES = 3, 30000
QUICK_SCALE, QUICK_SAMPLES = 0.1, PARTS
WARMUP_INDEX = -1  # derive_seed salt of the warm-up instance
CHILD_TIMEOUT_S = 900
#: the probes' times on the 2-core x86 VM the committed results come from
PROBE_NOMINAL_S, SETUP_PROBE_NOMINAL_S = 0.010, 0.005


def per_layer_units() -> dict[str, str]:
    from layers import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "calls"
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.incl_ms"] = "ms"
    for layer in (*STAGE_OF, "solve"):
        units[f"{layer}.ns_per_work"] = "ns/work"
    units["trace_overhead_pct"] = "%"
    return units


def p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    xs = sorted(values)
    rank = math.ceil(0.9 * len(xs))
    return xs[rank - 1], len(xs) - rank


def environment() -> dict:
    from workloads import nproc

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    return {"nproc": nproc(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "commit": commit}


# ---------------------------------------------------------------------------
# one part of a workload run, in its own subprocess
# ---------------------------------------------------------------------------

class Sampler:
    """One part's measurement loop: instances ``part, part + PARTS, ...``.

    :meth:`run` returns the raw samples and counters, which the parent
    pools over the parts before it computes any metric.
    """

    def __init__(self, wl, index: int, args, backend) -> None:
        from repro import solve_sssp_resilient

        self.wl, self.index, self.args = wl, index, args
        self.backend = backend
        self.scale = QUICK_SCALE if args.quick else 1.0

        def solve(g, engine, seed, acc=None):
            return solve_sssp_resilient(g, 0, engine=engine, seed=seed,
                                        acc=acc, backend=backend)

        self.solve = solve

    def instance(self, i: int, seed: int | None = None):
        from repro.runtime import derive_seed

        seed = derive_seed(self.args.seed if seed is None else seed,
                           self.index, i)
        return seed, self.wl.build(seed, self.scale)

    def solve_all(self, g, seed, solve, accs=None):
        accs = accs or [None] * len(self.wl.engines)
        return [solve(g, e, seed, acc) for e, acc in zip(self.wl.engines, accs)]

    def warm_up(self) -> None:
        # the same instance for every --seed: set-up does the same work on
        # every run, so setup_s does not vary with the seed's instances
        seed, g = self.instance(WARMUP_INDEX, seed=0)
        self.solve_all(g, seed, self.solve)

    def load_s(self, g, seed: int) -> tuple[float, float]:
        """Best public-constructor build from shuffled edges, and best bare
        CSR build of the same edges, interleaved: three of each, or as many
        as make ``LOAD_EDGES`` edges in all on a small graph."""
        from repro import DiGraph

        perm = np.random.default_rng(seed).permutation(g.m)
        src, dst, w = g.src[perm], g.dst[perm], g.w[perm]
        best = [math.inf, math.inf]
        for _ in range(max(LOAD_REPEATS, LOAD_EDGES // max(g.m, 1))):
            t = time.perf_counter()
            DiGraph(g.n, src, dst, w)
            best[0] = min(best[0], time.perf_counter() - t)
            t = time.perf_counter()
            csr_build(g.n, src, dst)
            best[1] = min(best[1], time.perf_counter() - t)
        return best[0], best[1]

    def run(self, part: int) -> dict:
        from repro.graph import graph_digest
        from workloads import check_answers, check_cycle_verdict

        args = self.args
        if args.seconds is None:
            samples = QUICK_SAMPLES if args.quick else self.wl.samples
            indices = range(part, samples, PARTS)
            budget = math.inf
        else:
            indices = itertools.count(part, PARTS)
            budget = args.seconds / PARTS
        self.tracer = None
        if args.trace:
            from layers import LayerTracer

            self.tracer = LayerTracer(self.backend)
            self.traced_solve = self.tracer.root(self.solve)
        self.rec = {"solve_s": [], "solve_probe_s": [], "load_s": [],
                    "load_csr_s": [], "span": [], "edges": 0, "work": 0.0,
                    "solves": 0, "fallbacks": 0, "retries": 0,
                    "traced_s": 0.0, "untraced_s": 0.0, "traced_work": 0.0,
                    "stage_work": {}}
        digests = []
        failed: set[int] = set()

        def report(i: int, error: str | None) -> None:
            if error is not None:
                failed.add(i)
                print(f"{self.wl.name} sample {i}: {error}", file=sys.stderr)

        start = time.perf_counter()
        if self.wl.cyclic and part == 0:
            report(0, check_cycle_verdict(self.instance(0)[1]))
        for i in indices:
            if digests and time.perf_counter() - start >= budget:
                break
            seed, g = self.instance(i)
            digests.append((i, graph_digest(g)))
            try:
                results = (self.traced_sample(g, seed, i)
                           if self.tracer else self.sample(g, seed))
                report(i, check_answers(self.wl, g, results))
            except Exception:  # one failed solve must not end the run
                traceback.print_exc()
                report(i, "exception")
        out = {"attempted": len(digests), "failed": len(failed),
               "digests": digests, **self.setup, **self.rec,
               "peak_rss_mb":
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if self.tracer:
            out["stats"] = self.tracer.stats
        if part == 0:
            out["environment"] = environment()
        return out

    def sample(self, g, seed: int) -> list:
        rec = self.rec
        load, csr = self.load_s(g, seed)
        before = probe_s()
        t = time.perf_counter()
        results = self.solve_all(g, seed, self.solve)
        dt = time.perf_counter() - t
        after = probe_s()
        rec["solve_s"].append(dt)
        rec["solve_probe_s"].append((before + after) / 2)
        rec["load_s"].append(load)
        rec["load_csr_s"].append(csr)
        rec["edges"] += g.m * len(results)
        rec["work"] += sum(r.cost.work for r in results)
        rec["span"].append(sum(r.cost.span_model for r in results))
        rec["solves"] += len(results)
        rec["fallbacks"] += sum(r.provenance.used_fallback for r in results)
        rec["retries"] += sum(r.provenance.retries for r in results)
        return results

    def traced_sample(self, g, seed: int, i: int) -> list:
        """Solve ``g`` untraced and traced, in alternating order."""
        from repro import CostAccumulator

        rec = self.rec
        out = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            accs = [CostAccumulator() for _ in self.wl.engines]
            if traced:
                with self.tracer:
                    t = time.perf_counter()
                    out[traced] = self.solve_all(g, seed, self.traced_solve,
                                                 accs)
                    rec["traced_s"] += time.perf_counter() - t
                for acc in accs:
                    for stage, cost in acc.stages.items():
                        rec["stage_work"][stage] = (
                            rec["stage_work"].get(stage, 0.0) + cost.work)
                rec["traced_work"] += sum(r.cost.work for r in out[traced])
            else:
                t = time.perf_counter()
                out[traced] = self.solve_all(g, seed, self.solve, accs)
                rec["untraced_s"] += time.perf_counter() - t

        def answer(res):
            dist = None if res.dist is None else res.dist.tobytes()
            return dist, res.negative_cycle, res.cost

        if list(map(answer, out[False])) != list(map(answer, out[True])):
            raise AssertionError("traced and untraced solves differ")
        return out[False]


def child_main(args) -> int:
    from repro.runtime import resolve_backend
    from workloads import BY_NAME, WORKLOADS, nproc

    wl = BY_NAME[args.workload]
    backend = (resolve_backend(wl.backend, n_workers=nproc())
               if wl.backend else None)
    try:
        sampler = Sampler(wl, WORKLOADS.index(wl), args, backend)
        sampler.warm_up()
        raw = time.perf_counter() - _T0
        probe = statistics.median(setup_probe_s()
                                  for _ in range(SETUP_PROBES))
        sampler.setup = {"setup_s": raw * SETUP_PROBE_NOMINAL_S / probe,
                         "setup_raw_s": raw}
        out = sampler.run(args.part)
    finally:
        if backend is not None:
            backend.shutdown()
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# the parent process: runs the parts, pools them and reports
# ---------------------------------------------------------------------------

def run_part(args, workload: str, part: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--part", str(part),
           "--workload", workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: part {part} exited with code "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: per-part counters that pool by summing, and per-sample lists that pool
#: by concatenation
SUMMED = ("attempted", "failed", "edges", "work", "solves", "fallbacks",
          "retries", "traced_s", "untraced_s", "traced_work")
SAMPLED = ("solve_s", "solve_probe_s", "load_s", "load_csr_s", "span")


def pool(parts: list[dict]) -> dict:
    """The parts' samples and counters as if one process had made them."""
    out: dict = {k: sum(p[k] for p in parts) for k in SUMMED}
    out.update({k: [x for p in parts for x in p[k]] for k in SAMPLED})
    out["setup_runs"] = [{k: p[k] for k in SETUP_METRICS} for p in parts]
    out["peak_rss_mb"] = max(p["peak_rss_mb"] for p in parts)
    out["environment"] = parts[0]["environment"]
    stages = {k for p in parts for k in p["stage_work"]}
    out["stage_work"] = {k: sum(p["stage_work"].get(k, 0.0) for p in parts)
                         for k in stages}
    if "stats" in parts[0]:
        out["stats"] = {layer: [sum(p["stats"][layer][j] for p in parts)
                                for j in range(3)]
                        for layer in parts[0]["stats"]}
    digests = sorted(d for p in parts for d in p["digests"])
    out["instances_sha256"] = hashlib.sha256(
        "".join(d for _, d in digests).encode()).hexdigest()
    return out


def e2e_metrics(run: dict) -> dict:
    solve_s = run["solve_s"]
    solves = max(run["solves"], 1)
    value = {
        **{k: statistics.median(r[k] for r in run["setup_runs"])
           for k in SETUP_METRICS},
        "failed_frac": run["failed"] / run["attempted"],
        "fallback_frac": run["fallbacks"] / solves,
        "retries_per_solve": run["retries"] / solves,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    tail = 0
    if solve_s:
        # each solve scaled from the host speed its probes saw to nominal
        scaled = [t * PROBE_NOMINAL_S / p
                  for t, p in zip(solve_s, run["solve_probe_s"])]
        for raw, solve in (("", scaled), ("raw_", solve_s)):
            p, tail = p90(solve)
            value[f"solve_p50_{raw}ms"] = statistics.median(solve) * 1e3
            value[f"solve_p90_{raw}ms"] = p * 1e3
            value[f"edges_per_{raw}s"] = run["edges"] / sum(solve)
        value["load_p50_x"] = statistics.median(
            t / c for t, c in zip(run["load_s"], run["load_csr_s"]))
        value["load_p50_raw_ms"] = statistics.median(run["load_s"]) * 1e3
        value["model_work_per_edge"] = run["work"] / max(run["edges"], 1)
        value["model_span"] = statistics.fmean(run["span"])
    return {"samples": len(solve_s), "solves": run["solves"],
            "p90_tail": tail, "setup_runs": run["setup_runs"],
            "metrics": {k: {"value": value[k], "unit": unit}
                        for k, (unit, _) in E2E_METRICS.items()
                        if k in value}}


def layer_metrics(run: dict) -> dict:
    units = per_layer_units()
    attempted = run["attempted"]
    stats = run["stats"]
    value: dict[str, float | None] = {}
    for layer, (calls, self_ns, incl_ns) in stats.items():
        value[f"{layer}.calls"] = calls / attempted
        value[f"{layer}.self_ms"] = self_ns / 1e6 / attempted
        value[f"{layer}.incl_ms"] = incl_ns / 1e6 / attempted
    for layer, stage in STAGE_OF.items():
        work = run["stage_work"].get(stage, 0.0)
        value[f"{layer}.ns_per_work"] = (stats[layer][2] / work
                                         if work else None)
    value["solve.ns_per_work"] = (stats["solve"][2] / run["traced_work"]
                                  if run["traced_work"] else None)
    value["trace_overhead_pct"] = (
        (run["traced_s"] - run["untraced_s"]) / run["untraced_s"] * 100)
    return {"samples": attempted,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in value.items()}}


def run_workload(args, workload: str) -> dict:
    run = pool([run_part(args, workload, k) for k in range(PARTS)])
    res = {k: run[k] for k in ("attempted", "failed", "instances_sha256",
                               "environment")}
    res.update(layer_metrics(run) if args.trace else e2e_metrics(run))
    return res


def print_metrics(workload: str, res: dict) -> None:
    for name, m in res["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        line = f"{workload} {name} {value} {m['unit']}"
        if name in P90_METRICS:
            line += f" (n={res['samples']}, {res['p90_tail']} beyond)"
        print(line, flush=True)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload",
                    help="run one workload and end with the JSON result line")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measure each workload for this long instead of a "
                    "fixed sample count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", dest="trace", action="store_const", const=1,
                    help="same as --trace 1")
    ap.add_argument("--quick", action="store_true",
                    help=f"instances a tenth the size, {QUICK_SAMPLES} "
                    "samples each")
    ap.add_argument("--out", type=Path,
                    help="result JSON (default results/latest[-traced].json)")
    ap.add_argument("--part", type=int, choices=range(PARTS),
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import BY_NAME

    if args.workload is not None and args.workload not in BY_NAME:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(BY_NAME)}", file=sys.stderr)
        return 2
    if args.part is not None:
        return child_main(args)
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [args.workload] if args.workload else list(BY_NAME)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(args, name)
            print_metrics(name, results[name])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    env = next(iter(results.values()))["environment"]
    doc = {"schema": "e2e-bench/1", "seed": args.seed, "trace": args.trace,
           "quick": args.quick, "seconds": args.seconds,
           "environment": env,
           "workloads": {n: {k: v for k, v in r.items() if k != "environment"}
                         for n, r in results.items()}}
    out = args.out or HERE / "results" / (
        "latest-traced.json" if args.trace else "latest.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    failed = sum(r["failed"] for r in results.values())
    if args.workload:
        res = results[args.workload]
        listed = spec["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": failed == 0, "attempted": res["attempted"],
            "failed": failed,
            "metrics": {m["name"]: res["metrics"][m["name"]]
                        for m in listed}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
