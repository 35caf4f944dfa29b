"""The end-to-end benchmark's workloads and the oracles that check them.

Every workload is a closed loop with one client: one solve at a time, each
on a fresh instance built from ``derive_seed(seed, workload_index, i)``.
The solver sees only the generated graph; the seed stays in the harness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines import bellman_ford, johnson_potential
from repro.graph import (
    DiGraph,
    hidden_potential_graph,
    planted_negative_cycle_graph,
    validate_negative_cycle,
    zero_heavy_digraph,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``build(seed, scale)``; ``scale`` shrinks n and m for ``--quick``
    build: Callable[[int, float], DiGraph]
    engines: tuple[str, ...]
    #: sample count of a run that is not bounded by ``--seconds``
    samples: int
    #: a negative cycle is planted in every instance
    cyclic: bool = False
    #: backend name; ``"process"`` gets one pool of ``nproc`` workers
    backend: str | None = None


def _sized(n: int, scale: float) -> int:
    return max(8, int(n * scale))


# Sizes let a 20 s run hold more than 100 samples on a 2-core x86 host, so
# that solve_p90 has at least ten samples beyond it.
WORKLOADS = (
    Workload(
        "hidden-potential",
        "the paper's main path on a feasible graph: derived-graph builds, "
        "SCC, dag01 peeling and chain elimination all do most of their work "
        "here",
        lambda seed, s: hidden_potential_graph(
            _sized(250, s), _sized(1000, s), potential_spread=16, seed=seed),
        ("goldberg_parallel",), samples=100),
    Workload(
        "planted-cycle",
        "returns a negative cycle: one large SCC does most of the work, then "
        "cycle extraction and the cycle certificate run",
        lambda seed, s: planted_negative_cycle_graph(
            _sized(6000, s), _sized(24000, s), 6, seed=seed)[0],
        ("goldberg_parallel",), samples=100, cyclic=True),
    Workload(
        "zero-heavy",
        "control with no negative edge: only validation, the certificate, "
        "the reduced-weight map and the final Dijkstra run",
        lambda seed, s: zero_heavy_digraph(
            _sized(5000, s), _sized(20000, s), seed=seed),
        ("goldberg_parallel",), samples=100),
    Workload(
        "small-batch",
        "many tiny inputs, where per-call costs (numpy dispatch, graph "
        "builds, reachability calls) dominate per-element costs",
        lambda seed, s: hidden_potential_graph(64, 256, seed=seed),
        ("goldberg_parallel",), samples=300),
    Workload(
        "engine-mix",
        "one instance solved by all four registered engines on the process "
        "backend: the only workload running the successor engines",
        lambda seed, s: hidden_potential_graph(
            _sized(160, s), _sized(640, s), seed=seed),
        ("goldberg_parallel", "goldberg_sequential", "bnw_scaling",
         "fischer_simple"), samples=100, backend="process"),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def check_answers(wl: Workload, g: DiGraph, results: list) -> str | None:
    """Compare one sample's results with the oracles; None when correct.

    Feasible instances must match Bellman-Ford exactly, and on a
    multi-engine workload all engines must return bit-identical distances.
    A cycle answer must be a valid negative cycle of ``g``.
    """
    if wl.cyclic:
        for res in results:
            if not res.has_negative_cycle:
                return "no negative cycle reported on a cyclic instance"
            if not validate_negative_cycle(g, res.negative_cycle):
                return "reported cycle is not a negative cycle of the input"
        return None
    first = results[0]
    for res in results:
        if res.has_negative_cycle:
            return "negative cycle reported on a feasible instance"
        if res.dist.tobytes() != first.dist.tobytes():
            return "engines disagree on distances"
    if not np.array_equal(bellman_ford(g, 0).dist, first.dist):
        return "distances differ from bellman_ford"
    return None


def check_cycle_verdict(g: DiGraph) -> str | None:
    """Johnson's potential must independently find a negative cycle.

    It runs n Bellman-Ford rounds on a cyclic graph (about 3 s at n=6000),
    so a run checks its first instance only, before the first sample.
    """
    if johnson_potential(g).negative_cycle is None:
        return "johnson_potential finds no negative cycle"
    return None
