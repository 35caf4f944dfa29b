"""Baseline algorithms: test oracles and the paper's comparison points."""

from .bellman_ford import (
    BellmanFordResult,
    bellman_ford,
    bellman_ford_distance_only,
    bellman_ford_parallel,
)
from .dag_relax import DagSsspResult, dag_limited_sssp_reference, dag_sssp
from .dijkstra import DijkstraResult, dijkstra
from .johnson import PotentialResult, johnson_potential

__all__ = [
    "BellmanFordResult",
    "bellman_ford",
    "bellman_ford_distance_only",
    "bellman_ford_parallel",
    "DagSsspResult",
    "dag_sssp",
    "dag_limited_sssp_reference",
    "DijkstraResult",
    "dijkstra",
    "PotentialResult",
    "johnson_potential",
]
