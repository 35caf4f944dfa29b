"""Tests for certificate validation and topological utilities."""

import numpy as np
import pytest

from repro.assp.engines import DeltaSteppingAssp
from repro.assp.hopset import HopsetAssp
from repro.baselines import (
    bellman_ford,
    bellman_ford_distance_only,
    bellman_ford_parallel,
    dag_sssp,
    dijkstra,
    johnson_potential,
)
from repro.core import (
    all_pairs_shortest_paths,
    is_valid_improvement,
    lift_price_to_members,
    negative_vertices,
    one_reweighting,
    sqrt_k_improvement,
)
from repro.core.scaling import scaled_reweighting
from repro.dag01 import dag01_limited_sssp
from repro.dag01.naive import dag01_limited_sssp_naive
from oracles import assert_same_result
from repro.graph import (
    DiGraph,
    check_distances,
    condense,
    cycle_weight,
    is_dag,
    is_feasible_price,
    leq_zero_subgraph,
    min_reduced_weight,
    reweight,
    topological_order,
    validate_negative_cycle,
)
from repro.graph.generators import random_dag, random_digraph
from repro.graph.io import graph_digest
from repro.graph.validate import check_overflow_safety
from repro.limited import (
    limited_sssp,
    shortest_path_tree,
    verify_limited_distances,
    zero_cycle_condensation,
)
from repro.limited.weighted_bfs import weighted_bfs_limited
from repro.resilience import Certificate
from repro.resilience.errors import InputValidationError
from repro.runtime import ForkJoinPool, SerialBackend


class TestFeasiblePrice:
    def test_zero_price_nonneg_graph(self):
        g = DiGraph.from_edges(2, [(0, 1, 3)])
        assert is_feasible_price(g, np.zeros(2))

    def test_zero_price_negative_edge(self):
        g = DiGraph.from_edges(2, [(0, 1, -3)])
        assert not is_feasible_price(g, np.zeros(2))

    def test_fixing_price(self):
        g = DiGraph.from_edges(2, [(0, 1, -3)])
        assert is_feasible_price(g, np.array([0, -3]))

    def test_empty_graph(self):
        g = DiGraph.from_edges(3, [])
        assert is_feasible_price(g, np.zeros(3))

    def test_length_check(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            is_feasible_price(g, np.zeros(3))

    def test_min_reduced_weight(self):
        g = DiGraph.from_edges(2, [(0, 1, -3), (1, 0, 5)])
        assert min_reduced_weight(g, np.array([0, -2])) == -1

    def test_min_reduced_weight_empty(self):
        assert min_reduced_weight(DiGraph.from_edges(1, []), np.zeros(1)) == 0

    @pytest.mark.parametrize("check", [is_feasible_price, min_reduced_weight,
                                       reweight])
    def test_price_past_2_60_raises_instead_of_wrapping(self, check):
        # the exact reduced weight is 2^63 + 5 >= 0, which int64 wraps
        # to a negative number
        g = DiGraph.from_edges(2, [(0, 1, 5)])
        with pytest.raises(InputValidationError, match="magnitude exceeds"):
            check(g, np.array([2 ** 62, -2 ** 62]))

    @pytest.mark.parametrize("check", [is_feasible_price, min_reduced_weight])
    def test_weights_past_2_60_raise(self, check):
        g = DiGraph.from_edges(2, [(0, 1, 5)])
        with pytest.raises(InputValidationError, match="magnitude exceeds"):
            check(g, np.zeros(2), np.array([2 ** 61]))

    def test_price_at_2_60_is_read_exactly(self):
        g = DiGraph.from_edges(2, [(0, 1, 5)])
        price = np.array([2 ** 60, -2 ** 60])
        assert is_feasible_price(g, price)
        assert min_reduced_weight(g, price) == 2 ** 61 + 5

    def test_overflow_check_reads_int64_min_as_2_63(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(InputValidationError,
                           match=r"= 2·9223372036854775808 risks"):
            check_overflow_safety(g, np.array([-2 ** 63]))


class TestCycles:
    def test_cycle_weight(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, -4), (2, 0, 2)])
        assert cycle_weight(g, [0, 1, 2]) == -1

    def test_cycle_weight_uses_min_parallel_edge(self):
        g = DiGraph.from_edges(2, [(0, 1, 5), (0, 1, 1), (1, 0, 0)])
        assert cycle_weight(g, [0, 1]) == 1

    def test_missing_edge_raises(self):
        g = DiGraph.from_edges(3, [(0, 1, 1)])
        with pytest.raises(ValueError):
            cycle_weight(g, [0, 2])

    def test_empty_cycle_raises(self):
        g = DiGraph.from_edges(1, [])
        with pytest.raises(ValueError):
            cycle_weight(g, [])

    def test_self_loop_cycle(self):
        g = DiGraph.from_edges(1, [(0, 0, -2)])
        assert cycle_weight(g, [0]) == -2
        assert validate_negative_cycle(g, [0])

    def test_validate_negative_cycle(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, -4), (2, 0, 2)])
        assert validate_negative_cycle(g, [0, 1, 2])
        assert validate_negative_cycle(g, [1, 2, 0])  # rotation ok
        assert not validate_negative_cycle(g, [0, 1])  # not a closed walk

    def test_validate_nonnegative_cycle(self):
        g = DiGraph.from_edges(2, [(0, 1, 1), (1, 0, 0)])
        assert not validate_negative_cycle(g, [0, 1])


class TestTopological:
    def test_dag(self):
        g = DiGraph.from_edges(4, [(0, 1, 0), (0, 2, 0), (1, 3, 0),
                                   (2, 3, 0)])
        assert is_dag(g)
        order = topological_order(g)
        pos = {int(v): i for i, v in enumerate(order)}
        for u, v, _ in g.edges():
            assert pos[u] < pos[v]

    def test_cycle_detected(self):
        g = DiGraph.from_edges(3, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
        assert not is_dag(g)
        assert topological_order(g) is None

    def test_self_loop_not_dag(self):
        g = DiGraph.from_edges(2, [(0, 0, 0)])
        assert not is_dag(g)

    def test_empty_graph_is_dag(self):
        assert is_dag(DiGraph.from_edges(0, []))
        assert is_dag(DiGraph.from_edges(5, []))

    def test_isolated_vertices_in_order(self):
        g = DiGraph.from_edges(5, [(1, 2, 0)])
        order = topological_order(g)
        assert sorted(order.tolist()) == [0, 1, 2, 3, 4]


class TestCheckDistances:
    def test_valid_distances(self):
        g = DiGraph.from_edges(3, [(0, 1, 2), (1, 2, 3), (0, 2, 10)])
        assert check_distances(g, 0, np.array([0.0, 2.0, 5.0]))

    def test_unreachable_inf_ok(self):
        g = DiGraph.from_edges(3, [(0, 1, 2)])
        assert check_distances(g, 0, np.array([0.0, 2.0, np.inf]))

    def test_wrong_source_distance(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        assert not check_distances(g, 0, np.array([1.0, 2.0]))

    def test_relaxable_edge_fails(self):
        g = DiGraph.from_edges(3, [(0, 1, 2), (1, 2, 3)])
        assert not check_distances(g, 0, np.array([0.0, 2.0, 9.0]))

    def test_unattained_distance_fails(self):
        g = DiGraph.from_edges(2, [(0, 1, 5)])
        assert not check_distances(g, 0, np.array([0.0, 4.0]))

    def test_negative_weights_supported(self):
        g = DiGraph.from_edges(3, [(0, 1, 5), (1, 2, -3), (0, 2, 3)])
        assert check_distances(g, 0, np.array([0.0, 5.0, 2.0]))


def _bellman_ford_on_threads(g, source):
    with ForkJoinPool(2, grain=8) as pool:
        return bellman_ford_parallel(g, source, backend=pool, grain=8).dist


NONNEG = random_digraph(20, 60, min_w=0, max_w=5, seed=1)
POSITIVE = random_digraph(20, 60, min_w=1, max_w=5, seed=1)
DAG01 = random_dag(20, 60, seed=1)

# entry point -> (graph, call returning the distance array)
SOURCE_ENTRY_POINTS = {
    "bellman_ford": (NONNEG, lambda g, s: bellman_ford(g, s).dist),
    "bellman_ford_parallel": (NONNEG, lambda g, s: bellman_ford_parallel(
        g, s, backend=SerialBackend(grain=8), grain=8).dist),
    # bellman_ford_parallel on the thread backend
    "bellman_ford_threaded": (NONNEG, _bellman_ford_on_threads),
    "bellman_ford_distance_only": (
        NONNEG, lambda g, s: bellman_ford_distance_only(g, s)),
    "dijkstra": (NONNEG, lambda g, s: dijkstra(g, s).dist),
    "dag_sssp": (DAG01, lambda g, s: dag_sssp(g, s).dist),
    "limited_sssp": (NONNEG, lambda g, s: limited_sssp(g, s, 6).dist),
    "DeltaSteppingAssp": (NONNEG,
                          lambda g, s: DeltaSteppingAssp()(g, s, 0.0)),
    "weighted_bfs_limited": (POSITIVE,
                             lambda g, s: weighted_bfs_limited(g, s, 6).dist),
    "dag01_limited_sssp": (DAG01,
                           lambda g, s: dag01_limited_sssp(g, s, 3).dist),
    "dag01_limited_sssp_naive": (
        DAG01, lambda g, s: dag01_limited_sssp_naive(g, s, 3).dist),
    "all_pairs_shortest_paths": (
        NONNEG, lambda g, s: all_pairs_shortest_paths(g, sources=[s]).dist),
}


class TestLibrarySourceCheck:
    """Every library entry point reads its source like ``solve_sssp``:
    integral floats and bools are their int value; fractional, NaN and
    out-of-range sources raise before any numpy indexing."""

    @pytest.mark.parametrize("source", [1.5, 2.0, True, float("nan"), -1,
                                        "n"])
    @pytest.mark.parametrize("entry", sorted(SOURCE_ENTRY_POINTS))
    def test_source_is_checked(self, entry, source):
        g, call = SOURCE_ENTRY_POINTS[entry]
        if source == "n":
            source = g.n
        if source in (2.0, True):
            np.testing.assert_array_equal(call(g, source),
                                          call(g, int(source)))
        else:
            with pytest.raises(InputValidationError, match="source"):
                call(g, source)


# distance-limited entry point -> (graph, call with the limit)
LIMIT_ENTRY_POINTS = {
    "limited_sssp": (NONNEG, lambda g, lim: limited_sssp(g, 0, lim).dist),
    "weighted_bfs_limited": (
        POSITIVE, lambda g, lim: weighted_bfs_limited(g, 0, lim).dist),
    "dag01_limited_sssp": (
        DAG01, lambda g, lim: dag01_limited_sssp(g, 0, lim).dist),
    "dag01_limited_sssp_naive": (
        DAG01, lambda g, lim: dag01_limited_sssp_naive(g, 0, lim).dist),
}


class TestLibraryLimitCheck:
    """The distance-limited entry points read ``limit`` like a source
    (``check_limit``), before any work: integral floats and bools are
    their int value; fractional, NaN, infinite, negative and non-numeric
    limits raise ``InputValidationError``, not a bare ``TypeError`` from
    ``range()`` and not an endless doubling towards an infinite ``D``."""

    @pytest.mark.parametrize("limit", [2.5, float("nan"), float("inf"),
                                       -1, "2"])
    @pytest.mark.parametrize("entry", sorted(LIMIT_ENTRY_POINTS))
    def test_bad_limit_is_rejected(self, entry, limit):
        g, call = LIMIT_ENTRY_POINTS[entry]
        with pytest.raises(InputValidationError, match="limit"):
            call(g, limit)

    @pytest.mark.parametrize("limit", [3.0, np.int32(3), np.float64(3.0)])
    @pytest.mark.parametrize("entry", sorted(LIMIT_ENTRY_POINTS))
    def test_integral_limit_is_its_int(self, entry, limit):
        g, call = LIMIT_ENTRY_POINTS[entry]
        np.testing.assert_array_equal(call(g, limit), call(g, 3))

    @pytest.mark.parametrize("limit", [True, False])
    def test_bool_limit_is_its_int(self, limit):
        g, call = LIMIT_ENTRY_POINTS["dag01_limited_sssp"]
        np.testing.assert_array_equal(call(g, limit), call(g, int(limit)))


# the triangle 0 -> 1 -> 2 -> 0; edge ids 0, 1, 2 in that order
TRIANGLE = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 0)])
DIST = np.array([0.0, 1.0, 2.0])

# entry point -> (what the array is aligned with, call on the array); the
# base arrays are VERTEX_BASE and EDGE_BASE
VERTEX_BASE = np.array([0, 1, 1], dtype=np.int64)
EDGE_BASE = np.array([1, 1, 0], dtype=np.int64)
ARRAY_ENTRY_POINTS = {
    "check_overflow_safety": (
        "edge", lambda a: check_overflow_safety(TRIANGLE, a)),
    "is_feasible_price": ("vertex", lambda a: is_feasible_price(TRIANGLE, a)),
    "is_feasible_price-weights": (
        "edge", lambda a: is_feasible_price(TRIANGLE, VERTEX_BASE, a)),
    "min_reduced_weight": (
        "vertex", lambda a: min_reduced_weight(TRIANGLE, a)),
    "min_reduced_weight-weights": (
        "edge", lambda a: min_reduced_weight(TRIANGLE, VERTEX_BASE, a)),
    "cycle_weight": ("edge", lambda a: cycle_weight(TRIANGLE, [0, 1, 2], a)),
    "reweight": ("vertex", lambda a: reweight(TRIANGLE, a)),
    "condense-comp": ("vertex", lambda a: condense(TRIANGLE, a)),
    "condense-weights": (
        "edge", lambda a: condense(TRIANGLE, VERTEX_BASE, weights=a)),
    "leq_zero_subgraph": (
        "edge", lambda a: leq_zero_subgraph(TRIANGLE, a)[0]),
    "zero_cycle_condensation": (
        "edge", lambda a: zero_cycle_condensation(TRIANGLE, a)),
    "verify_limited_distances": (
        "edge", lambda a: verify_limited_distances(TRIANGLE, 0, DIST, 5, a)),
    "shortest_path_tree": (
        "edge", lambda a: shortest_path_tree(TRIANGLE, 0, DIST, a)),
    "Certificate.verify": (
        "vertex", lambda a: Certificate("price", price=a).verify(TRIANGLE)),
    "bellman_ford-weights": (
        "edge", lambda a: bellman_ford(TRIANGLE, 0, weights=a)),
    "bellman_ford_parallel-weights": (
        "edge", lambda a: bellman_ford_parallel(
            TRIANGLE, 0, backend=SerialBackend(grain=1), weights=a,
            grain=1)),
    "bellman_ford_distance_only-weights": (
        "edge", lambda a: bellman_ford_distance_only(TRIANGLE, 0,
                                                     weights=a)),
    "graph_digest-weights": ("edge", lambda a: graph_digest(TRIANGLE, a)),
    "sqrt_k_improvement": ("edge", lambda a: sqrt_k_improvement(TRIANGLE, a)),
    "negative_vertices": ("edge", lambda a: negative_vertices(TRIANGLE, a)),
    "one_reweighting": ("edge", lambda a: one_reweighting(TRIANGLE, a)),
    "johnson_potential-weights": (
        "edge", lambda a: johnson_potential(TRIANGLE, weights=a)),
    "is_valid_improvement": (
        "edge", lambda a: is_valid_improvement(TRIANGLE, a, VERTEX_BASE)),
    # the price of a condensation with one component per vertex
    "lift_price_to_members": (
        "vertex", lambda a: lift_price_to_members(a, np.arange(3))),
}


def bad_array(base, kind):
    a = base.astype(np.float64)
    if kind == "fractional":
        return a + 0.5
    if kind == "nan":
        a[0] = np.nan
    elif kind == "inf":
        a[0] = np.inf
    elif kind == "-inf":
        a[0] = -np.inf
    elif kind == "2.0**63":  # integral, but past int64
        a[0] = 2.0 ** 63
    elif kind == "uint64-2**63":  # a cast would wrap it to -2**63
        u = np.abs(base).astype(np.uint64)
        u[0] = 2 ** 63
        return u
    else:  # "short"
        return base[:-1]
    return a


BAD_KINDS = ["fractional", "nan", "inf", "-inf", "2.0**63", "uint64-2**63",
             "short"]


class TestCallerArraysAreCast:
    """Certificate checkers and transforms read caller-supplied prices,
    weights and labels like the public constructor reads edge arrays:
    integral floats and bools count as their int values, and fractional,
    NaN, infinite or misaligned arrays raise instead of being truncated
    toward zero."""

    @pytest.mark.parametrize("kind", BAD_KINDS)
    @pytest.mark.parametrize("entry", sorted(ARRAY_ENTRY_POINTS))
    def test_bad_array_raises(self, entry, kind):
        aligned, call = ARRAY_ENTRY_POINTS[entry]
        base = VERTEX_BASE if aligned == "vertex" else EDGE_BASE
        with pytest.raises(InputValidationError):
            call(bad_array(base, kind))

    @pytest.mark.parametrize("entry", sorted(ARRAY_ENTRY_POINTS))
    def test_integral_floats_and_bools_count_as_ints(self, entry):
        aligned, call = ARRAY_ENTRY_POINTS[entry]
        base = VERTEX_BASE if aligned == "vertex" else EDGE_BASE
        want = call(base)
        assert_same_result(call(base.astype(np.float64)), want, entry)
        assert_same_result(call(base.astype(bool)), want, entry)

    @pytest.mark.parametrize("weights", [[-0.9, 0.5], [5], [1, 1, 1]])
    @pytest.mark.parametrize("call", [
        lambda g, w: bellman_ford(g, 0, weights=w),
        lambda g, w: bellman_ford_parallel(g, 0, backend=SerialBackend(),
                                           weights=w),
        lambda g, w: bellman_ford_distance_only(g, 0, weights=w)],
        ids=["bellman_ford", "bellman_ford_parallel",
             "bellman_ford_distance_only"])
    def test_bellman_ford_weights_are_neither_truncated_nor_broadcast(
            self, call, weights):
        # on the path 0 -> 1 -> 2, [-0.9, 0.5] truncated to distances
        # [0, 0, 0] and [5] was broadcast to every edge
        path = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(InputValidationError, match="weights"):
            call(path, weights)

    @pytest.mark.parametrize("call", [
        negative_vertices,
        one_reweighting,
        lambda g, w: johnson_potential(g, weights=w),
        lambda g, w: is_valid_improvement(g, w, np.zeros(3, dtype=np.int64)),
    ], ids=["negative_vertices", "one_reweighting", "johnson_potential",
            "is_valid_improvement"])
    def test_improvement_path_weights_are_not_truncated(self, call):
        # on the path 0 -> 1 -> 2, [-0.9, 0.5] truncated to [0, 0]: no
        # negative vertex, a zero price and a zero potential
        path = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(InputValidationError, match="integral"):
            call(path, [-0.9, 0.5])

    def test_fractional_contracted_price_is_not_truncated(self):
        # truncated toward zero, [0.5, -1.7] lifted to [0, -1, -1]
        with pytest.raises(InputValidationError, match="integral"):
            lift_price_to_members([0.5, -1.7], np.array([0, 1, 1]))

    def test_component_ids_must_index_the_contracted_price(self):
        for comp in ([0, 1, 2], [0, -1, 1]):
            with pytest.raises(InputValidationError, match="component ids"):
                lift_price_to_members([4, 5], np.array(comp))
        assert lift_price_to_members([4, 5], np.array([1, 0, 1])).tolist() \
            == [5, 4, 5]

    def test_fractional_weights_do_not_hide_a_negative_reduced_weight(self):
        # truncated toward zero, [-0.9, 0.9] was [0, 0]: k = 0, no change
        g = DiGraph.from_edges(2, [(0, 1, -1), (1, 0, 1)])
        with pytest.raises(InputValidationError, match="integral"):
            sqrt_k_improvement(g, [-0.9, 0.9])

    def test_fractional_weights_do_not_share_a_digest(self):
        g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(InputValidationError, match="integral"):
            graph_digest(g, weights=[1.7, 1.2])
        assert graph_digest(g, weights=[1.0, 1.0]) == graph_digest(g)

    def test_fractional_price_is_not_a_certificate(self):
        g = DiGraph.from_edges(2, [(0, 1, -1)])
        # truncated to [1, 0] it would pass; the reduced weight is -0.4
        with pytest.raises(InputValidationError, match="integral"):
            Certificate("price", price=np.array([1.5, 0.9])).verify(g)

    def test_fractional_weights_do_not_make_a_negative_cycle(self):
        # the cycle weighs +0.8; truncated toward zero it weighed -1
        g3 = DiGraph.from_edges(3, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
        assert not validate_negative_cycle(g3, [0, 1, 2],
                                           weights=[0.9, 0.9, -1.0])
        with pytest.raises(InputValidationError, match="integral"):
            cycle_weight(g3, [0, 1, 2], weights=[0.9, 0.9, -1.0])

    def test_fractional_weights_are_not_condensed_to_zero(self):
        g3 = DiGraph.from_edges(3, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
        with pytest.raises(InputValidationError, match="integral"):
            condense(g3, np.arange(3), weights=[0.5, 0.7, -0.9])

    def test_nan_price_names_the_problem(self):
        with pytest.raises(InputValidationError, match="finite"):
            is_feasible_price(TRIANGLE, np.array([0.0, np.nan, 0.0]))


# the path 0 -> 1 -> 2, and the same path with {0, -1} weights for the
# peeling; edge ids 0, 1 in that order
PATH = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
PATH01 = DiGraph.from_edges(3, [(0, 1, -1), (1, 2, 0)])

# entry point -> (a valid array, call on an array); the weights are
# aligned with PATH's edges, the priorities with PATH01's vertices
SOLVER_ARRAY_ENTRY_POINTS = {
    "scaled_reweighting": (
        np.array([-1, 2]), lambda a: scaled_reweighting(PATH, a).price),
    "DeltaSteppingAssp": (
        np.array([1, 2]),
        lambda a: DeltaSteppingAssp()(PATH, 0, 0.0, weights=a)),
    "HopsetAssp": (
        np.array([1, 2]), lambda a: HopsetAssp()(PATH, 0, 0.0, weights=a)),
    "weighted_bfs_limited": (
        np.array([1, 2]),
        lambda a: weighted_bfs_limited(PATH, 0, 3, weights=a).dist),
    "dag01_limited_sssp-priorities": (
        np.array([1, 3, 2]),
        lambda a: dag01_limited_sssp(PATH01, 0, 2, priorities=a).dist),
}


class TestSolverArraysAreCast:
    """The solver entry points that take caller weights or priorities
    read them like the public constructor: fractional, NaN, infinite and
    misaligned arrays raise, integral floats are their int values."""

    @pytest.mark.parametrize("kind", BAD_KINDS)
    @pytest.mark.parametrize("entry", sorted(SOLVER_ARRAY_ENTRY_POINTS))
    def test_bad_array_raises(self, entry, kind):
        base, call = SOLVER_ARRAY_ENTRY_POINTS[entry]
        with pytest.raises(InputValidationError):
            call(bad_array(base, kind))

    @pytest.mark.parametrize("entry", sorted(SOLVER_ARRAY_ENTRY_POINTS))
    def test_integral_floats_count_as_ints(self, entry):
        base, call = SOLVER_ARRAY_ENTRY_POINTS[entry]
        np.testing.assert_array_equal(call(base.astype(np.float64)),
                                      call(base))

    @pytest.mark.parametrize("call", [
        lambda: scaled_reweighting(PATH, weights=[-0.9, 0.5]),
        lambda: DeltaSteppingAssp()(PATH, 0, 0.0, weights=[0.9, 0.9]),
        lambda: HopsetAssp()(PATH, 0, 0.0, weights=[0.9, 0.9]),
        lambda: weighted_bfs_limited(PATH, 0, 3, weights=[0.5, 0.5]),
        lambda: dag01_limited_sssp(PATH01, 0, 2,
                                   priorities=[0.5, 1.7, 2.2])],
        ids=["scaled_reweighting", "DeltaSteppingAssp", "HopsetAssp",
             "weighted_bfs_limited", "dag01_limited_sssp"])
    def test_fractions_are_not_truncated(self, call):
        # were a zero price, distances [0, 0, 0], a "requires strictly
        # positive weights" ValueError, and a VerificationError
        with pytest.raises(InputValidationError, match="integral"):
            call()
