"""End-to-end tests: 1-reweighting, scaling, and solve_sssp (Theorem 17)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assp import DeltaSteppingAssp, FlakyAssp, PerturbedAssp
from repro.baselines import bellman_ford, johnson_potential
from repro.core import (
    one_reweighting,
    scaled_reweighting,
    solve_sssp,
    solve_sssp_resilient,
)
from repro.core.engines import (
    REFERENCE_ENGINE,
    _PotentialEngine,
    engine_names,
)
from repro.graph import (
    DiGraph,
    hidden_potential_graph,
    is_feasible_price,
    negative_chain_gadget,
    planted_negative_cycle_graph,
    random_dag,
    random_digraph,
    scale_weights,
    validate_negative_cycle,
)
from repro.runtime import CostAccumulator
from oracles import nx_sssp_oracle

MODES = ["parallel", "sequential"]


def assert_solver_matches_oracle(g, source, engine, seed=0, **kw):
    res = solve_sssp(g, source, engine=engine, seed=seed, **kw)
    oracle = johnson_potential(g)
    if oracle.negative_cycle is not None:
        assert res.has_negative_cycle
        assert validate_negative_cycle(g, res.negative_cycle)
    else:
        assert not res.has_negative_cycle
        bf = bellman_ford(g, source)
        np.testing.assert_array_equal(res.dist, bf.dist)
        assert is_feasible_price(g, res.price)
    return res


@pytest.mark.parametrize("mode", MODES)
class TestOneReweighting:
    def test_feasible_immediately(self, mode):
        g = DiGraph.from_edges(2, [(0, 1, 3)])
        res = one_reweighting(g, mode=mode)
        assert res.feasible
        assert res.stats.iterations == 0

    def test_chain(self, mode):
        g = negative_chain_gadget(25)
        res = one_reweighting(g, mode=mode)
        assert res.feasible
        assert is_feasible_price(g, res.price)
        # O(sqrt(K)) iterations: 25 negatives -> ~5+ iterations, not 25
        assert res.stats.iterations <= 12

    def test_cycle_detected(self, mode):
        g = DiGraph.from_edges(2, [(0, 1, -1), (1, 0, 0)])
        res = one_reweighting(g, mode=mode)
        assert not res.feasible
        assert validate_negative_cycle(g, res.negative_cycle)

    def test_rejects_small_weights(self, mode):
        g = DiGraph.from_edges(2, [(0, 1, -2)])
        with pytest.raises(ValueError):
            one_reweighting(g, mode=mode)

    def test_mid_size_random_dag_is_feasible(self, mode):
        g = random_dag(300, 1500, weights=(0, -1, 1, 2),
                       weight_probs=(0.3, 0.3, 0.2, 0.2), seed=0)
        assert one_reweighting(g, mode=mode, seed=0).feasible

    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances(self, mode, seed):
        g = random_digraph(30, 150, min_w=-1, max_w=4, seed=seed)
        res = one_reweighting(g, mode=mode, seed=seed)
        if res.feasible:
            assert is_feasible_price(g, res.price)
            assert johnson_potential(g).negative_cycle is None
        else:
            assert validate_negative_cycle(g, res.negative_cycle)


@pytest.mark.parametrize("mode", MODES)
class TestScaling:
    def test_nonnegative_shortcut(self, mode):
        g = DiGraph.from_edges(3, [(0, 1, 5), (1, 2, 0)])
        res = scaled_reweighting(g, mode=mode)
        assert res.feasible
        assert res.stats.total_iterations == 0

    def test_deeply_negative_weights(self, mode):
        g = hidden_potential_graph(25, 120, potential_spread=200, seed=1)
        res = scaled_reweighting(g, mode=mode, seed=1)
        assert res.feasible
        assert is_feasible_price(g, res.price)
        assert len(res.stats.scales) >= 7  # log2(200) ~ 8 scales

    def test_scales_halve(self, mode):
        g = hidden_potential_graph(20, 90, potential_spread=60, seed=2)
        res = scaled_reweighting(g, mode=mode, seed=2)
        s = res.stats.scales
        assert all(s[i] == 2 * s[i + 1] for i in range(len(s) - 1))
        assert s[-1] == 1

    def test_cycle_at_some_scale(self, mode):
        g, cyc = planted_negative_cycle_graph(20, 80, 3, seed=3)
        g = scale_weights(g, 16)
        res = scaled_reweighting(g, mode=mode, seed=3)
        assert not res.feasible
        assert validate_negative_cycle(g, res.negative_cycle)


@pytest.mark.parametrize("engine", engine_names())
class TestSolveSssp:
    def test_diamond_negative(self, engine, diamond):
        res = solve_sssp(diamond, 0, engine=engine)
        assert res.dist.tolist() == [0, 1, 4, 3]

    def test_unreachable(self, engine):
        g = DiGraph.from_edges(3, [(0, 1, -2)])
        res = solve_sssp(g, 0, engine=engine)
        assert res.dist.tolist() == [0, -2, np.inf]

    def test_single_vertex(self, engine):
        g = DiGraph.from_edges(1, [])
        res = solve_sssp(g, 0, engine=engine)
        assert res.dist.tolist() == [0]

    def test_source_out_of_range(self, engine):
        with pytest.raises(ValueError):
            solve_sssp(DiGraph.from_edges(2, []), 5, engine=engine)

    @pytest.mark.parametrize("seed", range(6))
    def test_hidden_potential(self, engine, seed):
        g = hidden_potential_graph(30, 150, potential_spread=25, seed=seed)
        assert_solver_matches_oracle(g, 0, engine, seed=seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_random(self, engine, seed):
        g = random_digraph(24, 90, min_w=-3, max_w=7, seed=seed)
        assert_solver_matches_oracle(g, 0, engine, seed=seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_cycles(self, engine, seed):
        g, _ = planted_negative_cycle_graph(22, 90, 4, seed=seed)
        res = solve_sssp(g, 0, engine=engine, seed=seed)
        assert res.has_negative_cycle
        assert validate_negative_cycle(g, res.negative_cycle)

    def test_deep_chain(self, engine):
        g = negative_chain_gadget(40, tail=1)
        res = solve_sssp(g, 0, engine=engine)
        assert res.dist[40] == -40

    def test_parent_tree_realises_distances(self, engine):
        g = hidden_potential_graph(25, 120, seed=9)
        res = solve_sssp(g, 0, engine=engine, seed=9)
        for v in range(g.n):
            p = int(res.parent[v])
            if p >= 0:
                assert res.dist[v] == res.dist[p] + g.min_weight_between(p, v)

    def test_matches_networkx(self, engine):
        g = random_digraph(20, 80, min_w=-4, max_w=9, seed=42)
        expected, has_cycle = nx_sssp_oracle(g, 0)
        res = solve_sssp(g, 0, engine=engine, seed=42)
        if res.has_negative_cycle:
            # our detector is global; networkx's oracle is source-limited,
            # so confirm via johnson
            assert johnson_potential(g).negative_cycle is not None
        else:
            assert not has_cycle
            np.testing.assert_array_equal(res.dist, expected)

    def test_cost_charged(self, engine):
        g = hidden_potential_graph(20, 90, seed=4)
        acc = CostAccumulator()
        res = solve_sssp(g, 0, engine=engine, acc=acc, seed=4)
        assert acc.work == res.cost.work > 0
        assert res.cost.span_model > 0


class TestParallelSpecific:
    @pytest.mark.parametrize("engine", [PerturbedAssp(seed=5),
                                        DeltaSteppingAssp()],
                             ids=["perturbed", "delta-stepping"])
    def test_assp_engines(self, engine):
        g = hidden_potential_graph(25, 120, seed=6)
        res = solve_sssp(g, 0, assp_engine=engine, seed=6)
        bf = bellman_ford(g, 0)
        np.testing.assert_array_equal(res.dist, bf.dist)

    def test_flaky_assp_still_correct(self):
        g = negative_chain_gadget(20, tail=1)
        engine = FlakyAssp(p_fail=0.2, seed=13)
        res = solve_sssp(g, 0, assp_engine=engine)
        bf = bellman_ford(g, 0)
        np.testing.assert_array_equal(res.dist, bf.dist)

    def test_cycle_answer_keeps_stage_buckets(self):
        """A negative-cycle answer hands the caller its stage buckets
        along with its cost, as a distance answer does."""
        g, _ = planted_negative_cycle_graph(60, 240, 6, seed=3)
        acc = CostAccumulator()
        res = solve_sssp_resilient(g, 0, engine="goldberg_parallel",
                                   acc=acc, seed=3)
        assert res.has_negative_cycle
        assert acc.work == res.cost.work
        assert acc.stages["scc"].work > 0

    def test_engine_cycle_answer_keeps_stage_buckets(self):
        class StagedCycleEngine(_PotentialEngine):
            name = "staged-cycle"

            def _potential(self, g, *, seed, acc, backend, **options):
                with acc.stage("probe"):
                    acc.charge(3.0)
                return None, [0, 1], None

        g = DiGraph.from_edges(2, [(0, 1, -1), (1, 0, 0)])
        acc = CostAccumulator()
        res = StagedCycleEngine().solve(g, 0, acc=acc)
        assert res.negative_cycle == [0, 1]
        assert acc.stages["probe"].work == 3.0

    def test_modes_agree(self):
        for seed in range(5):
            g = random_digraph(18, 70, min_w=-2, max_w=5, seed=seed)
            rp = solve_sssp(g, 0, seed=seed)
            rs = solve_sssp(g, 0, engine="goldberg_sequential", seed=seed)
            assert rp.has_negative_cycle == rs.has_negative_cycle
            if not rp.has_negative_cycle:
                np.testing.assert_array_equal(rp.dist, rs.dist)

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_property_random_graphs(self, seed):
        g = random_digraph(14, 50, min_w=-3, max_w=6, seed=seed)
        assert_solver_matches_oracle(g, 0, REFERENCE_ENGINE, seed=seed)

    @given(st.integers(0, 100_000), st.integers(1, 400))
    @settings(max_examples=20, deadline=None)
    def test_property_weight_magnitudes(self, seed, spread):
        g = hidden_potential_graph(12, 50, potential_spread=spread,
                                   seed=seed)
        res = solve_sssp(g, 0, seed=seed)
        bf = bellman_ford(g, 0)
        assert not res.has_negative_cycle
        np.testing.assert_array_equal(res.dist, bf.dist)
