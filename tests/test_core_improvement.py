"""Tests for √k-improvement (§5/§6.1, Theorem 16)."""

import math

import numpy as np
import pytest

from repro.core import (
    count_negative_vertices,
    is_valid_improvement,
    negative_vertices,
    sqrt_k_improvement,
)
from repro.graph import (
    DiGraph,
    independent_negatives_gadget,
    negative_chain_gadget,
    random_digraph,
    validate_negative_cycle,
)
from repro.runtime import CostAccumulator


def clip_to_reweighting(g):
    """Clamp weights to >= -1 (valid 1-reweighting instance)."""
    return g.with_weights(np.maximum(g.w, -1))


class TestNegativeVertices:
    def test_counts_targets_of_negative_edges(self):
        g = DiGraph.from_edges(4, [(0, 1, -1), (2, 1, -1), (2, 3, 0)])
        assert negative_vertices(g).tolist() == [1]
        assert count_negative_vertices(g) == 1

    def test_empty(self):
        assert count_negative_vertices(DiGraph.from_edges(3, [])) == 0


class TestIsValidImprovement:
    def test_accepts_identity_when_feasible(self):
        g = DiGraph.from_edges(2, [(0, 1, 1)])
        assert is_valid_improvement(g, g.w, np.zeros(2, dtype=np.int64))

    def test_rejects_below_minus_one(self):
        g = DiGraph.from_edges(2, [(0, 1, -1)])
        assert not is_valid_improvement(g, g.w, np.array([-1, 0]))

    def test_rejects_new_negative_edge(self):
        g = DiGraph.from_edges(2, [(0, 1, 0)])
        assert not is_valid_improvement(g, g.w, np.array([-1, 0]))

    def test_rejects_insufficient_progress(self):
        g = DiGraph.from_edges(2, [(0, 1, -1)])
        assert not is_valid_improvement(g, g.w, np.zeros(2, dtype=np.int64),
                                        tau=1)

    def test_accepts_progress(self):
        g = DiGraph.from_edges(2, [(0, 1, -1)])
        assert is_valid_improvement(g, g.w, np.array([0, -1]), tau=1)


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
class TestSqrtKImprovement:
    def test_feasible_graph_no_op(self, mode):
        g = DiGraph.from_edges(3, [(0, 1, 2), (1, 2, 0)])
        out = sqrt_k_improvement(g, g.w, mode=mode)
        assert out.k == 0
        assert out.negative_cycle is None

    def test_independent_set_case(self, mode):
        g = independent_negatives_gadget(9)
        out = sqrt_k_improvement(g, g.w, mode=mode)
        assert out.method == "independent-set"
        assert out.k == 9
        assert out.improved >= 3  # ceil(sqrt(9))
        assert is_valid_improvement(g, g.w, out.price_delta,
                                    tau=out.improved)

    def test_chain_case(self, mode):
        g = negative_chain_gadget(16)
        out = sqrt_k_improvement(g, g.w, mode=mode)
        assert out.method == "chain"
        assert out.chain_length == 4  # ceil(sqrt(16))
        assert is_valid_improvement(g, g.w, out.price_delta, tau=4)

    def test_long_chain_improves_sqrt_k(self, mode):
        g = negative_chain_gadget(100, tail=2, seed=0)
        assert sqrt_k_improvement(g, g.w, mode=mode).improved >= 10

    def test_detects_pure_negative_cycle(self, mode):
        g = DiGraph.from_edges(3, [(0, 1, -1), (1, 2, 0), (2, 0, 0)])
        out = sqrt_k_improvement(g, g.w, mode=mode)
        assert out.method == "cycle"
        assert validate_negative_cycle(g, out.negative_cycle)

    def test_detects_mixed_sign_cycle(self, mode):
        # the +1 edge hides the cycle from Step 1; Step 3 must catch it
        g = DiGraph.from_edges(5, [(0, 1, -1), (1, 2, -1), (2, 3, -1),
                                   (3, 4, -1), (4, 0, 1)])
        out = sqrt_k_improvement(g, g.w, mode=mode)
        assert out.method == "cycle"
        assert validate_negative_cycle(g, out.negative_cycle)

    def test_improvement_eliminates_sqrt_k(self, mode):
        """Theorem 16 progress: >= ceil(sqrt(k)) negative vertices gone."""
        for seed in range(4):
            g = clip_to_reweighting(
                random_digraph(40, 200, min_w=-1, max_w=5, seed=seed))
            k = count_negative_vertices(g)
            if k == 0:
                continue
            out = sqrt_k_improvement(g, g.w, mode=mode, seed=seed)
            if out.method == "cycle":
                assert validate_negative_cycle(g, out.negative_cycle)
                continue
            w_after = g.w + out.price_delta[g.src] - out.price_delta[g.dst]
            k_after = count_negative_vertices(g, w_after)
            # k counts condensation negatives which can be below the raw
            # count; require ceil(sqrt(out.k)) raw progress
            need = math.isqrt(out.k)
            if need * need < out.k:
                need += 1
            assert k - k_after >= min(need, k)

    def test_rejects_weights_below_minus_one(self, mode):
        g = DiGraph.from_edges(2, [(0, 1, -5)])
        with pytest.raises(ValueError, match=">= -1"):
            sqrt_k_improvement(g, g.w, mode=mode)

    def test_zero_weight_cycle_contracted(self, mode):
        # 0-cycle {1,2} with a negative edge into it: contraction, then
        # the single negative vertex improves
        g = DiGraph.from_edges(4, [(0, 1, -1), (1, 2, 0), (2, 1, 0),
                                   (2, 3, 1)])
        out = sqrt_k_improvement(g, g.w, mode=mode)
        assert out.method in ("chain", "independent-set")
        assert is_valid_improvement(g, g.w, out.price_delta, tau=1)

    def test_cost_charged(self, mode):
        g = negative_chain_gadget(9)
        acc = CostAccumulator()
        sqrt_k_improvement(g, g.w, mode=mode, acc=acc)
        assert acc.work > 0

    def test_bad_mode_rejected(self, mode):
        g = DiGraph.from_edges(2, [(0, 1, -1)])
        with pytest.raises(ValueError, match="mode"):
            sqrt_k_improvement(g, g.w, mode="bogus")
