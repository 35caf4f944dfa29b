"""Tests for the cost-model formulas and stage tagging."""

import pytest

from repro.runtime import CostAccumulator, lg, model


class TestFormulas:
    def test_lg_smoothed(self):
        assert lg(0) == 1.0  # log2(2)
        assert lg(2) == 2.0
        assert lg(14) == 4.0

    def test_map_linear_work_log_span(self):
        work, span = model.map_ws(1000)
        assert work == 1000
        assert span == pytest.approx(lg(1000))

    def test_map_per_item_work(self):
        assert model.map_ws(10, per_item_work=2.5)[0] == 25

    def test_degenerate_sizes_cost_at_least_one(self):
        for fn in (model.map_ws, model.reduce_ws, model.scan_ws,
                   model.sort_ws):
            work, span = fn(0)
            assert work >= 1
            assert span > 0

    def test_sort_n_log_n(self):
        work, span = model.sort_ws(1 << 10)
        assert work == pytest.approx((1 << 10) * lg(1 << 10))
        assert span == pytest.approx(lg(1 << 10) ** 2)

    def test_set_merge_small_into_big(self):
        work = model.set_merge_ws(8, 1 << 16)[0]
        # m lg(n/m) growth: merging few into many is cheap
        assert work < model.set_merge_ws(1 << 15, 1 << 16)[0]

    def test_oracle_span_sqrt_shape(self):
        assert model.oracle_span(400) / model.oracle_span(100) == \
            pytest.approx(2 * lg(400) / lg(100), rel=1e-9)

    def test_dijkstra_span_linearish(self):
        span = model.dijkstra_ws(100, 500)[1]
        assert span == pytest.approx(100 * lg(100))

    def test_bfs_round(self):
        work, span = model.bfs_round_ws(25, 1000)
        assert work == 25
        assert span == pytest.approx(lg(1000))

    def test_monotone_in_size(self):
        for fn in (model.map_ws, model.reduce_ws, model.scan_ws,
                   model.pack_ws, model.sort_ws, model.set_enumerate_ws):
            assert fn(2000)[0] >= fn(20)[0]
            assert fn(2000)[1] >= fn(20)[1]


class TestStageTagging:
    def test_single_stage(self):
        acc = CostAccumulator()
        with acc.stage("a"):
            acc.charge(10, 2)
        assert acc.stages["a"].work == 10
        assert acc.stages["a"].span == 2

    def test_stage_accumulates_across_entries(self):
        acc = CostAccumulator()
        for _ in range(3):
            with acc.stage("a"):
                acc.charge(5, 1)
        assert acc.stages["a"].work == 15

    def test_untagged_charges_not_attributed(self):
        acc = CostAccumulator()
        acc.charge(7, 7)
        with acc.stage("a"):
            acc.charge(3, 3)
        assert acc.stages["a"].work == 3
        assert acc.work == 10

    def test_stage_records_on_exception(self):
        acc = CostAccumulator()
        with pytest.raises(RuntimeError):
            with acc.stage("a"):
                acc.charge(4, 4)
                raise RuntimeError("boom")
        assert acc.stages["a"].work == 4

    def test_merge_stages_from(self):
        a, b = CostAccumulator(), CostAccumulator()
        with a.stage("x"):
            a.charge(1, 1)
        with b.stage("x"):
            b.charge(2, 2)
        with b.stage("y"):
            b.charge(5, 5)
        a.merge_stages_from(b)
        assert a.stages["x"].work == 3
        assert a.stages["y"].work == 5

    def test_stage_tracks_model_span(self):
        acc = CostAccumulator()
        with acc.stage("a"):
            acc.charge(10, span=1, span_model=8)
        assert acc.stages["a"].span == 1
        assert acc.stages["a"].span_model == 8
