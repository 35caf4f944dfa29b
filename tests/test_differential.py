"""Cross-engine differential harness over the SSSP registry.

Every test here asserts one instance of the registry contract: engines
given the same ``(graph, source, seed)`` return bit-identical distances
or agreeing, independently verified negative-cycle certificates — on
every execution backend, at every pool size, and with fault injection
turned on.  Disagreements commit the offending graph as a DIMACS
fixture under ``tests/fixtures/differential/`` (see
:mod:`tests.differential`); Hypothesis shrinks before committing, so
the fixture left behind is minimal.

Run with ``pytest -m differential``; the CI job sets
``REPRO_DIFF_POOL_SIZES=1,4`` to widen the backend matrix.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import (
    ALL_ENGINES,
    NON_REFERENCE_ENGINES,
    assert_engines_agree,
    committed_fixtures,
    graph_family_sweep,
    pool_sizes,
    run_engine,
)
from oracles import nx_sssp_oracle
from repro.core.engines import (
    REFERENCE_ENGINE,
    SSSP_ENGINES,
    engine_names,
    get_sssp_engine,
)
from repro.graph import DiGraph
from repro.graph.generators import (
    hidden_potential_graph,
    planted_negative_cycle_graph,
    random_digraph,
)
from repro.graph.io import read_dimacs
from repro.resilience.errors import InputValidationError
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.runtime.registry import Registry

pytestmark = pytest.mark.differential

FAMILIES = sorted(graph_family_sweep(seed=0))
SEED = 2


# ---------------------------------------------------------------------------
# registry mechanics


class TestRegistry:
    def test_all_expected_engines_registered(self):
        assert {"goldberg_parallel", "goldberg_sequential",
                "bnw_scaling", "fischer_simple"} <= set(engine_names())

    def test_reference_engine_is_registered(self):
        assert REFERENCE_ENGINE in SSSP_ENGINES

    def test_unknown_engine_lists_known_names(self):
        with pytest.raises(ValueError, match="goldberg_parallel"):
            get_sssp_engine("no-such-engine")

    def test_duplicate_registration_rejected(self):
        reg = Registry("demo engine")
        reg.register("x", object)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("x", object)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_engine_name_attribute_matches_registry_key(self, engine):
        assert get_sssp_engine(engine).name == engine

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_source_out_of_range_rejected(self, engine):
        g = random_digraph(5, 10, min_w=-2, max_w=4, seed=0)
        with pytest.raises(InputValidationError):
            run_engine(engine, g, 7)


# ---------------------------------------------------------------------------
# the family sweep: each engine against the independent networkx oracle,
# then all engines against each other bit-for-bit


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("family", FAMILIES)
class TestEngineVsOracle:
    def test_engine_matches_oracle(self, family, engine):
        g = graph_family_sweep(seed=SEED)[family]
        res = run_engine(engine, g, 0, seed=SEED)
        oracle_dist, oracle_cycle = nx_sssp_oracle(g, 0)
        assert res.has_negative_cycle == oracle_cycle, family
        if not oracle_cycle:
            np.testing.assert_array_equal(res.dist, oracle_dist)


@pytest.mark.parametrize("family", FAMILIES)
def test_engines_agree_on_family(family):
    g = graph_family_sweep(seed=SEED)[family]
    assert_engines_agree(g, 0, seed=SEED, label=f"family-{family}")


@pytest.mark.parametrize("source", (0, 3, 11))
def test_engines_agree_from_other_sources(source):
    g = graph_family_sweep(seed=5)["hidden-potential"]
    assert_engines_agree(g, source, seed=5, label=f"source-{source}")


# ---------------------------------------------------------------------------
# negative-cycle verdicts: every engine certifies, certificates verify
# independently


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("cycle_len", (2, 3, 7))
class TestCycleVerdicts:
    def test_cycle_detected_and_certified(self, cycle_len, engine):
        g, _ = planted_negative_cycle_graph(40, 160, cycle_len,
                                            seed=cycle_len)
        res = run_engine(engine, g, 0, seed=1)
        assert res.has_negative_cycle
        assert res.certificate is not None
        assert res.certificate.verify(g)
        assert res.dist is None and res.price is None


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_single_negative_self_loop(engine):
    g = DiGraph.from_edges(3, [(0, 1, 2), (1, 1, -1), (1, 2, 0)])
    res = run_engine(engine, g, 0, seed=0)
    assert res.has_negative_cycle
    assert res.certificate.verify(g)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_zero_weight_cycle_is_not_negative(engine):
    g = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, -1), (2, 1, 1)])
    res = run_engine(engine, g, 0, seed=0)
    assert not res.has_negative_cycle
    np.testing.assert_array_equal(res.dist, [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# execution backends: same distances on serial / thread / process, at
# every configured pool size


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("backend", ("serial", "thread"))
class TestBackendMatrix:
    def test_backend_bit_identical(self, engine, backend):
        from repro.runtime.backends import SerialBackend
        from repro.runtime.executor import ForkJoinPool

        g = graph_family_sweep(seed=SEED)["hidden-potential"]
        base = run_engine(engine, g, 0, seed=SEED)
        for size in pool_sizes():
            be = (SerialBackend(grain=32) if backend == "serial"
                  else ForkJoinPool(size, grain=32))
            try:
                res = run_engine(engine, g, 0, seed=SEED, backend=be)
            finally:
                be.shutdown()
            assert np.array_equal(base.dist, res.dist), (engine, backend,
                                                         size)
            assert base.cost == res.cost, (engine, backend, size)


@pytest.mark.parametrize("engine", ("bnw_scaling", "fischer_simple"))
def test_process_backend_bit_identical(engine):
    """The expensive rung, kept to the two new engines (the Goldberg
    engines' process-backend behaviour is covered by the chaos suite)."""
    from repro.runtime.backends import ProcessForkJoinPool

    g = graph_family_sweep(seed=SEED)["hidden-potential"]
    base = run_engine(engine, g, 0, seed=SEED)
    size = pool_sizes()[-1]
    be = ProcessForkJoinPool(size, grain=32)
    try:
        res = run_engine(engine, g, 0, seed=SEED, backend=be)
    finally:
        be.shutdown()
    assert np.array_equal(base.dist, res.dist)
    assert base.cost == res.cost


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_backend_name_string_accepted(engine):
    g = hidden_potential_graph(24, 96, seed=3)
    base = run_engine(engine, g, 0, seed=3)
    res = run_engine(engine, g, 0, seed=3, backend="serial")
    assert np.array_equal(base.dist, res.dist)


# ---------------------------------------------------------------------------
# fault injection: the potential site corrupts every engine's witness;
# the resilient wrapper must heal it and land on the same distances


@pytest.mark.parametrize("engine", ALL_ENGINES)
class TestFaultInjection:
    def test_potential_fault_healed_by_retry(self, engine):
        g = graph_family_sweep(seed=SEED)["hidden-potential"]
        clean = run_engine(engine, g, 0, seed=SEED)
        plan = FaultPlan([FaultSpec("potential", calls=(1,))], seed=11)
        res = run_engine(engine, g, 0, seed=SEED, fault_plan=plan,
                         resilient=True)
        assert np.array_equal(clean.dist, res.dist)
        assert plan.fired("potential") == 1
        recs = [(a.attempt, a.ok) for a in res.provenance.attempts]
        assert recs == [(0, False), (1, True)]

    def test_persistent_fault_degrades_to_fallback(self, engine):
        g = hidden_potential_graph(32, 128, seed=4)
        clean = run_engine(engine, g, 0, seed=4)
        plan = FaultPlan([FaultSpec("potential")], seed=11)  # every call
        res = run_engine(engine, g, 0, seed=4, fault_plan=plan,
                         resilient=True,
                         retry_policy=RetryPolicy(max_attempts=2))
        assert res.provenance.used_fallback
        assert res.provenance.engine == "fallback:bellman_ford"
        np.testing.assert_array_equal(clean.dist, res.dist)

    def test_fault_identical_across_backends(self, engine):
        g = hidden_potential_graph(32, 128, seed=4)
        results = []
        for backend in (None, "serial", "thread"):
            plan = FaultPlan([FaultSpec("potential", calls=(1,))], seed=7)
            results.append(run_engine(engine, g, 0, seed=4,
                                      fault_plan=plan, resilient=True,
                                      backend=backend))
        assert np.array_equal(results[0].dist, results[1].dist)
        assert np.array_equal(results[0].dist, results[2].dist)


# ---------------------------------------------------------------------------
# resilient-wrapper integration


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_resilient_provenance_records_engine(engine):
    g = hidden_potential_graph(24, 96, seed=6)
    res = run_engine(engine, g, 0, seed=6, resilient=True)
    assert res.provenance is not None
    assert res.provenance.engine == engine


@pytest.mark.parametrize("engine", NON_REFERENCE_ENGINES)
def test_resilient_matches_reference(engine):
    g = graph_family_sweep(seed=9)["random-mixed"]
    ref = run_engine(REFERENCE_ENGINE, g, 0, seed=9, resilient=True)
    res = run_engine(engine, g, 0, seed=9, resilient=True)
    assert ref.has_negative_cycle == res.has_negative_cycle
    if not ref.has_negative_cycle:
        assert np.array_equal(ref.dist, res.dist)


@pytest.mark.parametrize("engine", ("bnw_scaling", "fischer_simple"))
def test_checkpoint_rejected_for_non_goldberg(tmp_path, engine):
    g = hidden_potential_graph(16, 48, seed=0)
    with pytest.raises(InputValidationError, match="checkpoint"):
        run_engine(engine, g, 0, resilient=True,
                   checkpoint_path=tmp_path / "ck.bin")


# ---------------------------------------------------------------------------
# determinism: same seed → bit-identical everything; engines are pure


@pytest.mark.parametrize("engine", ALL_ENGINES)
class TestDeterminism:
    def test_repeat_solve_bit_identical(self, engine):
        g = graph_family_sweep(seed=13)["zero-heavy"]
        a = run_engine(engine, g, 0, seed=13)
        b = run_engine(engine, g, 0, seed=13)
        assert np.array_equal(a.dist, b.dist)
        assert np.array_equal(a.price, b.price)
        assert a.cost == b.cost

    def test_input_graph_never_mutated(self, engine):
        g = graph_family_sweep(seed=13)["random-mixed"]
        w0, src0, dst0 = g.w.copy(), g.src.copy(), g.dst.copy()
        run_engine(engine, g, 0, seed=13)
        assert np.array_equal(g.w, w0)
        assert np.array_equal(g.src, src0)
        assert np.array_equal(g.dst, dst0)


# ---------------------------------------------------------------------------
# metamorphic property tests (Hypothesis): random graphs incl. negative
# edges, near-negative-cycles, disconnected sources.  Failures shrink
# first, then commit the minimal graph as a fixture (assert_engines_agree
# dumps on every failing call, so the last — smallest — case wins).


@st.composite
def small_mixed_graphs(draw, w_min=-3, w_max=6):
    n = draw(st.integers(2, 9))
    m = draw(st.integers(0, 3 * n))
    seed = draw(st.integers(0, 50_000))
    return random_digraph(n, m, min_w=w_min, max_w=w_max, seed=seed)


@st.composite
def near_cycle_graphs(draw):
    """A cycle whose total weight hovers around zero: slight perturbation
    flips the verdict, the sharpest place to split engines."""
    k = draw(st.integers(2, 6))
    slack = draw(st.integers(-2, 2))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    ws = rng.integers(-3, 4, size=k)
    ws[-1] = slack - int(ws[:-1].sum())  # cycle total == slack
    edges = [(i, (i + 1) % k, int(ws[i])) for i in range(k)]
    extra = draw(st.integers(0, 2 * k))
    n = k + draw(st.integers(0, 3))
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        edges.append((int(u), int(v), int(rng.integers(0, 5))))
    return DiGraph.from_edges(n, edges)


class TestMetamorphic:
    @given(small_mixed_graphs(), st.integers(0, 100))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_random_graphs_agree(self, g, seed):
        assert_engines_agree(g, 0, seed=seed, label="hyp-random")

    @given(near_cycle_graphs(), st.integers(0, 100))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_near_negative_cycles_agree(self, g, seed):
        assert_engines_agree(g, 0, seed=seed, label="hyp-near-cycle")

    @given(small_mixed_graphs(w_min=-2, w_max=5), st.integers(0, 100))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_disconnected_source_agrees(self, g, seed):
        """Isolate the source: append a fresh vertex with no edges and
        solve from it — every engine must return all-inf except the
        source itself."""
        iso = DiGraph(g.n + 1, g.src, g.dst, g.w)
        results = assert_engines_agree(iso, g.n, seed=seed,
                                       label="hyp-disconnected")
        for res in results.values():
            if not res.has_negative_cycle:
                assert res.dist[g.n] == 0.0
                assert np.isinf(np.delete(res.dist, g.n)).all()

    @given(small_mixed_graphs(), st.integers(1, 5), st.integers(0, 100))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_weight_scaling_metamorphic(self, g, c, seed):
        """Multiplying all weights by c > 0 multiplies distances by c
        and never changes the cycle verdict — on every engine."""
        scaled = DiGraph(g.n, g.src, g.dst, g.w * c)
        for engine in ALL_ENGINES:
            a = run_engine(engine, g, 0, seed=seed)
            b = run_engine(engine, scaled, 0, seed=seed)
            assert a.has_negative_cycle == b.has_negative_cycle, engine
            if not a.has_negative_cycle:
                np.testing.assert_array_equal(a.dist * c, b.dist)

    @given(small_mixed_graphs(w_min=0, w_max=7), st.integers(0, 100))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_potential_shift_metamorphic(self, g, seed):
        """Reweighting by any potential (w' = w + p(u) − p(v))
        telescopes path sums to dist'(v) = dist(v) + p(s) − p(v) —
        reachability-preserving and engine independent."""
        rng = np.random.default_rng(seed)
        p = rng.integers(-5, 6, size=g.n).astype(np.int64)
        shifted = DiGraph(g.n, g.src, g.dst,
                          g.w + p[g.src] - p[g.dst]
                          if g.m else g.w.copy())
        for engine in ALL_ENGINES:
            a = run_engine(engine, g, 0, seed=seed)
            b = run_engine(engine, shifted, 0, seed=seed)
            assert a.has_negative_cycle == b.has_negative_cycle, engine
            if not a.has_negative_cycle:
                finite = np.isfinite(a.dist)
                assert (np.isfinite(b.dist) == finite).all(), engine
                np.testing.assert_array_equal(
                    a.dist[finite]
                    + p[0] - p[np.flatnonzero(finite)],
                    b.dist[finite])


# ---------------------------------------------------------------------------
# committed regression fixtures replay forever


def test_committed_fixtures_replay():
    fixtures = committed_fixtures()
    assert fixtures, "expected at least one committed seed fixture"
    for path in fixtures:
        g = read_dimacs(path)
        assert_engines_agree(g, 0, seed=0, label=f"replay-{path.stem}")


def test_fixture_dump_roundtrips(tmp_path, monkeypatch):
    import differential as diff

    monkeypatch.setattr(diff, "FIXTURE_DIR", tmp_path)
    g = random_digraph(6, 12, min_w=-2, max_w=4, seed=1)
    path = diff.dump_disagreement(g, "unit test: odd/label")
    assert path.parent == tmp_path
    h = read_dimacs(path)
    assert (h.n, h.m) == (g.n, g.m)
    assert np.array_equal(np.sort(h.w), np.sort(g.w))
