"""Resilience suite: fault injection, certified retries, degradation.

Run standalone with ``python -m pytest -m resilience``.

The core of the suite is the fault matrix: for each of the four fault
sites (``assp``, ``priorities``, ``price``, ``potential``) we prove that
the fault is (a) *caught* by the verifier that owns it, (b) *healed* by a
retry with fresh randomness when transient, and (c) *degraded* cleanly to
the Bellman–Ford fallback when persistent.  Everything is deterministic
under fixed seeds.
"""

import numpy as np
import pytest

from repro import (
    BudgetExceededError,
    BudgetGuard,
    Certificate,
    DiGraph,
    FaultPlan,
    InputValidationError,
    NegativeCycleError,
    ReproError,
    RetryExhaustedError,
    RetryPolicy,
    VerificationError,
    solve_sssp,
    solve_sssp_resilient,
)
from repro.baselines.bellman_ford import bellman_ford
from repro.baselines.johnson import johnson_potential
from repro.core import one_reweighting
from repro.core.engines import get_sssp_engine
from repro.dag01 import dag01_limited_sssp
from repro.graph import generators
from repro.graph.digraph import MAX_ABS_WEIGHT
from repro.graph.validate import check_overflow_safety, validate_negative_cycle
from repro.limited import limited_sssp
from repro.observability import Tracer, tracing
from repro.resilience import (
    FAULT_SITES,
    FaultSpec,
    Meter,
    fault_scope,
    guard_scope,
)
from repro.runtime import model
from repro.runtime.metrics import Cost, CostAccumulator

pytestmark = pytest.mark.resilience

SITES = tuple(FAULT_SITES)
ENGINES = ("goldberg_parallel", "goldberg_sequential", "bnw_scaling",
           "fischer_simple")


@pytest.fixture
def g():
    """Reference instance that exercises all four fault sites in parallel
    mode (assp 14 calls, priorities/price 4, potential 1 at seed 0)."""
    return generators.hidden_potential_graph(14, 40, potential_spread=6,
                                             seed=0)


@pytest.fixture
def gpos(g):
    return g.with_weights(np.abs(g.w))


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------

class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(InputValidationError, ReproError)
        assert issubclass(VerificationError, ReproError)
        assert issubclass(RetryExhaustedError, VerificationError)
        assert issubclass(BudgetExceededError, ReproError)
        assert issubclass(NegativeCycleError, ReproError)

    def test_backward_compat_with_stdlib_types(self):
        # existing callers catch ValueError/RuntimeError; keep that working
        assert issubclass(InputValidationError, ValueError)
        assert issubclass(VerificationError, RuntimeError)

    def test_budget_error_is_not_a_verification_error(self):
        # retry loops swallow VerificationError; a blown budget must not be
        # retried away
        assert not issubclass(BudgetExceededError, VerificationError)

    def test_retry_exhausted_carries_attempts(self, gpos):
        with pytest.raises(RetryExhaustedError) as ei, \
                fault_scope(FaultPlan.always("assp")):
            limited_sssp(gpos, 0, 30,
                         retry_policy=RetryPolicy(max_attempts=3))
        exc = ei.value
        assert exc.stage == "limited_sssp"
        assert len(exc.attempts) == 3
        assert not any(a.ok for a in exc.attempts)

    def test_certificate_verify_price(self, g):
        res = solve_sssp(g, 0)
        cert = res.certificate
        assert cert.kind == "price" and cert.checked
        bad = Certificate("price", price=cert.price + np.arange(g.n) * 100)
        assert not bad.verify(g)

    def test_certificate_verify_cycle(self):
        gc = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, -3), (2, 1, 1)])
        res = solve_sssp(gc, 0)
        assert res.certificate.kind == "negative_cycle"
        assert res.certificate.verify(gc)
        assert not Certificate("negative_cycle", cycle=[0, 1]).verify(gc)


# ---------------------------------------------------------------------------
# satellite 1: hardened DiGraph input validation
# ---------------------------------------------------------------------------

class TestInputHardening:
    def test_nan_weight_rejected(self):
        with pytest.raises(InputValidationError, match="NaN or inf"):
            DiGraph(2, [0], [1], np.array([float("nan")]))

    def test_inf_weight_rejected(self):
        with pytest.raises(InputValidationError, match="NaN or inf"):
            DiGraph(2, [0], [1], np.array([np.inf]))

    def test_fractional_float_rejected(self):
        with pytest.raises(InputValidationError, match="integral"):
            DiGraph.from_edges(2, [(0, 1, 2.5)])

    def test_integral_float_accepted(self):
        g = DiGraph.from_edges(2, [(0, 1, 2.0)])
        assert g.w.dtype == np.int64 and g.w[0] == 2

    def test_overflow_risk_weight_rejected(self):
        with pytest.raises(InputValidationError, match="overflow"):
            DiGraph.from_edges(2, [(0, 1, MAX_ABS_WEIGHT + 1)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(InputValidationError):
            DiGraph.from_edges(2, [(0, 5, 1)])
        # still a ValueError for legacy callers
        with pytest.raises(ValueError):
            DiGraph.from_edges(2, [(0, 5, 1)])

    def test_whole_instance_overflow_check(self):
        # per-weight magnitude is legal, but n·max|w| breaks the scaled
        # arithmetic headroom — only the whole-instance check sees that
        g = DiGraph.from_edges(40, [(0, 1, MAX_ABS_WEIGHT)])
        with pytest.raises(InputValidationError, match="overflow"):
            check_overflow_safety(g)

    def test_resilient_solver_validates_first(self):
        g = DiGraph.from_edges(3, [(0, 1, 1)])
        with pytest.raises(InputValidationError):
            solve_sssp_resilient(g, 7)


# ---------------------------------------------------------------------------
# fault plan determinism
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("bogus")

    def test_on_calls_schedule(self):
        plan = FaultPlan.on_calls("assp", 2)
        d = np.array([0.0, 1.0, 2.0])
        first = plan.corrupt_assp(d, 0)
        second = plan.corrupt_assp(d, 0)
        assert np.array_equal(first, d)          # call 1: no fire
        assert not np.array_equal(second, d)     # call 2: fires
        assert plan.fired("assp") == 1

    def test_same_seed_same_schedule(self, g):
        logs = []
        for _ in range(2):
            plan = FaultPlan.with_rate(0.4, seed=11)
            res = solve_sssp_resilient(g, 0, seed=5, fault_plan=plan,
                                       retry_policy=RetryPolicy(max_attempts=4))
            logs.append((plan.summary(),
                         [(e.site, e.call) for e in plan.events],
                         None if res.dist is None else res.dist.tolist()))
        assert logs[0] == logs[1]

    def test_reset_restarts_schedule(self):
        plan = FaultPlan.always("priorities", seed=2)
        a = plan.perturb_priorities(np.ones(6, dtype=np.int64))
        plan.reset()
        b = plan.perturb_priorities(np.ones(6, dtype=np.int64))
        assert np.array_equal(a, b) and plan.fired("priorities") == 1


# ---------------------------------------------------------------------------
# the fault matrix: caught / healed / degraded, per site
# ---------------------------------------------------------------------------

class TestFaultCaught:
    """Leg (a): each fault class trips the verifier that owns it."""

    def test_assp_caught_by_lemma10(self, gpos):
        with pytest.raises(RetryExhaustedError) as ei, \
                fault_scope(FaultPlan.always("assp")):
            limited_sssp(gpos, 0, 30,
                         retry_policy=RetryPolicy(max_attempts=1))
        assert ei.value.stage == "limited_sssp"

    def test_priorities_caught_by_contract_check(self):
        dag = generators.random_dag(20, 50, weights=(0, -1), seed=1)
        with pytest.raises(VerificationError) as ei, \
                fault_scope(FaultPlan.always("priorities")):
            dag01_limited_sssp(dag, 0, 10)
        assert ei.value.stage == "dag01_peeling"

    def test_price_caught_by_improvement_check(self, g):
        w1 = np.maximum(g.w, -1)
        with pytest.raises(RetryExhaustedError) as ei, \
                fault_scope(FaultPlan.always("price")):
            one_reweighting(g, w1, mode="sequential",
                            retry_policy=RetryPolicy(max_attempts=2))
        assert ei.value.stage == "sqrt_k_improvement"

    def test_potential_caught_by_feasibility_check(self, g):
        with pytest.raises(VerificationError, match="infeasible price"):
            solve_sssp(g, 0, fault_plan=FaultPlan.always("potential"))


class TestFaultHealed:
    """Leg (b): a transient fault (first call only) heals under retry —
    the end-to-end answer matches the clean run exactly."""

    @pytest.mark.parametrize("site", SITES)
    def test_transient_fault_heals(self, g, site):
        clean = solve_sssp(g, 0)
        plan = FaultPlan.on_calls(site, 1, seed=3)
        res = solve_sssp_resilient(g, 0, seed=0, fault_plan=plan)
        assert plan.fired(site) == 1, "fault never fired — wrong hook?"
        assert not res.provenance.used_fallback
        assert np.array_equal(res.dist, clean.dist)
        assert res.certificate.checked

    def test_potential_heal_is_visible_in_provenance(self, g):
        # the potential fault is only caught at the very top, so healing it
        # costs exactly one top-level retry
        plan = FaultPlan.on_calls("potential", 1, seed=3)
        res = solve_sssp_resilient(g, 0, seed=0, fault_plan=plan)
        assert res.provenance.retries == 1
        assert [a.ok for a in res.provenance.attempts] == [False, True]

    def test_attempt_seeds_escalate_deterministically(self):
        policy = RetryPolicy(max_attempts=4)
        assert policy.attempt_seed(123, 0) == 123   # bit-for-bit happy path
        seeds = [policy.attempt_seed(123, a) for a in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [policy.attempt_seed(123, a) for a in range(4)]


class TestFaultDegraded:
    """Leg (c): a persistent fault exhausts retries and degrades to the
    Bellman–Ford fallback, whose answer matches the oracle."""

    @pytest.mark.parametrize("site", SITES)
    def test_persistent_fault_falls_back(self, g, site):
        bf = bellman_ford(g, 0)
        plan = FaultPlan.always(site, seed=3)
        res = solve_sssp_resilient(g, 0, seed=0, fault_plan=plan,
                                   retry_policy=RetryPolicy(max_attempts=2))
        assert plan.fired(site) > 0
        assert res.provenance.engine == "fallback:bellman_ford"
        assert res.provenance.fallback_reason is not None
        assert res.provenance.faults["fired"][site] > 0
        assert np.array_equal(res.dist, bf.dist)
        assert res.certificate.kind == "price" and res.certificate.checked

    def test_no_fallback_raises(self, g):
        plan = FaultPlan.always("potential", seed=3)
        with pytest.raises(RetryExhaustedError):
            solve_sssp_resilient(g, 0, seed=0, fault_plan=plan,
                                 retry_policy=RetryPolicy(max_attempts=2),
                                 fallback=False)

    def test_fallback_detects_cycles_too(self):
        gc, _ = generators.planted_negative_cycle_graph(12, 40, 3, seed=4)
        plan = FaultPlan.always(*SITES, seed=3)
        res = solve_sssp_resilient(gc, 0, fault_plan=plan,
                                   retry_policy=RetryPolicy(max_attempts=2))
        assert res.has_negative_cycle
        assert validate_negative_cycle(gc, res.negative_cycle)


# ---------------------------------------------------------------------------
# budget guards
# ---------------------------------------------------------------------------

class TestBudget:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_tiny_budget_falls_back(self, g, engine):
        res = solve_sssp_resilient(g, 0, engine=engine, max_work=1.0)
        assert res.provenance.used_fallback
        assert "BudgetExceededError" in res.provenance.fallback_reason
        assert np.array_equal(res.dist, bellman_ford(g, 0).dist)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_tiny_budget_no_fallback_raises(self, g, engine):
        with pytest.raises(BudgetExceededError) as ei:
            solve_sssp_resilient(g, 0, engine=engine, max_work=1.0,
                                 fallback=False)
        assert ei.value.spent_work > ei.value.max_work == 1.0

    def test_ample_budget_is_invisible(self, g):
        clean = solve_sssp(g, 0)
        res = solve_sssp_resilient(g, 0, max_work=1e12)
        assert not res.provenance.used_fallback
        assert np.array_equal(res.dist, clean.dist)

    def test_guard_debits_and_meter_deltas(self):
        guard = BudgetGuard(max_work=100.0)
        acc = CostAccumulator()
        meter = Meter(guard, acc)
        acc.charge(*model.map_ws(30))
        meter.tick()
        assert guard.spent_work > 0
        assert guard.remaining_work() < 100.0
        acc.charge(*model.map_ws(10 ** 6))
        with pytest.raises(BudgetExceededError):
            meter.tick()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_span_budget(self, g, engine):
        with pytest.raises(BudgetExceededError):
            solve_sssp_resilient(g, 0, engine=engine, max_span=0.5,
                                 fallback=False)

    @pytest.mark.parametrize("field", ["max_work", "max_span"])
    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("-inf")])
    def test_nan_or_negative_ceiling_rejected(self, field, bad):
        # no spend compares greater than NaN, so a NaN ceiling never trips
        with pytest.raises(InputValidationError):
            BudgetGuard(**{field: bad})

    @pytest.mark.parametrize("field", ["max_work", "max_span"])
    def test_nan_budget_rejected_by_solver(self, g, field):
        with pytest.raises(InputValidationError):
            solve_sssp_resilient(g, 0, fallback=False,
                                 **{field: float("nan")})

    def test_infinite_ceiling_means_no_limit(self):
        guard = BudgetGuard(max_work=float("inf"), max_span=float("inf"))
        guard.debit(Cost(*model.map_ws(10 ** 12)))
        assert guard.remaining_work() == float("inf")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_tiny_budget_stops_mid_solve(self, engine):
        """Every engine ticks the guard at its loop heads, so a tiny
        budget stops it long before its final Dijkstra."""
        g = generators.hidden_potential_graph(400, 1600, seed=3)
        full = get_sssp_engine(engine).solve(g, 0).cost.work
        tr = Tracer()
        with tracing(tr), pytest.raises(BudgetExceededError) as ei:
            solve_sssp_resilient(g, 0, engine=engine, max_work=1000,
                                 fallback=False)
        assert ei.value.spent_work < full
        assert "final-dijkstra" not in {s.name for s in tr.spans}


# the golden-cost instances: two feasible, one with a negative cycle
BUDGET_GRAPHS = {
    "hp16": lambda: generators.hidden_potential_graph(16, 40, seed=1),
    "hp24": lambda: generators.hidden_potential_graph(24, 70, seed=2),
    "rd20neg": lambda: generators.random_digraph(20, 50, min_w=-3,
                                                 max_w=9, seed=5),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(BUDGET_GRAPHS))
class TestBudgetEndsAtTheCost:
    """Ticks count only work already charged, once, and the tail
    settles the guard to the solve's exact cost."""

    def test_unlimited_guard_spends_exactly_the_cost(self, case, engine):
        guard = BudgetGuard(max_work=float("inf"), max_span=float("inf"))
        with guard_scope(guard):
            res = get_sssp_engine(engine).solve(BUDGET_GRAPHS[case](), 0,
                                                seed=7)
        assert guard.spent_work == pytest.approx(res.cost.work, rel=1e-12)
        assert guard.spent_span == pytest.approx(res.cost.span_model,
                                                 rel=1e-12)

    def test_ceiling_equal_to_the_cost_succeeds(self, case, engine):
        g = BUDGET_GRAPHS[case]()
        cost = get_sssp_engine(engine).solve(g, 0, seed=7).cost
        res = solve_sssp_resilient(g, 0, engine=engine, seed=7,
                                   max_work=cost.work,
                                   max_span=cost.span_model, fallback=False)
        assert not res.provenance.used_fallback
        assert res.cost == cost

    def test_ceiling_below_the_cost_raises(self, case, engine):
        g = BUDGET_GRAPHS[case]()
        work = get_sssp_engine(engine).solve(g, 0, seed=7).cost.work
        with pytest.raises(BudgetExceededError):
            solve_sssp_resilient(g, 0, engine=engine, seed=7,
                                 max_work=np.nextafter(work, 0),
                                 fallback=False)


@pytest.mark.parametrize("engine", ["goldberg_parallel",
                                    "goldberg_sequential"])
@pytest.mark.parametrize("n,m,seed", [(64, 256, 1), (250, 1000, 2),
                                      (160, 640, 3), (24, 70, 2),
                                      (16, 40, 1)])
def test_solve_sssp_guard_spends_exactly_the_cost(engine, n, m, seed):
    """``solve_sssp(guard=...)`` counts the chain-elimination work once
    and the scale-level maps and the final Dijkstra at all."""
    g = generators.hidden_potential_graph(n, m, seed=seed)
    guard = BudgetGuard(max_work=float("inf"))
    res = solve_sssp(g, 0, seed=7, engine=engine, guard=guard)
    assert guard.spent_work == pytest.approx(res.cost.work, rel=1e-12)


def potential_cost(engine, g):
    """The work of ``engine``'s potential on ``g`` at seed 1, the search a
    ``potential`` fault then corrupts."""
    acc = CostAccumulator()
    get_sssp_engine(engine)._potential(g, seed=1, acc=acc, backend=None)
    return acc.work


@pytest.mark.parametrize("engine", ENGINES)
def test_failed_attempt_settles_the_guard(engine):
    """A potential that fails its certificate has spent its work: the
    guard reads its exact cost, not the spend at its last meter tick
    (for goldberg_parallel 129,567.38 of 132,667.38)."""
    g = generators.hidden_potential_graph(60, 240, seed=3)
    guard = BudgetGuard()
    with guard_scope(guard), pytest.raises(VerificationError):
        get_sssp_engine(engine).solve(
            g, 0, seed=1, fault_plan=FaultPlan.always("potential"))
    assert guard.spent_work == pytest.approx(potential_cost(engine, g),
                                             rel=1e-12)


def test_failed_attempt_past_the_ceiling_raises_the_budget_error():
    """When settling a failed attempt breaches the ceiling, the budget
    error propagates, chained from the verification failure."""
    g = generators.hidden_potential_graph(60, 240, seed=3)
    work = potential_cost("goldberg_parallel", g)
    with guard_scope(BudgetGuard(max_work=np.nextafter(work, 0))), \
            pytest.raises(BudgetExceededError) as info:
        get_sssp_engine("goldberg_parallel").solve(
            g, 0, seed=1, fault_plan=FaultPlan.always("potential"))
    assert isinstance(info.value.__context__, VerificationError)


# ---------------------------------------------------------------------------
# negative-cycle surfacing
# ---------------------------------------------------------------------------

class TestNegativeCycle:
    def test_raise_on_cycle(self):
        gc = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, -3), (2, 1, 1)])
        with pytest.raises(NegativeCycleError) as ei:
            solve_sssp_resilient(gc, 0, raise_on_cycle=True)
        assert validate_negative_cycle(gc, ei.value.cycle)

    def test_cycle_result_by_default(self):
        gc = DiGraph.from_edges(3, [(0, 1, 1), (1, 2, -3), (2, 1, 1)])
        res = solve_sssp_resilient(gc, 0)
        assert res.has_negative_cycle and res.certificate.checked


# ---------------------------------------------------------------------------
# satellite 3 sweep: 50 random graphs vs the Bellman–Ford oracle,
# faults enabled
# ---------------------------------------------------------------------------

class TestSeedSweep:
    @pytest.mark.parametrize("i", range(50))
    def test_resilient_solver_matches_oracle(self, i):
        g = generators.random_digraph(12, 36, min_w=-5, max_w=9, seed=100 + i)
        plan = FaultPlan.with_rate(0.3, seed=i)
        res = solve_sssp_resilient(g, 0, seed=i, fault_plan=plan,
                                   retry_policy=RetryPolicy(max_attempts=3))
        # whole-graph oracle: the solver certifies cycles anywhere in the
        # graph, not just those reachable from the source
        if johnson_potential(g).negative_cycle is not None:
            assert res.has_negative_cycle
            assert validate_negative_cycle(g, res.negative_cycle)
        else:
            assert not res.has_negative_cycle
            assert np.array_equal(res.dist, bellman_ford(g, 0).dist)
        assert res.certificate.checked
