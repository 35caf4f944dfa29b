"""Golden model-cost snapshots.

Three canned graphs, each solved with a fixed seed, whose exact
``Cost(work, span, span_model)`` triples are embedded as literals.  Model
costs are pure functions of (graph, seed) — independent of host, wall
clock, and worker-pool size (verified below on a one-worker and a
four-worker pool) — so these are equality assertions, not tolerances:
any change to cost accounting or solver control flow shows up as a
precise diff.

Complements ``test_golden_traces.py`` (which pins the *structural*
skeleton and integer counters but deliberately not floating-point
totals) and backs the benchmark pipeline's bit-exact gating claim: if
these pass, ``repro bench compare`` comparing deterministic columns
across commits is comparing like with like.

The literals were captured by running the solver once and embedding its
output.  To re-baseline after an intentional change: rerun, paste the
new triples, and say why in the commit.
"""

from __future__ import annotations

import pytest

from repro.core.extensions import all_pairs_shortest_paths
from repro.core.sssp import solve_sssp
from repro.graph.generators import hidden_potential_graph, random_digraph
from repro.runtime.metrics import Cost

SEED = 7

# case -> (graph factory, has_negative_cycle,
#          goldberg_parallel cost, goldberg_sequential cost)
GOLDEN = {
    "hp16": (
        lambda: hidden_potential_graph(16, 40, seed=1), False,
        Cost(10114.663239543865, 2467.0133841313423, 2291.9753105156906),
        Cost(2248.724466734709, 538.0505183611444, 538.0505183611444),
    ),
    "hp24": (
        lambda: hidden_potential_graph(24, 70, seed=2), False,
        Cost(47798.57598992031, 7965.099370382648, 6471.853530818124),
        Cost(8452.471412342344, 1549.2385992589468, 1549.2385992589468),
    ),
    "rd20neg": (
        lambda: random_digraph(20, 50, min_w=-3, max_w=9, seed=5), True,
        Cost(494.0, 129.91043204603687, 139.27937452685808),
        Cost(184.0, 22.339850002884624, 22.339850002884624),
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
@pytest.mark.parametrize("engine", ["goldberg_parallel",
                                    "goldberg_sequential"])
def test_golden_cost(case, engine):
    make, neg, par_cost, seq_cost = GOLDEN[case]
    res = solve_sssp(make(), 0, seed=SEED, engine=engine)
    assert res.has_negative_cycle == neg
    want = par_cost if engine == "goldberg_parallel" else seq_cost
    assert res.cost == want


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_cost_pool_size_independent(case):
    """The goldberg_parallel model cost must not depend on the worker pool's
    size — that is what makes cross-machine bit-exact gating sound."""
    from repro.runtime.executor import ForkJoinPool

    make, _, par_cost, _ = GOLDEN[case]
    for pool in (ForkJoinPool(1), ForkJoinPool(4, grain=8)):
        with pool:
            res = solve_sssp(make(), 0, seed=SEED, backend=pool)
        assert res.cost == par_cost


def test_golden_apsp_cost():
    """APSP folds one branch per source through ``join_parallel``.  Its
    work adds the branch works left to right: Python 3.12's compensated
    ``sum()`` would end in ``...3c70p+12`` instead of ``...3c71p+12``."""
    res = all_pairs_shortest_paths(hidden_potential_graph(12, 48, seed=3),
                                   seed=SEED)
    assert res.cost.work.hex() == "0x1.a6c8792353c71p+12"
    assert res.cost == Cost(6764.529574706322, 992.8384648508452,
                            1008.8487269163377)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_cost_repeatable(case):
    make, _, _, _ = GOLDEN[case]
    a = solve_sssp(make(), 0, seed=SEED)
    b = solve_sssp(make(), 0, seed=SEED)
    assert a.cost == b.cost


@pytest.mark.parametrize("case", sorted(GOLDEN))
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_golden_cost_backend_invariant(case, backend):
    """The execution backend changes *where* blocks run, never *what* is
    computed or charged: model costs (and distances) must be bit-exact
    across serial, thread, and process backends."""
    import numpy as np

    from repro.runtime.backends import (
        ProcessForkJoinPool,
        SerialBackend,
    )
    from repro.runtime.executor import ForkJoinPool

    make, neg, par_cost, _ = GOLDEN[case]
    base = solve_sssp(make(), 0, seed=SEED)
    be = {
        "serial": lambda: SerialBackend(grain=8),
        "thread": lambda: ForkJoinPool(2, grain=8),
        "process": lambda: ProcessForkJoinPool(2, grain=8,
                                               heartbeat_interval=0.02,
                                               liveness_timeout=1.0),
    }[backend]()
    try:
        res = solve_sssp(make(), 0, seed=SEED, backend=be)
    finally:
        be.shutdown()
    assert res.has_negative_cycle == neg
    assert res.cost == par_cost
    assert res.cost == base.cost
    if base.dist is not None:
        assert np.array_equal(res.dist, base.dist)


# ---------------------------------------------------------------------------
# per-engine golden costs (the SSSP engine registry)
#
# Same three canned graphs, solved by each non-Goldberg registry engine
# at the same fixed seed.  Captured the same way: run once, embed the
# triple, re-baseline only with an explanation in the commit.

ENGINE_GOLDEN = {
    "bnw_scaling": {
        "hp16": Cost(4792.1456913196635, 825.6112339724759,
                     825.6112339724759),
        "hp24": Cost(10509.05300966929, 1327.1350449587405,
                     1327.1350449587405),
        "rd20neg": Cost(851.0, 194.58414452889807, 194.58414452889807),
    },
    "fischer_simple": {
        "hp16": Cost(1385.4606006033046, 299.130956414956,
                     299.130956414956),
        "hp24": Cost(3278.816287012067, 607.1015863912721,
                     607.1015863912721),
        "rd20neg": Cost(5258.5162929985845, 1205.9756198944747,
                        1205.9756198944747),
    },
}


@pytest.mark.parametrize("engine", sorted(ENGINE_GOLDEN))
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_engine_golden_cost(engine, case):
    from repro.core.engines import get_sssp_engine

    make, neg, _, _ = GOLDEN[case]
    res = get_sssp_engine(engine).solve(make(), 0, seed=SEED)
    assert res.has_negative_cycle == neg
    assert res.cost == ENGINE_GOLDEN[engine][case]


@pytest.mark.parametrize("engine", sorted(ENGINE_GOLDEN))
@pytest.mark.parametrize("case", sorted(GOLDEN))
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_engine_golden_cost_backend_invariant(engine, case, backend):
    """Registry engines run their block maps on the chosen backend, but
    model costs are charged identically everywhere: the golden triple
    must hold bit-exactly on serial, thread, and process backends (and
    hence at any pool size — the partition is grain-determined)."""
    import numpy as np

    from repro.core.engines import get_sssp_engine
    from repro.runtime.backends import ProcessForkJoinPool, SerialBackend
    from repro.runtime.executor import ForkJoinPool

    make, neg, _, _ = GOLDEN[case]
    eng = get_sssp_engine(engine)
    base = eng.solve(make(), 0, seed=SEED)
    be = {
        "serial": lambda: SerialBackend(grain=8),
        "thread": lambda: ForkJoinPool(2, grain=8),
        "process": lambda: ProcessForkJoinPool(2, grain=8,
                                               heartbeat_interval=0.02,
                                               liveness_timeout=1.0),
    }[backend]()
    try:
        res = eng.solve(make(), 0, seed=SEED, backend=be)
    finally:
        be.shutdown()
    assert res.has_negative_cycle == neg
    assert res.cost == ENGINE_GOLDEN[engine][case]
    assert res.cost == base.cost
    if base.dist is not None:
        assert np.array_equal(res.dist, base.dist)


@pytest.mark.parametrize("engine", sorted(ENGINE_GOLDEN))
@pytest.mark.parametrize("pool_workers", [1, 4])
def test_engine_golden_cost_pool_size_independent(engine, pool_workers):
    """Same cost (and distances) at one worker and four: the thread
    pool's size changes scheduling only, never the charged model."""
    from repro.core.engines import get_sssp_engine
    from repro.runtime.executor import ForkJoinPool

    make, _, _, _ = GOLDEN["hp24"]
    eng = get_sssp_engine(engine)
    be = ForkJoinPool(pool_workers, grain=8)
    try:
        res = eng.solve(make(), 0, seed=SEED, backend=be)
    finally:
        be.shutdown()
    assert res.cost == ENGINE_GOLDEN[engine]["hp24"]
