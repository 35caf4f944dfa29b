"""Shared fixtures and helpers for the test suite.

networkx/scipy are used here (and only here) as independent oracles.
"""

from __future__ import annotations

import copy
import functools
import importlib
import inspect
import sys

import numpy as np
import pytest

from repro.graph import DiGraph
from repro.observability import metering, tracing
from repro.resilience.faults import current_fault_plan, fault_scope


def graph_from_triples(n, triples):
    return DiGraph.from_edges(n, triples)


import oracles  # noqa: E402
from oracles import assert_same_graph, nx_sssp_oracle  # noqa: E402,F401 (re-export)

#: Test modules that run in re-check mode, on top of the tests marked
#: ``differential``.
RECHECKED_MODULES = frozenset({"test_golden_costs", "test_golden_traces"})

#: The re-checked kernels, as (module, name, reference in
#: ``tests/oracles.py``): the scalar kernels against their numpy-indexed
#: loops, the two reachability searches against their numpy rounds, the
#: batched SCC against its per-round subgraph builds, ``condense``
#: against its lexsort form, and the §3 peeling against its form that
#: re-masks Propagate's in-edge table at every priority.
KERNELS = (
    ("repro.baselines.dijkstra", "dijkstra", oracles.dijkstra_reference),
    ("repro.baselines.dijkstra", "dijkstra_from_labels",
     oracles.dijkstra_from_labels_reference),
    ("repro.baselines.dag_relax", "dag_sssp", oracles.dag_sssp_reference),
    ("repro.reach.scc", "scc_sequential", oracles.scc_sequential_reference),
    ("repro.core.bnw", "_ldd_clusters", oracles.ldd_clusters_reference),
    ("repro.reach.multisource", "multisource_reachability",
     oracles.multisource_reachability_reference),
    ("repro.reach.multisource", "multisource_reachability_min",
     oracles.multisource_reachability_min_reference),
    ("repro.reach.scc", "scc", oracles.scc_reference),
    ("repro.graph.transform", "condense", oracles.condense_reference),
    ("repro.dag01.peeling", "dag01_limited_sssp",
     oracles.dag01_limited_sssp_reference),
)


def rechecked(build):
    """Wrap the trusted derived-graph constructor so that every call also
    runs :func:`oracles.digraph_reference`, the two-lexsort form of the
    public constructor — full validation and both sorts — and asserts
    that all slots are equal."""
    def checked(n, src, dst, w, reids):
        g = build(n, src, dst, w, reids)
        assert_same_graph(g, oracles.digraph_reference(n, src, dst, w))
        return g
    return checked


def rechecked_init(init):
    """Wrap ``DiGraph.__init__`` so that every public build is also made
    by :func:`oracles.digraph_reference`, on the validated vertex count,
    and all slots are compared."""
    @functools.wraps(init)
    def checked(self, n, src, dst, w):
        init(self, n, src, dst, w)
        assert_same_graph(self, oracles.digraph_reference(self.n, src, dst,
                                                          w))
    return checked


def rechecked_kernel(kernel, reference):
    """Wrap a kernel so that every call also runs ``reference`` on the
    same arguments and asserts equal results: arrays byte for byte, the
    charges made on ``acc``, the state a generator passed as ``rng`` or
    ``seed`` is left in, and the call counts and fired faults of the
    ambient fault plan.  The reference gets copies of ``acc`` and the
    generator, and runs under its own ``fault_scope`` with a copy of the
    plan, so the caller's objects see the kernel's effects only (a fault
    fires once); it runs with tracing and metering off, so the caller's
    trace and metrics see the kernel's spans and counters only."""
    sig = inspect.signature(kernel)

    @functools.wraps(kernel)
    def checked(*args, **kwargs):
        ref = sig.bind(*args, **kwargs)
        acc = ref.arguments.get("acc")
        if acc is not None:
            ref.arguments["acc"] = copy.deepcopy(acc)
        gens = {}
        for name in ("rng", "seed"):
            gen = ref.arguments.get(name)
            if isinstance(gen, np.random.Generator):
                gens[name] = gen
                ref.arguments[name] = copy.deepcopy(gen)
        plan = current_fault_plan()
        ref_plan = copy.deepcopy(plan)
        got = kernel(*args, **kwargs)
        with tracing(None), metering(None), fault_scope(ref_plan):
            want = reference(*ref.args, **ref.kwargs)
        oracles.assert_same_result(got, want, kernel.__name__)
        if acc is not None:
            assert acc.snapshot() == ref.arguments["acc"].snapshot(), \
                f"{kernel.__name__}: charges differ from the reference"
        for name, gen in gens.items():
            assert gen.bit_generator.state == \
                ref.arguments[name].bit_generator.state, \
                f"{kernel.__name__}: RNG state differs from the reference"
        if plan is not None:
            assert (plan.calls, plan.events) == \
                (ref_plan.calls, ref_plan.events), \
                f"{kernel.__name__}: fault plan differs from the reference"
        return got
    return checked


def swap_bindings(monkeypatch, old, new):
    """Rebind every ``repro.*`` module attribute that is ``old`` to
    ``new`` (callers import functions by name, so one function has many
    bindings)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                monkeypatch.setattr(mod, attr, new)


def recheck_kernels(monkeypatch):
    """Swap each of :data:`KERNELS`, at every binding, for its
    :func:`rechecked_kernel`."""
    for module_name, name, reference in KERNELS:
        kernel = getattr(importlib.import_module(module_name), name)
        swap_bindings(monkeypatch, kernel,
                      rechecked_kernel(kernel, reference))


@pytest.fixture(autouse=True)
def recheck_fast_paths(request, monkeypatch):
    """Re-check mode in the differential, golden-cost and golden-trace
    tests.  Every ``DiGraph._from_sorted`` build redoes what the trusted
    path skips (the cast, the range check, the sorts) and every public
    ``DiGraph`` build its two sorts, in the two-lexsort reference, and
    compares; every call of a kernel in :data:`KERNELS` also runs the
    kernel's reference and compares."""
    module = request.module.__name__.rpartition(".")[2]
    if (request.node.get_closest_marker("differential") is not None
            or module in RECHECKED_MODULES):
        monkeypatch.setattr(DiGraph, "_from_sorted",
                            staticmethod(rechecked(DiGraph._from_sorted)))
        monkeypatch.setattr(DiGraph, "__init__",
                            rechecked_init(DiGraph.__init__))
        recheck_kernels(monkeypatch)


@pytest.fixture
def diamond():
    """s -> a,b -> t diamond with mixed weights."""
    #      1        2
    #  s ----> a ----> t
    #  s ----> b ----> t
    #      4        -1
    return graph_from_triples(4, [(0, 1, 1), (0, 2, 4), (1, 3, 2), (2, 3, -1)])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
