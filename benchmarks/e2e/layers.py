"""Outside-in per-layer wall-clock timing for the end-to-end benchmark.

A layer is a public entry point of one ``repro`` module.  While a
:class:`LayerTracer` is installed, every ``repro.*`` module attribute bound
to an entry point (callers use ``from x import f``, so one function has
many bindings) and, for methods, the class attribute, is replaced by a
timing wrapper.  Uninstalling puts every original object back by
identity.  Nothing under ``src/`` changes.

Each wrapper pushes a frame on entry and pops it on exit.  A frame's self
time is its duration minus the durations of the wrapped frames directly
inside it, so the self times of all frames under a root add up to the
root's duration exactly.  Inclusive time counts only the outermost
activation of a layer, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (layer, module, attribute) for every wrapped entry point.  A dotted
#: attribute names a method; it is wrapped on its class.
TARGETS = (
    ("graph.DiGraph", "repro.graph.digraph", "DiGraph.__init__"),
    ("graph.condense", "repro.graph.transform", "condense"),
    ("graph.leq_zero_subgraph", "repro.graph.transform", "leq_zero_subgraph"),
    ("graph.validate_graph", "repro.graph.validate", "validate_graph"),
    ("reach.scc", "repro.reach.scc", "scc"),
    ("reach.scc_sequential", "repro.reach.scc", "scc_sequential"),
    ("reach.multisource_reachability", "repro.reach.multisource",
     "multisource_reachability"),
    ("reach.multisource_reachability_min", "repro.reach.multisource",
     "multisource_reachability_min"),
    ("dag01.dag01_limited_sssp", "repro.dag01.peeling", "dag01_limited_sssp"),
    ("limited.limited_sssp", "repro.limited.limited", "limited_sssp"),
    ("limited.verify_limited_distances", "repro.limited.verify",
     "verify_limited_distances"),
    ("assp.ExactAssp", "repro.assp.engines", "ExactAssp.__call__"),
    ("baselines.dijkstra", "repro.baselines.dijkstra", "dijkstra"),
    ("baselines.dijkstra_from_labels", "repro.baselines.dijkstra",
     "dijkstra_from_labels"),
    ("baselines.dag_sssp", "repro.baselines.dag_relax", "dag_sssp"),
    ("baselines.johnson_potential", "repro.baselines.johnson",
     "johnson_potential"),
    ("baselines.bellman_ford", "repro.baselines.bellman_ford",
     "bellman_ford"),
    ("core.one_reweighting", "repro.core.goldberg", "one_reweighting"),
    ("core.sqrt_k_improvement", "repro.core.improvement",
     "sqrt_k_improvement"),
    ("core.is_valid_improvement", "repro.core.price", "is_valid_improvement"),
    ("core.bnw_potential", "repro.core.bnw", "bnw_potential"),
    ("core.fischer_potential", "repro.core.fischer", "fischer_potential"),
    ("resilience.Certificate.verify", "repro.resilience.errors",
     "Certificate.verify"),
)

#: ``map_blocks`` of the backend object the harness passes to the solver.
BACKEND_LAYER = "runtime.map_blocks"
#: The harness's own solve call; its self time is glue no layer accounts for.
ROOT_LAYER = "solve"
LAYERS = tuple(t[0] for t in TARGETS) + (BACKEND_LAYER, ROOT_LAYER)

_MISSING = object()


class LayerTracer:
    """Timing wrappers for :data:`LAYERS`, installed with ``with tracer:``.

    ``stats[layer]`` holds ``[calls, self_ns, incl_ns]`` summed over every
    call made while installed.  Construct it after ``repro`` is imported,
    so every binding of every entry point can be found.
    """

    def __init__(self, backend=None) -> None:
        self.stats = {layer: [0, 0, 0] for layer in LAYERS}
        self._stack: list[list[int]] = []
        self._depth = {layer: [0] for layer in LAYERS}
        #: (owner, attribute, original or _MISSING, wrapper)
        self.sites: list[tuple] = []
        self.installed = False
        for layer, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self.sites.append((owner, attr, original,
                                   self._wrap(layer, original)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro"
                                       or mod_name.startswith("repro.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self.sites.append((mod, name, original, wrapper))
        if backend is not None:
            self.sites.append((backend, "map_blocks",
                               vars(backend).get("map_blocks", _MISSING),
                               self._wrap(BACKEND_LAYER, backend.map_blocks)))

    def _wrap(self, layer: str, fn):
        # everything the wrapper touches is bound here: the small-batch
        # workload makes about 600 wrapped calls per 40 ms solve
        st = self.stats[layer]
        depth = self._depth[layer]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            depth[0] += 1
            frame = [clock(), 0]  # start, ns spent in wrapped children
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                st[0] += 1
                st[1] += dur - frame[1]
                depth[0] -= 1
                if not depth[0]:
                    st[2] += dur
                if stack:
                    stack[-1][1] += dur

        return timed

    def root(self, fn):
        """``fn`` timed as the :data:`ROOT_LAYER` frame."""
        return self._wrap(ROOT_LAYER, fn)

    def __enter__(self) -> "LayerTracer":
        if self.installed:
            raise RuntimeError("LayerTracer is already installed")
        for owner, attr, _, wrapper in self.sites:
            setattr(owner, attr, wrapper)
        self.installed = True
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self.sites):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self.installed = False
