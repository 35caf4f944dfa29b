"""Codebase-specific rules RS001–RS005 and RS007–RS010.

Mutable default arguments are left to ruff's B006 and B008.

Each rule guards one way the reproduction's two load-bearing invariants —
*every instrumented loop is accounted* and *model costs are
deterministic* — have been (or could be) broken in practice.  The rules
are heuristic by design: they aim for zero false negatives on the failure
modes named in their rationale while keeping false positives rare enough
that ``# repro: noqa[RSxxx]`` plus a one-line justification is an
acceptable cost.  See DESIGN.md "Static analysis & determinism
guarantees" for the catalogue.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from .engine import Finding, ModuleContext, Rule, RuleMeta, call_name, dotted_name

# Cost-charging primitives from repro.runtime.primitives / reach: calling
# one inside a loop accounts the loop (the primitive charges the ambient
# accumulator it is handed).
CHARGING_PRIMITIVES = frozenset({
    "parallel_map", "prefix_sum", "pack", "parallel_sort",
    "parallel_argsort", "parallel_reduce_max", "parallel_reduce_sum",
    "group_by_key", "flatten", "dedupe",
    "multisource_reachability", "multisource_reachability_min",
    "bfs_parents", "reachable_mask",
})

WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.perf_counter", "time.monotonic",
    "time.process_time", "time.thread_time",
    "perf_counter", "monotonic", "process_time", "thread_time",
    "datetime.now", "datetime.datetime.now", "datetime.utcnow",
})

COST_SINKS_ATTR = frozenset({"charge", "charge_cost", "count"})
COST_SINKS_NAME = frozenset({"Cost", "metric_inc", "metric_set",
                             "metric_observe"})

ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
    "np.unique", "numpy.unique", "bool",
})

ORDERED_ITER_CONSUMERS = frozenset({
    "list", "tuple", "enumerate", "iter", "np.array", "np.asarray",
    "numpy.array", "numpy.asarray", "np.fromiter", "numpy.fromiter",
    "np.concatenate", "numpy.concatenate",
})

CONTEXT_FACTORY_CALLS = frozenset({
    "trace_span", "worker_span", "profile_scope", "run_scope", "tracing",
    "metering", "profiling", "cancel_scope", "guard_scope", "fault_scope",
    "race_checking",
})

SET_METHODS = frozenset({"union", "intersection", "difference",
                         "symmetric_difference"})

COUNTERISH = ("rounds", "calls", "count", "changes", "iterations",
              "iters", "total", "retries")


def _walk_scope(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk ``fn`` without descending into nested function/class defs."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _functions(ctx: ModuleContext) -> Iterator[ast.FunctionDef |
                                               ast.AsyncFunctionDef]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _annotation_name(ann: ast.AST | None) -> str:
    if ann is None:
        return ""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value          # string annotation
    return dotted_name(ann) or ""


def _accumulator_names(fn: ast.FunctionDef | ast.AsyncFunctionDef
                       ) -> set[str]:
    """Names that hold a CostAccumulator inside ``fn``.

    Convention + annotation based: parameters annotated
    ``CostAccumulator`` (optionally unioned), parameters named ``acc``,
    and locals assigned from ``CostAccumulator()`` / ``<acc>.fork()``.
    """
    names: set[str] = set()
    args = fn.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        ann = _annotation_name(a.annotation)
        if "CostAccumulator" in ann or a.arg == "acc":
            names.add(a.arg)
    for node in _walk_scope(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            cname = call_name(node.value) or ""
            if cname.endswith("CostAccumulator") or cname.endswith(".fork"):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        names.add(tgt.id)
        if isinstance(node, ast.Assign) and isinstance(node.value,
                                                       ast.Attribute):
            if node.value.attr == "acc":
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        names.add(tgt.id)
        # tuple unpacking: g, acc = st.g, st.acc
        if isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Tuple):
            for tgt in node.targets:
                if isinstance(tgt, ast.Tuple) and \
                        len(tgt.elts) == len(node.value.elts):
                    for t, v in zip(tgt.elts, node.value.elts):
                        if isinstance(t, ast.Name) and \
                                isinstance(v, ast.Attribute) and \
                                v.attr == "acc":
                            names.add(t.id)
    return names


def _references_accumulator(nodes: Iterable[ast.AST],
                            accs: set[str]) -> bool:
    """Does any node reference an accumulator (by name, ``<x>.acc``
    attribute, ``acc=`` keyword, or by calling a charging primitive)?"""
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in accs:
            return True
        if isinstance(node, ast.Attribute) and node.attr == "acc":
            return True
        if isinstance(node, ast.keyword) and node.arg == "acc":
            return True
        if isinstance(node, ast.Call):
            cname = call_name(node) or ""
            short = cname.rsplit(".", 1)[-1]
            if short in COST_SINKS_ATTR or short in CHARGING_PRIMITIVES:
                return True
    return False


def _subtree(node: ast.AST) -> list[ast.AST]:
    return list(ast.walk(node))


class RS001UnaccountedLoop(Rule):
    meta = RuleMeta(
        "RS001", "unaccounted loop in a cost-instrumented phase",
        "Every loop that runs inside a phase charging the work–span "
        "ledger must itself be accounted: charge the accumulator, call a "
        "charging primitive, or pass the accumulator to a callee. An "
        "unaccounted loop silently under-reports model work, breaking "
        "the paper-shape experiments and the bit-exact bench gate.")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for fn in _functions(ctx):
            accs = _accumulator_names(fn)
            if not accs:
                continue
            scope = list(_walk_scope(fn))
            # only functions that actually charge are instrumented phases
            if not _references_accumulator(scope, accs):
                continue
            for node in scope:
                if not isinstance(node, (ast.For, ast.While)):
                    continue
                body_nodes: list[ast.AST] = []
                for stmt in (*node.body, *node.orelse):
                    body_nodes.extend(_subtree(stmt))
                if isinstance(node, ast.For):
                    # the loop header's iterable may itself be charged
                    body_nodes.extend(_subtree(node.iter))
                if _references_accumulator(body_nodes, accs):
                    continue
                # trivial loops (no calls, no indexing) do no model work
                if not any(isinstance(b, (ast.Call, ast.Subscript))
                           for b in body_nodes):
                    continue
                # literal constant iterables are O(1) unrolled steps
                if isinstance(node, ast.For) and \
                        isinstance(node.iter, (ast.Tuple, ast.List)) and \
                        all(isinstance(e, ast.Constant)
                            for e in node.iter.elts):
                    continue
                yield ctx.finding(
                    "RS001", node,
                    "loop inside a cost-instrumented phase neither "
                    "charges the accumulator nor calls a charging "
                    "primitive — account it (or justify with "
                    "`# repro: noqa[RS001]`)")


class RS002RawRandomness(Rule):
    meta = RuleMeta(
        "RS002", "raw randomness outside repro.runtime.rng",
        "All randomness must flow through repro.runtime.rng (make_rng / "
        "derive_seed / geometric_priorities) so one top-level seed "
        "reproduces every run bit-for-bit. Raw random/np.random calls "
        "re-seed from the OS and break the golden-cost gate.")

    EXEMPT_SUFFIX = ("runtime/rng.py",)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.path.endswith(self.EXEMPT_SUFFIX):
            return
        numpy_aliases = {"numpy"}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
                    if alias.name == "random" or \
                            alias.name.startswith("random."):
                        yield ctx.finding(
                            "RS002", node,
                            "import of the stdlib `random` module — use "
                            "repro.runtime.rng instead")
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if mod == "random" or mod.startswith("numpy.random"):
                    yield ctx.finding(
                        "RS002", node,
                        f"import from `{mod}` — use repro.runtime.rng "
                        "(make_rng / derive_seed) instead")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            cname = call_name(node)
            if cname is None:
                continue
            parts = cname.split(".")
            if parts[0] in numpy_aliases or parts[0] == "np":
                if len(parts) >= 3 and parts[1] == "random":
                    yield ctx.finding(
                        "RS002", node,
                        f"call to `{cname}` — draw from a Generator "
                        "produced by repro.runtime.rng.make_rng instead")
            elif parts[0] == "random" and len(parts) >= 2:
                yield ctx.finding(
                    "RS002", node,
                    f"call to `{cname}` — use repro.runtime.rng instead")


class RS003WallClockInModelPath(Rule):
    meta = RuleMeta(
        "RS003", "wall clock feeding a model cost or counter",
        "Model costs and span counters are functions of the input alone; "
        "a wall-clock reading flowing into charge()/Cost()/count()/"
        "metric_* makes them machine-dependent and breaks the bit-exact "
        "bench gate. Wall time belongs in the tracer's wall fields and "
        "the *_seconds metrics only.")

    def _is_wall_call(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Call) and
                (call_name(node) or "") in WALL_CLOCK_CALLS)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for fn in _functions(ctx):
            scope = list(_walk_scope(fn))
            tainted: set[str] = set()
            # two passes so taint propagates through chained assignments
            for _ in range(2):
                for node in scope:
                    if not isinstance(node, (ast.Assign, ast.AugAssign,
                                             ast.AnnAssign)):
                        continue
                    value = node.value
                    if value is None:
                        continue
                    dirty = any(
                        self._is_wall_call(sub) or
                        (isinstance(sub, ast.Name) and sub.id in tainted)
                        for sub in ast.walk(value))
                    if not dirty:
                        continue
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for tgt in targets:
                        if isinstance(tgt, ast.Name):
                            tainted.add(tgt.id)
            for node in scope:
                if not isinstance(node, ast.Call):
                    continue
                cname = call_name(node) or ""
                short = cname.rsplit(".", 1)[-1]
                is_sink = (short in COST_SINKS_ATTR and "." in cname) or \
                    cname in COST_SINKS_NAME or short in COST_SINKS_NAME
                if not is_sink:
                    continue
                # *_seconds metrics are the sanctioned wall-time channel
                args = list(node.args) + [k.value for k in node.keywords]
                if args and isinstance(node.args[0] if node.args else None,
                                       ast.Constant):
                    first = node.args[0].value
                    if isinstance(first, str) and \
                            first.endswith("_seconds"):
                        continue
                for arg in args:
                    for sub in ast.walk(arg):
                        if self._is_wall_call(sub) or (
                                isinstance(sub, ast.Name) and
                                sub.id in tainted):
                            yield ctx.finding(
                                "RS003", node,
                                f"wall-clock value reaches `{cname}` — "
                                "model costs/counters must be "
                                "deterministic; record wall time via the "
                                "tracer or a *_seconds metric")
                            break
                    else:
                        continue
                    break


class RS004UnorderedIteration(Rule):
    meta = RuleMeta(
        "RS004", "set iteration order reaching ordered output",
        "Python set iteration order depends on hashes (randomised per "
        "process for str); iterating a set into a list, array, dict, "
        "join, or loop whose order is observable makes frontier lists, "
        "JSON rows, and span sequences run-dependent. Wrap the set in "
        "sorted(...) first.")

    def _collect_set_names(self, fn: ast.AST) -> set[str]:
        names: set[str] = set()
        nodes = (_walk_scope(fn)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else ast.iter_child_nodes(fn))
        for node in nodes:
            if isinstance(node, ast.Assign) and \
                    self._is_set_expr(node.value, set()):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        names.add(tgt.id)
        return names

    def _is_set_expr(self, node: ast.AST, set_names: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            cname = call_name(node) or ""
            if cname in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in SET_METHODS:
                return self._is_set_expr(node.func.value, set_names)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
            return (self._is_set_expr(node.left, set_names) or
                    self._is_set_expr(node.right, set_names))
        return False

    def _consumer_name(self, ctx: ModuleContext,
                       node: ast.AST) -> str | None:
        """Name of the call directly consuming ``node``, if any."""
        parent = ctx.parent.get(node)
        if isinstance(parent, ast.Call) and node in parent.args:
            return call_name(parent)
        return None

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        scopes: list[ast.AST] = [ctx.tree, *list(_functions(ctx))]
        for scope in scopes:
            set_names = self._collect_set_names(scope)
            nodes = (list(_walk_scope(scope))
                     if isinstance(scope, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                     else [n for n in ast.walk(scope)
                           if ctx.enclosing_function(n) is None])
            for node in nodes:
                iters: list[ast.AST] = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                       ast.DictComp)):
                    consumer = self._consumer_name(ctx, node) or ""
                    if consumer in ORDER_INSENSITIVE_CONSUMERS:
                        continue
                    iters.extend(g.iter for g in node.generators)
                elif isinstance(node, ast.Call):
                    cname = call_name(node) or ""
                    is_join = (isinstance(node.func, ast.Attribute) and
                               node.func.attr == "join")
                    if (cname in ORDERED_ITER_CONSUMERS or is_join) \
                            and node.args:
                        iters.append(node.args[0])
                for it in iters:
                    if self._is_set_expr(it, set_names):
                        yield ctx.finding(
                            "RS004", it,
                            "iteration over an unordered set reaches "
                            "ordered output — wrap it in sorted(...) so "
                            "the order is deterministic")


class RS005ContextLeak(Rule):
    meta = RuleMeta(
        "RS005", "context-manager factory used outside `with`",
        "The span guards (trace_span/worker_span/profile_scope) and the "
        "run-context scopes (run_scope and its spellings tracing/metering/"
        "profiling/cancel_scope/guard_scope/fault_scope/race_checking) "
        "return context managers; calling one without `with` leaks the "
        "span/scope on an exception path (the span never closes, the "
        "ambient state never restores).")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            cname = call_name(node) or ""
            if cname.rsplit(".", 1)[-1] not in CONTEXT_FACTORY_CALLS:
                continue
            ok = False
            for anc in ctx.ancestors(node):
                if isinstance(anc, ast.withitem):
                    ok = True
                    break
                if isinstance(anc, ast.Return):
                    ok = True       # factory wrappers re-expose the cm
                    break
                if isinstance(anc, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                    break
            if not ok:
                yield ctx.finding(
                    "RS005", node,
                    f"`{cname}(...)` outside a `with` statement — the "
                    "context (span/scope/registry) leaks if an "
                    "exception unwinds before exit")


class RS007BroadExcept(Rule):
    meta = RuleMeta(
        "RS007", "bare/broad except swallowing cancellation and faults",
        "CancelledError, DeadlineExceededError, and the fault-injection "
        "errors subclass Exception; a bare `except:` or non-re-raising "
        "`except Exception:` turns cooperative cancellation and injected "
        "faults into silent no-ops, defeating the resilience layer.")

    BROAD = frozenset({"Exception", "BaseException"})

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    "RS007", node,
                    "bare `except:` swallows CancelledError and "
                    "fault-injection errors — catch specific types or "
                    "re-raise")
                continue
            names: list[str] = []
            types = (node.type.elts
                     if isinstance(node.type, ast.Tuple) else [node.type])
            for t in types:
                dn = dotted_name(t)
                if dn is not None:
                    names.append(dn.rsplit(".", 1)[-1])
            if not any(n in self.BROAD for n in names):
                continue
            reraises = any(isinstance(sub, ast.Raise)
                           for stmt in node.body
                           for sub in ast.walk(stmt))
            if not reraises:
                yield ctx.finding(
                    "RS007", node,
                    f"`except {' | '.join(names)}` without re-raise "
                    "swallows CancelledError/fault-injection errors — "
                    "narrow the types or re-raise")


class RS008UnregisteredMetric(Rule):
    meta = RuleMeta(
        "RS008", "unregistered metric name",
        "Every metric name must be declared in METRIC_CATALOG "
        "(repro.observability.metrics) so dashboards, the JSON schema, "
        "and the Prometheus exposition stay in sync; ad-hoc names rot "
        "silently.")

    GUARDS = frozenset({"metric_inc", "metric_set", "metric_observe"})
    EXEMPT_SUFFIX = ("observability/metrics.py",)

    def __init__(self, catalog: frozenset[str] | None = None) -> None:
        if catalog is None:
            from ..observability.metrics import METRIC_CATALOG
            catalog = frozenset(METRIC_CATALOG)
        self.catalog = catalog

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.path.endswith(self.EXEMPT_SUFFIX):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            cname = (call_name(node) or "").rsplit(".", 1)[-1]
            if cname not in self.GUARDS:
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and
                    isinstance(first.value, str)):
                yield ctx.finding(
                    "RS008", node,
                    f"`{cname}` metric name must be a string literal so "
                    "it can be checked against METRIC_CATALOG")
                continue
            if first.value not in self.catalog:
                yield ctx.finding(
                    "RS008", node,
                    f"metric {first.value!r} is not declared in "
                    "METRIC_CATALOG (repro.observability.metrics) — "
                    "register it with its kind and help text")


class RS009IdentityOrdering(Rule):
    meta = RuleMeta(
        "RS009", "id()/hash() used for ordering or tie-breaking",
        "id() is an allocation address and hash() is salted per process; "
        "either one in a sort key or comparison makes tie-breaking "
        "non-deterministic across runs. Break ties on stable fields "
        "(vertex index, name, sequence number).")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and
                    isinstance(node.func, ast.Name) and
                    node.func.id in ("id", "hash")):
                continue
            flagged = False
            for anc in ctx.ancestors(node):
                if isinstance(anc, ast.Compare) and any(
                        isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                        for op in anc.ops):
                    flagged = True
                    break
                if isinstance(anc, ast.Call) and \
                        (call_name(anc) or "") in ("sorted", "min", "max"):
                    flagged = True
                    break
                if isinstance(anc, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                    break
            if flagged:
                yield ctx.finding(
                    "RS009", node,
                    f"`{node.func.id}(...)` used in an ordering context "
                    "— tie-break on a stable field instead")


class RS010FloatCounter(Rule):
    meta = RuleMeta(
        "RS010", "float accumulation where the model requires integers",
        "Span counters and *_total metrics count discrete events "
        "(rounds, relaxations, label changes); feeding them true "
        "division or float literals accumulates rounding error that the "
        "bit-exact golden-cost comparisons then trip over. Use integer "
        "arithmetic (//, int(...)).")

    COUNTER_SINKS = frozenset({"count", "metric_inc"})

    def _float_producing(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return True
            if isinstance(sub, ast.Constant) and \
                    isinstance(sub.value, float) and \
                    not sub.value.is_integer():
                return True
            if isinstance(sub, ast.Call) and \
                    (call_name(sub) or "") == "float":
                return True
        return False

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                cname = (call_name(node) or "").rsplit(".", 1)[-1]
                if cname not in self.COUNTER_SINKS:
                    continue
                if not (node.args and
                        isinstance(node.args[0], ast.Constant) and
                        isinstance(node.args[0].value, str)):
                    continue
                for arg in node.args[1:]:
                    if self._float_producing(arg):
                        yield ctx.finding(
                            "RS010", node,
                            f"non-integer value fed to `{cname}"
                            f"({node.args[0].value!r}, ...)` — counters "
                            "are integers; use // or int(...)")
                        break
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.op, ast.Add) and \
                    isinstance(node.target, ast.Name):
                tname = node.target.id.lower()
                if not any(k in tname for k in COUNTERISH):
                    continue
                if self._float_producing(node.value):
                    yield ctx.finding(
                        "RS010", node,
                        f"float accumulation into counter-like "
                        f"`{node.target.id}` — counters are integers; "
                        "use // or int(...)")


ALL_RULES: tuple[Rule, ...] = (
    RS001UnaccountedLoop(),
    RS002RawRandomness(),
    RS003WallClockInModelPath(),
    RS004UnorderedIteration(),
    RS005ContextLeak(),
    RS007BroadExcept(),
    RS008UnregisteredMetric(),
    RS009IdentityOrdering(),
    RS010FloatCounter(),
)


def rules_by_id(ids: Iterable[str] | None = None) -> tuple[Rule, ...]:
    """The rule objects for ``ids`` (the module rules when None).

    Ids may name either plane: module rules RS001–RS010 or the
    interprocedural flow rules RS011–RS015 (imported lazily — the flow
    package depends on this module's frozensets).
    """
    if ids is None:
        return ALL_RULES
    from .flow.rules import FLOW_RULES
    catalogue: tuple[Rule, ...] = ALL_RULES + FLOW_RULES
    wanted = {i.upper() for i in ids}
    known = {r.meta.id for r in catalogue}
    unknown = wanted - known
    if unknown:
        raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
    return tuple(r for r in catalogue if r.meta.id in wanted)
