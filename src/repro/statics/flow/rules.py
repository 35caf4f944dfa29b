"""Interprocedural rules RS011–RS015 (``repro check --flow``).

Where RS001–RS010 pattern-match one module at a time, these five rules
run against the :class:`~repro.statics.flow.project.ProjectContext`:
they resolve symbols across modules, walk the call graph, and judge
*reachability* facts the per-module rules cannot see.  Each guards one
clause of the platform contract PR 7 made every engine sign:

* **RS011** — every ``map_blocks``/process-backend task must be
  picklable *by reference*: a module-level function, with task args
  free of locks, pools, tracers, and ``self``;
* **RS012** — block bodies must be pure over their ``[lo, hi)`` slice:
  every shared write (to a closure variable, a global, or one of the
  args after ``(lo, hi)``, which every block shares) is either
  structurally disjoint (indexed by the block bounds alone) or carries a
  ``race_write`` annotation tied to those bounds.  This is the static
  counterpart of :mod:`repro.runtime.racecheck` — the cross-validation
  harness in :mod:`repro.statics.flow.crossval` proves it a superset of
  the dynamic probes;
* **RS013** — every factory registered in an ``*_ENGINES`` registry
  must reach a :class:`~repro.runtime.metrics.CostAccumulator` charge;
  ``solve``-style engines must additionally reach a ``trace_span`` and
  a cancellation check, and no unconditional loop on the engine path
  may spin without observing cancellation.  ``__call__``-style oracle
  engines (the ASSP registry) are charged-only: their spans and cancel
  checks belong to the calling phase by design;
* **RS014** — raises on the solver path must use the resilience
  taxonomy (:class:`~repro.resilience.errors.ReproError` subclasses),
  so retry classification and certificates stay well-formed;
* **RS015** — worker-side code (block tasks, ``Process``/``Thread``
  targets) must not contain an unbounded loop with neither an exit nor
  a cancellation check: a hung worker is only recoverable by
  liveness-timeout SIGKILL.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from ..engine import (
    Finding,
    ModuleContext,
    ProjectRule,
    RuleMeta,
    call_name,
    dotted_name,
)
from .callgraph import CallGraph
from .project import ProjectContext
from .summaries import summarize
from .symbols import ClassInfo, FunctionInfo, ModuleSymbols

__all__ = ["FLOW_RULES", "flow_rules_by_id"]

# factories whose products must never ride a task-args tuple into a
# worker (locks and pools are fork-poisoned; tracers/registries/checkers
# are parent-ambient state a worker must not mutate)
UNPICKLABLE_FACTORIES = frozenset({
    "Lock", "RLock", "Event", "Condition", "Semaphore",
    "BoundedSemaphore", "Barrier", "Queue", "ThreadPoolExecutor",
    "ProcessPoolExecutor", "ForkJoinPool", "ProcessForkJoinPool",
    "Tracer", "MetricsRegistry", "RaceChecker", "open",
})

# generic builtins a solver-path raise must not use directly (the
# taxonomy subclasses the natural builtin, so callers keep working)
GENERIC_EXCEPTIONS = frozenset({
    "Exception", "BaseException", "RuntimeError", "ValueError",
    "TypeError", "KeyError", "IndexError", "OSError", "ArithmeticError",
})

TAXONOMY_ROOT = "ReproError"

MUTATING_METHODS = frozenset({
    "append", "extend", "add", "update", "insert", "pop", "popleft",
    "appendleft", "clear", "setdefault", "sort", "fill", "remove",
    "discard", "put", "write",
})


# ---------------------------------------------------------------------------
# shared scanning helpers
# ---------------------------------------------------------------------------

@dataclass
class TaskSite:
    """One ``pool.map_blocks(n, fn, args)`` call site."""

    syms: ModuleSymbols
    call: ast.Call
    fn_node: ast.expr
    args_node: ast.expr | None


def _task_sites(project: ProjectContext) -> Iterator[TaskSite]:
    for syms in project.modules.values():
        for node in ast.walk(syms.ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "map_blocks" and len(node.args) >= 2:
                args_node = node.args[2] if len(node.args) >= 3 else None
                yield TaskSite(syms, node, node.args[1], args_node)


def _thread_targets(project: ProjectContext
                    ) -> Iterator[tuple[ModuleSymbols, ast.Call,
                                        str, ast.expr]]:
    """``Process(target=X)`` / ``Thread(target=X)`` construction sites."""
    for syms in project.modules.values():
        for node in ast.walk(syms.ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            leaf = (call_name(node) or "").rsplit(".", 1)[-1]
            if leaf not in {"Process", "Thread"}:
                continue
            for kw in node.keywords:
                if kw.arg == "target":
                    yield syms, node, leaf, kw.value


def _enclosing_chain(ctx: ModuleContext, node: ast.AST
                     ) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Enclosing function defs, innermost first."""
    out = []
    fn = ctx.enclosing_function(node)
    while fn is not None:
        out.append(fn)
        fn = ctx.enclosing_function(fn)
    return out


def _own_scope(fn: ast.AST) -> Iterator[ast.AST]:
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _local_def(scope: ast.AST, name: str) -> ast.FunctionDef | None:
    for node in _own_scope(scope):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef
                 ) -> list[str]:
    a = fn.args
    return [p.arg for p in a.posonlyargs + a.args]


def _root_name(node: ast.AST) -> str | None:
    cur = node
    while isinstance(cur, (ast.Subscript, ast.Attribute, ast.Starred)):
        cur = cur.value
    return cur.id if isinstance(cur, ast.Name) else None


@dataclass
class ResolvedTask:
    """What a task-site ``fn`` argument turned out to be."""

    kind: str       # lambda | local_def | module_fn | bound | param | opaque
    node: ast.expr | ast.FunctionDef | None = None
    info: FunctionInfo | None = None


def _resolve_task(project: ProjectContext, site: TaskSite) -> ResolvedTask:
    node = site.fn_node
    ctx = site.syms.ctx
    if isinstance(node, ast.Lambda):
        return ResolvedTask("lambda", node)
    if isinstance(node, ast.Call):
        return ResolvedTask("constructed", node)
    if isinstance(node, ast.Name):
        for fn in _enclosing_chain(ctx, site.call):
            if node.id in _param_names(fn):
                return ResolvedTask("param")
            local = _local_def(fn, node.id)
            if local is not None:
                return ResolvedTask("local_def", local)
        info = project.function_at(site.syms.name, node.id)
        if info is not None:
            return ResolvedTask("module_fn", info=info)
        if node.id in site.syms.functions:
            return ResolvedTask(
                "module_fn", info=site.syms.functions[node.id])
        return ResolvedTask("opaque", node)
    if isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        if dotted is not None:
            info = project.function_at(site.syms.name, dotted)
            if info is not None and info.class_fqn is None:
                return ResolvedTask("module_fn", info=info)
        return ResolvedTask("bound", node)
    return ResolvedTask("opaque", node)


def _loop_ok(project: ProjectContext, graph: CallGraph,
             info: FunctionInfo, loop, receiver: ClassInfo | None) -> bool:
    """Whether a constant-true loop has an exit or (transitively)
    observes cancellation."""
    if loop.has_exit or loop.checks_cancel or loop.raises:
        return True
    for name in loop.calls:
        target = project.function_at(info.module, name)
        if target is None and receiver is not None:
            target = project.lookup_method(receiver, name)
        if target is None and info.class_fqn is not None:
            owner = project.classes.get(info.class_fqn)
            if owner is not None:
                target = project.lookup_method(owner, name)
        if target is None:
            continue
        reach = graph.reachable([target], receiver)
        if reach.any_summary(project, "checks_cancel"):
            return True
    return False


class FlowRule(ProjectRule):
    """Base for the interprocedural rules."""

    meta: RuleMeta


# ---------------------------------------------------------------------------
# RS011 — task pickle-safety
# ---------------------------------------------------------------------------

class RS011TaskPickleSafety(FlowRule):
    meta = RuleMeta(
        "RS011", "map_blocks task not picklable by reference",
        "Process-backend tasks are pickled by reference and re-imported "
        "in the worker: lambdas, nested functions, bound methods, and "
        "args tuples carrying locks/pools/tracers/self all break (or "
        "silently fork-poison) the worker. Tasks must be module-level "
        "pure functions of (lo, hi, *args).")

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        for site in _task_sites(project):
            yield from self._check_site(project, site)
        for syms, call, leaf, target in _thread_targets(project):
            if leaf != "Process":
                continue  # threads share the heap; pickling not involved
            yield from self._check_process_target(project, syms,
                                                  call, target)

    def _check_site(self, project: ProjectContext,
                    site: TaskSite) -> Iterator[Finding]:
        ctx = site.syms.ctx
        task = _resolve_task(project, site)
        if task.kind == "lambda":
            yield ctx.finding(
                "RS011", site.fn_node,
                "lambda passed as a map_blocks task — tasks are pickled "
                "by reference and must be module-level functions")
        elif task.kind == "local_def":
            assert isinstance(task.node, ast.FunctionDef)
            yield ctx.finding(
                "RS011", site.fn_node,
                f"nested function `{task.node.name}` passed as a "
                "map_blocks task — it closes over its defining frame "
                "and cannot be pickled by reference; hoist it to module "
                "level and pass state through the args tuple")
        elif task.kind == "bound":
            yield ctx.finding(
                "RS011", site.fn_node,
                f"bound method/attribute `{dotted_name(site.fn_node)}` "
                "passed as a map_blocks task — pickling drags the whole "
                "receiver into the worker; use a module-level function")
        elif task.kind == "constructed":
            yield ctx.finding(
                "RS011", site.fn_node,
                "constructed callable (e.g. functools.partial) passed "
                "as a map_blocks task — not picklable by reference; "
                "use a module-level function with an args tuple")
        if task.kind in {"module_fn", "param"} and site.args_node is not None:
            yield from self._check_args(project, site)

    def _check_args(self, project: ProjectContext,
                    site: TaskSite) -> Iterator[Finding]:
        ctx = site.syms.ctx
        args_node = site.args_node
        if not isinstance(args_node, ast.Tuple):
            return
        for elem in args_node.elts:
            if isinstance(elem, ast.Lambda):
                yield ctx.finding(
                    "RS011", elem,
                    "lambda inside a map_blocks args tuple — task args "
                    "must be picklable data")
                continue
            if isinstance(elem, ast.Name) and elem.id == "self":
                yield ctx.finding(
                    "RS011", elem,
                    "`self` inside a map_blocks args tuple — the whole "
                    "engine object (pools, tracers, callbacks) would be "
                    "pickled into every worker")
                continue
            root = _root_name(elem)
            if root is None:
                continue
            factory = self._binding_factory(project, site, root)
            if factory is not None:
                yield ctx.finding(
                    "RS011", elem,
                    f"map_blocks args capture `{root}`, created by "
                    f"`{factory}(...)` — unpicklable (or fork-poisoned) "
                    "state must not ride the task message")

    @staticmethod
    def _binding_factory(project: ProjectContext, site: TaskSite,
                         name: str) -> str | None:
        """The factory-call leaf that last bound ``name``, if it is one
        of the unpicklable factories."""
        def from_value(value: ast.expr) -> str | None:
            if isinstance(value, ast.Call):
                leaf = (call_name(value) or "").rsplit(".", 1)[-1]
                if leaf in UNPICKLABLE_FACTORIES:
                    return leaf
            return None

        ctx = site.syms.ctx
        for fn in _enclosing_chain(ctx, site.call):
            for node in _own_scope(fn):
                if isinstance(node, ast.Assign):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name) and tgt.id == name:
                            hit = from_value(node.value)
                            if hit is not None:
                                return hit
                elif isinstance(node, ast.withitem) and \
                        isinstance(node.optional_vars, ast.Name) and \
                        node.optional_vars.id == name:
                    hit = from_value(node.context_expr)
                    if hit is not None:
                        return hit
        value = site.syms.assignments.get(name)
        return from_value(value) if value is not None else None

    def _check_process_target(self, project: ProjectContext,
                              syms: ModuleSymbols, call: ast.Call,
                              target: ast.expr) -> Iterator[Finding]:
        ctx = syms.ctx
        if isinstance(target, ast.Lambda):
            yield ctx.finding(
                "RS011", target,
                "lambda as a Process target — worker entry points must "
                "be module-level functions (pickled by reference)")
            return
        if isinstance(target, ast.Name):
            for fn in _enclosing_chain(ctx, call):
                if target.id in _param_names(fn):
                    return
                if _local_def(fn, target.id) is not None:
                    yield ctx.finding(
                        "RS011", target,
                        f"nested function `{target.id}` as a Process "
                        "target — worker entry points must be "
                        "module-level functions")
                    return


# ---------------------------------------------------------------------------
# RS012 — static block purity
# ---------------------------------------------------------------------------

@dataclass
class _Write:
    node: ast.AST
    root: str
    disjoint: bool
    label: str          # human description of the write shape


@dataclass
class _Annotation:
    node: ast.Call
    root: str
    param_exact: bool
    site: str


class RS012BlockPurity(FlowRule):
    meta = RuleMeta(
        "RS012", "block body writes shared state outside its slice",
        "map_blocks tasks run concurrently over disjoint [lo, hi) "
        "blocks, and every block gets the same args: any write to "
        "shared state (args included) must either be "
        "structurally confined to the block bounds or carry a "
        "race_write annotation tied to them. This is the static "
        "counterpart of the runtime shadow-memory checker — the "
        "cross-validation harness keeps it a superset of the dynamic "
        "probes.")

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        seen: set[tuple[str, int, str]] = set()
        for site in _task_sites(project):
            task = _resolve_task(project, site)
            body: ast.FunctionDef | None = None
            ctx = site.syms.ctx
            if task.kind == "local_def" and \
                    isinstance(task.node, ast.FunctionDef):
                body = task.node
            elif task.kind == "module_fn" and task.info is not None:
                body = task.info.node if isinstance(
                    task.info.node, ast.FunctionDef) else None
                ctx = task.info.ctx
            if body is None:
                continue
            body_syms = project.modules.get(
                task.info.module) if task.kind == "module_fn" and \
                task.info is not None else site.syms
            for f in self._check_body(ctx, body, body_syms):
                key = (f.path, f.line, f.message)
                if key not in seen:
                    seen.add(key)
                    yield f

    def _check_body(self, ctx: ModuleContext, body: ast.FunctionDef,
                    syms: ModuleSymbols | None) -> Iterator[Finding]:
        params = _param_names(body)
        block_params = params[:2] if len(params) >= 2 else params
        # the parameters after (lo, hi) are map_blocks' args: every
        # block receives the same objects, so they are shared
        locals_ = self._locals(body, block_params)
        shared_ok = set(locals_) | set(block_params)
        if syms is not None:
            # import aliases are modules, not shared mutable state:
            # `np.add(...)` is a ufunc call, not a write to `np`
            shared_ok |= set(syms.imports)

        writes = list(self._writes(body, block_params))
        anns_w, anns_r = self._annotations(body, block_params)

        written_shared: dict[str, list[_Write]] = {}
        for w in writes:
            if w.root in shared_ok:
                continue
            written_shared.setdefault(w.root, []).append(w)

        for root, ws in sorted(written_shared.items()):
            root_anns = [a for a in anns_w if a.root == root]
            bad_anns = [a for a in root_anns if not a.param_exact]
            if not root_anns:
                if all(w.disjoint for w in ws):
                    continue   # structurally confined to the block
                w = next(w for w in ws if not w.disjoint)
                yield ctx.finding(
                    "RS012", w.node,
                    f"block body `{body.name}` writes shared `{root}` "
                    f"({w.label}) with no race_write annotation and no "
                    "structural disjointness — sibling blocks overlap")
            for a in bad_anns:
                site_tag = f" (site {a.site})" if a.site else ""
                yield ctx.finding(
                    "RS012", a.node,
                    f"block body `{body.name}` writes shared `{root}` "
                    "under a race_write region not tied to the block "
                    f"bounds{site_tag} — sibling blocks overlap")
        # whole-object reads of something this body also writes: the
        # read of every other block's slice races the writes above
        for a in anns_r:
            if a.param_exact or a.root not in written_shared:
                continue
            site_tag = f" (site {a.site})" if a.site else ""
            yield ctx.finding(
                "RS012", a.node,
                f"block body `{body.name}` reads whole `{a.root}`"
                f"{site_tag} while also writing it — read/write overlap "
                "across sibling blocks")

    @staticmethod
    def _locals(body: ast.FunctionDef, block_params: list[str]) -> set[str]:
        out: set[str] = set(block_params)
        shared_decls: set[str] = set()
        for node in _own_scope(body):
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                shared_decls.update(node.names)
            elif isinstance(node, ast.Assign):
                for tgt in node.targets:
                    for n in ast.walk(tgt):
                        if isinstance(n, ast.Name):
                            out.add(n.id)
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                out.add(node.target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for n in ast.walk(node.target):
                    if isinstance(n, ast.Name):
                        out.add(n.id)
            elif isinstance(node, ast.withitem) and \
                    node.optional_vars is not None:
                for n in ast.walk(node.optional_vars):
                    if isinstance(n, ast.Name):
                        out.add(n.id)
            elif isinstance(node, ast.NamedExpr) and \
                    isinstance(node.target, ast.Name):
                out.add(node.target.id)
        return out - shared_decls

    def _writes(self, body: ast.FunctionDef,
                block_params: list[str]) -> Iterator[_Write]:
        for node in _own_scope(body):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    yield from self._store_target(tgt, block_params)
            elif isinstance(node, ast.AugAssign):
                yield from self._store_target(node.target, block_params)
            elif isinstance(node, ast.Call):
                yield from self._call_writes(node, block_params)

    def _store_target(self, tgt: ast.AST,
                      block_params: list[str]) -> Iterator[_Write]:
        if isinstance(tgt, ast.Subscript):
            root = _root_name(tgt)
            if root is None:
                return
            disjoint = self._index_disjoint(tgt.slice, block_params)
            yield _Write(tgt, root, disjoint, "subscript store")
        elif isinstance(tgt, ast.Attribute):
            root = _root_name(tgt)
            if root is not None:
                yield _Write(tgt, root, False, "attribute store")

    def _call_writes(self, node: ast.Call,
                     block_params: list[str]) -> Iterator[_Write]:
        name = call_name(node) or ""
        # np.add.at(x, idx, v) and friends: scatter write into x
        if name.endswith(".at") and node.args:
            root = _root_name(node.args[0])
            if root is not None:
                yield _Write(node, root, False, "scatter write")
        # ufunc(..., out=x) / ufunc(..., out=x[lo:hi])
        for kw in node.keywords:
            if kw.arg != "out":
                continue
            root = _root_name(kw.value)
            if root is None:
                continue
            if isinstance(kw.value, ast.Subscript):
                disjoint = self._index_disjoint(kw.value.slice,
                                                block_params)
            else:
                disjoint = False
            yield _Write(node, root, disjoint, "out= write")
        # x.append(...), x.update(...): whole-object mutation
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in MUTATING_METHODS:
            root = _root_name(node.func.value)
            if root is not None:
                yield _Write(node, root, False,
                             f".{node.func.attr}() mutation")

    @staticmethod
    def _index_disjoint(index: ast.expr, block_params: list[str]) -> bool:
        """Index/slice expressions provably confined to this block:
        ``x[lo:hi]`` for the two block params, or ``x[i]`` for a
        single-index block param."""
        if isinstance(index, ast.Slice):
            lo, hi = index.lower, index.upper
            return (len(block_params) >= 2
                    and isinstance(lo, ast.Name)
                    and isinstance(hi, ast.Name)
                    and lo.id == block_params[0]
                    and hi.id == block_params[1]
                    and index.step is None)
        if isinstance(index, ast.Name):
            return index.id in block_params
        return False

    @staticmethod
    def _annotations(body: ast.FunctionDef, block_params: list[str]
                     ) -> tuple[list[_Annotation], list[_Annotation]]:
        writes: list[_Annotation] = []
        reads: list[_Annotation] = []
        for node in _own_scope(body):
            if not isinstance(node, ast.Call):
                continue
            leaf = (call_name(node) or "").rsplit(".", 1)[-1]
            if leaf not in {"race_write", "race_read"} or not node.args:
                continue
            root = _root_name(node.args[0])
            if root is None:
                continue
            bounds = node.args[1:3]
            param_exact = False
            if len(bounds) == 2 and len(block_params) >= 2:
                b0, b1 = bounds
                if isinstance(b0, ast.Name) and isinstance(b1, ast.Name):
                    param_exact = (b0.id == block_params[0]
                                   and b1.id == block_params[1])
            site = ""
            for kw in node.keywords:
                if kw.arg == "site" and isinstance(kw.value,
                                                   ast.Constant):
                    site = str(kw.value.value)
            ann = _Annotation(node, root, param_exact, site)
            (writes if leaf == "race_write" else reads).append(ann)
        return writes, reads


# ---------------------------------------------------------------------------
# RS013 — engine-contract conformance
# ---------------------------------------------------------------------------

@dataclass
class Registration:
    """One engine registered into an ``*_ENGINES`` registry."""

    syms: ModuleSymbols
    node: ast.AST               # anchor for findings
    registry: str               # local registry name
    engine_name: str
    entries: list[FunctionInfo]
    receiver: ClassInfo | None
    contract: str               # "solver" | "oracle"


def _registry_names(syms: ModuleSymbols) -> set[str]:
    names = {name for name, value in syms.assignments.items()
             if isinstance(value, ast.Call)
             and (call_name(value) or "").rsplit(".", 1)[-1] == "Registry"}
    names.update(n for n in syms.imports if n.endswith("_ENGINES"))
    names.update(n for n in syms.assignments if n.endswith("_ENGINES"))
    return names


def _registrations(project: ProjectContext) -> Iterator[Registration]:
    for syms in project.modules.values():
        reg_names = _registry_names(syms)
        if not reg_names:
            continue
        for node in syms.ctx.tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                for dec in node.decorator_list:
                    reg = _decorator_registration(syms, node, dec,
                                                  reg_names, project)
                    if reg is not None:
                        yield reg
        for node in ast.walk(syms.ctx.tree):
            reg = _call_registration(syms, node, reg_names, project)
            if reg is not None:
                yield reg


def _engine_entry(project: ProjectContext, obj: ClassInfo | FunctionInfo
                  ) -> tuple[list[FunctionInfo], ClassInfo | None, str]:
    if isinstance(obj, ClassInfo):
        solve = project.lookup_method(obj, "solve")
        if solve is not None:
            return [solve], obj, "solver"
        call = project.lookup_method(obj, "__call__")
        if call is not None:
            return [call], obj, "oracle"
        init = project.lookup_method(obj, "__init__")
        return ([init] if init is not None else []), obj, "oracle"
    return [obj], None, "factory"


def _decorator_registration(syms: ModuleSymbols, node, dec, reg_names,
                            project: ProjectContext) -> Registration | None:
    if not (isinstance(dec, ast.Call)
            and isinstance(dec.func, ast.Attribute)
            and dec.func.attr == "register"):
        return None
    root = _root_name(dec.func.value)
    if root not in reg_names:
        return None
    engine_name = node.name
    if dec.args and isinstance(dec.args[0], ast.Constant):
        engine_name = str(dec.args[0].value)
    obj: ClassInfo | FunctionInfo | None
    if isinstance(node, ast.ClassDef):
        obj = syms.classes.get(node.name)
    else:
        obj = syms.functions.get(node.name)
    if obj is None:
        return None
    entries, receiver, contract = _engine_entry(project, obj)
    return Registration(syms, node, root or "", engine_name,
                        entries, receiver, contract)


def _call_registration(syms: ModuleSymbols, node, reg_names,
                       project: ProjectContext) -> Registration | None:
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "register"
            and len(node.args) >= 2):
        return None
    root = _root_name(node.func.value)
    if root not in reg_names:
        return None
    engine_name = "<engine>"
    if isinstance(node.args[0], ast.Constant):
        engine_name = str(node.args[0].value)
    factory = node.args[1]
    dotted = dotted_name(factory)
    if dotted is None:
        return None
    obj: ClassInfo | FunctionInfo | None = \
        project.class_at(syms.name, dotted)
    if obj is None:
        obj = project.function_at(syms.name, dotted)
    if obj is None:
        return None
    entries, receiver, contract = _engine_entry(project, obj)
    return Registration(syms, node, root or "", engine_name,
                        entries, receiver, contract)


class RS013EngineContract(FlowRule):
    meta = RuleMeta(
        "RS013", "registered engine breaks the platform contract",
        "Every engine in SSSP_ENGINES/ASSP_ENGINES signed the PR-7 "
        "contract: reach a CostAccumulator charge (both kinds); for "
        "solve-style engines also open a trace_span and observe "
        "cancellation, with no unconditional loop on the engine path "
        "spinning uncancellably. Oracle (__call__-style) engines are "
        "charge-only — their spans/cancel checks belong to the calling "
        "phase.")

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        graph = CallGraph(project)
        seen_loops: set[tuple[str, int]] = set()
        for reg in _registrations(project):
            ctx = reg.syms.ctx
            if not reg.entries:
                yield ctx.finding(
                    "RS013", reg.node,
                    f"engine `{reg.engine_name}` registered in "
                    f"{reg.registry} has no solve/__call__ entry point "
                    "the analysis can find")
                continue
            reach = graph.reachable(reg.entries, reg.receiver)
            contract = reg.contract
            if contract == "factory":
                # a factory function: judge by what it constructs
                contract = "oracle"
                for cls_fqn in reach.constructed:
                    cls = project.classes.get(cls_fqn)
                    if cls is not None and \
                            project.lookup_method(cls, "solve") is not None:
                        contract = "solver"
                        break
            if not reach.any_summary(project, "charges_cost"):
                yield ctx.finding(
                    "RS013", reg.node,
                    f"engine `{reg.engine_name}` never reaches a "
                    "CostAccumulator charge — its work is invisible to "
                    "the cost model and the golden-cost gates")
            if contract == "solver":
                if not reach.any_summary(project, "opens_span"):
                    yield ctx.finding(
                        "RS013", reg.node,
                        f"engine `{reg.engine_name}` never opens a "
                        "trace_span — its phases are invisible to the "
                        "trace/provenance plane")
                if not reach.any_summary(project, "checks_cancel"):
                    yield ctx.finding(
                        "RS013", reg.node,
                        f"engine `{reg.engine_name}` never observes "
                        "cancellation (token.check/check_cancelled/"
                        "map_blocks) — preemption cannot stop it")
            for fqn in sorted(reach.functions):
                summ = project.summary(fqn)
                info = project.functions.get(fqn)
                if summ is None or info is None:
                    continue
                for loop in summ.hot_loops:
                    key = (info.ctx.path, loop.node.lineno)
                    if key in seen_loops:
                        continue
                    if _loop_ok(project, graph, info, loop,
                                reg.receiver):
                        continue
                    seen_loops.add(key)
                    yield info.ctx.finding(
                        "RS013", loop.node,
                        f"unbounded `while True` on the `"
                        f"{reg.engine_name}` engine path with no exit "
                        "and no cancellation check — every cycle of the "
                        "engine's loop structure must stay preemptible")


# ---------------------------------------------------------------------------
# RS014 — exception taxonomy on the solver path
# ---------------------------------------------------------------------------

class RS014ExceptionTaxonomy(FlowRule):
    meta = RuleMeta(
        "RS014", "solver-path raise outside the resilience taxonomy",
        "Certificates, retry classification, and provenance records "
        "key on the ReproError taxonomy; a generic builtin raised on an "
        "engine-reachable path is unclassifiable (retried when it "
        "should fail fast, or vice versa). The taxonomy subclasses the "
        "natural builtin, so switching is caller-compatible.")

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        graph = CallGraph(project)
        seen: set[tuple[str, int]] = set()
        for reg in _registrations(project):
            if not reg.entries:
                continue
            reach = graph.reachable(reg.entries, reg.receiver)
            for fqn in sorted(reach.functions):
                summ = project.summary(fqn)
                info = project.functions.get(fqn)
                if summ is None or info is None:
                    continue
                for raise_node, callee in summ.raise_sites:
                    key = (info.ctx.path, raise_node.lineno)
                    if key in seen:
                        continue
                    leaf = callee.rsplit(".", 1)[-1]
                    resolved = project.resolve(info.module, callee)
                    cls = project.classes.get(resolved) if resolved \
                        else None
                    if cls is not None:
                        if project.inherits_from(cls, TAXONOMY_ROOT):
                            continue
                        seen.add(key)
                        yield info.ctx.finding(
                            "RS014", raise_node,
                            f"engine-reachable raise of `{cls.name}` "
                            "which is outside the ReproError taxonomy — "
                            "retry/certificate classification cannot "
                            "see it")
                    elif resolved is None and leaf in GENERIC_EXCEPTIONS:
                        seen.add(key)
                        yield info.ctx.finding(
                            "RS014", raise_node,
                            f"engine-reachable raise of generic "
                            f"`{leaf}` — use the resilience taxonomy "
                            "(e.g. InputValidationError subclasses "
                            "ValueError) so solver failures stay "
                            "classifiable")


# ---------------------------------------------------------------------------
# RS015 — unbounded loops in worker-side code
# ---------------------------------------------------------------------------

class RS015WorkerLoops(FlowRule):
    meta = RuleMeta(
        "RS015", "unbounded worker-side loop without exit or cancel",
        "Worker-side code (block tasks, Process/Thread targets) that "
        "spins in a constant-true loop with no break/return/raise and "
        "no cancellation check can only be recovered by the liveness "
        "timeout's SIGKILL — which forfeits the worker's completed "
        "blocks and forces re-execution.")

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        graph = CallGraph(project)
        entries: list[FunctionInfo] = []
        for site in _task_sites(project):
            task = _resolve_task(project, site)
            if task.kind == "module_fn" and task.info is not None:
                entries.append(task.info)
            elif task.kind == "local_def" and \
                    isinstance(task.node, ast.FunctionDef):
                entries.append(self._wrap_local(site.syms, task.node))
        for syms, call, _leaf, target in _thread_targets(project):
            info = self._resolve_target(project, syms, call, target)
            if info is not None:
                entries.append(info)
        seen: set[tuple[str, int]] = set()
        for entry in entries:
            reach = graph.reachable([entry])
            targets: dict[str, FunctionInfo] = {}
            for fqn in sorted(reach.functions):
                hit = project.functions.get(fqn)
                if hit is not None:
                    targets[fqn] = hit
            targets[entry.fqn] = entry
            for info in targets.values():
                summ = project.summary(info.fqn)
                if summ is None:
                    summ = summarize(info)
                for loop in summ.hot_loops:
                    key = (info.ctx.path, loop.node.lineno)
                    if key in seen:
                        continue
                    if _loop_ok(project, graph, info, loop, None):
                        continue
                    seen.add(key)
                    yield info.ctx.finding(
                        "RS015", loop.node,
                        "unbounded `while True` in worker-side code "
                        "with no exit and no cancellation check — a "
                        "hung worker is only recoverable by "
                        "liveness-timeout SIGKILL")

    @staticmethod
    def _wrap_local(syms: ModuleSymbols,
                    node: ast.FunctionDef) -> FunctionInfo:
        return FunctionInfo(
            fqn=f"{syms.name}.<locals>.{node.name}", module=syms.name,
            name=node.name, node=node, ctx=syms.ctx)

    def _resolve_target(self, project: ProjectContext,
                        syms: ModuleSymbols, call: ast.Call,
                        target: ast.expr) -> FunctionInfo | None:
        if isinstance(target, ast.Name):
            info = project.function_at(syms.name, target.id)
            if info is not None:
                return info
            for fn in _enclosing_chain(syms.ctx, call):
                local = _local_def(fn, target.id)
                if local is not None:
                    return self._wrap_local(syms, local)
        return None


FLOW_RULES: tuple[FlowRule, ...] = (
    RS011TaskPickleSafety(),
    RS012BlockPurity(),
    RS013EngineContract(),
    RS014ExceptionTaxonomy(),
    RS015WorkerLoops(),
)


def flow_rules_by_id(ids: Iterable[str] | None = None
                     ) -> tuple[FlowRule, ...]:
    """The flow rule objects for ``ids`` (all five when None)."""
    if ids is None:
        return FLOW_RULES
    wanted = {i.upper() for i in ids}
    known = {r.meta.id for r in FLOW_RULES}
    unknown = wanted - known
    if unknown:
        raise ValueError(f"unknown flow rule id(s): {sorted(unknown)}")
    return tuple(r for r in FLOW_RULES if r.meta.id in wanted)
