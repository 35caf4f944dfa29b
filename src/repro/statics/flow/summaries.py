"""Per-function effect summaries.

Each project function gets one :class:`EffectSummary`: does its body
(not counting nested defs) charge the cost model, open a trace span,
observe cancellation, raise, and what does it call.  Summaries are
*local*; the call graph lifts them to "reachable" facts — the effect
lattice is booleans under OR, so the transitive summary of an entry
point is simply the OR over its reachable set (see DESIGN.md
"Interprocedural flow analysis").

The effect detectors are name-based, mirroring the module-local rules:
a charge is a ``.charge``/``.charge_cost`` call or a charging primitive
from ``runtime/primitives.py``; a span is ``trace_span``/``worker_span``
(or a ``tracer.span``/``add_closed_span`` attribute call); a cancel
check is ``check_cancelled``, ``<token>.check(...)``, or dispatching
through ``map_blocks`` (which checks internally).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..engine import call_name, dotted_name
from .symbols import FunctionInfo

__all__ = [
    "CANCEL_CHECK_NAMES",
    "CHARGE_ATTRS",
    "CHARGING_PRIMITIVES",
    "SPAN_NAMES",
    "EffectSummary",
    "LoopInfo",
    "summarize",
]

# primitives from repro.runtime.primitives / reach that charge the
# accumulator they are handed (kept in sync with statics.rules)
CHARGING_PRIMITIVES = frozenset({
    "parallel_map", "prefix_sum", "pack", "parallel_sort",
    "parallel_argsort", "parallel_reduce_max", "parallel_reduce_sum",
    "group_by_key", "flatten", "dedupe",
    "multisource_reachability", "multisource_reachability_min",
    "bfs_parents", "reachable_mask",
})

CHARGE_ATTRS = frozenset({"charge", "charge_cost", "count"})
SPAN_NAMES = frozenset({"trace_span", "worker_span"})
SPAN_ATTRS = frozenset({"span", "add_closed_span"})
CANCEL_CHECK_NAMES = frozenset({"check_cancelled"})
CANCEL_DISPATCH_ATTRS = frozenset({"map_blocks"})


@dataclass
class LoopInfo:
    """One constant-true ``while`` loop in a function body."""

    node: ast.While
    has_exit: bool            # break/return anywhere in the loop body
    checks_cancel: bool       # cancel check syntactically inside
    raises: bool              # an unconditional escape hatch still exists
    calls: tuple[str, ...]    # dotted callee names inside the loop


@dataclass
class EffectSummary:
    """Local (non-transitive) effects of one function body."""

    fqn: str
    charges_cost: bool = False
    opens_span: bool = False
    checks_cancel: bool = False
    calls: tuple[str, ...] = ()          # dotted names, as written
    self_calls: tuple[str, ...] = ()     # method names called on self
    raise_sites: tuple[tuple[ast.Raise, str], ...] = ()
    hot_loops: tuple[LoopInfo, ...] = ()


def _is_constant_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value) is True


def _own_body(fn: ast.AST):
    """Walk a function body without entering nested defs/lambdas."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_cancel_check(node: ast.Call) -> bool:
    name = call_name(node) or ""
    leaf = name.rsplit(".", 1)[-1]
    if leaf in CANCEL_CHECK_NAMES:
        return True
    if leaf in CANCEL_DISPATCH_ATTRS and isinstance(node.func,
                                                    ast.Attribute):
        return True
    # token.check("..."), self._token.check(...), tok.check(...)
    if isinstance(node.func, ast.Attribute) and node.func.attr == "check":
        recv = name.rsplit(".", 1)[0].lower() if "." in name else ""
        if "token" in recv or recv in {"tok", "cancel"}:
            return True
    return False


def _is_charge(node: ast.Call) -> bool:
    name = call_name(node) or ""
    leaf = name.rsplit(".", 1)[-1]
    if leaf in CHARGING_PRIMITIVES:
        return True
    return isinstance(node.func, ast.Attribute) and \
        node.func.attr in CHARGE_ATTRS


def _is_span(node: ast.Call) -> bool:
    name = call_name(node) or ""
    leaf = name.rsplit(".", 1)[-1]
    if leaf in SPAN_NAMES:
        return True
    return isinstance(node.func, ast.Attribute) and \
        node.func.attr in SPAN_ATTRS


def _raise_callee(node: ast.Raise) -> str | None:
    """Dotted name of the raised exception's constructor, if literal."""
    exc = node.exc
    if isinstance(exc, ast.Call):
        return call_name(exc)
    if isinstance(exc, (ast.Name, ast.Attribute)):
        return dotted_name(exc)
    return None


def _collect_calls(nodes) -> tuple[list[str], list[str]]:
    """(dotted callee names, self-method names) for an iterable of
    already-walked nodes."""
    calls: list[str] = []
    self_calls: list[str] = []
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name is None:
            continue
        if name.startswith("self."):
            parts = name.split(".")
            if len(parts) == 2:
                self_calls.append(parts[1])
            continue
        calls.append(name)
    return calls, self_calls


def summarize(info: FunctionInfo) -> EffectSummary:
    """The local effect summary of one project function."""
    fn = info.node
    body_nodes = list(_own_body(fn))
    charges = spans = cancels = False
    raise_sites: list[tuple[ast.Raise, str]] = []
    for node in body_nodes:
        if isinstance(node, ast.Call):
            charges = charges or _is_charge(node)
            spans = spans or _is_span(node)
            cancels = cancels or _is_cancel_check(node)
        elif isinstance(node, ast.Raise):
            callee = _raise_callee(node)
            if callee is not None:
                raise_sites.append((node, callee))
    calls, self_calls = _collect_calls(body_nodes)

    loops: list[LoopInfo] = []
    for node in body_nodes:
        if not isinstance(node, ast.While) or \
                not _is_constant_true(node.test):
            continue
        inner = [n for stmt in node.body for n in ast.walk(stmt)]
        has_exit = any(isinstance(n, (ast.Break, ast.Return))
                       for n in inner)
        in_cancel = any(isinstance(n, ast.Call) and _is_cancel_check(n)
                        for n in inner)
        in_raises = any(isinstance(n, ast.Raise) for n in inner)
        loop_calls, loop_self = _collect_calls(
            n for n in inner if isinstance(n, ast.Call))
        loops.append(LoopInfo(node=node, has_exit=has_exit,
                              checks_cancel=in_cancel, raises=in_raises,
                              calls=tuple(loop_calls + loop_self)))

    return EffectSummary(
        fqn=info.fqn, charges_cost=charges, opens_span=spans,
        checks_cancel=cancels, calls=tuple(calls),
        self_calls=tuple(self_calls),
        raise_sites=tuple(raise_sites), hot_loops=tuple(loops))
