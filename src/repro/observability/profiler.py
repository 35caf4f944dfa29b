"""Deterministic per-phase profiler built on :mod:`cProfile`.

The tracer says *where wall-clock goes per span*; this module says *which
Python functions burn it* — per top-level algorithm phase, which is the
granularity the CSR-kernel speed work needs ("what dominates
``final-dijkstra`` at scale 12?").

Ambient installation mirrors the tracer exactly: :func:`profiling` sets
the profiler field of the run context (:mod:`repro.runcontext`), and
:func:`profile_scope` is one context read plus an ``is None`` test when
profiling is off — the same zero-cost-when-off contract as
:func:`~repro.observability.tracer.trace_span`, so the guards can sit on
hot phase boundaries permanently.

cProfile cannot nest (one active profile per thread), so the profiler
keeps a scope stack: only the *outermost* ``profile_scope`` enables a
``cProfile.Profile``; inner scopes are counted but attribute their
functions to the enclosing phase.  Each phase's ``Profile`` object is
re-enabled on every entry, so repeated phases (per-scale
``final-dijkstra`` runs) *accumulate* into one per-phase profile.

Exports: per-phase pstats dumps (``<phase>.prof``, loadable by
``python -m pstats`` / snakeviz), a ``profile.collapsed`` flamegraph file
(caller;callee stacks, Brendan Gregg's collapsed format — depth-2
approximation reconstructed from pstats caller edges), and a
schema-versioned ``profile.json`` consumed by
:mod:`repro.analysis.profiletables` and ``repro trace --profile``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from pathlib import Path
from typing import Any

from ..runcontext import current_context, run_scope
from .metrics import metric_inc

PROFILE_SCHEMA_VERSION = 1
PROFILE_SCHEMA = f"repro-profile/{PROFILE_SCHEMA_VERSION}"

__all__ = [
    "PROFILE_SCHEMA",
    "PROFILE_SCHEMA_VERSION",
    "PhaseProfiler",
    "current_profiler",
    "profiling",
    "profile_scope",
    "load_profile_json",
]


def _func_label(func: tuple) -> str:
    """``file:line(name)`` with the path reduced to its basename, so
    labels are stable across checkouts/machines."""
    file, line, name = func
    if file == "~":
        return f"<built-in>({name})"
    return f"{Path(file).name}:{line}({name})"


class PhaseProfiler:
    """Accumulates one :class:`cProfile.Profile` per top-level phase."""

    def __init__(self, *, top: int = 25) -> None:
        self.top = top
        self._profiles: dict[str, cProfile.Profile] = {}
        self._stack: list[str] = []
        self.calls: dict[str, int] = {}     # outermost entries per phase
        self.nested: dict[str, int] = {}    # scopes subsumed by a phase
        self._t0: dict[str, float] = {}
        self.wall: dict[str, float] = {}    # accumulated per-phase wall

    # -- scope protocol (driven by profile_scope handles) ---------------

    def start(self, name: str) -> None:
        if self._stack:
            # cProfile cannot nest: the enclosing phase keeps profiling
            # and absorbs this scope's functions; count it for the table
            self._stack.append(name)
            self.nested[name] = self.nested.get(name, 0) + 1
            return
        prof = self._profiles.get(name)
        if prof is None:
            prof = self._profiles[name] = cProfile.Profile()
        self._stack.append(name)
        self.calls[name] = self.calls.get(name, 0) + 1
        self._t0[name] = time.perf_counter()
        metric_inc("repro_profile_phases_total", phase=name)
        prof.enable()

    def stop(self, name: str) -> None:
        if not self._stack:
            return  # unbalanced stop: tolerate, like the tracer's unwind
        top = self._stack.pop()
        if self._stack:
            return  # inner scope closed; the outermost profile runs on
        prof = self._profiles.get(top)
        if prof is not None:
            prof.disable()
        t0 = self._t0.pop(top, None)
        if t0 is not None:
            self.wall[top] = (self.wall.get(top, 0.0)
                              + time.perf_counter() - t0)

    # -- introspection --------------------------------------------------

    def phases(self) -> list[str]:
        return sorted(self._profiles)

    def stats(self, name: str) -> pstats.Stats:
        """A :class:`pstats.Stats` over phase ``name`` (so far)."""
        return pstats.Stats(self._profiles[name])

    def summary(self, top: int | None = None) -> dict:
        """Per-phase function table: deterministic labels and call
        counts; times are measurements (sorted by tottime, then label
        for a stable order under ties)."""
        top = self.top if top is None else top
        phases: dict[str, Any] = {}
        for name in self.phases():
            st = pstats.Stats(self._profiles[name])
            rows = []
            for func, (cc, nc, tt, ct, _callers) in st.stats.items():
                rows.append({"func": _func_label(func),
                             "ncalls": int(nc), "primitive": int(cc),
                             "tottime_s": tt, "cumtime_s": ct})
            rows.sort(key=lambda r: (-r["tottime_s"], r["func"]))
            phases[name] = {
                "calls": self.calls.get(name, 0),
                "nested_scopes": self.nested.get(name, 0),
                "wall_s": self.wall.get(name, 0.0),
                "tottime_s": sum(r["tottime_s"] for r in rows),
                "functions": rows[:top],
                "function_count": len(rows),
            }
        return phases

    def to_json(self, top: int | None = None) -> dict:
        return {"schema": PROFILE_SCHEMA, "phases": self.summary(top)}

    # -- exporters ------------------------------------------------------

    def collapsed_stacks(self) -> list[str]:
        """Flamegraph collapsed format: ``phase;caller;callee count``.

        cProfile records caller→callee edges, not full stacks, so this
        is the standard depth-2 reconstruction: one line per edge
        weighted by the callee's tottime (microseconds) attributed to
        that caller, plus ``phase;func`` lines for call-graph roots.
        """
        lines: list[str] = []
        for name in self.phases():
            st = pstats.Stats(self._profiles[name])
            for func, (_cc, _nc, tt, _ct, callers) in st.stats.items():
                label = _func_label(func)
                if not callers:
                    if tt > 0:
                        lines.append(f"{name};{label} {int(tt * 1e6)}")
                    continue
                for caller, centry in callers.items():
                    # per-caller entry: (cc, nc, tt, ct)
                    ctt = centry[2] if isinstance(centry, tuple) else tt
                    if ctt > 0:
                        lines.append(f"{name};{_func_label(caller)};"
                                     f"{label} {int(ctt * 1e6)}")
        return sorted(lines)

    def write(self, outdir) -> dict[str, Path]:
        """Write every export under ``outdir``; returns name -> path."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path] = {}
        for name in self.phases():
            p = outdir / f"{name}.prof"
            self._profiles[name].dump_stats(str(p))
            paths[f"pstats:{name}"] = p
        pj = outdir / "profile.json"
        pj.write_text(json.dumps(self.to_json(), indent=2) + "\n",
                      encoding="utf-8")
        paths["json"] = pj
        pc = outdir / "profile.collapsed"
        pc.write_text("\n".join(self.collapsed_stacks()) + "\n",
                      encoding="utf-8")
        paths["collapsed"] = pc
        return paths


def load_profile_json(path) -> dict:
    """Read a ``profile.json`` back (schema-checked)."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("schema") != PROFILE_SCHEMA:
        raise ValueError(f"unknown profile schema {doc.get('schema')!r} "
                         f"(expected {PROFILE_SCHEMA})")
    return doc


# ---------------------------------------------------------------------------
# ambient profiler (a field of the run context, like tracer and metrics)
# ---------------------------------------------------------------------------

def current_profiler() -> PhaseProfiler | None:
    """The ambient profiler installed by :func:`profiling`, or None."""
    return current_context().profiler


def profiling(profiler: PhaseProfiler | None) -> run_scope:
    """Install ``profiler`` as the ambient profiler for the enclosed
    block (``None`` masks the outer one); yields ``profiler``."""
    return run_scope(profiler=profiler)


class _ProfileScope:
    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: PhaseProfiler, name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_ProfileScope":
        self._profiler.start(self._name)
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._profiler.stop(self._name)
        return False


class _NoopScope:
    __slots__ = ()

    def __enter__(self) -> "_NoopScope":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


NOOP_PROFILE_SCOPE = _NoopScope()


def profile_scope(name: str):
    """Profile a phase on the ambient profiler — a shared no-op when
    profiling is off, so the guard costs one context read when disabled."""
    prof = current_context().profiler
    if prof is None:
        return NOOP_PROFILE_SCOPE
    return _ProfileScope(prof, name)
