"""Hot-path tables regenerated from per-phase profiler captures.

:mod:`repro.observability.profiler` answers "which Python functions burn
the wall-clock inside each algorithm phase"; this module renders that
answer as the same :class:`~repro.analysis.experiments.Row` tables the
rest of the analysis layer speaks, so ``repro profile`` and
``repro trace --profile`` print through the one table renderer.

Like :mod:`repro.analysis.tracetables` the functions are file-based:
they accept a live :class:`~repro.observability.profiler.PhaseProfiler`,
an already-decoded ``profile.json`` document, or a path to one — so a
capture written by ``repro profile --output DIR`` can be re-analysed
long after the solve.
"""

from __future__ import annotations

from .experiments import Row
from ..observability.profiler import PhaseProfiler, load_profile_json

__all__ = [
    "profile_phase_table",
    "profile_hot_table",
]


def _as_doc(profile) -> dict:
    """Normalise to the ``profile.json`` document shape."""
    if isinstance(profile, PhaseProfiler):
        return profile.to_json()
    if isinstance(profile, dict):
        return profile
    return load_profile_json(profile)    # a path (or path-like)


def profile_phase_table(profile) -> list[Row]:
    """One row per profiled phase: outermost entries, nested scopes
    absorbed, accumulated wall, total profiled tottime, and how many
    distinct functions the capture saw."""
    doc = _as_doc(profile)
    rows = []
    for name in sorted(doc.get("phases", {})):
        ph = doc["phases"][name]
        rows.append(Row(
            params={"phase": name},
            values={"calls": ph.get("calls", 0),
                    "nested_scopes": ph.get("nested_scopes", 0),
                    "wall_s": ph.get("wall_s", 0.0),
                    "tottime_s": ph.get("tottime_s", 0.0),
                    "functions": ph.get("function_count", 0)}))
    return rows


def profile_hot_table(profile, top: int | None = None) -> list[Row]:
    """The hot-path table: per phase, the ``top`` functions by tottime
    (ties broken by label for a stable order).  ``top=None`` keeps every
    function the capture recorded."""
    doc = _as_doc(profile)
    rows = []
    for name in sorted(doc.get("phases", {})):
        funcs = doc["phases"][name].get("functions", [])
        if top is not None:
            funcs = funcs[:top]
        for f in funcs:
            rows.append(Row(
                params={"phase": name, "func": f["func"]},
                values={"ncalls": f.get("ncalls", 0),
                        "tottime_s": f.get("tottime_s", 0.0),
                        "cumtime_s": f.get("cumtime_s", 0.0)}))
    return rows
