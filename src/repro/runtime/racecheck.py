"""Shadow-memory race checking for fork–join parallel loops.

The solvers' parallel structure is fork–join: every backend's
:meth:`~repro.runtime.executor.BlockPool.map_blocks` call opens a
*region*, partitions its index range into *blocks*, and joins before
returning.  Two accesses can race only when they happen in
logically-parallel sibling blocks of the same region — the classic
series-parallel happens-before relation, which we can decide purely from
each access's position in the fork tree, with no clocks and no reliance
on the physical thread schedule.

When a :class:`RaceChecker` is installed (via :func:`race_checking`),
instrumented code records its shared-memory accesses through the ambient
guards :func:`race_read` / :func:`race_write` — zero-cost no-ops when no
checker is active, mirroring ``trace_span``/``metric_inc``.  Under a
checker, ``map_blocks`` on every backend (serial, thread, process) runs
:func:`~repro.runtime.executor.checked_map_blocks`: it partitions the
range into the same *logical* blocks regardless of backend and pool
size, runs them in process, and tags each with its ``(region, block)``
coordinates, so ``repro check --race`` finds the same races at 1, 2, or
8 workers.  (This is the Cilk
"Nondeterminator" insight: detect *logical* races by replaying the
fork tree, don't hope the scheduler exhibits them.)

Conflict rule: accesses ``a`` and ``b`` to the same object conflict iff

* their fork-tree paths first diverge at a common region with different
  block ids (logically parallel siblings — a path that is a *prefix* of
  another is an ancestor, hence sequential),
* at least one of them is a write, and
* their index intervals overlap (``None`` bounds mean the whole object).
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..runcontext import current_context, run_scope

# One fork step: (region id, block id).  A task's path is the tuple of
# steps from the root to its block — the series-parallel coordinates.
Step = tuple[int, int]
Path = tuple[Step, ...]

READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class Access:
    """One recorded shared-memory access."""

    obj_key: int
    label: str
    kind: str                 # READ or WRITE
    path: Path
    lo: int | None            # None = whole object
    hi: int | None
    site: str                 # free-form annotation site label

    def interval_overlaps(self, other: "Access") -> bool:
        if self.lo is None or other.lo is None:
            return True
        assert self.hi is not None and other.hi is not None
        return self.lo < other.hi and other.lo < self.hi

    def span_text(self) -> str:
        if self.lo is None:
            return "[:]"
        return f"[{self.lo}:{self.hi}]"


def logically_parallel(a: Path, b: Path) -> bool:
    """True iff tasks at paths ``a`` and ``b`` may run concurrently.

    Walk the common prefix; at the first divergence the tasks are
    parallel iff they sit in different blocks of the *same* region
    (sibling branches of one fork).  Different regions at the same
    depth are two sequential ``map_blocks`` calls; a full prefix
    means ancestor/descendant.  Identical paths are the same task.
    """
    for (ra, ba), (rb, bb) in zip(a, b):
        if ra != rb:
            return False          # sequentially separate regions
        if ba != bb:
            return True           # sibling blocks of one fork
    return False                  # prefix or equal: ordered


@dataclass(frozen=True)
class RaceFinding:
    """A write–write or read–write conflict between sibling blocks."""

    kind: str                     # "write-write" or "read-write"
    label: str
    region: int
    a_block: int
    b_block: int
    a_site: str
    b_site: str
    a_span: str
    b_span: str

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind, "object": self.label, "region": self.region,
            "a": {"block": self.a_block, "site": self.a_site,
                  "span": self.a_span},
            "b": {"block": self.b_block, "site": self.b_site,
                  "span": self.b_span},
        }

    def render(self) -> str:
        return (f"{self.kind} race on {self.label} in region "
                f"{self.region}: block {self.a_block} {self.a_site}"
                f"{self.a_span} vs block {self.b_block} {self.b_site}"
                f"{self.b_span}")


def _divergence(a: Path, b: Path) -> Step | None:
    """The (region, block-of-a) step where ``a`` first diverges from
    ``b``, when the two are logically parallel."""
    for (ra, ba), (rb, bb) in zip(a, b):
        if ra != rb:
            return None
        if ba != bb:
            return (ra, ba)
    return None


class RaceChecker:
    """Records fork-tree-tagged accesses and reports logical races.

    Thread-safe: each thread carries its own path stack, and the access
    log is guarded by a lock.
    """

    def __init__(self, max_findings: int = 64) -> None:
        self.max_findings = max_findings
        self._accesses: list[Access] = []
        self._region_counter = 0
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- fork-tree bookkeeping (driven by checked_map_blocks) -----------

    def open_region(self) -> int:
        with self._lock:
            self._region_counter += 1
            return self._region_counter

    def current_path(self) -> Path:
        return getattr(self._tls, "path", ())

    @contextmanager
    def task(self, region: int, block: int) -> Iterator[None]:
        """Run a block body at fork-tree position ``current + (region,
        block)`` — on the thread that opened the region, as every
        backend's checked loop does."""
        prev = self.current_path()
        self._tls.path = prev + ((region, block),)
        try:
            yield
        finally:
            self._tls.path = prev

    def blocks_for(self, n: int, grain: int) -> int:
        """Logical block count for an ``n``-element loop — a function of
        the loop alone (not of pool size), so findings are identical at
        any worker count.  At least 2 blocks whenever n > 1, so races
        are observable even for small loops."""
        if n <= 1:
            return 1
        return min(max(2, (n + grain - 1) // grain), 8)

    # -- access recording ----------------------------------------------

    def record(self, obj: Any, kind: str, lo: int | None, hi: int | None,
               label: str | None, site: str) -> None:
        key = id(obj)
        name = label if label is not None else type(obj).__name__
        acc = Access(obj_key=key, label=name, kind=kind,
                     path=self.current_path(), lo=lo, hi=hi, site=site)
        with self._lock:
            self._accesses.append(acc)

    # -- conflict detection --------------------------------------------

    def findings(self) -> list[RaceFinding]:
        """All write–write / read–write conflicts between logically-
        parallel accesses, deduplicated per (object, region, block pair,
        site pair)."""
        with self._lock:
            accesses = list(self._accesses)
        by_obj: dict[int, list[Access]] = {}
        for acc in accesses:
            by_obj.setdefault(acc.obj_key, []).append(acc)
        found: list[RaceFinding] = []
        seen: set[tuple[Any, ...]] = set()
        for group in by_obj.values():
            writes = [a for a in group if a.kind == WRITE]
            if not writes:
                continue
            for a in writes:
                for b in group:
                    if a is b:
                        continue
                    da = _divergence(a.path, b.path)
                    if da is None:   # ordered (prefix/equal/other region)
                        continue
                    db = _divergence(b.path, a.path)
                    assert db is not None
                    region, blk_a = da
                    blk_b = db[1]
                    kind = ("write-write" if b.kind == WRITE
                            else "read-write")
                    if kind == "write-write" and blk_a > blk_b:
                        continue  # count each unordered pair once
                    if not a.interval_overlaps(b):
                        continue
                    dedup = (a.obj_key, region, blk_a, blk_b,
                             a.site, b.site, kind)
                    if dedup in seen:
                        continue
                    seen.add(dedup)
                    found.append(RaceFinding(
                        kind=kind, label=a.label, region=region,
                        a_block=blk_a, b_block=blk_b,
                        a_site=a.site, b_site=b.site,
                        a_span=a.span_text(), b_span=b.span_text()))
                    if len(found) >= self.max_findings:
                        return found
        return found

    @property
    def n_accesses(self) -> int:
        with self._lock:
            return len(self._accesses)


# -- ambient installation (a field of the run context) -----------------

def current_race_checker() -> RaceChecker | None:
    """The ambient checker, or None (the common, zero-cost case)."""
    return current_context().race_checker


def race_checking(checker: RaceChecker | None = None) -> run_scope:
    """Install ``checker`` (a fresh one by default) as the ambient race
    checker for the dynamic extent of the block; yields the checker."""
    return run_scope(race_checker=checker if checker is not None
                     else RaceChecker())


def race_read(obj: Any, lo: int | None = None, hi: int | None = None,
              *, label: str | None = None, site: str = "") -> None:
    """Record a shared read of ``obj`` (slice ``[lo:hi]``, or the whole
    object).  No-op unless a checker is installed."""
    checker = current_context().race_checker
    if checker is not None:
        checker.record(obj, READ, lo, hi, label, site)


def race_write(obj: Any, lo: int | None = None, hi: int | None = None,
               *, label: str | None = None, site: str = "") -> None:
    """Record a shared write to ``obj``.  No-op unless a checker is
    installed."""
    checker = current_context().race_checker
    if checker is not None:
        checker.record(obj, WRITE, lo, hi, label, site)


@dataclass
class RaceReport:
    """Findings from one checked run, JSON-serialisable."""

    findings: list[RaceFinding] = field(default_factory=list)
    n_accesses: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> dict[str, Any]:
        return {"schema": "repro-races/1", "ok": self.ok,
                "n_accesses": self.n_accesses,
                "findings": [f.to_json() for f in self.findings]}

    def render(self) -> str:
        if self.ok:
            return (f"race check: OK ({self.n_accesses} accesses, "
                    "0 conflicts)")
        lines = [f"race check: {len(self.findings)} conflict(s) over "
                 f"{self.n_accesses} accesses"]
        lines += ["  " + f.render() for f in self.findings]
        return "\n".join(lines)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def checked(fn: Any, *args: Any, **kwargs: Any) -> tuple[Any, RaceReport]:
    """Run ``fn(*args, **kwargs)`` under a fresh checker; return
    ``(result, report)``."""
    with race_checking() as checker:
        result = fn(*args, **kwargs)
    report = RaceReport(findings=checker.findings(),
                        n_accesses=checker.n_accesses)
    return result, report
