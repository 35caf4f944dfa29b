"""DIMACS shortest-path format I/O.

The 9th DIMACS Implementation Challenge format is the lingua franca of
shortest-path code; supporting it makes the library usable on standard
road-network instances:

* comment lines ``c ...``
* one problem line ``p sp <n> <m>``
* arc lines ``a <u> <v> <w>`` with 1-based vertices and integer weights
* (for sources) ``.ss`` files with lines ``s <vertex>``

Writers emit the same format.  Vertices are converted to 0-based ids on
read and back to 1-based on write.
"""

from __future__ import annotations

import hashlib
import io as _io
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from .digraph import MAX_ABS_WEIGHT, DiGraph, _aligned_weights


class DimacsError(ValueError):
    """Malformed DIMACS input."""


_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1


def _integer(field: str, lineno: int, lo: int = _INT64_MIN,
             hi: int = _INT64_MAX) -> int:
    """The DIMACS ``field`` as an int in ``[lo, hi]``, or a line-numbered
    :class:`DimacsError` (a bare ``int()`` raises ``ValueError``, and a
    value past int64 fails the array cast with ``OverflowError``)."""
    try:
        value = int(field)
    except ValueError:
        raise DimacsError(
            f"line {lineno}: {field!r} is not an integer") from None
    if not lo <= value <= hi:
        raise DimacsError(f"line {lineno}: {field} is outside [{lo}, {hi}]")
    return value


def _open(path_or_file, mode: str):
    if isinstance(path_or_file, (str, Path)):
        return open(path_or_file, mode), True
    return path_or_file, False


def read_dimacs(path_or_file) -> DiGraph:
    """Parse a DIMACS ``sp`` graph into a :class:`DiGraph`.

    Malformed input raises :class:`DimacsError` naming its line: a token
    that is not an integer, a negative count, a vertex outside ``1..n``
    or a weight past the graph's :data:`~repro.graph.digraph.MAX_ABS_WEIGHT`.
    """
    f, owned = _open(path_or_file, "r")
    try:
        n = None
        m_declared = None
        srcs: list[int] = []
        dsts: list[int] = []
        ws: list[int] = []
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) != 4 or parts[1] != "sp":
                    raise DimacsError(
                        f"line {lineno}: expected 'p sp <n> <m>', got {line!r}")
                if n is not None:
                    raise DimacsError(f"line {lineno}: duplicate problem line")
                n = _integer(parts[2], lineno, lo=0)
                m_declared = _integer(parts[3], lineno, lo=0)
            elif parts[0] == "a":
                if len(parts) != 4:
                    raise DimacsError(
                        f"line {lineno}: expected 'a <u> <v> <w>', got {line!r}")
                if n is None:
                    raise DimacsError(
                        f"line {lineno}: arc before the problem line")
                u, v = _integer(parts[1], lineno), _integer(parts[2], lineno)
                w = _integer(parts[3], lineno, -MAX_ABS_WEIGHT, MAX_ABS_WEIGHT)
                if not (1 <= u <= n and 1 <= v <= n):
                    raise DimacsError(
                        f"line {lineno}: vertex out of range 1..{n}")
                srcs.append(u - 1)
                dsts.append(v - 1)
                ws.append(w)
            else:
                raise DimacsError(
                    f"line {lineno}: unknown record type {parts[0]!r}")
        if n is None:
            raise DimacsError("missing problem line 'p sp <n> <m>'")
        if m_declared is not None and m_declared != len(srcs):
            raise DimacsError(
                f"problem line declares {m_declared} arcs, found {len(srcs)}")
        return DiGraph(n, np.asarray(srcs, dtype=np.int64),
                       np.asarray(dsts, dtype=np.int64),
                       np.asarray(ws, dtype=np.int64))
    finally:
        if owned:
            f.close()


def write_dimacs(g: DiGraph, path_or_file,
                 comments: Iterable[str] = ()) -> None:
    """Write ``g`` in DIMACS ``sp`` format."""
    f, owned = _open(path_or_file, "w")
    try:
        for c in comments:
            f.write(f"c {c}\n")
        f.write(f"p sp {g.n} {g.m}\n")
        for u, v, w in g.edges():
            f.write(f"a {u + 1} {v + 1} {w}\n")
    finally:
        if owned:
            f.close()


def dumps_dimacs(g: DiGraph, comments: Iterable[str] = ()) -> str:
    """DIMACS text of ``g``."""
    buf = _io.StringIO()
    write_dimacs(g, buf, comments)
    return buf.getvalue()


def loads_dimacs(text: str) -> DiGraph:
    """Parse DIMACS text."""
    return read_dimacs(_io.StringIO(text))


def graph_digest(g: DiGraph, weights: np.ndarray | None = None,
                 *, extra: Iterable = ()) -> str:
    """Stable SHA-256 hex digest of a graph's exact structure and weights.

    Identifies *this* instance bit-for-bit: two graphs digest equal iff
    they have the same vertex count and the same ``(src, dst, w)`` edge
    list in edge-id order.  ``weights`` overrides ``g.w`` (the scaling
    solver fingerprints the weight vector it was actually handed);
    ``extra`` mixes in solver parameters so checkpoint fingerprints bind
    the answer-determining configuration, not just the graph.
    """
    w = _aligned_weights(g, weights)
    h = hashlib.sha256()
    h.update(b"repro-digraph-v1\0")
    h.update(struct.pack("<qq", g.n, g.m))
    h.update(np.ascontiguousarray(g.src, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(g.dst, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(w, dtype=np.int64).tobytes())
    for item in extra:
        h.update(repr(item).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def write_distances(dist: np.ndarray, path_or_file, source: int) -> None:
    """Write distances in the DIMACS results style: ``d <v> <dist>`` lines
    (1-based; unreachable vertices written as ``d <v> inf``)."""
    f, owned = _open(path_or_file, "w")
    try:
        f.write(f"c shortest-path distances from source {source + 1}\n")
        for v, d in enumerate(np.asarray(dist, dtype=np.float64)):
            text = "inf" if np.isinf(d) else str(int(d))
            f.write(f"d {v + 1} {text}\n")
    finally:
        if owned:
            f.close()
