"""Schema-versioned, machine-readable benchmark records.

Every experiment ``repro bench run`` executes (via
:func:`repro.analysis.benchruns.run_benches`) emits a ``BENCH_<id>.json``
next to its human-readable ``<id>.txt`` table.  The JSON record keeps the
*raw, full-precision* rows — model work/span numbers are deterministic
given the seed, so the regression gate (:mod:`repro.analysis.benchgate`)
can demand bit-exact equality on them — plus optional raw wall-clock
samples and an environment fingerprint (host/python/numpy/commit/seed
context) so a human reading a diff can tell "different machine" from
"different algorithm".

A consolidated ``BENCH_summary.json`` indexes every record in a results
directory; ``repro bench`` consumes these files for ``run``, ``compare``
and ``baseline``.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import re
import subprocess

import numpy as np

from .experiments import Row

BENCH_SCHEMA = "repro-bench/1"
BENCH_SUMMARY_SCHEMA = "repro-bench-summary/1"

_ID_RE = re.compile(r"^[a-z][A-Za-z0-9_]*$")

_ENV_KEYS = ("host", "platform", "python", "numpy", "cpu_count", "commit",
             "generated_at")


def _git_commit() -> str | None:
    """Best-effort HEAD commit of the repo containing this file."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def environment_fingerprint() -> dict:
    """Where/when a record was produced (never used for gating)."""
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "commit": _git_commit(),
        "generated_at": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def json_safe(value):
    """Coerce numpy scalars/arrays and containers to JSON-native types.

    Full precision is preserved: floats stay floats (``repr`` round-trips
    through ``json``), ints stay ints.  Non-finite floats become the
    strings ``"inf"``/``"-inf"``/``"nan"`` so the files remain strict JSON.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value != value:
            return "nan"
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return value
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if value is None or isinstance(value, str):
        return value
    return str(value)


def bench_record(bench_id: str, title: str, rows, *,
                 wallclock: dict | None = None,
                 meta: dict | None = None,
                 environment: dict | None = None) -> dict:
    """Build a schema-versioned record from experiment rows.

    ``rows`` is a list of :class:`~repro.analysis.experiments.Row` (or
    ``{"params": ..., "values": ...}`` dicts).  ``wallclock`` maps a
    measurement name to its *raw* timing samples in seconds — keep every
    sample, the gate runs its statistics on them.  ``meta`` is free-form
    provenance (sweep kwargs, runner time, the judged claim).
    """
    out_rows = []
    for r in rows:
        if isinstance(r, Row):
            out_rows.append({"params": json_safe(r.params),
                             "values": json_safe(r.values)})
        else:
            out_rows.append({"params": json_safe(r.get("params", {})),
                             "values": json_safe(r.get("values", {}))})
    record = {
        "schema": BENCH_SCHEMA,
        "id": bench_id,
        "title": title,
        "environment": dict(environment) if environment is not None
        else environment_fingerprint(),
        "rows": out_rows,
    }
    if wallclock:
        record["wallclock"] = {
            str(k): [float(x) for x in v] for k, v in wallclock.items()}
    if meta:
        record["meta"] = json_safe(meta)
    validate_bench_record(record)
    return record


def validate_bench_record(record) -> None:
    """Raise ``ValueError`` describing the first schema violation."""
    if not isinstance(record, dict):
        raise ValueError("bench record must be a JSON object")
    schema = record.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"unsupported bench schema {schema!r} (want {BENCH_SCHEMA!r})")
    bench_id = record.get("id")
    if not isinstance(bench_id, str) or not _ID_RE.match(bench_id):
        raise ValueError(f"bench id {bench_id!r} must match {_ID_RE.pattern}")
    if not isinstance(record.get("title"), str):
        raise ValueError(f"{bench_id}: title must be a string")
    env = record.get("environment")
    if not isinstance(env, dict):
        raise ValueError(f"{bench_id}: environment must be an object")
    missing = [k for k in _ENV_KEYS if k not in env]
    if missing:
        raise ValueError(f"{bench_id}: environment missing keys {missing}")
    rows = record.get("rows")
    if not isinstance(rows, list):
        raise ValueError(f"{bench_id}: rows must be a list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or set(row) != {"params", "values"}:
            raise ValueError(
                f"{bench_id}: rows[{i}] must have exactly params+values")
        if not isinstance(row["params"], dict) \
                or not isinstance(row["values"], dict):
            raise ValueError(
                f"{bench_id}: rows[{i}] params/values must be objects")
    wc = record.get("wallclock")
    if wc is not None:
        if not isinstance(wc, dict):
            raise ValueError(f"{bench_id}: wallclock must be an object")
        for name, samples in wc.items():
            if not isinstance(samples, list) or not all(
                    isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in samples):
                raise ValueError(
                    f"{bench_id}: wallclock[{name!r}] must be a list of "
                    "numbers")
    meta = record.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValueError(f"{bench_id}: meta must be an object")


def bench_json_path(results_dir, bench_id: str) -> pathlib.Path:
    return pathlib.Path(results_dir) / f"BENCH_{bench_id}.json"


def write_bench_json(record: dict, results_dir) -> pathlib.Path:
    """Validate and persist one record as ``BENCH_<id>.json``."""
    validate_bench_record(record)
    results_dir = pathlib.Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = bench_json_path(results_dir, record["id"])
    path.write_text(json.dumps(record, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")
    return path


def load_bench_json(path) -> dict:
    """Read and validate one ``BENCH_<id>.json``."""
    record = json.loads(pathlib.Path(path).read_text())
    validate_bench_record(record)
    return record


def list_bench_json(results_dir) -> list[pathlib.Path]:
    """All per-experiment records in a directory (summary excluded)."""
    results_dir = pathlib.Path(results_dir)
    if not results_dir.is_dir():
        return []
    return sorted(p for p in results_dir.glob("BENCH_*.json")
                  if p.name != "BENCH_summary.json")


def write_bench_summary(results_dir) -> pathlib.Path:
    """Re-index every record in ``results_dir`` into BENCH_summary.json."""
    results_dir = pathlib.Path(results_dir)
    entries = []
    for path in list_bench_json(results_dir):
        record = load_bench_json(path)
        entry = {
            "id": record["id"],
            "title": record["title"],
            "file": path.name,
            "n_rows": len(record["rows"]),
            "generated_at": record["environment"].get("generated_at"),
            "commit": record["environment"].get("commit"),
        }
        if "wallclock" in record:
            entry["wallclock_measurements"] = sorted(record["wallclock"])
        entries.append(entry)
    summary = {
        "schema": BENCH_SUMMARY_SCHEMA,
        "environment": environment_fingerprint(),
        "benchmarks": entries,
    }
    path = results_dir / "BENCH_summary.json"
    results_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")
    return path
