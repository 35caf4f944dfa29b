"""Static-analysis engine, rules RS001–RS015, and the race checker.

Each rule gets a positive fixture (must fire), a negative fixture (must
stay quiet), and the suppression paths (noqa, baseline) are exercised on
top.  The interprocedural flow rules (RS011–RS015) additionally get the
committed toy-engine fixture (every rule must fire on it) and a
cross-validation harness proving static RS012 covers everything the
dynamic race checker reports.  The race-checker section proves the
happens-before relation, flags a deliberately racy kernel at every pool
size, and shows the real probes clean.  Finally, the real package must
lint clean on both planes — the same gate CI enforces via
``repro check``.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.runtime.executor import ForkJoinPool
from repro.runtime.racecheck import (
    RaceChecker,
    checked,
    logically_parallel,
    race_checking,
    race_read,
    race_write,
)
from repro.statics import FLOW_RULES, lint_source, rules_by_id
from repro.statics.engine import Baseline, BaselineEntry, lint_paths
from repro.statics.flow import cross_validate_rs012
from repro.statics.races import run_race_probes

REPO = pathlib.Path(__file__).resolve().parent.parent


def findings_of(source, rule_id):
    report = lint_source(source, rules=rules_by_id([rule_id]))
    return report.findings


# ---------------------------------------------------------------------------
# per-rule fixtures
# ---------------------------------------------------------------------------

RS001_POS = """
def phase(g, acc):
    acc.charge(g.n, 1)
    total = 0
    for v in g.vertices():
        total += g.degree(v)
    return total
"""

RS001_NEG = """
def phase(g, acc):
    acc.charge(g.n, 1)
    total = 0
    for v in g.vertices():
        acc.charge(1)
        total += g.degree(v)
    return total
"""

RS001_NEG_PRIMITIVE = """
def phase(g, acc):
    acc.charge(g.n, 1)
    for chunk in g.chunks():
        parallel_map(chunk, f, acc)
"""

RS001_NEG_UNINSTRUMENTED = """
def helper(g):
    total = 0
    for v in g.vertices():
        total += g.degree(v)
    return total
"""


class TestRS001:
    def test_fires_on_unaccounted_loop(self):
        (f,) = findings_of(RS001_POS, "RS001")
        assert f.rule == "RS001" and "loop" in f.message

    def test_quiet_when_loop_charges(self):
        assert findings_of(RS001_NEG, "RS001") == []

    def test_quiet_when_loop_calls_primitive(self):
        assert findings_of(RS001_NEG_PRIMITIVE, "RS001") == []

    def test_quiet_outside_instrumented_phase(self):
        assert findings_of(RS001_NEG_UNINSTRUMENTED, "RS001") == []

    def test_acc_passed_to_callee_counts(self):
        src = RS001_POS.replace("total += g.degree(v)",
                                "total += g.degree(v, acc=acc)")
        assert findings_of(src, "RS001") == []


class TestRS002:
    def test_fires_on_numpy_random(self):
        src = "import numpy as np\nx = np.random.default_rng(0)\n"
        assert len(findings_of(src, "RS002")) == 1

    def test_fires_on_stdlib_random_import(self):
        assert len(findings_of("import random\n", "RS002")) == 1

    def test_quiet_on_make_rng(self):
        src = ("from repro.runtime.rng import make_rng\n"
               "rng = make_rng(7)\nx = rng.integers(0, 10)\n")
        assert findings_of(src, "RS002") == []


class TestRS003:
    def test_fires_on_perf_counter_into_charge(self):
        src = ("import time\n"
               "def f(acc):\n"
               "    t = time.perf_counter()\n"
               "    acc.charge(t)\n")
        assert len(findings_of(src, "RS003")) == 1

    def test_fires_on_direct_wall_call_in_sink(self):
        src = ("import time\n"
               "def f(sp):\n"
               "    sp.count('rounds', time.time())\n")
        assert len(findings_of(src, "RS003")) == 1

    def test_quiet_on_seconds_metric(self):
        src = ("import time\n"
               "def f():\n"
               "    metric_observe('repro_span_wall_seconds',"
               " time.perf_counter())\n")
        assert findings_of(src, "RS003") == []

    def test_quiet_on_model_value(self):
        src = "def f(acc, n):\n    acc.charge(n, 2 * n)\n"
        assert findings_of(src, "RS003") == []


class TestRS004:
    def test_fires_on_list_of_set(self):
        src = "s = {1, 2, 3}\nout = list(s)\n"
        assert len(findings_of(src, "RS004")) == 1

    def test_fires_on_for_over_set_literal(self):
        src = "out = []\nfor x in {1, 2}:\n    out.append(x)\n"
        assert len(findings_of(src, "RS004")) == 1

    def test_fires_on_join_of_set(self):
        src = "print(','.join({'a', 'b'}))\n"
        assert len(findings_of(src, "RS004")) == 1

    def test_quiet_on_sorted_set(self):
        src = "s = {3, 1}\nout = [x for x in sorted(s)]\n"
        assert findings_of(src, "RS004") == []

    def test_quiet_on_order_insensitive_consumer(self):
        src = "s = {3, 1}\ntotal = sum(v for v in s)\n"
        assert findings_of(src, "RS004") == []


class TestRS005:
    def test_fires_on_bare_trace_span(self):
        src = "def f():\n    trace_span('phase')\n    work()\n"
        assert len(findings_of(src, "RS005")) == 1

    def test_quiet_inside_with(self):
        src = "def f():\n    with trace_span('phase'):\n        work()\n"
        assert findings_of(src, "RS005") == []

    def test_quiet_when_returned(self):
        src = "def make():\n    return trace_span('phase')\n"
        assert findings_of(src, "RS005") == []

    @pytest.mark.parametrize("call", [
        "profiling(p)", "profile_scope('x')", "guard_scope(g)",
        "fault_scope(p)", "worker_span('x')", "run_scope(tracer=t)"])
    def test_fires_on_every_scope_factory(self, call):
        src = f"def f(p, g, t):\n    cm = {call}\n    work()\n"
        assert len(findings_of(src, "RS005")) == 1


class TestRS007:
    def test_fires_on_bare_except(self):
        src = "try:\n    run()\nexcept:\n    pass\n"
        assert len(findings_of(src, "RS007")) == 1

    def test_fires_on_swallowed_exception(self):
        src = "try:\n    run()\nexcept Exception:\n    log()\n"
        assert len(findings_of(src, "RS007")) == 1

    def test_quiet_when_reraised(self):
        src = "try:\n    run()\nexcept Exception:\n    raise\n"
        assert findings_of(src, "RS007") == []

    def test_quiet_on_specific_type(self):
        src = "try:\n    run()\nexcept ValueError:\n    pass\n"
        assert findings_of(src, "RS007") == []


class TestRS008:
    def test_fires_on_unknown_metric(self):
        src = "metric_inc('repro_bogus_total', 1)\n"
        assert len(findings_of(src, "RS008")) == 1

    def test_fires_on_non_literal_name(self):
        src = "metric_inc(name, 1)\n"
        assert len(findings_of(src, "RS008")) == 1

    def test_quiet_on_catalogued_metric(self):
        src = "metric_inc('repro_engine_solves_total', 1)\n"
        assert findings_of(src, "RS008") == []


class TestRS009:
    def test_fires_on_id_in_sort_key(self):
        src = "order = sorted(items, key=lambda x: id(x))\n"
        assert len(findings_of(src, "RS009")) == 1

    def test_fires_on_id_comparison(self):
        src = "flag = id(a) < id(b)\n"
        assert len(findings_of(src, "RS009")) >= 1

    def test_quiet_on_identity_check(self):
        src = "flag = id(a) == id(b)\n"
        assert findings_of(src, "RS009") == []


class TestRS010:
    def test_fires_on_division_into_count(self):
        src = "def f(sp, n):\n    sp.count('rounds', n / 2)\n"
        assert len(findings_of(src, "RS010")) == 1

    def test_fires_on_float_counter_accumulation(self):
        src = "def f(n):\n    rounds = 0\n    rounds += n / 2\n"
        assert len(findings_of(src, "RS010")) == 1

    def test_quiet_on_integer_division(self):
        src = "def f(sp, n):\n    sp.count('rounds', n // 2)\n"
        assert findings_of(src, "RS010") == []


# ---------------------------------------------------------------------------
# interprocedural flow rules RS011–RS015
# ---------------------------------------------------------------------------

RS011_POS_LAMBDA = """
def run(pool, data):
    pool.map_blocks(len(data), lambda lo, hi: None)
"""

RS011_POS_LOCK = """
import threading

def task(lo, hi, lock):
    lock.acquire()

def run(pool, data):
    lock = threading.Lock()
    pool.map_blocks(len(data), task, (lock,))
"""

RS011_NEG = """
def task(lo, hi, data):
    data[lo] = hi

def run(pool, data):
    pool.map_blocks(len(data), task, (data,))
"""

RS012_POS_SHARED = """
def run(pool, hist):
    def body(lo, hi):
        hist[0] += 1
    pool.map_blocks(100, body)
"""

# the same write through the task's args: every block gets the same hist
RS012_POS_ARGS = """
def task(lo, hi, hist):
    hist[0] += 1

def run(pool, hist):
    pool.map_blocks(100, task, (hist,))
"""

RS012_NEG_ARGS = """
def task(lo, hi, data, out):
    out[lo:hi] = data[lo:hi] * 2
    scratch = data[lo:hi].copy()
    scratch[0] = 0

def run(pool, data, out):
    pool.map_blocks(len(data), task, (data, out))
"""

RS012_POS_OVERLAP = """
import numpy as np
from repro.runtime.racecheck import race_write

def run(pool, data, hist):
    def body(lo, hi):
        race_write(hist, 0, 16, site="demo:bins")
        np.add.at(hist, data[lo:hi], 1)
    pool.map_blocks(len(data), body)
"""

RS012_NEG = """
from repro.runtime.racecheck import race_read, race_write

def run(pool, data, out):
    def body(lo, hi):
        race_read(data, lo, hi, site="sq:data")
        race_write(out, lo, hi, site="sq:out")
        out[lo:hi] = data[lo:hi] * 2
    pool.map_blocks(len(data), body)
"""

RS013_POS = """
SSSP_ENGINES = Registry("SSSP engine")

@SSSP_ENGINES.register("bad")
class BadEngine:
    def solve(self, g, source, backend=None):
        return g
"""

RS013_POS_LOOP = """
SSSP_ENGINES = Registry("SSSP engine")

@SSSP_ENGINES.register("spin")
class SpinEngine:
    def solve(self, g, source, backend=None):
        while True:
            source += 1
"""

RS013_NEG = """
from repro.observability.trace import trace_span
from repro.runtime.metrics import CostAccumulator
from repro.runtime.registry import Registry

SSSP_ENGINES = Registry("SSSP engine")

@SSSP_ENGINES.register("good")
class GoodEngine:
    def solve(self, g, source, backend=None, token=None):
        acc = CostAccumulator()
        with trace_span("solve"):
            acc.charge(g.n, span=1.0)
            if token is not None:
                token.check()
        return None
"""

RS014_POS = RS013_POS.replace(
    "        return g", '        raise ValueError("boom")')

RS014_NEG = """
class ReproError(Exception):
    pass

class InputValidationError(ReproError, ValueError):
    pass

SSSP_ENGINES = Registry("SSSP engine")

@SSSP_ENGINES.register("ok")
class TaxonomyEngine:
    def solve(self, g, source, backend=None):
        raise InputValidationError("bad input")
"""

RS015_POS = """
def task(lo, hi, data):
    while True:
        data[lo] += 1

def run(pool, data):
    pool.map_blocks(len(data), task, (data,))
"""

RS015_NEG_TOKEN = """
def task(lo, hi, data, token):
    while True:
        token.check()
        data[lo] += 1

def run(pool, data, token):
    pool.map_blocks(len(data), task, (data, token))
"""

RS015_NEG_BREAK = """
def task(lo, hi, data):
    while True:
        if data[lo] > hi:
            break
        data[lo] += 1

def run(pool, data):
    pool.map_blocks(len(data), task, (data,))
"""


class TestRS011:
    def test_fires_on_lambda_task(self):
        (f,) = findings_of(RS011_POS_LAMBDA, "RS011")
        assert f.rule == "RS011"

    def test_fires_on_lock_in_args(self):
        findings = findings_of(RS011_POS_LOCK, "RS011")
        assert any("lock" in f.message.lower() for f in findings)

    def test_quiet_on_module_fn_with_plain_args(self):
        assert findings_of(RS011_NEG, "RS011") == []


class TestRS012:
    def test_fires_on_unannotated_shared_write(self):
        findings = findings_of(RS012_POS_SHARED, "RS012")
        assert any("hist" in f.message for f in findings)

    def test_fires_on_overlapping_annotation_and_names_site(self):
        findings = findings_of(RS012_POS_OVERLAP, "RS012")
        assert any("demo:bins" in f.message for f in findings)

    def test_quiet_on_disjoint_annotated_blocks(self):
        assert findings_of(RS012_NEG, "RS012") == []

    def test_fires_on_shared_write_through_task_args(self):
        findings = findings_of(RS012_POS_ARGS, "RS012")
        assert any("`hist`" in f.message for f in findings)

    def test_quiet_on_disjoint_writes_through_task_args(self):
        assert findings_of(RS012_NEG_ARGS, "RS012") == []


class TestRS013:
    def test_fires_on_contract_free_engine(self):
        findings = findings_of(RS013_POS, "RS013")
        joined = " ".join(f.message for f in findings)
        assert "charge" in joined
        assert "trace_span" in joined
        assert "cancel" in joined

    def test_fires_on_uncancellable_engine_loop(self):
        findings = findings_of(RS013_POS_LOOP, "RS013")
        assert any("while True" in f.message for f in findings)

    def test_quiet_on_conformant_engine(self):
        assert findings_of(RS013_NEG, "RS013") == []


class TestRS014:
    def test_fires_on_generic_raise_on_solver_path(self):
        findings = findings_of(RS014_POS, "RS014")
        assert any("ValueError" in f.message for f in findings)

    def test_quiet_on_taxonomy_raise(self):
        assert findings_of(RS014_NEG, "RS014") == []


class TestRS015:
    def test_fires_on_unbounded_worker_loop(self):
        findings = findings_of(RS015_POS, "RS015")
        assert any("while True" in f.message for f in findings)

    def test_quiet_when_loop_checks_token(self):
        assert findings_of(RS015_NEG_TOKEN, "RS015") == []

    def test_quiet_when_loop_breaks(self):
        assert findings_of(RS015_NEG_BREAK, "RS015") == []


class TestFlowSelfTest:
    """The committed toy fixture is the CI self-test: every flow rule
    must fire on it, so a regression that silences a rule breaks here
    (and in the lint-and-race job) rather than silently passing."""

    def test_toy_engine_fires_every_flow_rule(self):
        report = lint_paths([REPO / "tests" / "fixtures" / "statics"],
                            rules=FLOW_RULES, relative_to=REPO)
        fired = {f.rule for f in report.findings}
        assert fired == {"RS011", "RS012", "RS013", "RS014", "RS015"}, (
            report.render())


class TestRuleMetadataJson:
    def test_flow_findings_carry_title_and_severity(self):
        report = lint_source(RS012_POS_SHARED, rules=rules_by_id(["RS012"]))
        doc = report.to_json()
        assert doc["findings"], "fixture must fire"
        for f in doc["findings"]:
            assert f["title"] and f["severity"] == "error"

    def test_legacy_findings_carry_metadata_too(self):
        src = "s = {1, 2}\nout = list(s)\n"
        report = lint_source(src, rules=rules_by_id(["RS004"]))
        (f,) = report.to_json()["findings"]
        assert f["severity"] == "error" and f["title"]

    def test_text_render_format_unchanged(self):
        src = "s = {1, 2}\nout = list(s)\n"
        report = lint_source(src, rules=rules_by_id(["RS004"]))
        first = report.render().splitlines()[0]
        assert first.startswith("<string>:2:")
        assert " RS004 " in first
        # metadata enrichment is JSON-only
        assert "severity" not in first and "title" not in first


class TestFingerprintStability:
    def test_multiline_finding_fingerprint_survives_line_moves(self):
        # flow findings anchor multi-line nodes (a whole class def); the
        # baseline must keep matching them when unrelated edits above
        # shift every line number
        report = lint_source(RS013_POS, rules=rules_by_id(["RS013"]))
        assert report.findings
        occurrence: dict[tuple, int] = {}
        entries = []
        for f in sorted(report.findings,
                        key=lambda f: (f.path, f.line, f.col, f.rule)):
            key = (f.rule, f.path, " ".join(f.snippet.split()))
            idx = occurrence.get(key, 0)
            occurrence[key] = idx + 1
            entries.append(BaselineEntry(
                rule=f.rule, path=f.path, fingerprint=f.fingerprint(idx),
                justification="pinned across the line move"))
        moved = ("\n\n# a new comment pushes every finding down\n\n"
                 + RS013_POS)
        again = lint_source(moved, rules=rules_by_id(["RS013"]),
                            baseline=Baseline(entries))
        assert again.findings == []
        assert again.stale_baseline == []
        assert len(again.suppressed_baseline) == len(entries)
        assert again.ok

    def test_baseline_entry_for_unrun_rule_is_not_stale(self):
        # a subset run (one plane) must not condemn the other plane's
        # grandfathered findings as stale
        baseline = Baseline([BaselineEntry(
            rule="RS012", path="x.py", fingerprint="f" * 16,
            justification="belongs to the flow plane")])
        report = lint_source("x = 1\n", rules=rules_by_id(["RS004"]),
                             baseline=baseline)
        assert report.stale_baseline == []
        assert report.ok


class TestCrossValidation:
    def test_static_rs012_covers_dynamic_race_findings(self):
        cv = cross_validate_rs012(roots=(REPO / "src",), pool_sizes=(2,),
                                  relative_to=REPO)
        assert cv.dynamic_sites, "the racy demo must yield dynamic findings"
        assert cv.ok, cv.render()


# ---------------------------------------------------------------------------
# suppression paths
# ---------------------------------------------------------------------------

class TestSuppressions:
    def test_noqa_with_rule_id(self):
        src = "s = {1, 2}\nout = list(s)  # repro: noqa[RS004] fine here\n"
        report = lint_source(src, rules=rules_by_id(["RS004"]))
        assert report.findings == []
        assert len(report.suppressed_noqa) == 1
        assert report.suppressed_noqa[0].suppressed == "noqa"

    def test_noqa_bare_mutes_all_rules(self):
        src = "s = {1, 2}\nout = list(s)  # repro: noqa\n"
        report = lint_source(src)
        assert all(f.line != 2 for f in report.findings)

    def test_noqa_other_rule_does_not_mute(self):
        src = "s = {1, 2}\nout = list(s)  # repro: noqa[RS001]\n"
        report = lint_source(src, rules=rules_by_id(["RS004"]))
        assert len(report.findings) == 1

    def test_baseline_suppresses_by_fingerprint(self):
        src = "s = {1, 2}\nout = list(s)\n"
        report = lint_source(src, rules=rules_by_id(["RS004"]))
        (f,) = report.findings
        baseline = Baseline([BaselineEntry(
            rule=f.rule, path=f.path, fingerprint=f.fingerprint(0),
            justification="legacy ordering, tracked in #42")])
        again = lint_source(src, rules=rules_by_id(["RS004"]),
                            baseline=baseline)
        assert again.findings == []
        assert len(again.suppressed_baseline) == 1
        assert again.ok

    def test_stale_baseline_entry_fails_the_run(self):
        baseline = Baseline([BaselineEntry(
            rule="RS004", path="x.py", fingerprint="f" * 16,
            justification="was fixed long ago")])
        report = lint_source("x = 1\n", rules=rules_by_id(["RS004"]),
                             baseline=baseline)
        assert report.findings == []
        assert len(report.stale_baseline) == 1
        assert not report.ok

    def test_baseline_requires_justification(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps({
            "schema": "repro-statics-baseline/1",
            "findings": [{"rule": "RS004", "path": "x.py",
                          "fingerprint": "ab" * 8,
                          "justification": "  "}]}))
        with pytest.raises(ValueError, match="justification"):
            Baseline.load(p)

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="RS999"):
            rules_by_id(["RS999"])


# ---------------------------------------------------------------------------
# race checker: happens-before core
# ---------------------------------------------------------------------------

class TestHappensBefore:
    def test_sibling_blocks_are_parallel(self):
        assert logically_parallel(((1, 0),), ((1, 1),))

    def test_same_block_is_sequential(self):
        assert not logically_parallel(((1, 0),), ((1, 0),))

    def test_sequential_regions_are_ordered(self):
        assert not logically_parallel(((1, 0),), ((2, 0),))

    def test_ancestor_is_ordered(self):
        assert not logically_parallel(((1, 0),), ((1, 0), (2, 1)))

    def test_nested_siblings_are_parallel(self):
        a = ((1, 0), (2, 0))
        b = ((1, 1), (3, 4))
        assert logically_parallel(a, b)

    def test_root_is_ordered_with_everything(self):
        assert not logically_parallel((), ((1, 0),))


class TestRaceChecker:
    def test_write_write_conflict(self):
        c = RaceChecker()
        region = c.open_region()
        with c.task(region, 0):
            race_write_via(c, "buf", 0, 10)
        with c.task(region, 1):
            race_write_via(c, "buf", 5, 15)
        (f,) = c.findings()
        assert f.kind == "write-write"

    def test_disjoint_writes_are_clean(self):
        c = RaceChecker()
        region = c.open_region()
        with c.task(region, 0):
            race_write_via(c, "buf", 0, 10)
        with c.task(region, 1):
            race_write_via(c, "buf", 10, 20)
        assert c.findings() == []

    def test_read_write_conflict(self):
        c = RaceChecker()
        region = c.open_region()
        with c.task(region, 0):
            c.record(OBJ, "read", None, None, "buf", "s")
        with c.task(region, 1):
            c.record(OBJ, "write", None, None, "buf", "s")
        (f,) = c.findings()
        assert f.kind == "read-write"

    def test_parallel_reads_are_clean(self):
        c = RaceChecker()
        region = c.open_region()
        for block in range(4):
            with c.task(region, block):
                c.record(OBJ, "read", None, None, "buf", "s")
        assert c.findings() == []

    def test_sequential_regions_never_conflict(self):
        c = RaceChecker()
        for _ in range(2):
            region = c.open_region()
            with c.task(region, 0):
                race_write_via(c, "buf", 0, 10)
        assert c.findings() == []


OBJ = object()


def race_write_via(checker, label, lo, hi):
    checker.record(OBJ, "write", lo, hi, label, "test-site")


# ---------------------------------------------------------------------------
# race checker: through the executor
# ---------------------------------------------------------------------------

def racy_histogram(pool):
    data = (np.arange(4096, dtype=np.int64) * 31) % 16
    hist = np.zeros(16, dtype=np.int64)

    def body(lo, hi):
        race_read(data, lo, hi, site="hist:data")
        race_write(hist, 0, 16, site="hist:bins")
        np.add.at(hist, data[lo:hi], 1)

    pool.map_blocks(len(data), body, grain=1024)


def disjoint_square(pool):
    data = np.arange(4096, dtype=np.int64)
    out = np.empty_like(data)

    def body(lo, hi):
        race_read(data, lo, hi, site="sq:data")
        race_write(out, lo, hi, site="sq:out")
        np.multiply(data[lo:hi], data[lo:hi], out=out[lo:hi])

    pool.map_blocks(len(data), body, grain=1024)
    assert (out == data * data).all()


class TestExecutorIntegration:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_racy_kernel_flagged_at_every_pool_size(self, workers):
        with ForkJoinPool(workers) as pool:
            _, report = checked(racy_histogram, pool)
        assert not report.ok
        assert any(f.kind == "write-write" for f in report.findings)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_disjoint_kernel_clean_at_every_pool_size(self, workers):
        with ForkJoinPool(workers) as pool:
            _, report = checked(disjoint_square, pool)
        assert report.ok and report.n_accesses > 0

    def test_findings_identical_across_pool_sizes(self):
        reports = []
        for workers in (1, 2, 8):
            with ForkJoinPool(workers) as pool:
                _, report = checked(racy_histogram, pool)
            reports.append(sorted(
                (f.kind, f.a_block, f.b_block) for f in report.findings))
        assert reports[0] == reports[1] == reports[2]

    def test_no_checker_means_no_overhead_path(self):
        # guards are no-ops without an installed checker
        race_read(object())
        race_write(object())

    def test_checker_does_not_change_results(self):
        from repro.baselines.bellman_ford import (
            bellman_ford,
            bellman_ford_parallel,
        )
        from repro.graph.generators import bf_hard_graph

        g = bf_hard_graph(80, 160, seed=3)
        ref = bellman_ford(g, 0)
        with ForkJoinPool(2) as pool:
            with race_checking():
                res = bellman_ford_parallel(g, 0, backend=pool, grain=32)
        assert np.allclose(res.dist, ref.dist)


class TestRaceProbes:
    def test_real_probes_clean(self):
        report = run_race_probes(pool_sizes=(1, 2))
        assert report.ok, report.render()
        assert all(r.error is None for r in report.runs)

    def test_racy_demo_probe_fires(self):
        report = run_race_probes(["racy-demo"], pool_sizes=(1, 2, 8))
        assert not report.ok
        assert all(not r.ok for r in report.runs)

    def test_unknown_probe_rejected(self):
        with pytest.raises(KeyError, match="unknown race probe"):
            run_race_probes(["no-such-probe"])

    def test_report_json_shape(self):
        report = run_race_probes(["racy-demo"], pool_sizes=(1,))
        doc = report.to_json()
        assert doc["schema"] == "repro-racecheck/1"
        assert doc["ok"] is False and doc["n_findings"] > 0


# ---------------------------------------------------------------------------
# the real package is clean — the same gate CI runs
# ---------------------------------------------------------------------------

class TestRealPackage:
    def test_src_lints_clean_against_committed_baseline(self):
        baseline = Baseline.load(REPO / "statics_baseline.json")
        report = lint_paths([REPO / "src"], baseline=baseline,
                            relative_to=REPO)
        assert report.ok, report.render()

    def test_src_flow_plane_clean(self):
        baseline = Baseline.load(REPO / "statics_baseline.json")
        report = lint_paths([REPO / "src"], rules=FLOW_RULES,
                            baseline=baseline, relative_to=REPO)
        assert report.ok, report.render()

    def test_block_functions_pickle_and_purity_clean(self):
        # satellite gate: the block functions shipped to workers carry no
        # pickle hazards and no unannotated shared writes
        targets = [REPO / "src/repro/core/fischer.py",
                   REPO / "src/repro/observability/worker.py",
                   REPO / "src/repro/baselines/bellman_ford.py"]
        report = lint_paths(targets, rules=rules_by_id(["RS011", "RS012"]),
                            relative_to=REPO)
        assert report.findings == [], report.render()

    def test_committed_baseline_is_empty(self):
        baseline = Baseline.load(REPO / "statics_baseline.json")
        assert baseline.entries == []
