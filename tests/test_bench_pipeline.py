"""Benchmark JSON pipeline and statistical regression gate.

Covers the three layers ISSUE 4's tentpole stacks up:

* record layer — every emitted ``BENCH_<id>.json`` is schema-valid, the
  validator rejects malformed documents, and ``run_benches`` (the one
  runner behind ``repro bench run``) writes txt + json + summary;
* gate layer — identical runs compare clean, an injected model-work
  regression is caught bit-exactly, and the wall-clock statistics
  (Mann–Whitney + bootstrap CI) separate real slowdowns from noise;
* CLI layer — ``repro bench run/compare/baseline`` wire it together with
  the documented exit codes (0 clean, 1 regression or failed claim, 2 bad
  input).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import Row
from repro.analysis.benchgate import (
    GateConfig,
    GateTolerance,
    bootstrap_median_ratio_ci,
    compare_dirs,
    compare_records,
    is_wallclock_column,
    mannwhitney_u,
    render_report,
)
from repro.analysis.benchjson import (
    BENCH_SCHEMA,
    bench_record,
    environment_fingerprint,
    json_safe,
    list_bench_json,
    load_bench_json,
    validate_bench_record,
    write_bench_json,
    write_bench_summary,
)
from repro.analysis.benchruns import (
    BENCH_RUNS,
    BENCH_RUNS_BY_CLI_ID,
    FAST_GATE_IDS,
    BenchSpec,
    resolve_specs,
    run_benches,
)
from repro.cli import main

pytestmark = pytest.mark.observability


def _rows(work=100.0, t=0.01):
    return [Row(params={"n": 10}, values={"work": work, "time_s": t}),
            Row(params={"n": 20}, values={"work": 4 * work, "time_s": 3 * t})]


def _record(bench_id="e99_demo", work=100.0, t=0.01, wallclock=None):
    return bench_record(bench_id, "demo experiment", _rows(work, t),
                        wallclock=wallclock)


def _plant(monkeypatch, *, held=True):
    """Register experiment ``z1``: raw samples, a claim that may fail."""
    def runner(work, raw_out):
        raw_out["t"] = [0.1] * 5
        return _rows(work)

    spec = BenchSpec("Z1", "z1_planted", "planted experiment", runner,
                     dict(work=100.0), dict(work=1.0),
                     lambda rows: [(held, "the planted claim")],
                     raw_samples=True)
    monkeypatch.setitem(BENCH_RUNS_BY_CLI_ID, "z1", spec)


# ---------------------------------------------------------------------------
# record layer
# ---------------------------------------------------------------------------

class TestRecordSchema:
    def test_record_is_valid_and_versioned(self):
        rec = _record()
        assert rec["schema"] == BENCH_SCHEMA
        validate_bench_record(rec)  # must not raise

    def test_environment_fingerprint_keys(self):
        env = environment_fingerprint()
        for key in ("host", "platform", "python", "numpy", "cpu_count",
                    "commit", "generated_at"):
            assert key in env

    def test_json_safe_numpy_and_nonfinite(self):
        import numpy as np
        assert json_safe(np.int64(3)) == 3
        assert json_safe(np.float64(0.5)) == 0.5
        assert json_safe(np.bool_(True)) is True
        assert json_safe(float("inf")) == "inf"
        assert json_safe(float("-inf")) == "-inf"
        assert json_safe(float("nan")) == "nan"
        assert json_safe({"a": (1, np.float64(2.0))}) == {"a": [1, 2.0]}

    @pytest.mark.parametrize("mutate,msg", [
        (lambda r: r.update(schema="repro-bench/999"), "unsupported"),
        (lambda r: r.update(id="Bad Id!"), "must match"),
        (lambda r: r.update(title=7), "title"),
        (lambda r: r["environment"].pop("host"), "missing keys"),
        (lambda r: r.update(rows={"not": "a list"}), "rows"),
        (lambda r: r["rows"].append({"params": {}}), "params"),
        (lambda r: r.update(wallclock={"t": ["zero", 1]}), "numbers"),
    ])
    def test_validator_rejects(self, mutate, msg):
        rec = _record()
        mutate(rec)
        with pytest.raises(ValueError, match=msg):
            validate_bench_record(rec)

    def test_file_roundtrip(self, tmp_path):
        path = write_bench_json(_record(), tmp_path)
        assert path.name == "BENCH_e99_demo.json"
        back = load_bench_json(path)
        assert back["rows"] == _record()["rows"]

    def test_strict_json_no_nan(self, tmp_path):
        rows = [Row(params={"n": 1}, values={"d": float("inf")})]
        path = write_bench_json(
            bench_record("e99_inf", "inf demo", rows), tmp_path)
        # strict parsers must be able to read the file
        doc = json.loads(path.read_text(), parse_constant=pytest.fail)
        assert doc["rows"][0]["values"]["d"] == "inf"

    def test_summary_indexes_records(self, tmp_path):
        write_bench_json(_record("e98_one"), tmp_path)
        write_bench_json(_record("e99_two", wallclock={"t": [0.1] * 5}),
                         tmp_path)
        spath = write_bench_summary(tmp_path)
        summary = json.loads(spath.read_text())
        ids = [e["id"] for e in summary["benchmarks"]]
        assert ids == ["e98_one", "e99_two"]
        assert summary["benchmarks"][1]["wallclock_measurements"] == ["t"]
        # the summary itself is not indexed as a record
        assert spath not in list_bench_json(tmp_path)

    def test_run_benches_emits_txt_json_and_summary(self, tmp_path,
                                                    monkeypatch):
        _plant(monkeypatch)
        out_dir = tmp_path / "deep" / "results"  # parents created (mkdir -p)
        run_benches(["z1"], out_dir)
        text = (out_dir / "z1_planted.txt").read_text()
        assert "Z1 — planted experiment" in text
        assert "claim PASS: the planted claim" in text
        rec = load_bench_json(out_dir / "BENCH_z1_planted.json")
        assert rec["wallclock"]["t"] == [0.1] * 5
        assert rec["meta"]["claim"] == [{"held": True,
                                         "check": "the planted claim"}]
        assert (out_dir / "BENCH_summary.json").exists()


# ---------------------------------------------------------------------------
# gate layer
# ---------------------------------------------------------------------------

class TestColumnClassification:
    @pytest.mark.parametrize("name", ["goldberg_seconds", "best_s",
                                      "time_s", "plain_s", "enabled_pct",
                                      "wallclock_total"])
    def test_wallclock_names(self, name):
        assert is_wallclock_column(name)

    @pytest.mark.parametrize("name", ["work", "span_model", "rounds",
                                      "label_changes_max", "iterations",
                                      "scales"])
    def test_deterministic_names(self, name):
        assert not is_wallclock_column(name)


class TestDeterministicGate:
    def test_identical_records_pass(self):
        verdicts = compare_records(_record(), _record())
        assert all(not v.gating for v in verdicts)
        assert any(v.status == "ok" and v.subject == "work"
                   for v in verdicts)

    def test_injected_model_work_regression_fails(self):
        cand = _record(work=100.0000001)  # any bit off is a regression
        verdicts = compare_records(_record(), cand)
        bad = [v for v in verdicts if v.gating]
        assert len(bad) == 1
        assert bad[0].subject == "work"

    def test_timing_columns_do_not_gate(self):
        # 100x slowdown in a scalar *_s column is informational only
        cand = _record(t=1.0)
        verdicts = compare_records(_record(t=0.01), cand)
        assert all(not v.gating for v in verdicts)
        assert any(v.subject == "time_s" and v.status == "info"
                   for v in verdicts)

    def test_row_count_change_fails(self):
        cand = _record()
        cand["rows"].pop()
        verdicts = compare_records(_record(), cand)
        assert [v.subject for v in verdicts if v.gating] == ["rows"]

    def test_param_change_fails(self):
        cand = _record()
        cand["rows"][0]["params"]["n"] = 11
        assert not all(not v.gating
                       for v in compare_records(_record(), cand))


class TestWallclockGate:
    def test_statistics_numpy_only(self):
        _, p_same = mannwhitney_u([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        assert p_same == pytest.approx(1.0, abs=0.05)
        _, p_diff = mannwhitney_u([10.0] * 10, [1.0] * 10)
        assert p_diff < 0.001
        ratio, lo, hi = bootstrap_median_ratio_ci(
            [1.0] * 10, [2.0] * 10, seed=0)
        assert ratio == pytest.approx(2.0)
        assert lo <= ratio <= hi

    def test_bootstrap_is_seeded(self):
        a = [0.1, 0.11, 0.09, 0.12, 0.1, 0.13]
        b = [0.2, 0.19, 0.22, 0.21, 0.2, 0.18]
        assert bootstrap_median_ratio_ci(a, b, seed=3) \
            == bootstrap_median_ratio_ci(a, b, seed=3)

    def test_real_slowdown_gates(self):
        base = _record(wallclock={"t": [0.100, 0.101, 0.099, 0.102,
                                        0.100, 0.098, 0.101, 0.100]})
        cand = _record(wallclock={"t": [0.200, 0.202, 0.199, 0.201,
                                        0.203, 0.198, 0.200, 0.201]})
        verdicts = compare_records(base, cand)
        t = [v for v in verdicts if v.subject == "t"][0]
        assert t.status == "regression"

    def test_noise_does_not_gate(self):
        base = _record(wallclock={"t": [0.100, 0.101, 0.099, 0.102,
                                        0.100, 0.098, 0.101, 0.100]})
        cand = _record(wallclock={"t": [0.101, 0.100, 0.102, 0.099,
                                        0.103, 0.100, 0.098, 0.101]})
        verdicts = compare_records(base, cand)
        t = [v for v in verdicts if v.subject == "t"][0]
        assert t.status == "ok"

    def test_too_few_samples_skipped(self):
        base = _record(wallclock={"t": [0.1, 0.1]})
        cand = _record(wallclock={"t": [9.9, 9.9]})
        verdicts = compare_records(base, cand)
        t = [v for v in verdicts if v.subject == "t"][0]
        assert t.status == "skipped"

    def test_check_wallclock_false_skips(self):
        base = _record(wallclock={"t": [0.1] * 8})
        cand = _record(wallclock={"t": [9.9] * 8})
        verdicts = compare_records(base, cand, check_wallclock=False)
        t = [v for v in verdicts if v.subject == "t"][0]
        assert t.status == "skipped"

    def test_per_experiment_tolerance(self):
        config = GateConfig(experiments={
            "e99_demo": GateTolerance(min_effect_pct=150.0)})
        base = _record(wallclock={"t": [0.100, 0.101, 0.099, 0.102,
                                        0.100, 0.098, 0.101, 0.100]})
        cand = _record(wallclock={"t": [0.200, 0.202, 0.199, 0.201,
                                        0.203, 0.198, 0.200, 0.201]})
        t = [v for v in compare_records(base, cand, config)
             if v.subject == "t"][0]
        assert t.status == "ok"  # 100% slowdown < 150% tolerance

    def test_gate_config_from_json(self, tmp_path):
        p = tmp_path / "gate.json"
        p.write_text(json.dumps({
            "default": {"alpha": 0.05},
            "experiments": {"e14_wallclock": {"min_effect_pct": 25.0}}}))
        config = GateConfig.load(p)
        assert config.default.alpha == 0.05
        assert config.tolerance("e14_wallclock").min_effect_pct == 25.0
        assert config.tolerance("other").min_effect_pct == 10.0


class TestCompareDirs:
    def test_directory_compare(self, tmp_path):
        base, cand = tmp_path / "base", tmp_path / "cand"
        write_bench_json(_record(), base)
        write_bench_json(_record(), cand)
        report = compare_dirs(base, cand)
        assert report.ok
        assert "PASS" in render_report(report)

    def test_missing_candidate_fails_by_default(self, tmp_path):
        base, cand = tmp_path / "base", tmp_path / "cand"
        write_bench_json(_record(), base)
        cand.mkdir()
        assert not compare_dirs(base, cand).ok
        assert compare_dirs(base, cand,
                            require_all_baselines=False).ok

    def test_empty_baseline_dir_errors(self, tmp_path):
        report = compare_dirs(tmp_path / "nope", tmp_path / "also-nope")
        assert not report.ok
        assert "FAIL" in render_report(report)

    def test_new_candidate_experiment_is_informational(self, tmp_path):
        base, cand = tmp_path / "base", tmp_path / "cand"
        write_bench_json(_record("e98_old"), base)
        write_bench_json(_record("e98_old"), cand)
        write_bench_json(_record("e99_new"), cand)
        report = compare_dirs(base, cand)
        assert report.ok
        assert any(v.status == "info" and "no committed baseline"
                   in v.detail for v in report.verdicts)


# ---------------------------------------------------------------------------
# run registry
# ---------------------------------------------------------------------------

class TestRunRegistry:
    def test_registry_ids_unique(self):
        cli_ids = [s.cli_id for s in BENCH_RUNS]
        bench_ids = [s.bench_id for s in BENCH_RUNS]
        assert len(set(cli_ids)) == len(cli_ids)
        assert len(set(bench_ids)) == len(bench_ids)

    def test_fast_gate_subset_resolves(self):
        specs = resolve_specs(["fast"])
        assert [s.cli_id for s in specs] == list(FAST_GATE_IDS)

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            resolve_specs(["e999"])

    def test_run_benches_emits_valid_records(self, tmp_path):
        records = run_benches(["e1"], tmp_path, fast=True)
        assert len(records) == 1
        rec = load_bench_json(tmp_path / "BENCH_e01_dag01_work.json")
        assert rec["meta"]["exp_id"] == "E1"
        assert rec["meta"]["mode"] == "fast"
        assert (tmp_path / "BENCH_summary.json").exists()

    def test_run_benches_deterministic_columns_reproduce(self, tmp_path):
        a = run_benches(["e1"], tmp_path / "a", fast=True)[0]
        b = run_benches(["e1"], tmp_path / "b", fast=True)[0]
        assert a["rows"] == b["rows"]


# ---------------------------------------------------------------------------
# CLI layer
# ---------------------------------------------------------------------------

class TestBenchCli:
    def _run(self, capsys, *argv):
        rc = main(list(argv))
        out = capsys.readouterr()
        return rc, out.out, out.err

    def test_run_compare_clean_exits_zero(self, capsys, tmp_path):
        base, cand = str(tmp_path / "base"), str(tmp_path / "cand")
        rc, _, _ = self._run(capsys, "bench", "run", "e1", "--fast",
                             "--results-dir", base)
        assert rc == 0
        rc, _, _ = self._run(capsys, "bench", "run", "e1", "--fast",
                             "--results-dir", cand)
        assert rc == 0
        rc, out, _ = self._run(capsys, "bench", "compare", base, cand)
        assert rc == 0
        assert "PASS" in out

    def test_injected_regression_exits_nonzero(self, capsys, tmp_path):
        base, cand = tmp_path / "base", tmp_path / "cand"
        self._run(capsys, "bench", "run", "e1", "--fast",
                  "--results-dir", str(base))
        self._run(capsys, "bench", "run", "e1", "--fast",
                  "--results-dir", str(cand))
        p = cand / "BENCH_e01_dag01_work.json"
        rec = json.loads(p.read_text())
        rec["rows"][0]["values"]["work"] += 1
        p.write_text(json.dumps(rec))
        rc, out, _ = self._run(capsys, "bench", "compare",
                               str(base), str(cand))
        assert rc == 1
        assert "FAIL" in out and "regression" in out

    def test_baseline_snapshots(self, capsys, tmp_path):
        res, bl = str(tmp_path / "res"), str(tmp_path / "bl")
        rc, out, _ = self._run(capsys, "bench", "baseline", "e1", "--fast",
                               "--results-dir", res, "--baseline-dir", bl)
        assert rc == 0
        assert (tmp_path / "bl" / "BENCH_e01_dag01_work.json").exists()
        assert (tmp_path / "bl" / "BENCH_summary.json").exists()

    def test_unknown_run_id_exits_two(self, capsys, tmp_path):
        rc, _, err = self._run(capsys, "bench", "run", "e999",
                               "--results-dir", str(tmp_path))
        assert rc == 2
        assert "unknown experiment" in err

    def test_failing_claim_exits_one(self, capsys, tmp_path, monkeypatch):
        _plant(monkeypatch, held=False)
        rc, out, err = self._run(capsys, "bench", "run", "z1",
                                 "--results-dir", str(tmp_path))
        assert rc == 1
        assert "claim FAIL: the planted claim" in out
        assert "claims FAILED: Z1" in err
        # a fast sweep is not judged, so it cannot fail
        rc, out, _ = self._run(capsys, "bench", "run", "z1", "--fast",
                               "--results-dir", str(tmp_path))
        assert rc == 0
        assert "claim not judged" in out


class TestCommittedBaselines:
    """The committed fast-subset baselines must stay in sync with the
    code: a fresh fast run has to gate clean against them (wall-clock
    stats off — the baselines may come from another host)."""

    def test_fast_run_matches_committed_baselines(self, capsys, tmp_path):
        import pathlib
        baselines = pathlib.Path(__file__).parent.parent \
            / "benchmarks" / "baselines"
        assert list_bench_json(baselines), "committed baselines missing"
        run_benches(list(FAST_GATE_IDS), tmp_path, fast=True)
        report = compare_dirs(baselines, tmp_path, check_wallclock=False)
        assert report.ok, render_report(report)
