"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graph import loads_dimacs


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestGenerate:
    @pytest.mark.parametrize("family", ["hidden-potential", "bf-hard",
                                        "random", "dag01", "zero-heavy",
                                        "planted-cycle"])
    def test_families_emit_valid_dimacs(self, capsys, family):
        rc, out, _ = run_cli(capsys, "generate", family, "--n", "20",
                             "--m", "60", "--spread", "3")
        assert rc == 0
        g = loads_dimacs(out)
        assert g.n == 20

    def test_deterministic(self, capsys):
        _, a, _ = run_cli(capsys, "generate", "random", "--seed", "5")
        _, b, _ = run_cli(capsys, "generate", "random", "--seed", "5")
        assert a == b


class TestSolve:
    def test_solve_feasible(self, capsys, tmp_path):
        _, text, _ = run_cli(capsys, "generate", "hidden-potential",
                             "--n", "15", "--m", "50")
        p = tmp_path / "g.gr"
        p.write_text(text)
        rc, out, _ = run_cli(capsys, "solve", str(p))
        assert rc == 0
        assert out.startswith("d 1 0")

    def test_solve_cycle_exit_code(self, capsys, tmp_path):
        _, text, _ = run_cli(capsys, "generate", "planted-cycle",
                             "--n", "15", "--m", "50", "--spread", "3")
        p = tmp_path / "g.gr"
        p.write_text(text)
        rc, out, _ = run_cli(capsys, "solve", str(p))
        assert rc == 3
        assert out.startswith("negative cycle:")

    def test_costs_flag(self, capsys, tmp_path):
        _, text, _ = run_cli(capsys, "generate", "hidden-potential",
                             "--n", "12", "--m", "40")
        p = tmp_path / "g.gr"
        p.write_text(text)
        rc, out, err = run_cli(capsys, "solve", str(p), "--costs")
        assert rc == 0
        assert "work" in err and "parallelism" in err

    def test_bad_source(self, capsys, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p sp 2 1\na 1 2 3\n")
        rc, _, err = run_cli(capsys, "solve", str(p), "--source", "99")
        assert rc == 2
        assert "out of range" in err

    def test_sequential_mode(self, capsys, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p sp 3 2\na 1 2 -1\na 2 3 -1\n")
        rc, out, _ = run_cli(capsys, "solve", str(p), "--mode", "sequential")
        assert rc == 0
        assert "d 3 -2" in out

    def test_negative_max_retries_exit_code(self, capsys, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p sp 2 1\na 1 2 3\n")
        rc, _, err = run_cli(capsys, "solve", str(p), "--max-retries", "-1")
        assert rc == 2
        assert "--max-retries" in err

    def test_malformed_dimacs_exit_code(self, capsys, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p sp 2 1\na 1 99 3\n")
        rc, _, err = run_cli(capsys, "solve", str(p))
        assert rc == 2
        assert "error:" in err

    def test_missing_file_exit_code(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "solve", str(tmp_path / "nope.gr"))
        assert rc == 2
        assert "error:" in err

    def test_budget_no_fallback_exit_code(self, capsys, tmp_path):
        _, text, _ = run_cli(capsys, "generate", "hidden-potential",
                             "--n", "15", "--m", "50")
        p = tmp_path / "g.gr"
        p.write_text(text)
        rc, _, err = run_cli(capsys, "solve", str(p), "--max-work", "1",
                             "--no-fallback")
        assert rc == 4
        assert "BudgetExceededError" in err

    @pytest.mark.parametrize("bad", ["nan", "-1"])
    def test_bad_budget_exit_code(self, capsys, tmp_path, bad):
        _, text, _ = run_cli(capsys, "generate", "hidden-potential",
                             "--n", "15", "--m", "50")
        p = tmp_path / "g.gr"
        p.write_text(text)
        rc, out, err = run_cli(capsys, "solve", str(p), "--max-work", bad,
                               "--no-fallback")
        assert rc == 2
        assert "error:" in err and "max_work" in err
        assert out == ""

    def test_budget_with_fallback_degrades(self, capsys, tmp_path):
        _, text, _ = run_cli(capsys, "generate", "hidden-potential",
                             "--n", "15", "--m", "50")
        p = tmp_path / "g.gr"
        p.write_text(text)
        rc, out, err = run_cli(capsys, "solve", str(p), "--max-work", "1")
        assert rc == 0
        assert "degraded to fallback:bellman_ford" in err
        assert out.startswith("d 1 0")


class TestPreemption:
    def _graph_file(self, capsys, tmp_path):
        _, text, _ = run_cli(capsys, "generate", "hidden-potential",
                             "--n", "15", "--m", "50")
        p = tmp_path / "g.gr"
        p.write_text(text)
        return p

    def test_deadline_with_fallback_degrades(self, capsys, tmp_path):
        p = self._graph_file(capsys, tmp_path)
        rc, out, err = run_cli(capsys, "solve", str(p), "--deadline", "0")
        assert rc == 0
        assert "degraded to fallback:bellman_ford" in err
        assert "deadline" in err
        assert out.startswith("d 1 0")

    def test_deadline_no_fallback_exit_code_5(self, capsys, tmp_path):
        p = self._graph_file(capsys, tmp_path)
        ck = tmp_path / "ck.bin"
        rc, _, err = run_cli(capsys, "solve", str(p), "--deadline", "0",
                             "--no-fallback", "--checkpoint", str(ck))
        assert rc == 5
        assert "DeadlineExceededError" in err
        assert "--resume" in err  # points the user at the checkpoint

    def test_negative_deadline_rejected(self, capsys, tmp_path):
        p = self._graph_file(capsys, tmp_path)
        rc, _, err = run_cli(capsys, "solve", str(p), "--deadline", "-1")
        assert rc == 2
        assert "--deadline" in err

    def test_nan_deadline_rejected(self, capsys, tmp_path):
        p = self._graph_file(capsys, tmp_path)
        rc, _, err = run_cli(capsys, "solve", str(p), "--deadline", "nan",
                             "--no-fallback")
        assert rc == 2
        assert "error:" in err and "--deadline" in err

    def test_resume_requires_checkpoint(self, capsys, tmp_path):
        p = self._graph_file(capsys, tmp_path)
        rc, _, err = run_cli(capsys, "solve", str(p), "--resume")
        assert rc == 2
        assert "--resume requires --checkpoint" in err

    @pytest.mark.parametrize("engine", ["bnw_scaling", "fischer_simple"])
    def test_checkpoint_with_engine_lacking_support_exit_code_2(
            self, capsys, tmp_path, engine):
        p = self._graph_file(capsys, tmp_path)
        ck = tmp_path / "ck.bin"
        rc, out, err = run_cli(capsys, "solve", str(p), "--engine", engine,
                               "--checkpoint", str(ck))
        assert rc == 2
        assert "does not support checkpointing" in err and out == ""
        assert not ck.exists()

    def test_checkpoint_then_resume_identical_output(self, capsys, tmp_path):
        p = self._graph_file(capsys, tmp_path)
        ck = tmp_path / "ck.bin"
        rc, base, _ = run_cli(capsys, "solve", str(p))
        assert rc == 0
        rc, first, _ = run_cli(capsys, "solve", str(p),
                               "--checkpoint", str(ck))
        assert rc == 0 and first == base and ck.exists()
        rc, resumed, _ = run_cli(capsys, "solve", str(p),
                                 "--checkpoint", str(ck), "--resume")
        assert rc == 0
        assert resumed == base

    def test_resume_with_missing_checkpoint_is_fresh_start(self, capsys,
                                                           tmp_path):
        p = self._graph_file(capsys, tmp_path)
        ck = tmp_path / "never-written.bin"
        rc, base, _ = run_cli(capsys, "solve", str(p))
        rc2, out, _ = run_cli(capsys, "solve", str(p),
                              "--checkpoint", str(ck), "--resume")
        assert (rc, rc2) == (0, 0)
        assert out == base

    def test_garbage_checkpoint_exit_code_2(self, capsys, tmp_path):
        p = self._graph_file(capsys, tmp_path)
        ck = tmp_path / "ck.bin"
        ck.write_bytes(b"not a checkpoint at all, sorry")
        rc, _, err = run_cli(capsys, "solve", str(p),
                             "--checkpoint", str(ck), "--resume")
        assert rc == 2
        assert "unusable checkpoint" in err


class TestBench:
    def test_e7_runs(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "bench", "run", "e7",
                             "--results-dir", str(tmp_path))
        assert rc == 0
        assert "eliminated" in out
        assert "claim PASS" in out
        assert (tmp_path / "e07_sqrt_k_improvement.txt").exists()

    def test_run_writes_records(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "bench", "run", "e1", "--fast",
                             "--results-dir", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "BENCH_e01_dag01_work.json").exists()
        assert (tmp_path / "BENCH_summary.json").exists()

    def test_compare_identical_dirs_exit_zero(self, capsys, tmp_path):
        run_cli(capsys, "bench", "run", "e1", "--fast",
                "--results-dir", str(tmp_path))
        rc, out, _ = run_cli(capsys, "bench", "compare",
                             str(tmp_path), str(tmp_path))
        assert rc == 0
        assert "PASS" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_bench(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "nope"])

    def test_bench_actions_parse_their_arguments(self):
        args = build_parser().parse_args(
            ["bench", "run", "e1", "e5", "--fast"])
        assert args.action == "run"
        assert (args.ids, args.fast) == (["e1", "e5"], True)


class TestReport:
    def test_fast_report(self, capsys, tmp_path):
        out = tmp_path / "R.md"
        rc, stdout, _ = run_cli(capsys, "report", "--fast",
                                "--output", str(out))
        assert rc == 0
        text = out.read_text()
        assert text.startswith("# Reproduction report")
        # every experiment section present
        for exp_id in ("E1", "E5", "E9", "E13", "E15", "A4"):
            assert f"## {exp_id}" in text


class TestCheck:
    CLEAN = "def f(acc, n):\n    acc.charge(n)\n"
    DIRTY = "s = {1, 2}\nout = list(s)\n"

    def test_clean_file_exits_0(self, capsys, tmp_path):
        p = tmp_path / "clean.py"
        p.write_text(self.CLEAN)
        rc, out, _ = run_cli(capsys, "check", "--lint", "--paths", str(p))
        assert rc == 0
        assert "0 finding(s)" in out

    def test_findings_exit_6(self, capsys, tmp_path):
        p = tmp_path / "dirty.py"
        p.write_text(self.DIRTY)
        rc, out, _ = run_cli(capsys, "check", "--lint", "--paths", str(p))
        assert rc == 6
        assert "RS004" in out

    def test_json_format(self, capsys, tmp_path):
        import json as _json

        p = tmp_path / "dirty.py"
        p.write_text(self.DIRTY)
        rc, out, _ = run_cli(capsys, "check", "--lint", "--format", "json",
                             "--paths", str(p))
        assert rc == 6
        doc = _json.loads(out)
        assert doc["ok"] is False
        assert doc["lint"]["findings"][0]["rule"] == "RS004"

    def test_output_file_written(self, capsys, tmp_path):
        import json as _json

        p = tmp_path / "clean.py"
        p.write_text(self.CLEAN)
        dest = tmp_path / "report.json"
        rc, _, _ = run_cli(capsys, "check", "--lint", "--paths", str(p),
                           "--output", str(dest))
        assert rc == 0
        assert _json.loads(dest.read_text())["ok"] is True

    def test_rule_selection(self, capsys, tmp_path):
        p = tmp_path / "dirty.py"
        p.write_text(self.DIRTY)
        rc, _, _ = run_cli(capsys, "check", "--lint", "--paths", str(p),
                           "--rules", "RS001")
        assert rc == 0  # RS004 not selected

    def test_unknown_rule_exits_2(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "check", "--lint", "--rules", "RS999",
                             "--paths", str(tmp_path))
        assert rc == 2
        assert "RS999" in err

    def test_missing_baseline_exits_2(self, capsys, tmp_path):
        p = tmp_path / "clean.py"
        p.write_text(self.CLEAN)
        rc, _, err = run_cli(capsys, "check", "--lint", "--paths", str(p),
                             "--baseline", str(tmp_path / "nope.json"))
        assert rc == 2

    def test_race_clean_probe_exits_0(self, capsys):
        rc, out, _ = run_cli(capsys, "check", "--race",
                             "--probe", "bf-process", "--pool-sizes", "1")
        assert rc == 0
        assert "OK" in out

    def test_race_racy_demo_exits_6(self, capsys):
        rc, out, _ = run_cli(capsys, "check", "--race",
                             "--probe", "racy-demo", "--pool-sizes", "1,2")
        assert rc == 6
        assert "write-write" in out

    def test_race_bad_pool_sizes_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "check", "--race",
                             "--pool-sizes", "0,x")
        assert rc == 2

    def test_race_unknown_probe_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "check", "--race",
                             "--probe", "no-such", "--pool-sizes", "1")
        assert rc == 2
        assert "unknown race probe" in err

    def test_exit_code_6_is_distinct(self):
        from repro.cli import (
            EXIT_DEADLINE,
            EXIT_EXHAUSTED,
            EXIT_FINDINGS,
            EXIT_INVALID_INPUT,
            EXIT_NEGATIVE_CYCLE,
            EXIT_OK,
            EXIT_REGRESSION,
        )

        codes = [EXIT_OK, EXIT_REGRESSION, EXIT_INVALID_INPUT,
                 EXIT_NEGATIVE_CYCLE, EXIT_EXHAUSTED, EXIT_DEADLINE,
                 EXIT_FINDINGS]
        assert len(set(codes)) == len(codes)
        assert EXIT_FINDINGS == 6


class TestBackendFlag:
    """``solve --backend {serial,thread,process}``: identical answers,
    backend provenance on stderr, argument validation."""

    def _graph(self, capsys, tmp_path):
        _, text, _ = run_cli(capsys, "generate", "hidden-potential",
                             "--n", "20", "--m", "70", "--seed", "4")
        p = tmp_path / "g.gr"
        p.write_text(text)
        return p

    def test_all_backends_identical_stdout(self, capsys, tmp_path):
        p = self._graph(capsys, tmp_path)
        rc0, base, _ = run_cli(capsys, "solve", str(p))
        assert rc0 == 0
        for backend in ("serial", "thread", "process"):
            rc, out, err = run_cli(capsys, "solve", str(p),
                                   "--backend", backend, "--workers", "2")
            assert rc == 0, backend
            assert out == base, backend
            assert f"c backend {backend}" in err, backend

    def test_workers_validation(self, capsys, tmp_path):
        p = self._graph(capsys, tmp_path)
        rc, _, err = run_cli(capsys, "solve", str(p),
                             "--backend", "thread", "--workers", "0")
        assert rc == 2
        assert "workers" in err

    def test_liveness_validation(self, capsys, tmp_path):
        p = self._graph(capsys, tmp_path)
        rc, _, err = run_cli(capsys, "solve", str(p), "--backend",
                             "process", "--liveness-timeout", "-1")
        assert rc == 2
        assert "liveness" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_liveness_timeout_must_be_finite(self, capsys, tmp_path, value):
        # a NaN timeout never fires, so a hung worker would hang the solve
        p = self._graph(capsys, tmp_path)
        rc, _, err = run_cli(capsys, "solve", str(p), "--backend",
                             "process", "--liveness-timeout", value)
        assert rc == 2
        assert "liveness" in err

    def test_unknown_backend_rejected_by_parser(self, capsys, tmp_path):
        p = self._graph(capsys, tmp_path)
        with pytest.raises(SystemExit):
            run_cli(capsys, "solve", str(p), "--backend", "gpu")

    def test_backend_flag_with_cycle_graph(self, capsys, tmp_path):
        _, text, _ = run_cli(capsys, "generate", "planted-cycle",
                             "--n", "15", "--m", "50", "--spread", "3")
        p = tmp_path / "g.gr"
        p.write_text(text)
        rc, out, _ = run_cli(capsys, "solve", str(p),
                             "--backend", "process", "--workers", "2")
        assert rc == 3
        assert out.startswith("negative cycle:")


class TestSignalPreemption:
    """Satellite: SIGTERM (not just SIGINT) is a cooperative cancel when
    a checkpoint is in play — exit 5 plus a resume hint, no traceback."""

    def test_sigterm_cooperative_cancel_and_resume(self, tmp_path):
        import os
        import signal as _signal
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        graph = tmp_path / "g.gr"
        ck = tmp_path / "ck.bin"
        gen = subprocess.run(
            [sys.executable, "-m", "repro.cli", "generate",
             "hidden-potential", "--n", "4000", "--m", "40000",
             "--spread", "40", "--seed", "3"],
            env=env, capture_output=True, text=True, timeout=120)
        assert gen.returncode == 0
        graph.write_text(gen.stdout)

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "solve", str(graph),
             "--checkpoint", str(ck)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            # the first per-scale checkpoint proves the handler is
            # installed and the solve is mid-flight: now preempt it
            deadline = time.monotonic() + 60
            while not ck.exists() and time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                time.sleep(0.01)
            assert ck.exists(), "solve never wrote a checkpoint"
            if proc.poll() is None:
                proc.send_signal(_signal.SIGTERM)
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode == 0:
            pytest.skip("solve finished before SIGTERM landed")
        assert proc.returncode == 5
        assert "CancelledError" in err or "signal SIGTERM" in err
        assert f"--checkpoint {ck} --resume" in err
        assert "Traceback" not in err

        # the interrupted solve left a loadable checkpoint: resuming
        # finishes the job cleanly
        res = subprocess.run(
            [sys.executable, "-m", "repro.cli", "solve", str(graph),
             "--checkpoint", str(ck), "--resume"],
            env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0
        assert res.stdout.startswith("d 1 0")
