"""Every model-quantity claim of EXPERIMENTS.md, judged at full size.

The registry in :mod:`repro.analysis.benchruns` defines each experiment
once, with its full sweep and its claim; these tests judge the claims
with the same code as ``repro bench run``, so a regression that breaks a
claim fails tier-1.  Claims that read wall-clock timings (E14, E16–E19,
E21) are judged only by a full ``repro bench run``: a shared host's
run-to-run noise is the size of their bounds.
"""

import dataclasses

import pytest

from repro.analysis.benchruns import BENCH_RUNS, BENCH_RUNS_BY_CLI_ID, run_spec

TIMING_CLAIMS = {"E14", "E16", "E17", "E18", "E19", "E21"}
MODEL_SPECS = [s for s in BENCH_RUNS if s.exp_id not in TIMING_CLAIMS]


def assert_claim_holds(spec):
    record, text = run_spec(spec)
    checks = record["meta"]["claim"]
    assert checks and all(c["held"] for c in checks), text


@pytest.mark.parametrize("spec", MODEL_SPECS, ids=lambda s: s.exp_id)
def test_claim_holds_at_full_size(spec):
    assert_claim_holds(spec)


def test_registry_covers_every_experiment():
    assert {s.exp_id for s in BENCH_RUNS} == (
        {f"E{i}" for i in range(1, 22)} | {"E13b"}
        | {f"A{i}" for i in range(1, 6)})
    assert len(MODEL_SPECS) == 21


def test_claim_test_fails_on_a_broken_row():
    spec = BENCH_RUNS_BY_CLI_ID["e12"]

    def broken_runner(**kwargs):
        rows = spec.runner(**kwargs)
        rows[-1].values["certificate_valid"] = False
        return rows

    broken = dataclasses.replace(spec, runner=broken_runner)
    with pytest.raises(AssertionError, match="certifies it"):
        assert_claim_holds(broken)
