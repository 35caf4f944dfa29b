"""Preemptible solves: deadlines, cooperative cancellation, checkpoint/resume.

Run with the resilience suite: ``python -m pytest -m resilience``.

The centrepiece is the kill-and-resume determinism sweep: for every graph
in a ≥30-instance matrix, the solve is interrupted at *every* scale level
— once by a simulated crash right after the checkpoint write, once by a
deadline expiring at that phase boundary — resumed from the checkpoint,
and the distances, price certificate, and model cost are asserted
bit-identical to the uninterrupted run (itself checked against the
Bellman–Ford oracle).  Alongside it: the checkpoint-corruption matrix
(truncation, flipped bytes, version skew, non-checkpoint files) and the
Deadline/CancelToken unit behaviour.
"""

import os

import numpy as np
import pytest

import repro.core.engines as engines
from repro import (
    CancelledError,
    CancelToken,
    Certificate,
    CheckpointError,
    Deadline,
    DeadlineExceededError,
    DiGraph,
    InputValidationError,
    solve_sssp,
    solve_sssp_resilient,
)
from repro.baselines.bellman_ford import bellman_ford
from repro.core.engines import engine_names
from repro.graph import generators
from repro.resilience import (
    CHECKPOINT_VERSION,
    RetryPolicy,
    ScaleCheckpoint,
    cancel_scope,
    checkpoint_fingerprint,
    current_token,
    load_checkpoint,
    make_token,
    save_checkpoint,
)
from repro.runtime import CostAccumulator
from repro.runtime.primitives import parallel_map

pytestmark = pytest.mark.resilience

# a negative edge and no cycle: distances [0, 4, -3]
TRIANGLE = DiGraph.from_edges(3, [(0, 1, 4), (1, 2, -7), (0, 2, 1)])


class SimulatedCrash(Exception):
    """Stands in for SIGKILL right after a checkpoint hits the disk."""


class ManualClock:
    """Deterministic clock for deadline tests; ticks only when told to."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float = 1.0) -> None:
        self.t += dt


# ---------------------------------------------------------------------------
# Deadline / CancelToken unit behaviour
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_after_remaining_expired(self):
        clock = ManualClock()
        dl = Deadline.after(5.0, clock=clock)
        assert dl.remaining() == 5.0 and not dl.expired()
        clock.advance(4.0)
        assert dl.remaining() == 1.0
        clock.advance(2.0)
        assert dl.expired() and dl.remaining() == 0.0

    def test_negative_after_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("-inf")])
    def test_nan_or_negative_after_is_input_error(self, bad):
        with pytest.raises(InputValidationError):
            Deadline.after(bad)

    def test_nan_expiry_rejected(self):
        # a NaN deadline would never expire: no clock reading is >= NaN
        with pytest.raises(InputValidationError):
            Deadline(float("nan"))

    def test_nan_deadline_rejected_by_solver(self):
        g = generators.hidden_potential_graph(12, 30, seed=1)
        with pytest.raises(InputValidationError):
            solve_sssp_resilient(g, 0, deadline=float("nan"),
                                 fallback=False)

    def test_infinite_after_never_expires(self):
        clock = ManualClock()
        dl = Deadline.after(float("inf"), clock=clock)
        clock.advance(1e9)
        assert not dl.expired()


class TestCancelToken:
    def test_fresh_token_passes_checks(self):
        tok = CancelToken()
        tok.check("anywhere")
        assert not tok.cancelled and tok.reason is None

    def test_manual_cancel_raises_cancelled(self):
        tok = CancelToken()
        tok.cancel("user hit ^C")
        with pytest.raises(CancelledError) as ei:
            tok.check("phase-boundary")
        assert not isinstance(ei.value, DeadlineExceededError)
        assert ei.value.where == "phase-boundary"
        assert ei.value.reason == "user hit ^C"

    def test_cancel_is_idempotent_first_reason_wins(self):
        tok = CancelToken()
        tok.cancel("first")
        tok.cancel("second")
        assert tok.reason == "first"

    def test_deadline_expiry_raises_deadline_subclass(self):
        clock = ManualClock()
        tok = CancelToken(Deadline(1.0, clock=clock))
        tok.check()
        clock.advance(2.0)
        assert tok.cancelled and tok.reason == "deadline"
        with pytest.raises(DeadlineExceededError):
            tok.check("loop")

    def test_manual_cancel_wins_over_deadline(self):
        clock = ManualClock()
        tok = CancelToken(Deadline(0.0, clock=clock))
        clock.advance(1.0)
        tok.cancel("stop")
        with pytest.raises(CancelledError) as ei:
            tok.check()
        assert not isinstance(ei.value, DeadlineExceededError)
        assert ei.value.reason == "stop"

    def test_make_token_normalisation(self):
        assert make_token(None, None) is None
        tok = CancelToken()
        assert make_token(None, tok) is tok
        t2 = make_token(10.0, None)
        assert isinstance(t2, CancelToken) and t2.deadline is not None
        dl = Deadline.after(5.0)
        t3 = make_token(dl, tok)
        # a fresh token linked to the caller's, which stays as it was
        assert t3 is not tok and t3.deadline is dl and tok.deadline is None
        t4 = make_token(Deadline.after(1.0), t3)  # a second deadline
        assert t4 is not t3 and t3.deadline is dl

    def test_linked_token_trips_on_the_callers_cancel(self):
        clock = ManualClock()
        tok = CancelToken()
        linked = make_token(Deadline(1.0, clock), tok)
        linked.check("loop")
        clock.advance(2.0)
        tok.cancel("operator stop")  # wins over the expired deadline
        assert linked.cancelled and linked.reason == "operator stop"
        with pytest.raises(CancelledError) as ei:
            linked.check("loop")
        assert not isinstance(ei.value, DeadlineExceededError)
        assert ei.value.reason == "operator stop"

    @pytest.mark.parametrize("own, given, first", [(2.0, 5.0, 2.0),
                                                   (5.0, 2.0, 2.0),
                                                   (None, 2.0, 2.0)])
    def test_linked_token_trips_on_the_earliest_deadline(self, own, given,
                                                         first):
        clock = ManualClock()
        tok = CancelToken(None if own is None else Deadline(own, clock))
        linked = make_token(Deadline(given, clock), tok)
        assert linked.remaining() == first
        clock.advance(first - 0.5)
        linked.check("loop")
        clock.advance(1.0)
        assert linked.reason == "deadline"
        with pytest.raises(DeadlineExceededError):
            linked.check("loop")
        assert tok.cancelled == (own == first)

    def test_primitives_honour_ambient_token(self):
        tok = CancelToken()
        tok.cancel("stop")
        acc = CostAccumulator()
        parallel_map([1, 2], lambda x: x, acc)  # no scope: unaffected
        with cancel_scope(tok):
            with pytest.raises(CancelledError):
                parallel_map([1, 2], lambda x: x, acc)
        parallel_map([1, 2], lambda x: x, acc)  # scope popped cleanly


# ---------------------------------------------------------------------------
# checkpoint file format: atomicity + corruption hardening
# ---------------------------------------------------------------------------

def _sample_checkpoint(n=6):
    return ScaleCheckpoint(
        fingerprint="f" * 64, seed=7, scale_b=8, scale=4, scale_idx=1,
        done=False, price=np.arange(n, dtype=np.int64) - 3,
        cost=(123.0, 45.0, 67.0), scales=[8, 4],
        per_scale=[{"k_trajectory": [3, 1], "methods": ["par", "par"],
                    "improved": [2, 1]},
                   {"k_trajectory": [2], "methods": ["par"],
                    "improved": [2]}])


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ck.bin"
        ck = _sample_checkpoint()
        save_checkpoint(path, ck)
        back = load_checkpoint(path)
        assert back.fingerprint == ck.fingerprint
        assert back.seed == ck.seed and back.scale_b == ck.scale_b
        assert back.scale == ck.scale and back.scale_idx == ck.scale_idx
        assert back.done is False
        np.testing.assert_array_equal(back.price, ck.price)
        assert back.price.dtype == np.int64
        assert back.cost == ck.cost
        assert back.scales == ck.scales and back.per_scale == ck.per_scale

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, _sample_checkpoint())
        save_checkpoint(path, _sample_checkpoint())  # overwrite in place
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(tmp_path / "nope.bin")
        assert ei.value.reason == "io"

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(b"REPROCK\x01short")
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert ei.value.reason == "truncated"

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, _sample_checkpoint())
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert ei.value.reason == "truncated"

    @pytest.mark.parametrize("offset_kind", ["digest", "payload"])
    def test_flipped_byte_fails_checksum(self, tmp_path, offset_kind):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, _sample_checkpoint())
        data = bytearray(path.read_bytes())
        # header = 8 magic + 4 version + 8 length + 32 digest = 52 bytes
        offset = 20 if offset_kind == "digest" else 60
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert ei.value.reason == "checksum"

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, _sample_checkpoint())
        data = bytearray(path.read_bytes())
        data[11] = CHECKPOINT_VERSION + 1  # low byte of big-endian version
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert ei.value.reason == "version"

    def test_non_checkpoint_file_rejected_on_magic(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_bytes(b"p sp 4 4\na 1 2 3\n" + b"x" * 64)
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert ei.value.reason == "magic"

    def test_valid_frame_bad_payload_schema(self, tmp_path):
        # authenticated frame around non-checkpoint JSON must still fail
        import hashlib
        import struct

        path = tmp_path / "ck.bin"
        payload = b'{"kind": "something-else"}'
        header = struct.pack(">8sIQ32s", b"REPROCK\x01", CHECKPOINT_VERSION,
                             len(payload), hashlib.sha256(payload).digest())
        path.write_bytes(header + payload)
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert ei.value.reason == "schema"


# ---------------------------------------------------------------------------
# resume validation: fingerprint + certificate gates
# ---------------------------------------------------------------------------

@pytest.fixture
def g():
    return generators.hidden_potential_graph(18, 56, potential_spread=9,
                                             seed=2)


class TestResumeValidation:
    def _checkpoint_of(self, g, path, seed=0):
        with pytest.raises(SimulatedCrash):
            solve_sssp_resilient(g, 0, seed=seed, checkpoint_path=path,
                                 on_checkpoint=lambda ck: (_ for _ in ()
                                                           ).throw(
                                     SimulatedCrash()))
        assert os.path.exists(path)

    def test_fingerprint_binds_seed(self, g, tmp_path):
        path = tmp_path / "ck.bin"
        self._checkpoint_of(g, path, seed=0)
        with pytest.raises(CheckpointError) as ei:
            solve_sssp_resilient(g, 0, seed=99, checkpoint_path=path,
                                 resume=True)
        assert ei.value.reason == "fingerprint"

    def test_fingerprint_binds_graph(self, g, tmp_path):
        path = tmp_path / "ck.bin"
        self._checkpoint_of(g, path)
        other = generators.hidden_potential_graph(18, 56, potential_spread=9,
                                                  seed=3)
        with pytest.raises(CheckpointError) as ei:
            solve_sssp_resilient(other, 0, seed=0, checkpoint_path=path,
                                 resume=True)
        assert ei.value.reason == "fingerprint"

    def test_tampered_potential_fails_certificate_recheck(self, g, tmp_path):
        path = tmp_path / "ck.bin"
        self._checkpoint_of(g, path)
        ck = load_checkpoint(path)
        ck.price = ck.price.copy()
        ck.price[0] += 10_000  # re-stamped hash, infeasible potential
        save_checkpoint(path, ck)
        with pytest.raises(CheckpointError) as ei:
            solve_sssp_resilient(g, 0, seed=0, checkpoint_path=path,
                                 resume=True)
        assert ei.value.reason == "certificate"

    def test_resume_without_file_starts_fresh(self, g, tmp_path):
        base = solve_sssp_resilient(g, 0, seed=0)
        res = solve_sssp_resilient(g, 0, seed=0,
                                   checkpoint_path=tmp_path / "new.bin",
                                   resume=True)
        np.testing.assert_array_equal(res.dist, base.dist)
        assert res.stats.resumed_from_scale is None

    def test_resume_from_final_checkpoint_skips_solve(self, g, tmp_path):
        path = tmp_path / "ck.bin"
        base = solve_sssp_resilient(g, 0, seed=0, checkpoint_path=path)
        assert load_checkpoint(path).done
        res = solve_sssp_resilient(g, 0, seed=0, checkpoint_path=path,
                                   resume=True)
        np.testing.assert_array_equal(res.dist, base.dist)
        np.testing.assert_array_equal(res.price, base.price)
        assert res.stats.resumed_from_scale == 1

    def test_checkpoint_fingerprint_sensitivity(self, g):
        fp = checkpoint_fingerprint(g, mode="parallel", eps=0.2, seed=0)
        assert fp == checkpoint_fingerprint(g, mode="parallel", eps=0.2,
                                            seed=0)
        assert fp != checkpoint_fingerprint(g, mode="sequential", eps=0.2,
                                            seed=0)
        assert fp != checkpoint_fingerprint(g, mode="parallel", eps=0.3,
                                            seed=0)
        assert fp != checkpoint_fingerprint(g, mode="parallel", eps=0.2,
                                            seed=1)


# ---------------------------------------------------------------------------
# deadline / cancellation semantics of the resilient solver
# ---------------------------------------------------------------------------

class TestDeadlineSemantics:
    def test_deadline_degrades_to_fallback_with_provenance(self, g):
        res = solve_sssp_resilient(g, 0, seed=0, deadline=0.0)
        prov = res.provenance
        assert prov.used_fallback
        assert prov.fallback_reason.startswith("deadline")
        oracle = bellman_ford(g, 0)
        np.testing.assert_array_equal(res.dist, oracle.dist)
        assert res.certificate.checked

    def test_deadline_without_fallback_raises_exit_path(self, g):
        with pytest.raises(DeadlineExceededError):
            solve_sssp_resilient(g, 0, seed=0, deadline=0.0, fallback=False)

    def test_deadline_never_retries(self, g):
        res = solve_sssp_resilient(g, 0, seed=0, deadline=0.0,
                                   retry_policy=RetryPolicy(max_attempts=6))
        # one failed attempt, then straight to fallback: elapsed time is
        # not refundable, so deadline expiry must not burn retries
        assert len(res.provenance.attempts) == 1

    def test_manual_cancel_propagates_even_with_fallback(self, g):
        tok = CancelToken()
        tok.cancel("operator stop")
        with pytest.raises(CancelledError) as ei:
            solve_sssp_resilient(g, 0, seed=0, token=tok, fallback=True)
        assert not isinstance(ei.value, DeadlineExceededError)
        assert ei.value.reason == "operator stop"

    def test_plain_solve_accepts_token(self, g):
        tok = CancelToken()
        res = solve_sssp(g, 0, token=tok)
        assert res.certificate.checked
        tok.cancel("stop")
        with pytest.raises(CancelledError):
            solve_sssp(g, 0, token=tok)

    @pytest.mark.parametrize("engine", engine_names())
    def test_plain_solve_keeps_the_token_to_the_end(self, g, engine,
                                                    monkeypatch):
        """The certificate check and the final Dijkstra run under the
        caller's token too, on every engine."""
        seen = {"verify": [], "dijkstra": []}
        verify, dijkstra = Certificate.verify, engines.dijkstra

        def verify_probe(self, graph):
            seen["verify"].append(current_token())
            return verify(self, graph)

        def dijkstra_probe(*args, **kwargs):
            seen["dijkstra"].append(current_token())
            return dijkstra(*args, **kwargs)

        monkeypatch.setattr(Certificate, "verify", verify_probe)
        monkeypatch.setattr(engines, "dijkstra", dijkstra_probe)
        tok = CancelToken()
        res = solve_sssp(g, 0, engine=engine, token=tok)
        assert not res.has_negative_cycle
        for site, tokens in seen.items():
            assert len(tokens) == 1 and tokens[0] is tok, site

    def test_a_token_serves_two_calls_with_deadlines(self):
        tok = CancelToken()
        for _ in range(2):
            res = solve_sssp_resilient(TRIANGLE, 0, token=tok, deadline=5.0)
            assert not res.provenance.used_fallback
        assert tok.deadline is None

    def test_an_expired_deadline_ends_with_its_call(self):
        tok = CancelToken()
        res = solve_sssp_resilient(TRIANGLE, 0, token=tok, deadline=0.0)
        assert res.provenance.fallback_reason.startswith("deadline")
        res = solve_sssp_resilient(TRIANGLE, 0, token=tok)
        assert not res.provenance.used_fallback
        np.testing.assert_array_equal(res.dist, [0, 4, -3])

    def test_generous_deadline_solves_normally(self, g):
        res = solve_sssp_resilient(g, 0, seed=0, deadline=3600.0)
        assert not res.provenance.used_fallback
        base = solve_sssp_resilient(g, 0, seed=0)
        np.testing.assert_array_equal(res.dist, base.dist)


# ---------------------------------------------------------------------------
# the kill-and-resume determinism sweep (acceptance criterion)
# ---------------------------------------------------------------------------

def _graph_matrix():
    """≥30 feasible instances across families, sized for several scales."""
    cases = []
    for i in range(8):
        cases.append((f"hidden-{i}", generators.hidden_potential_graph(
            16 + i, 48 + 4 * i, potential_spread=6 + 3 * i, seed=i)))
        cases.append((f"bf-hard-{i}", generators.bf_hard_graph(
            14 + i, 40 + 3 * i, potential_spread=5 + 4 * i, seed=i)))
    for i in range(8):
        cases.append((f"hidden-deep-{i}", generators.hidden_potential_graph(
            20 + i, 70 + 2 * i, potential_spread=30 + 10 * i, seed=10 + i)))
    for i in range(6):
        cases.append((f"neg-dag-{i}", generators.random_dag(
            18 + i, 54 + 3 * i, weights=(-5 - i, 8), seed=i)))
    return cases


GRAPHS = _graph_matrix()
assert len(GRAPHS) >= 30


@pytest.mark.parametrize("name,graph", GRAPHS,
                         ids=[name for name, _ in GRAPHS])
def test_interrupt_every_scale_and_resume_bit_identical(name, graph,
                                                        tmp_path):
    """Interrupt at every scale level (crash + deadline), resume, compare."""
    base = solve_sssp_resilient(graph, 0, seed=0)
    if base.has_negative_cycle:
        pytest.skip("instance has a negative cycle — no distance sweep")
    oracle = bellman_ford(graph, 0)
    np.testing.assert_array_equal(base.dist, oracle.dist)
    n_scales = len(base.stats.scales)
    assert n_scales >= 1

    def check_resumed(res, resumed_from):
        np.testing.assert_array_equal(res.dist, base.dist)
        np.testing.assert_array_equal(res.parent, base.parent)
        np.testing.assert_array_equal(res.price, base.price)
        assert res.certificate.kind == base.certificate.kind == "price"
        np.testing.assert_array_equal(res.certificate.price,
                                      base.certificate.price)
        assert res.certificate.checked
        assert res.stats.resumed_from_scale == resumed_from
        assert res.stats.scales == base.stats.scales
        assert res.cost.work == pytest.approx(base.cost.work)
        assert res.cost.span_model == pytest.approx(base.cost.span_model)

    for k in range(n_scales):
        # -- simulated crash: process dies right after checkpoint k hits disk
        path = tmp_path / f"crash-{k}.bin"

        def crash_after_k(ck, k=k):
            if ck.scale_idx == k:
                raise SimulatedCrash

        # (at k == n_scales-1 the checkpoint is the done-marker: the crash
        # happens after the full potential is already durable)
        with pytest.raises(SimulatedCrash):
            solve_sssp_resilient(graph, 0, seed=0, checkpoint_path=path,
                                 on_checkpoint=crash_after_k)
        ck = load_checkpoint(path)
        assert ck.scale_idx == k
        res = solve_sssp_resilient(graph, 0, seed=0, checkpoint_path=path,
                                   resume=True)
        check_resumed(res, base.stats.scales[k])

        # -- deadline: expires exactly after checkpoint k is written
        path2 = tmp_path / f"deadline-{k}.bin"
        clock = ManualClock()

        def tick(ck):
            clock.advance(1.0)

        with pytest.raises(DeadlineExceededError):
            solve_sssp_resilient(
                graph, 0, seed=0, checkpoint_path=path2, on_checkpoint=tick,
                deadline=Deadline(k + 0.5, clock=clock), fallback=False)
        assert load_checkpoint(path2).scale_idx == k
        res2 = solve_sssp_resilient(graph, 0, seed=0, checkpoint_path=path2,
                                    resume=True)
        check_resumed(res2, base.stats.scales[k])


def test_negative_cycle_instance_still_certifies_after_interrupt(tmp_path):
    g, _ = generators.planted_negative_cycle_graph(20, 60, 4, seed=1)
    base = solve_sssp_resilient(g, 0, seed=0)
    assert base.has_negative_cycle
    path = tmp_path / "ck.bin"
    # checkpoints may or may not be written before the cycle is found;
    # resume must reproduce the identical certified cycle either way
    try:
        solve_sssp_resilient(g, 0, seed=0, checkpoint_path=path,
                             on_checkpoint=lambda ck: (_ for _ in ()).throw(
                                 SimulatedCrash()))
    except SimulatedCrash:
        pass
    res = solve_sssp_resilient(g, 0, seed=0, checkpoint_path=path,
                               resume=os.path.exists(path))
    assert res.negative_cycle == base.negative_cycle
    assert res.certificate.checked


class TestTornCheckpointSweep:
    """Satellite: a checkpoint torn at *any* byte boundary — the exact
    artifact of a crash mid-write on a non-atomic filesystem — must be
    rejected with a typed :class:`CheckpointError`, never half-loaded."""

    def test_every_truncation_boundary_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, _sample_checkpoint())
        intact = path.read_bytes()
        assert len(intact) > 52  # header + payload
        reasons = set()
        for cut in range(len(intact)):
            path.write_bytes(intact[:cut])
            with pytest.raises(CheckpointError) as ei:
                load_checkpoint(path)
            reasons.add(ei.value.reason)
        # torn files only ever look truncated (short header / short or
        # mis-sized payload) — never "checksum" (that would mean the
        # digest was verified against a wrong-length payload) and never
        # a pickle/JSON error leaking through untyped
        assert reasons == {"truncated"}
        # the intact bytes still load: the sweep proved rejection is
        # about the tear, not some global state the loop corrupted
        path.write_bytes(intact)
        assert load_checkpoint(path).seed == _sample_checkpoint().seed

    def test_resume_from_torn_file_raises_then_fresh_solve_heals(
            self, g, tmp_path):
        path = tmp_path / "ck.bin"
        base = solve_sssp_resilient(g, 0, seed=0, checkpoint_path=path)
        torn = path.read_bytes()[:-7]
        path.write_bytes(torn)
        # resuming from a torn checkpoint is a hard, typed error — the
        # solver must never silently start over when asked to resume
        with pytest.raises(CheckpointError) as ei:
            solve_sssp_resilient(g, 0, seed=0, checkpoint_path=path,
                                 resume=True)
        assert ei.value.reason == "truncated"
        # ... but a fresh (non-resume) solve overwrites the wreck and
        # leaves a loadable final checkpoint behind
        res = solve_sssp_resilient(g, 0, seed=0, checkpoint_path=path)
        np.testing.assert_array_equal(res.dist, base.dist)
        assert load_checkpoint(path).done
