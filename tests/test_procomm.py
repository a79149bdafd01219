"""Real multi-process communicator vs. the virtual oracle.

The contract under test: every collective is deadline-bounded (typed
``CommTimeout`` instead of a hang), rank death is detected and typed
(``RankFailure``), recovery resumes from the last cohort checkpoint, and
the rank-decomposed solve is **bit-identical** to the single-process
:class:`~repro.parallel.comm.VirtualComm` oracle -- clean and across an
injected mid-solve rank kill.
"""

import contextlib
import gc
import json
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.fem import GaussQuadrature, StructuredMesh
from repro.matfree import _ckernel, make_operator
from repro.obs import metrics
from repro.parallel import (
    BlockDecomposition,
    CommError,
    CommTimeout,
    ProcessComm,
    ProcommEngine,
    RankFailure,
    VirtualComm,
    VirtualRankEngine,
    halo_exchange_plan,
    run_sinker_distributed,
    thread_pool,
    tree_reduce,
    use_executor,
    validate_decomposition_compat,
)
from repro.parallel import procomm as procomm_mod
from repro.parallel.procomm import _LIVE_STATES, span_dot


QUAD = GaussQuadrature.hex(3)


@contextlib.contextmanager
def procomm(size):
    comm = ProcessComm(size)
    try:
        yield comm
    finally:
        comm.close()


class _Broadcast:
    """A state for ``share_state``: picklable, weakly referenceable."""

    def __init__(self, values):
        self.values = values


def _operator_problem(shape=(3, 3, 4)):
    rng = np.random.default_rng(7)
    mesh = StructuredMesh(shape, order=2)
    eta = np.exp(rng.normal(scale=0.5, size=(mesh.nel, QUAD.npoints)))
    return mesh, eta, rng.standard_normal(3 * mesh.nnodes)


# --------------------------------------------------------------------- #
# ordered reduction: the fixed tree is the bitwise contract
# --------------------------------------------------------------------- #
class TestTreeReduce:
    def test_matches_explicit_pairing(self):
        # the documented shape: adjacent pairs, then pairs of pairs
        v = [0.1, 0.2, 0.3, 0.4]
        assert tree_reduce(v, "sum") == ((0.1 + 0.2) + (0.3 + 0.4))

    def test_depends_only_on_rank_count(self):
        rng = np.random.default_rng(7)
        for n in range(1, 9):
            vals = list(rng.standard_normal(n) * 10.0 ** rng.integers(
                -8, 8, size=n))
            assert tree_reduce(vals, "sum") == tree_reduce(list(vals), "sum")

    def test_differs_from_left_fold(self):
        # the reason the tree is pinned: naive arrival-order summation
        # rounds differently, so "any order that finishes" is not
        # reproducible
        rng = np.random.default_rng(3)
        diverged = False
        for _ in range(50):
            vals = list(rng.standard_normal(7) * 10.0 ** rng.integers(
                -10, 10, size=7))
            fold = 0.0
            for v in vals:
                fold += v
            diverged |= tree_reduce(vals, "sum") != fold
        assert diverged


# --------------------------------------------------------------------- #
# transport basics against the oracle
# --------------------------------------------------------------------- #
class TestProcessComm:
    def test_ping_identifies_ranks(self):
        with procomm(3) as comm:
            for r in range(3):
                assert comm.call(r, "ping")["rank"] == r

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_allreduce_bitwise_matches_oracle(self, size):
        # the solve's allreduce is the engine dot: rank partials summed
        # over the fixed tree, bitwise-equal between the real transport
        # and the oracle for ANY rank count
        rng = np.random.default_rng(size)
        x = rng.standard_normal(997) * 10.0 ** rng.integers(-6, 6, size=997)
        y = rng.standard_normal(997)
        oracle = VirtualRankEngine(size=size)
        expected = oracle.dot(x, y)
        with procomm(size) as comm:
            assert ProcommEngine(comm).dot(x, y) == expected
            assert comm.stats.reductions == oracle.comm.stats.reductions
        oracle.shutdown()

    def test_bcast_and_barrier(self):
        # the cohort's broadcast is a state shipment: one ``state`` op per
        # rank, after which every rank holds the state's one version
        payload = _Broadcast(np.arange(4.0))
        with procomm(2) as comm:
            key = comm.share_state(payload)
            assert comm.held == [1, 1]
            assert comm.share_state(payload) == key
            comm.barrier()  # must simply not hang

    def test_send_recv_roundtrip(self):
        with procomm(3) as comm:
            payload = np.arange(6, dtype=np.float64)
            comm.send(0, 2, payload)
            comm.send(1, 2, {"tag": 9})
            assert comm.pending() == 2
            msgs = comm.recv_all(2)
            assert [src for src, _ in msgs] == [0, 1]
            np.testing.assert_array_equal(msgs[0][1], payload)
            assert msgs[1][1] == {"tag": 9}
            assert comm.pending() == 0

    def test_stats_count_traffic(self):
        with procomm(2) as comm:
            comm.send(0, 1, np.zeros(10))
            comm.recv_all(1)
            comm.barrier()
            assert comm.stats.messages == 1  # sends count; delivery doesn't
            assert comm.stats.reductions == 1
            assert comm.stats.bytes >= 80


# --------------------------------------------------------------------- #
# the master side is one thread: it reads a rank's pipe while it waits
# --------------------------------------------------------------------- #
class TestSingleThreadedMaster:
    def test_master_starts_no_thread(self):
        before = set(threading.enumerate())
        with procomm(4) as comm:
            comm.barrier()
            assert not set(threading.enumerate()) - before

    def test_idle_master_sees_no_heartbeat_timeout(self, monkeypatch):
        # beats pile up in the pipe while nobody waits; the next wait
        # drains them and dates the rank's liveness by its own clock
        monkeypatch.setattr(procomm_mod, "HEARTBEAT_TIMEOUT", 1.0)
        with procomm(2) as comm:
            comm.barrier()
            time.sleep(2.0)
            comm.barrier()
            assert comm.stats.timeouts == 0

    def test_full_event_pipe_does_not_wedge(self, monkeypatch):
        # ~170 KB of beats against a 64 KiB pipe: the beat thread blocks
        # in write until the next wait drains the pipe
        monkeypatch.setattr(procomm_mod, "HEARTBEAT_INTERVAL", 1e-4)
        with procomm(2) as comm:
            time.sleep(1.0)
            t0 = time.perf_counter()
            comm.barrier()
            payload = np.arange(10_000, dtype=np.float64)  # 80 KB
            comm.send(0, 1, payload)
            msgs = comm.recv_all(1)
            assert time.perf_counter() - t0 < 5.0
            np.testing.assert_array_equal(msgs[0][1], payload)


# --------------------------------------------------------------------- #
# fault detection: typed, bounded, recoverable
# --------------------------------------------------------------------- #
class TestTransportFaults:
    def test_rank_death_is_typed(self):
        with procomm(2) as comm:
            comm.inject_fault(1, "kill", at=1, exit_code=42)
            with pytest.raises(RankFailure) as err:
                comm.barrier()
            assert err.value.rank == 1
            assert err.value.returncode == 42
            assert comm.stats.rank_failures >= 1

    def test_recover_restores_collectives(self, tmp_path):
        with procomm(2) as comm:
            comm.inject_fault(
                1, "kill", at=1, sentinel=str(tmp_path / "once"))
            with pytest.raises(RankFailure):
                comm.barrier()
            comm.recover()
            # sentinel claimed: the re-armed fault must not re-fire
            comm.barrier()
            assert comm.stats.respawns >= 1

    def test_unfired_fault_survives_respawn(self, tmp_path):
        # without a sentinel the armed fault is re-applied to every
        # recovered cohort, so it fires again after the recovery
        with procomm(2) as comm:
            comm.inject_fault(1, "kill", at=1)
            with pytest.raises(RankFailure):
                comm.barrier()
            comm.recover()
            with pytest.raises(RankFailure):
                comm.barrier()
            comm.recover()
            # clear_faults is a control op: it disarms the re-armed kill
            # before any work op can trigger it
            comm.clear_faults()
            comm.barrier()

    def test_kill_counts_work_ops_across_state_updates(self):
        # the cohort is never re-forked for a new state, so a kill armed
        # up front fires on the at-th work op even with set_viscosity
        # (a new state object, then a state shipment) between dispatches
        mesh, eta, u = _operator_problem()
        with procomm(2) as comm, use_executor(ProcommEngine(comm)):
            op = make_operator("asmb", mesh, eta, quad=QUAD)
            comm.inject_fault(1, "kill", at=3)
            op.apply(u)  # rank 1 serves one span per dispatch
            op.set_viscosity(2.0 * eta)
            op.apply(u)
            with pytest.raises(RankFailure):
                op.apply(u)
            assert comm.stats.respawns == 0

    def test_stall_hits_deadline_not_hang(self, monkeypatch):
        # the stalled rank keeps heartbeating (dedicated thread), so this
        # exercises the per-op deadline: typed CommTimeout, bounded wall
        monkeypatch.setattr(procomm_mod, "OP_TIMEOUT", 1.5)
        monkeypatch.setattr(procomm_mod, "HEARTBEAT_TIMEOUT", 30.0)
        with procomm(2) as comm:
            comm.inject_fault(1, "stall", seconds=60.0, at=1)
            t0 = time.perf_counter()
            with pytest.raises(CommTimeout) as err:
                comm.barrier()
            assert time.perf_counter() - t0 < 10.0
            assert err.value.kind == "deadline"
            assert err.value.rank == 1
            comm.shutdown(kill=True)

    def test_drop_message_drops_exactly_one(self):
        with procomm(2) as comm:
            comm.inject_fault(1, "drop_message")
            comm.send(0, 1, "lost")
            comm.send(0, 1, "kept")
            msgs = comm.recv_all(1)
            assert [p for _, p in msgs] == ["kept"]
            comm.clear_faults()

    def test_stopped_rank_hits_heartbeat_not_deadline(self, monkeypatch):
        # a SIGSTOPped rank stops beating too: the heartbeat bound fires
        # long before the per-op deadline (OP_TIMEOUT, 60 s)
        monkeypatch.setattr(procomm_mod, "HEARTBEAT_TIMEOUT", 2.0)
        with procomm(2) as comm:
            comm.barrier()
            os.killpg(comm._ranks[1].pid, signal.SIGSTOP)  # pid == pgid
            t0 = time.perf_counter()
            with pytest.raises(CommTimeout) as err:
                comm.barrier()
            assert time.perf_counter() - t0 < 30.0
            assert err.value.kind == "heartbeat"
            assert err.value.rank == 1
            comm.shutdown(kill=True)


# --------------------------------------------------------------------- #
# rank engines: real transport vs inline oracle
# --------------------------------------------------------------------- #
class TestRankEngines:
    def test_dot_bitwise_parity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(1001)
        y = rng.standard_normal(1001)
        oracle = VirtualRankEngine(size=2)
        expected = oracle.dot(x, y)
        with procomm(2) as comm:
            engine = ProcommEngine(comm)
            assert engine.dot(x, y) == expected
        # both equal the tree over the shared span kernel
        from repro.parallel.executor import partition_range

        parts = [span_dot(x, y, s, e) for s, e in partition_range(1001, 2)]
        assert expected == tree_reduce(parts, "sum")
        oracle.shutdown()

    def test_dot_stats_parity(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(64)
        y = rng.standard_normal(64)
        oracle = VirtualRankEngine(size=2)
        oracle.dot(x, y)
        with procomm(2) as comm:
            engine = ProcommEngine(comm)
            engine.dot(x, y)
            real = comm.stats
            assert real.messages == oracle.comm.stats.messages
            assert real.bytes == oracle.comm.stats.bytes
            assert real.reductions == oracle.comm.stats.reductions
        oracle.shutdown()

    def test_cg_reductions_route_through_engine(self):
        # an armed rank engine must steer every CG inner product through
        # the fixed tree; oracle and real transport land on the same
        # iterates
        from repro.solvers.krylov import cg

        rng = np.random.default_rng(5)
        A = rng.standard_normal((40, 40))
        A = A @ A.T + 40 * np.eye(40)
        b = rng.standard_normal(40)

        def apply_a(v):
            return A @ v

        oracle = VirtualRankEngine(size=2)
        with use_executor(oracle):
            res_oracle = cg(apply_a, b, rtol=1e-10, maxiter=100)
        with procomm(2) as comm:
            with use_executor(ProcommEngine(comm)):
                res_real = cg(apply_a, b, rtol=1e-10, maxiter=100)
        assert res_oracle.converged and res_real.converged
        np.testing.assert_array_equal(res_oracle.x, res_real.x)
        assert res_oracle.iterations == res_real.iterations
        # two reductions per iteration went through the oracle's tree
        assert oracle.comm.stats.reductions >= 2 * res_oracle.iterations
        oracle.shutdown()


# --------------------------------------------------------------------- #
# state shipping: one versioned message per state version, no re-fork
# --------------------------------------------------------------------- #
def _shipments() -> int:
    rec = obs.registry.REGISTRY.events.get(("", "CommState"))
    return 0 if rec is None else rec.count


class TestStateShipping:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    @pytest.mark.parametrize("kind", ["asmb", "tensor_compiled"])
    def test_one_shipment_per_version(self, kind):
        if kind == "tensor_compiled" and not _ckernel.available():
            pytest.skip("the NumPy fallback applies serially")
        mesh, eta, u = _operator_problem()
        obs.enable()
        with procomm(2) as comm, use_executor(ProcommEngine(comm)):
            op = make_operator(kind, mesh, eta, quad=QUAD)
            for _ in range(3):
                op.apply(u)
            assert _shipments() == 1
            op.set_viscosity(2.0 * eta)
            y = op.apply(u)
            op.apply(u)
            assert _shipments() == 2
            assert comm.stats.respawns == 0
        with use_executor(None):
            ref = make_operator(kind, mesh, 2.0 * eta, quad=QUAD)
        assert np.array_equal(y, ref.apply(u))

    def test_span_for_unsent_state_is_comm_error(self):
        with procomm(2) as comm:
            with pytest.raises(CommError, match="never sent"):
                comm.call(0, "span", token=-1, version=0)
            assert comm.call(0, "ping")["rank"] == 0
            assert comm.stats.respawns == 0

    def test_ranks_hold_live_states_only(self):
        mesh, eta, u = _operator_problem()
        with procomm(2) as comm, use_executor(ProcommEngine(comm)):
            for k in range(10):
                op = make_operator("asmb", mesh, eta, quad=QUAD)
                op.apply(u)
                op.set_viscosity((2.0 + k) * eta)
                op.apply(u)
                assert max(comm.held) <= len(_LIVE_STATES)
                del op
                gc.collect()
            # the last shipment found one live state of this cohort's
            assert comm.held == [1, 1]
            assert comm.stats.respawns == 0

    @pytest.mark.skipif(not _ckernel.available(),
                        reason="the NumPy fallback applies serially")
    def test_compiled_payload_is_the_kernel_inputs(self):
        # the 8^3 fine level ships its kernel inputs only (~1.9 MB), and
        # the unpickled payload applies the operator
        mesh, eta, u = _operator_problem((8, 8, 8))
        with use_executor(thread_pool(2)):
            op = make_operator("tensor_compiled", mesh, eta, quad=QUAD)
        data = pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(data) <= 2.5e6
        rank_op = pickle.loads(data)
        out = np.zeros(op.ndof)
        rank_op._apply_span(u, 0, mesh.nel, out, None)
        assert np.array_equal(out, op.apply(u))


# --------------------------------------------------------------------- #
# halo-plan validation + comm gauges (satellites)
# --------------------------------------------------------------------- #
class TestHaloValidation:
    def test_mismatch_names_both_shapes(self):
        from repro.fem import StructuredMesh

        a = BlockDecomposition(StructuredMesh((4, 4, 4), order=2), (1, 1, 2))
        b = BlockDecomposition(StructuredMesh((4, 4, 2), order=2), (1, 1, 2))
        with pytest.raises(ValueError) as err:
            validate_decomposition_compat(a, b)
        assert "(4, 4, 4)" in str(err.value)
        assert "(4, 4, 2)" in str(err.value)
        with pytest.raises(ValueError):
            halo_exchange_plan(a, peer=b)

    def test_compatible_peer_accepted(self):
        from repro.fem import StructuredMesh

        mesh = StructuredMesh((4, 4, 4), order=2)
        a = BlockDecomposition(mesh, (1, 1, 2))
        plan = halo_exchange_plan(a, peer=BlockDecomposition(mesh, (1, 1, 2)))
        assert plan.messages > 0


class TestCommGauges:
    def test_comm_stats_ride_in_step_rows(self):
        # a simulation samples the communicator it owns, once per step
        from repro.parallel.distributed import (
            _default_sim_config,
            _default_sinker,
        )
        from repro.sim.sinker import make_sinker

        obs.reset()
        obs.enable()
        try:
            sim = make_sinker(_default_sinker(), _default_sim_config())
            sim.comm = VirtualComm(2)
            sim.comm.barrier()
            sim.comm.send(0, 1, np.zeros(8))
            sim.step(0.01)
            row = metrics.export()
            last = {s["name"]: s["values"][-1] for s in row["series"]}
            assert last["comm.reductions"] == 1.0
            assert last["comm.messages"] == 1.0
            assert last["comm.bytes"] == 64.0
            assert last["comm.respawns"] == 0.0
        finally:
            obs.reset()

    def test_comm_spans_carry_their_own_category(self):
        from repro.obs import timeline as tl

        obs.reset()
        obs.enable()
        t = tl.arm(capacity=64)
        try:
            engine = VirtualRankEngine(size=2)
            rng = np.random.default_rng(0)
            engine.dot(rng.standard_normal(32), rng.standard_normal(32))
            cats = {(s["name"], s["cat"]) for s in t.spans()}
            # "comm" is its own Perfetto track, distinct from kernels
            assert ("CommDot", "comm") in cats
        finally:
            tl.disarm()
            obs.reset()


# --------------------------------------------------------------------- #
# cohort checkpoint: collective-consistent or refused
# --------------------------------------------------------------------- #
class TestCohortCheckpoint:
    @pytest.fixture(scope="class")
    def sim(self):
        from repro.sim.sinker import SinkerConfig, make_sinker

        return make_sinker(SinkerConfig(
            shape=(4, 4, 4), n_spheres=1, radius=0.2, points_per_dim=2,
            seed=3))

    def test_refuses_undelivered_mail(self, sim, tmp_path):
        from repro.sim.checkpoint import cohort_checkpoint

        comm = VirtualComm(2)
        comm.send(0, 1, "in flight")
        with pytest.raises(RuntimeError, match="undelivered"):
            cohort_checkpoint(str(tmp_path / "ck"), sim, comm)
        comm.recv_all(1)
        path = cohort_checkpoint(str(tmp_path / "ck"), sim, comm)
        assert os.path.exists(path)

    def test_dead_rank_detected_before_write(self, sim, tmp_path):
        from repro.sim.checkpoint import cohort_checkpoint

        with procomm(2) as comm:
            comm.inject_fault(1, "kill", at=1)
            with pytest.raises(RankFailure):
                cohort_checkpoint(str(tmp_path / "dead"), sim, comm)
        assert not os.path.exists(str(tmp_path / "dead") + ".npz")

    def test_save_checkpoint_method_delegates(self, sim, tmp_path):
        sim.comm = VirtualComm(2)
        path = sim.save_checkpoint(str(tmp_path / "via_sim"))
        assert os.path.exists(path)
        sim.comm = None


# --------------------------------------------------------------------- #
# end to end: the bit-exactness contract, clean and through a kill
# --------------------------------------------------------------------- #
class TestDistributedSolve:
    @pytest.fixture(scope="class")
    def oracle(self):
        return run_sinker_distributed(ranks=2, nsteps=2, oracle=True)

    def test_clean_run_bit_identical_to_oracle(self, oracle):
        out = run_sinker_distributed(ranks=2, nsteps=2)
        assert out["digest"] == oracle["digest"]
        assert out["recoveries"] == 0
        # the comm accounting is the perf layer's scale model: the real
        # transport must report exactly what the oracle modeled
        for key in ("messages", "bytes", "reductions"):
            assert out["comm"][key] == oracle["comm"][key]
        assert out["engine"]["dispatches"] == oracle["engine"]["dispatches"]
        mig = out["migration"]
        assert mig["points_after"] == mig["points_before"]
        assert mig["misplaced"] >= 1

    def test_kill_recovers_from_checkpoint_bit_exact(self, oracle, tmp_path):
        out = run_sinker_distributed(
            ranks=2, nsteps=2,
            faults=[{"rank": 1, "kind": "kill", "at": 1, "after_step": 1,
                     "sentinel": str(tmp_path / "kill")}],
            checkpoint_dir=str(tmp_path),
        )
        assert out["recoveries"] == 1
        assert out["events"][0]["error"] == "RankFailure"
        # after_step=1 pins the death after step 1's cohort checkpoint, so
        # recovery took the resume path: the kill lands in step 2's first
        # compiled apply, or -- without a toolchain, when the ranks serve
        # only collectives -- in step 2's checkpoint barrier
        assert out["events"][0]["step"] == (1 if _ckernel.available() else 2)
        assert out["digest"] == oracle["digest"]
        # recover() is the only respawn
        assert out["comm"]["respawns"] == out["recoveries"]

    def test_clean_run_forks_ranks_once(self):
        out = run_sinker_distributed(ranks=2, nsteps=3)
        assert out["comm"]["respawns"] == 0

    def test_oracle_digest_is_rank_count_sensitive(self):
        # documents WHY digests are compared at equal rank counts: the
        # fixed reduction tree of the distributed dots (here the CG of
        # the asm-cg coarse solver) depends on the partition
        from repro.sim.timeloop import SimulationConfig
        from repro.stokes.solve import StokesConfig

        cfg = SimulationConfig(
            stokes=StokesConfig(mg_levels=2, coarse_solver="asm-cg"),
            linear_rtol=1e-5)
        two, three = (run_sinker_distributed(ranks=r, nsteps=2, oracle=True,
                                             sim_config=cfg)
                      for r in (2, 3))
        assert two["comm"]["reductions"] > 2  # the dots ran on the tree
        assert three["digest"] != two["digest"]

    def test_operator_applies_are_rank_count_independent(self, oracle):
        # with no distributed dot in the solve (gcr outer, LU coarse) the
        # rank count reaches only the owner-writes applies: one answer
        other = run_sinker_distributed(ranks=3, nsteps=2, oracle=True)
        assert other["digest"] == oracle["digest"]


# --------------------------------------------------------------------- #
# serve integration: rank grants + graceful shutdown (satellites)
# --------------------------------------------------------------------- #
class TestServeIntegration:
    def test_jobspec_ranks_wire_roundtrip_and_identity(self):
        from repro.serve.jobs import JobSpec

        spec = JobSpec(name="j", scenario="sinker", scenario_config={},
                       sim_config={}, nsteps=1, dt=0.1, ranks=4)
        again = JobSpec.from_wire(spec.to_wire())
        assert again.ranks == 4
        plain = JobSpec(name="j", scenario="sinker", scenario_config={},
                        sim_config={}, nsteps=1, dt=0.1)
        # a scheduling hint must not rename the result cache
        assert spec.config_hash() == plain.config_hash()

    def test_worker_ranks_run_bit_identical_to_oracle(
            self, tmp_path, capsys):
        from repro.serve import worker
        from repro.serve.jobs import JobSpec
        from repro.serve.store import state_digest
        spec = JobSpec(
            name="ranked", scenario="sinker",
            scenario_config={"shape": [4, 4, 4], "n_spheres": 1,
                             "radius": 0.2, "delta_eta": 10.0,
                             "points_per_dim": 2},
            sim_config={"stokes": {"mg_levels": 2, "coarse_solver": "lu"}},
            nsteps=2, dt=0.05, seed=1)
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "spec": spec.to_wire(),
            "serve": {"store_dir": str(tmp_path), "checkpoint_every": 0,
                      "workers": 2, "ranks": 2},
        }))

        assert worker.run_job(str(job)) == 0
        events = [json.loads(line) for line in
                  capsys.readouterr().out.splitlines()]
        result = next(e for e in events if e["event"] == "result")
        assert result["ranks"] == 2
        # the job reports the grant its job file carries
        started = next(e for e in events if e["event"] == "started")
        assert started["workers"] == 2

        # inline oracle reference: same spec under the virtual engine
        sim = worker.build_simulation(spec)
        engine = VirtualRankEngine(size=2)
        with use_executor(engine):
            for _ in range(2):
                sim.step(spec.dt)
        assert result["digest"] == state_digest(sim)
        engine.shutdown()

    def test_sigterm_flushes_checkpoint_and_resume_completes(
            self, tmp_path, monkeypatch):
        from repro.serve import scheduler
        from repro.serve.jobs import JobSpec
        from repro.serve.scheduler import ServeConfig, run_battery

        spec = JobSpec(
            name="graceful", scenario="sinker",
            scenario_config={"shape": [4, 4, 4], "n_spheres": 1,
                             "radius": 0.2, "delta_eta": 10.0,
                             "points_per_dim": 2},
            sim_config={"stokes": {"mg_levels": 2, "coarse_solver": "lu"}},
            nsteps=3, dt=0.05, seed=1,
            faults={"hang": {"after_step": 2, "seconds": 3600.0}})
        monkeypatch.setattr(scheduler, "TERM_GRACE", 10.0)
        report = run_battery([spec], ServeConfig(
            max_jobs=1, step_timeout=5.0, startup_timeout=120.0,
            checkpoint_every=0, max_retries=2, store_dir=str(tmp_path)))
        rec = report.record("graceful")
        first = rec.attempts[0]
        assert first["outcome"] == "hang"
        assert first["graceful"] is True
        # the hang fires inside step 2 (its end-of-step listener), so the
        # last *returned* step is 1 -- and with checkpoint_every=0 the
        # SIGTERM flush is the ONLY possible checkpoint source, so
        # resuming from step 1 proves the grace period worked
        assert first["flushed_step"] == 1
        assert rec.state.name == "DONE"
        assert rec.result["steps"] == 3
        assert rec.result["resumed_from"] == 1
