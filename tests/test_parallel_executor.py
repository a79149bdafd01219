"""Parallel dispatch: the owner-writes contract on threads and rank
processes, state versioning, failure modes, the engine an operator binds
(one thread pool per process, none alive across a fork), and the wiring
through operators, assembly, and multigrid."""

import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.fem import StructuredMesh, GaussQuadrature, assembly
from repro.matfree import _ckernel, make_operator
from repro.parallel import (
    ParallelCSRMatVec,
    ParallelExecutor,
    ProcessComm,
    current_engine,
    executor,
    partition_elements,
    partition_range,
    resolve_workers,
    thread_pool,
    use_executor,
)
from repro.parallel.decomposition import BlockDecomposition
from repro.parallel.procomm import CommError
from tests.conftest import dispatch_engine

QUAD = GaussQuadrature.hex(3)
KINDS = ["asmb", "mf", "tensor", "tensor_c", "tensor_compiled"]
#: ``process`` is the rank-process engine (ProcommEngine)
BACKENDS = ["thread", "process"]


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def small_setup(shape=(3, 3, 4), seed=7):
    rng = np.random.default_rng(seed)
    mesh = StructuredMesh(shape, order=2, extent=(1.0, 0.8, 1.2))
    eta = np.exp(rng.normal(scale=0.5, size=(mesh.nel, QUAD.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    return mesh, eta, u


def serial_apply(kind, mesh, eta, u):
    with use_executor(None):
        return make_operator(kind, mesh, eta, quad=QUAD).apply(u)


def exec_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-exec")]


class TestPartitioning:
    def test_partition_range_covers_and_is_contiguous(self):
        for n in (0, 1, 7, 100):
            for p in (1, 3, 8, 200):
                spans = partition_range(n, p)
                assert spans[0][0] == 0 and spans[-1][1] == n
                for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
                    assert e0 == s1

    def test_partition_elements_matches_block_decomposition(self):
        mesh = StructuredMesh((3, 4, 8), order=2)
        spans = partition_elements(mesh, 4)
        decomp = BlockDecomposition(mesh, (1, 1, 4))
        layer = mesh.shape[0] * mesh.shape[1]
        for k, (s, e) in enumerate(spans):
            assert s == layer * decomp.bz[k]
            assert e == layer * decomp.bz[k + 1]
        assert spans[0][0] == 0 and spans[-1][1] == mesh.nel

    def test_partition_elements_more_parts_than_layers(self):
        mesh = StructuredMesh((4, 4, 2), order=2)
        spans = partition_elements(mesh, 5)
        assert spans[0][0] == 0 and spans[-1][1] == mesh.nel
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert e0 == s1


class TestResolution:
    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2  # explicit beats environment
        with pytest.raises(ValueError):
            resolve_workers(0)

    @pytest.mark.parametrize("raw", ["two", "1.5"])
    def test_bad_env_workers_name_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValueError, match=r"\$REPRO_WORKERS"):
            resolve_workers(None)

    def test_env_workers_activate_operator(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        mesh, eta, u = small_setup()
        op = make_operator("tensor_compiled", mesh, eta, quad=QUAD)
        assert op.engine is thread_pool(2) and op.engine.workers == 2
        assert np.array_equal(op.apply(u),
                              serial_apply("tensor_compiled", mesh, eta, u))

    def test_env_read_when_an_engine_is_needed(self, monkeypatch):
        # repro is imported long before this runs: a width set now (a
        # forked serve job's environment) is the one that counts
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert current_engine() is thread_pool(3)
        assert current_engine().workers == 3
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert current_engine() is None

    def test_innermost_scope_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pool = ParallelExecutor(3)
        with use_executor(pool):
            assert current_engine() is pool
            with use_executor(None):
                assert current_engine() is None
            # a solve's own width yields to the armed engine
            with executor.use_workers(2):
                assert current_engine() is pool
        with executor.use_workers(1):
            assert current_engine() is None
        assert current_engine() is thread_pool(2)


class TestOnePoolPerProcess:
    def test_coupled_run_builds_one_pool(self, monkeypatch):
        """Every Picard and Newton operator and every hierarchy of a
        coupled run binds the process's one pool for its width."""
        from repro.sim.rifting import RiftingConfig, make_rifting

        monkeypatch.setenv("REPRO_WORKERS", "2")
        # a fresh process as far as pools go
        monkeypatch.setattr(executor, "_POOLS", {}, raising=False)
        built = []
        init = ParallelExecutor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ParallelExecutor, "__init__", counting_init)
        earlier = set(exec_threads())
        sim = make_rifting(RiftingConfig(shape=(12, 6, 4), seed=0))
        for _ in range(2):
            sim.step()
        assert len(built) == 1
        assert len(set(exec_threads()) - earlier) <= 2

    def test_no_engine_thread_across_fork(self, monkeypatch):
        """Rank processes fork from a thread-free pool, and the pool comes
        back at the next dispatch with the serial floats."""
        mesh, eta, u = small_setup()
        with use_executor(thread_pool(2)):
            op = make_operator("asmb", mesh, eta, quad=QUAD)
        y_ser = serial_apply("asmb", mesh, eta, u)
        assert np.array_equal(op.apply(u), y_ser)
        assert exec_threads()
        at_fork = []
        fork = os.fork

        def watched_fork():
            pid = fork()
            if pid:  # the parent, right after the fork
                at_fork.append([t.name for t in exec_threads()])
            return pid

        monkeypatch.setattr(os, "fork", watched_fork)
        comm = ProcessComm(2)
        comm.close()
        assert at_fork == [[], []]
        assert np.array_equal(op.apply(u), y_ser)


class TestBitIdenticalOperators:
    """One answer for any worker count: a multi-worker result equals the
    ``workers=1`` one to ``rtol=0``, on threads and on rank processes.
    The NumPy reference kinds are serial on any engine."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_apply_matches_serial_exactly(self, kind, backend):
        mesh, eta, u = small_setup()
        with dispatch_engine(backend, 3) as ex:
            op = make_operator(kind, mesh, eta, quad=QUAD)
            y_par = op.apply(u)
        assert np.array_equal(y_par, serial_apply(kind, mesh, eta, u))

    @pytest.mark.parametrize("kind", ["asmb", "tensor_compiled"])
    def test_oversubscribed_threads_lose_no_update(self, kind):
        """Sixteen tasks on this host's cores, switching threads every
        microsecond, write one shared output: a lost or doubled update
        would break equality with the serial apply."""
        import sys

        mesh, eta, u = small_setup(shape=(3, 3, 16))
        y_ser = serial_apply(kind, mesh, eta, u)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with dispatch_engine("thread", 16) as ex:
                op = make_operator(kind, mesh, eta, quad=QUAD)
                for _ in range(20):
                    assert np.array_equal(op.apply(u), y_ser)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_assembled_matvec_matches_plain_spmv(self, backend):
        mesh, eta, u = small_setup()
        with dispatch_engine(backend, 3) as ex:
            op = make_operator("asmb", mesh, eta, quad=QUAD)
            assert np.array_equal(op.apply(u), op.matrix @ u)
            assert ex.stats.dispatches == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_assembly_identical(self, backend):
        mesh, eta, _ = small_setup()
        A_ser = assembly.assemble_viscous(mesh, eta, QUAD)
        with dispatch_engine(backend, 3) as ex:
            A_par = make_operator("asmb", mesh, eta, quad=QUAD).matrix
        assert np.array_equal(A_ser.indptr, A_par.indptr)
        assert np.array_equal(A_ser.indices, A_par.indices)
        assert np.array_equal(A_ser.data, A_par.data)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_diagonal_close_to_serial(self, backend):
        # the diagonal is one serial pass on any engine: equal, not close
        mesh, eta, _ = small_setup()
        d_ser = assembly.viscous_diagonal(mesh, eta, QUAD)
        with dispatch_engine(backend, 3) as ex:
            op = make_operator("tensor_compiled", mesh, eta, quad=QUAD)
            assert np.array_equal(op.diagonal(), d_ser)

    def test_diagonal_partials_bitwise_across_backends(self):
        """An operator's diagonal is the same floats on every engine, on a
        mesh large enough to cross an element chunk."""
        mesh, eta, _ = small_setup(shape=(9, 8, 8))
        d_ser = assembly.viscous_diagonal(mesh, eta, QUAD)
        for backend in BACKENDS:
            with dispatch_engine(backend, 2):
                d_par = make_operator("tensor_compiled", mesh, eta,
                                      quad=QUAD).diagonal()
            assert np.array_equal(d_par, d_ser), backend

    def test_csr_matvec_bit_identical(self, rng):
        import scipy.sparse as sp

        A = sp.random(300, 300, density=0.05, random_state=123, format="csr")
        u = rng.standard_normal(300)
        ex = ParallelExecutor(workers=4)
        mv = ParallelCSRMatVec(A, ex)
        assert np.array_equal(mv(u), A @ u)
        ex.shutdown()


class TestStateVersioning:
    """Rank processes hold the versions of the dispatched state they were
    sent; every geometry or viscosity change must reach them (and every
    cached coefficient) before the next apply, without a re-fork."""

    @pytest.mark.parametrize("kind", ["tensor", "tensor_c", "asmb"])
    def test_mesh_deform_keeps_process_backend_exact(self, kind):
        mesh, eta, u = small_setup()
        with dispatch_engine("process", 2) as ex:
            op = make_operator(kind, mesh, eta, quad=QUAD)
            op.apply(u)
            mesh.deform(
                lambda c: c + 0.02 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
            assert np.array_equal(op.apply(u),
                                  serial_apply(kind, mesh, eta, u))

    @pytest.mark.parametrize("kind", ["tensor", "tensor_c", "tensor_compiled"])
    def test_eta_mutation_keeps_process_backend_exact(self, kind):
        """Headline regression: a viscosity re-linearization must rebuild
        cached coefficients AND reach the rank processes.

        An in-place update once silently applied a stale operator (the
        cached ``_C`` kept the old viscosity, forked workers the old
        copy); now it raises, and ``set_viscosity`` bumps the version the
        ranks are sent the operator under -- the same ranks, no re-fork."""
        mesh, eta, u = small_setup()
        with dispatch_engine("process", 2) as ex:
            op = make_operator(kind, mesh, eta, quad=QUAD)
            op.apply(u)  # the ranks hold the original viscosity
            with pytest.raises(ValueError):
                op.eta_q *= 1.7
            op.set_viscosity(eta * 1.7)
            y_par = op.apply(u)
            assert ex.comm.stats.respawns == 0
        # the result reflects the NEW viscosity, bit for bit
        assert np.array_equal(y_par, serial_apply(kind, mesh, eta * 1.7, u))

    def test_set_viscosity_reaches_process_ranks(self):
        mesh, eta, u = small_setup()
        with dispatch_engine("process", 2) as ex:
            op = make_operator("tensor_compiled", mesh, eta, quad=QUAD)
            op.apply(u)
            op.set_viscosity(eta * 0.25)
            y = op.apply(u)
            assert ex.comm.stats.respawns == 0
        assert np.array_equal(
            y, serial_apply("tensor_compiled", mesh, eta * 0.25, u))


class _RaisingKernel:
    def partial(self, u, s, e, out, stash):
        raise ValueError("bad coefficient block")


class TestFailureModes:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kernel_exception_propagates_as_itself(self, backend):
        # threads re-raise the kernel's own exception; a rank process
        # reports it by type and message
        expected = ValueError if backend == "thread" else CommError
        with dispatch_engine(backend, 2) as ex:
            with pytest.raises(expected, match="bad coefficient block"):
                ex.dispatch(_RaisingKernel(), "partial", [(0, 2), (2, 4)],
                            np.zeros(4), 4)

    def test_dispatch_argument_validation(self):
        ex = ParallelExecutor(workers=2)
        with pytest.raises(ValueError, match="stash"):
            ex.dispatch(_RaisingKernel(), "partial", [(0, 1), (1, 2)],
                        np.zeros(2), 2, stashes=[np.zeros(0, dtype=int)])
        ex.shutdown()


class TestStatsAndObservability:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_accumulate(self, backend):
        mesh, eta, u = small_setup()
        with dispatch_engine(backend, 3) as ex:
            op = make_operator("asmb", mesh, eta, quad=QUAD)
            for _ in range(3):
                op.apply(u)
            st = ex.stats
            assert st.dispatches == 3
            assert st.tasks == 3 * 3
            assert st.bytes_in == 3 * u.nbytes
            # owner-writes: one output vector per dispatch, no stash
            assert st.bytes_out == 3 * 8 * op.ndof
            d = st.as_dict()
            assert d["dispatches"] == 3 and d["tasks"] == st.tasks
            # timings live in the ParExec* events, counts here
            assert not [k for k in d if k.endswith("_seconds")]

    def test_obs_events_emitted(self):
        obs.enable()
        mesh, eta, u = small_setup()
        with use_executor(thread_pool(2)):
            op = make_operator("asmb", mesh, eta, quad=QUAD)
        op.apply(u)
        events = obs.registry.REGISTRY.events
        names = {name for (_, name) in events}
        assert "ParExecDispatch" in names
        assert "ParExecQueueWait" in names
        assert "ParExecReduce" in names
        # one event per task of the one dispatch
        assert events[("", "ParExecTask:_apply_rows")].count == 2
        assert events[("", "ParExecQueueWait")].count == 2


class TestMultigridWiring:
    def test_gmg_shared_executor_exactness(self):
        from repro.mg.coefficients import coefficient_hierarchy
        from repro.mg.gmg import GMGConfig, build_gmg
        from tests.conftest import free_slip_bc

        rng = np.random.default_rng(3)
        mesh = StructuredMesh((4, 4, 4), order=2)
        eta = np.exp(rng.normal(scale=0.5, size=(mesh.nel, QUAD.npoints)))
        meshes = mesh.hierarchy(2)[::-1]
        etas = coefficient_hierarchy(meshes, eta, QUAD)
        # no engine pins the serial reference even under $REPRO_WORKERS
        with use_executor(None):
            mg_s, _ = build_gmg(meshes, etas, free_slip_bc,
                                GMGConfig(mg_levels=2, coarse_solver="lu"))
        b = rng.standard_normal(3 * mesh.nnodes)
        b[free_slip_bc(mesh).mask] = 0.0
        x_s = mg_s(b)
        with dispatch_engine("thread", 2) as ex:
            mg_p, _ = build_gmg(meshes, etas, free_slip_bc,
                                GMGConfig(mg_levels=2, coarse_solver="lu"))
            x_p = mg_p(b)
        # every level runs through the one engine; the compiled smoother
        # applies dispatch, the NumPy fallback runs serially
        assert (ex.stats.dispatches > 0) == _ckernel.available()
        assert np.array_equal(x_s, x_p)
