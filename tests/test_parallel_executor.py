"""Shared-memory parallel element-kernel engine: determinism, backends,
crash handling, and the wiring through operators, assembly, and multigrid."""

import os

import numpy as np
import pytest

from repro import obs
from repro.fem import StructuredMesh, GaussQuadrature, assembly
from repro.matfree import make_operator
from repro.parallel import (
    ExchangeStats,
    ParallelCSRMatVec,
    ParallelExecutor,
    WorkerCrash,
    make_executor,
    measured_exchange,
    partition_elements,
    partition_range,
    resolve_backend,
    resolve_workers,
)
from repro.parallel.halo import halo_exchange_plan
from repro.parallel.decomposition import BlockDecomposition

QUAD = GaussQuadrature.hex(3)
KINDS = ["asmb", "mf", "tensor", "tensor_c", "tensor_compiled"]
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

    def test_resolve_backend_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_BACKEND", raising=False)
        assert resolve_backend(None) == "auto"
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        assert resolve_backend(None) == "process"
        with pytest.raises(ValueError):
            resolve_backend("mpi")

    def test_make_executor(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert make_executor(None, None) is None
        assert make_executor(1, "thread") is None
        ex = make_executor(2, "thread")
        assert isinstance(ex, ParallelExecutor) and ex.workers == 2
        assert make_executor(4, None, executor=ex) is ex
        ex.shutdown()

    def test_env_workers_activate_operator(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "thread")
        mesh, eta, u = small_setup()
        op = make_operator("tensor", mesh, eta, quad=QUAD)
        assert op.executor is not None and op.executor.workers == 2
        assert np.array_equal(op.apply(u), op.apply_serial(u))
        op.executor.shutdown()


class TestBitIdenticalOperators:
    """ISSUE acceptance: parallel == serial to machine precision, i.e.
    ``rtol=0`` -- the element partials are dot-reduction-free and reduced
    in task order, so equality is exact, not approximate."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_apply_matches_serial_exactly(self, kind, backend):
        mesh, eta, u = small_setup()
        op = make_operator(
            kind, mesh, eta, quad=QUAD, workers=3, parallel_backend=backend
        )
        y_par = op.apply(u)
        y_ser = op.apply_serial(u)
        assert np.array_equal(y_par, y_ser)  # rtol=0: bitwise
        op.executor.shutdown()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_assembled_matvec_matches_plain_spmv(self, backend):
        mesh, eta, u = small_setup()
        op = make_operator(
            "asmb", mesh, eta, quad=QUAD, workers=3, parallel_backend=backend
        )
        assert np.array_equal(op.apply(u), op.matrix @ u)
        op.executor.shutdown()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_assembly_identical(self, backend):
        mesh, eta, _ = small_setup()
        ex = ParallelExecutor(workers=3, backend=backend)
        A_ser = assembly.assemble_viscous(mesh, eta, QUAD)
        A_par = assembly.assemble_viscous(mesh, eta, QUAD, executor=ex)
        assert np.array_equal(A_ser.indptr, A_par.indptr)
        assert np.array_equal(A_ser.indices, A_par.indices)
        assert np.array_equal(A_ser.data, A_par.data)
        ex.shutdown()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_diagonal_close_to_serial(self, backend):
        # the diagonal scatter-adds span partials, so parallel-vs-plain
        # differs only by summation association (<= a few ulp)
        mesh, eta, _ = small_setup()
        ex = ParallelExecutor(workers=3, backend=backend)
        d_ser = assembly.viscous_diagonal(mesh, eta, QUAD)
        d_par = assembly.viscous_diagonal(mesh, eta, QUAD, executor=ex)
        assert np.allclose(d_ser, d_par, rtol=1e-14, atol=0)
        ex.shutdown()

    def test_diagonal_partials_bitwise_across_backends(self):
        """Span partials are the same floats wherever they are computed:
        inline over the executor's spans, on threads, or in forked
        workers (the mesh is large enough to cross an element chunk)."""
        mesh, eta, _ = small_setup(shape=(9, 8, 8))
        kernel = assembly._DiagonalKernel(mesh, eta, QUAD)
        spans = partition_elements(mesh, 2)
        inline = ParallelExecutor.run_serial(
            kernel, "partial", spans, np.empty(0), mode="sum"
        )
        for backend in BACKENDS:
            ex = ParallelExecutor(workers=2, backend=backend)
            d_par = assembly.viscous_diagonal(mesh, eta, QUAD, executor=ex)
            ex.shutdown()
            assert np.array_equal(d_par, inline), backend

    def test_csr_matvec_bit_identical(self, rng):
        import scipy.sparse as sp

        A = sp.random(300, 300, density=0.05, random_state=123, format="csr")
        u = rng.standard_normal(300)
        ex = ParallelExecutor(workers=4, backend="thread")
        mv = ParallelCSRMatVec(A, ex)
        assert np.array_equal(mv(u), A @ u)
        ex.shutdown()


class TestStateVersioning:
    @pytest.mark.parametrize("kind", ["tensor", "tensor_c", "asmb"])
    def test_mesh_deform_keeps_process_backend_exact(self, kind):
        mesh, eta, u = small_setup()
        op = make_operator(
            kind, mesh, eta, quad=QUAD, workers=2, parallel_backend="process"
        )
        op.apply(u)  # spawn the pool on the original geometry
        if kind == "asmb":
            # the assembled matrix is geometry-frozen; just re-apply
            assert np.array_equal(op.apply(u), op.apply_serial(u))
        else:
            mesh.deform(lambda c: c + 0.02 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
            y_par = op.apply(u)
            assert np.array_equal(y_par, op.apply_serial(u))
            assert op.executor.stats.respawns >= 1
        op.executor.shutdown()

    @pytest.mark.parametrize("kind", ["tensor", "tensor_c", "tensor_compiled"])
    def test_eta_mutation_keeps_process_backend_exact(self, kind):
        """Headline regression: in-place viscosity re-linearization must
        rebuild cached coefficients AND re-snapshot process workers.

        Before the ``(coords_version, eta_version)`` state contract this
        silently applied a stale operator: for the coefficient-caching
        kinds the cached ``_C`` kept the old viscosity everywhere, and for
        every kind the forked workers kept the old ``eta_q`` snapshot --
        so the parallel result diverged from serial (``tensor``) or both
        matched the *wrong* operator (``tensor_c``)."""
        mesh, eta, u = small_setup()
        op = make_operator(
            kind, mesh, eta.copy(), quad=QUAD, workers=2,
            parallel_backend="process",
        )
        op.apply(u)  # fork snapshot carries the original viscosity
        op.eta_q *= 1.7  # in-place re-linearization: no new array object
        y_par = op.apply(u)
        y_ser = op.apply_serial(u)
        assert np.array_equal(y_par, y_ser)  # rtol=0: bitwise
        # and both must reflect the NEW viscosity, not the cached one
        # (same workers so the span-partial reduction order matches bitwise)
        ref_op = make_operator(
            kind, mesh, eta * 1.7, quad=QUAD, workers=2,
            parallel_backend="process",
        )
        assert np.array_equal(y_ser, ref_op.apply_serial(u))
        ref_op.executor.shutdown()
        assert op.executor.stats.respawns >= 1
        op.executor.shutdown()

    def test_set_viscosity_respawns_process_pool(self):
        mesh, eta, u = small_setup()
        op = make_operator(
            "tensor_c", mesh, eta, quad=QUAD, workers=2,
            parallel_backend="process",
        )
        op.apply(u)
        op.set_viscosity(eta * 0.25)
        assert np.array_equal(op.apply(u), op.apply_serial(u))
        assert op.executor.stats.respawns >= 1
        op.executor.shutdown()


class _CrashKernel:
    """Kernel whose spans beyond the first kill the worker process."""

    _parallel_state_version = 0

    def partial(self, u, s, e):
        if s > 0:
            os._exit(13)
        return np.zeros(4)


class _RaisingKernel:
    _parallel_state_version = 0

    def partial(self, u, s, e):
        raise ValueError("bad coefficient block")


class TestFailureModes:
    def test_worker_crash_raises_workercrash(self):
        ex = ParallelExecutor(workers=2, backend="process")
        spans = [(0, 2), (2, 4)]
        with pytest.raises(WorkerCrash):
            ex.dispatch(_CrashKernel(), "partial", spans, np.zeros(4), out_len=4)
        # the engine recovers: next dispatch respawns and succeeds
        mesh, eta, u = small_setup()
        op = make_operator(
            "tensor", mesh, eta, quad=QUAD, workers=2,
            parallel_backend="process", executor=ex,
        )
        assert np.array_equal(op.apply(u), op.apply_serial(u))
        ex.shutdown()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kernel_exception_propagates_as_itself(self, backend):
        ex = ParallelExecutor(workers=2, backend=backend)
        with pytest.raises(ValueError, match="bad coefficient block"):
            ex.dispatch(
                _RaisingKernel(), "partial", [(0, 2), (2, 4)], np.zeros(4),
                out_len=4,
            )
        ex.shutdown()

    def test_dispatch_argument_validation(self):
        ex = ParallelExecutor(workers=2, backend="thread")
        with pytest.raises(ValueError, match="out_len"):
            ex.dispatch(_RaisingKernel(), "partial", [(0, 1)], np.zeros(2))
        with pytest.raises(ValueError, match="sizes"):
            ex.dispatch(
                _RaisingKernel(), "partial", [(0, 1), (1, 2)], np.zeros(2),
                mode="concat",
            )
        with pytest.raises(ValueError, match="mode"):
            ex.dispatch(
                _RaisingKernel(), "partial", [(0, 1)], np.zeros(2),
                out_len=2, mode="gather",
            )
        ex.shutdown()


class TestStatsAndObservability:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_accumulate(self, backend):
        mesh, eta, u = small_setup()
        op = make_operator(
            "tensor", mesh, eta, quad=QUAD, workers=3, parallel_backend=backend
        )
        for _ in range(3):
            op.apply(u)
        st = op.executor.stats
        assert st.dispatches == 3
        assert st.tasks == 3 * len(op._spans)
        assert st.bytes_in == 3 * u.nbytes
        assert st.bytes_out == 3 * len(op._spans) * 8 * op.ndof
        assert st.worker_busy_seconds > 0.0
        assert st.queue_wait_seconds >= 0.0
        assert st.reduce_seconds >= 0.0
        d = st.as_dict()
        assert d["dispatches"] == 3 and d["tasks"] == st.tasks
        op.executor.shutdown()

    def test_obs_events_emitted(self):
        obs.enable()
        mesh, eta, u = small_setup()
        op = make_operator(
            "tensor", mesh, eta, quad=QUAD, workers=2, parallel_backend="thread"
        )
        op.apply(u)
        names = {name for (_, name) in obs.registry.REGISTRY.events}
        assert "ParExecDispatch" in names
        assert "ParExecQueueWait" in names
        assert "ParExecWorkerBusy" in names
        assert "ParExecReduce" in names
        op.executor.shutdown()

    def test_measured_halo_exchange(self):
        mesh, eta, u = small_setup()
        op = make_operator(
            "tensor", mesh, eta, quad=QUAD, workers=2, parallel_backend="thread"
        )
        decomp = BlockDecomposition(mesh, (1, 1, 2))
        before = halo_exchange_plan(decomp, executor=op.executor)
        assert not before.measured  # no dispatch yet: analytic model
        op.apply(u)
        after = halo_exchange_plan(decomp, executor=op.executor)
        assert after.measured
        assert after.bytes_total == u.nbytes + 2 * 8 * op.ndof
        assert after.messages == 3  # one broadcast in, one partial per task
        # tuple compatibility with the historic return value
        msgs, total, per_rank = after
        assert (msgs, total) == (after.messages, after.bytes_total)
        assert measured_exchange(None) is None
        op.executor.shutdown()


class TestMultigridWiring:
    def test_gmg_parallel_stats_and_exactness(self):
        from repro.mg.coefficients import coefficient_hierarchy
        from repro.mg.gmg import GMGConfig, build_gmg
        from tests.conftest import free_slip_bc

        rng = np.random.default_rng(3)
        mesh = StructuredMesh((4, 4, 4), order=2)
        eta = np.exp(rng.normal(scale=0.5, size=(mesh.nel, QUAD.npoints)))
        meshes = mesh.hierarchy(2)[::-1]
        etas = coefficient_hierarchy(meshes, eta, QUAD)
        # workers=1 pins the serial reference even under $REPRO_WORKERS
        mg_s, _ = build_gmg(meshes, etas, free_slip_bc,
                            GMGConfig(levels=2, coarse_solver="lu", workers=1))
        mg_p, _ = build_gmg(meshes, etas, free_slip_bc,
                            GMGConfig(levels=2, coarse_solver="lu",
                                      workers=2, parallel_backend="thread"))
        assert mg_s.parallel_stats() is None
        b = rng.standard_normal(3 * mesh.nnodes)
        b[free_slip_bc(mesh).mask] = 0.0
        x_s = mg_s(b)
        x_p = mg_p(b)
        # levels share one pool; dispatches cover smoother + residual applies
        stats = mg_p.parallel_stats()
        assert stats is not None
        assert stats["executors"] == 1 and stats["workers"] == 2
        assert stats["dispatches"] > 0
        # same cycle, same operators: agreement to rounding (the Chebyshev
        # diagonal is assembled with a different chunking than the serial run)
        assert np.allclose(x_s, x_p, rtol=1e-12, atol=1e-14)
        for lvl in mg_p.levels:
            if lvl.executor is not None:
                lvl.executor.shutdown()
                break
