"""Krylov methods: correctness, flexibility, monitoring, tolerances."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers import cg, gmres, fgmres, gcr, bicgstab, JacobiPreconditioner

ALL = [cg, gmres, fgmres, gcr, bicgstab]
NONSYM = [gmres, fgmres, gcr, bicgstab]


def spd_system(n=120, seed=0):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    A = sp.csr_matrix(Q @ Q.T + n * np.eye(n))
    b = rng.standard_normal(n)
    return A, b, np.linalg.solve(A.toarray(), b)


def ill_conditioned_system(n=200, seed=2):
    """Nonsymmetric, condition ~1e3 in a random basis, so Jacobi scaling
    does not help: GMRES needs about a hundred iterations."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = (Q * np.geomspace(1.0, 1e3, n)) @ Q.T
    A = sp.csr_matrix(S + 0.1 * rng.standard_normal((n, n)))
    b = rng.standard_normal(n)
    return A, b, np.linalg.solve(A.toarray(), b)


def nonsym_system(n=120, seed=1):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    A = sp.csr_matrix(Q @ Q.T + n * np.eye(n) + 3 * rng.standard_normal((n, n)))
    b = rng.standard_normal(n)
    return A, b, np.linalg.solve(A.toarray(), b)


class TestSPD:
    @pytest.mark.parametrize("method", ALL)
    def test_solves(self, method):
        A, b, xref = spd_system()
        res = method(lambda v: A @ v, b, rtol=1e-10, maxiter=600)
        assert res.converged
        assert np.linalg.norm(res.x - xref) < 1e-6 * np.linalg.norm(xref)

    @pytest.mark.parametrize("method", ALL)
    def test_final_residual_is_true_residual(self, method):
        A, b, _ = spd_system()
        res = method(lambda v: A @ v, b, rtol=1e-8, maxiter=600)
        true = np.linalg.norm(b - A @ res.x)
        assert true <= 1.05 * max(res.final_residual, 1e-14) + 1e-10

    @pytest.mark.parametrize("method", ALL)
    def test_zero_rhs(self, method):
        A, b, _ = spd_system()
        res = method(lambda v: A @ v, np.zeros_like(b))
        assert res.converged and res.iterations == 0
        assert np.allclose(res.x, 0)

    @pytest.mark.parametrize("method", ALL)
    def test_initial_guess_exact(self, method):
        A, b, xref = spd_system()
        res = method(lambda v: A @ v, b, x0=xref, rtol=1e-6)
        assert res.converged and res.iterations == 0


class TestNonsymmetric:
    @pytest.mark.parametrize("method", NONSYM)
    def test_solves(self, method):
        A, b, xref = nonsym_system()
        res = method(lambda v: A @ v, b, rtol=1e-10, maxiter=2000)
        assert np.linalg.norm(res.x - xref) < 1e-5 * np.linalg.norm(xref)


class TestPreconditioning:
    def test_jacobi_reduces_iterations(self):
        rng = np.random.default_rng(3)
        d = np.concatenate([np.ones(60), 1e4 * np.ones(60)])
        A = sp.diags(d) + sp.csr_matrix(0.1 * np.eye(120, k=1) + 0.1 * np.eye(120, k=-1))
        A = sp.csr_matrix(A)
        b = rng.standard_normal(120)
        plain = cg(lambda v: A @ v, b, rtol=1e-10, maxiter=500)
        pc = cg(lambda v: A @ v, b, M=JacobiPreconditioner(A.diagonal()),
                rtol=1e-10, maxiter=500)
        assert pc.iterations < plain.iterations

    def test_flexible_methods_tolerate_nonlinear_preconditioner(self):
        """GCR/FGMRES converge with a preconditioner that changes every
        apply (an inner Krylov iteration), which plain GMRES theory does
        not cover -- the SS III-A requirement."""
        A, b, xref = spd_system(seed=5)
        state = {"k": 0}

        def sloppy_inner(r):
            state["k"] += 1
            # run a different number of Jacobi sweeps each call
            x = np.zeros_like(r)
            d = A.diagonal()
            for _ in range(1 + state["k"] % 3):
                x = x + (r - A @ x) / d
            return x

        for method in (gcr, fgmres):
            res = method(lambda v: A @ v, b, M=sloppy_inner, rtol=1e-9,
                         maxiter=500)
            assert res.converged
            assert np.linalg.norm(res.x - xref) < 1e-5 * np.linalg.norm(xref)


class TestMonitorsAndHistories:
    def test_gcr_monitor_receives_true_residual(self):
        A, b, _ = spd_system()
        seen = []

        def monitor(k, r, rnorm):
            if r is not None:
                seen.append((k, np.linalg.norm(r) - rnorm))

        gcr(lambda v: A @ v, b, rtol=1e-8, monitor=monitor)
        assert len(seen) > 1
        assert max(abs(d) for _, d in seen) < 1e-10

    def test_cg_monitor_receives_true_residual(self):
        """CG's recurrence residual must be handed to the monitor and agree
        with the reported norm -- the per-field split in
        :class:`repro.diagnostics.monitors.FieldSplitMonitor` depends on it."""
        A, b, _ = spd_system()
        seen = []

        def monitor(k, r, rnorm):
            assert r is not None
            seen.append(abs(np.linalg.norm(r) - rnorm))

        cg(lambda v: A @ v, b, rtol=1e-8, monitor=monitor)
        assert len(seen) > 1
        assert max(seen) < 1e-10

    @pytest.mark.parametrize("method", [gmres, fgmres])
    def test_gmres_family_monitor_gets_true_residual(self, method):
        """The vector rebuilt from the basis and the rotations is
        ``b - A x_j`` of the iterate the solve would return after ``j``
        iterations, in every basis block (restart > GMRES_BLOCK)."""
        from repro.solvers.krylov import GMRES_BLOCK

        A, b, _ = ill_conditioned_system()
        matvec = lambda v: A @ v  # noqa: E731
        M = JacobiPreconditioner(A.diagonal())
        its, restart = 3 * GMRES_BLOCK + 2, 2 * GMRES_BLOCK + 3
        seen = {}

        def monitor(k, r, rnorm):
            seen[k] = (r.copy(), rnorm)

        method(matvec, b, M=M, rtol=1e-30, maxiter=its, restart=restart,
               monitor=monitor)
        assert sorted(seen) == list(range(its + 1))
        bnorm = np.linalg.norm(b)
        for j, (r, rnorm) in seen.items():
            x_j = method(matvec, b, M=M, rtol=1e-30, maxiter=j,
                         restart=restart).x
            assert np.linalg.norm(r - (b - A @ x_j)) <= 1e-10 * bnorm
            assert np.linalg.norm(r) == pytest.approx(rnorm, rel=1e-8)

    def test_residual_history_monotone_gcr(self):
        A, b, _ = spd_system()
        res = gcr(lambda v: A @ v, b, rtol=1e-10, maxiter=600)
        diffs = np.diff(res.residuals)
        assert np.all(diffs <= 1e-9)

    def test_histories_start_with_initial_residual(self):
        A, b, _ = spd_system()
        for method in ALL:
            res = method(lambda v: A @ v, b, rtol=1e-6)
            assert res.residuals[0] == pytest.approx(np.linalg.norm(b))


class TestRestarts:
    @pytest.mark.parametrize("method", [gmres, fgmres, gcr])
    def test_small_restart_still_converges(self, method):
        A, b, xref = spd_system()
        res = method(lambda v: A @ v, b, rtol=1e-8, restart=5, maxiter=2000)
        assert res.converged
        assert np.linalg.norm(res.x - xref) < 1e-4 * np.linalg.norm(xref)


class TestBudget:
    @pytest.mark.parametrize("method", ALL)
    def test_maxiter_respected(self, method):
        A, b, _ = spd_system()
        res = method(lambda v: A @ v, b, rtol=1e-30, atol=0.0, maxiter=3)
        assert res.iterations <= 3
        assert not res.converged

    def test_atol_semantics(self):
        A, b, _ = spd_system()
        res = cg(lambda v: A @ v, b, rtol=0.0, atol=1e-4, maxiter=500)
        assert res.final_residual <= 1e-4


class TestEdgeCases:
    """Regression tests for the solver edge-case fixes: happy breakdown,
    dependent/singular-preconditioner columns, BiCGstab's early-exit
    instrumentation, and the non-flexible GMRES memory path."""

    @pytest.mark.parametrize("method", [gmres, fgmres])
    def test_identity_happy_breakdown(self, method):
        """A = I converges in exactly one iteration via the breakdown path
        (``H[1,0] == 0``); the passthrough operator also aliases the Krylov
        basis, which the orthogonalization must not corrupt."""
        rng = np.random.default_rng(5)
        b = rng.standard_normal(50)
        res = method(lambda v: v, b, rtol=1e-12, maxiter=30)
        assert res.converged
        assert res.iterations == 1
        # normalize/denormalize round trip costs at most a couple of ulp
        assert np.allclose(res.x, b, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("method", [gmres, fgmres])
    def test_breakdown_mid_cycle(self, method):
        """An exactly representable solution reached mid-restart must
        return immediately instead of padding the Hessenberg with zeros."""
        A = sp.diags([1.0, 2.0, 3.0, 4.0, 5.0]).tocsr()
        b = np.array([1.0, 0.0, 0.0, 0.0, 2.0])
        res = method(lambda v: A @ v, b, rtol=1e-13, restart=40, maxiter=40)
        assert res.converged
        assert res.iterations <= 2  # Krylov space has dimension 2
        assert np.allclose(A @ res.x, b, atol=1e-12)

    @pytest.mark.parametrize("method", [gmres, fgmres])
    def test_zero_operator_no_crash(self, method):
        """A = 0 makes every Arnoldi column dependent; pre-fix this raised
        ``LinAlgError: Singular matrix`` out of the triangular solve."""
        b = np.ones(10)
        res = method(lambda v: np.zeros_like(v), b, rtol=1e-8, maxiter=25)
        assert not res.converged
        assert np.all(np.isfinite(res.x))

    def test_singular_preconditioner_no_crash(self):
        """A rank-deficient M produces a dependent column (``denom == 0``);
        the column must be discarded, not solved through."""
        A, b, _ = spd_system(40)
        P = np.zeros(40)
        P[:3] = 1.0  # rank-3 projector
        res = fgmres(lambda v: A @ v, b, M=lambda v: P * v, rtol=1e-10,
                     maxiter=50)
        assert np.all(np.isfinite(res.x))

    def test_bicgstab_early_exit_instrumented(self):
        """The ``norm(s) <= tol`` half-step exit must still report the
        iteration to monitors and leave a complete residual history."""
        # identity system converges on the half step of iteration 0
        b = np.full(12, 3.0)
        calls = []
        res = bicgstab(lambda v: v, b, rtol=1e-10,
                       monitor=lambda k, r, rn: calls.append((k, rn)))
        assert res.converged
        # monitor sees every history entry, initial residual included
        assert len(calls) == len(res.residuals)
        assert calls[0][0] == 0
        # pre-fix: the early exit skipped the final monitor/trace emission
        assert calls[-1][0] == res.iterations
        assert calls[-1][1] == res.final_residual

    def test_bicgstab_early_exit_traced(self):
        """Same path with ``repro.obs`` on: the ksp trace must include the
        converged half-step iterate, not stop one entry short."""
        from repro import obs
        from repro.obs.registry import REGISTRY

        b = np.full(12, 3.0)
        obs.reset()
        obs.enable()
        try:
            res = bicgstab(lambda v: v, b, rtol=1e-10)
            trace = [t for t in REGISTRY.traces["ksp"]
                     if t["solver"] == "bicgstab"]
        finally:
            obs.disable()
            obs.reset()
        assert res.converged
        assert len(trace) == len(res.residuals)
        assert trace[-1]["iteration"] == res.iterations
        assert trace[-1]["rnorm"] == res.final_residual

    def test_gmres_skips_z_storage(self):
        """``gmres`` (fixed preconditioner) must not allocate the flexible
        ``Z`` basis -- that is the point of the non-flexible path."""
        import tracemalloc

        from repro.solvers.krylov import GCR_BLOCK

        n, restart = 30_000, 40
        rng = np.random.default_rng(11)
        d = 1.0 + rng.random(n)
        b = rng.standard_normal(n)
        A = lambda v: d * v
        M = lambda v: v / d

        def peak(method):
            tracemalloc.start()
            method(A, b, M=M, rtol=1e-30, atol=0.0, restart=restart,
                   maxiter=restart)
            _, pk = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return pk

        peak_g = peak(gmres)
        peak_f = peak(fgmres)
        # the flexible path stores an extra (restart, n) float64 block
        assert peak_f - peak_g > 0.5 * restart * n * 8

    @pytest.mark.parametrize("method", [gmres, fgmres])
    def test_fixed_preconditioner_paths_agree(self, method):
        """Sanity: both delegation paths solve the same preconditioned
        system to the same tolerance."""
        A, b, xref = nonsym_system()
        M = JacobiPreconditioner(A.diagonal())
        res = method(lambda v: A @ v, b, M=M, rtol=1e-10, maxiter=600)
        assert res.converged
        assert np.linalg.norm(res.x - xref) < 1e-6 * np.linalg.norm(xref)


def gcr_reference(A, b, M, rtol, maxiter, restart):
    """The list-based GCR loop ``gcr`` ran before it kept its directions
    in owned contiguous rows updated in place: a fresh vector per
    Gram-Schmidt step.  Returns ``(x, residual history)``."""
    x = np.zeros_like(b)
    r = b - A(x)
    residuals = [float(np.linalg.norm(r))]
    tol = rtol * float(np.linalg.norm(b))
    ps, qs = [], []
    while len(residuals) <= maxiter and residuals[-1] > tol:
        p = M(r)
        q = A(p)
        for pj, qj in zip(ps, qs):
            beta = q @ qj
            q = q - beta * qj
            p = p - beta * pj
        qnorm = float(np.linalg.norm(q))
        q = q / qnorm
        p = p / qnorm
        alpha = r @ q
        x = x + alpha * p
        r = r - alpha * q
        ps.append(p)
        qs.append(q)
        if len(ps) >= restart:
            ps.clear()
            qs.clear()
        residuals.append(float(np.linalg.norm(r)))
    return x, residuals


class TestGMRESBasis:
    """FGMRES's classical Gram-Schmidt over its block-grown basis against
    GCR, and the basis memory."""

    def test_fgmres_iterates_equal_gcr_across_restart(self):
        """Both minimize the residual over the same space: the iterates
        agree at every step, inside and after a restart cycle."""
        A, b, _ = ill_conditioned_system()
        matvec = lambda v: A @ v  # noqa: E731
        M = JacobiPreconditioner(A.diagonal())
        restart = 20
        for j in (1, 7, 19, 20, 21, 33, 40, 47):
            x_f = fgmres(matvec, b, M=M, rtol=1e-30, maxiter=j,
                         restart=restart).x
            x_g = gcr(matvec, b, M=M, rtol=1e-30, maxiter=j,
                      restart=restart).x
            assert np.linalg.norm(x_f - x_g) <= 1e-10 * np.linalg.norm(x_g)

    @pytest.mark.parametrize("method", [gmres, fgmres])
    def test_guard_best_is_the_true_residual_after_a_restart(
            self, method, monkeypatch):
        """At every restart the stagnation guard's best residual is the
        true residual of the iterate the new cycle starts from, and the
        result carries the true residual of the iterate it returns."""
        from repro.solvers import krylov

        bests = []

        class Recording(krylov.ResidualGuard):
            def restart(self, rnorm):
                super().restart(rnorm)
                bests.append(self.best)

        monkeypatch.setattr(krylov, "ResidualGuard", Recording)
        A, b, _ = ill_conditioned_system()
        matvec = lambda v: A @ v  # noqa: E731
        res = method(matvec, b, rtol=1e-30, maxiter=20, restart=5)
        assert len(bests) == 3
        for k, best in enumerate(list(bests), start=1):
            x_k = method(matvec, b, rtol=1e-30, maxiter=5 * k, restart=5).x
            assert best == np.linalg.norm(b - A @ x_k)
        assert res.true_residual == np.linalg.norm(b - A @ res.x)

    def test_basis_allocated_only_as_iterations_run(self):
        """A 3-iteration solve with restart=100 holds one block each of V
        and Z, not 101 + 100 rows."""
        import tracemalloc

        from repro.solvers.krylov import GMRES_BLOCK

        n = 100_000
        d = np.linspace(1.0, 2.0, n)
        b = np.ones(n)
        tracemalloc.start()
        try:
            res = fgmres(lambda v: d * v, b, rtol=1e-30, maxiter=3,
                         restart=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.iterations == 3
        # one block each of V and Z rows + x, r, w and temporaries
        assert peak < (2 * GMRES_BLOCK + 8) * n * 8


class TestGCRInPlace:
    """``gcr`` against the loop it replaced, plus the aliasing, breakdown
    and memory properties of the in-place direction storage."""

    def test_matches_reference_on_sinker(self):
        from repro.mg import build_gmg
        from repro.mg.coefficients import coefficient_hierarchy
        from repro.sim.sinker import SinkerConfig, sinker_stokes_problem
        from repro.stokes import StokesOperator
        from repro.stokes.fieldsplit import FieldSplitPreconditioner

        pb = sinker_stokes_problem(SinkerConfig(
            shape=(8, 8, 8), n_spheres=2, radius=0.15, delta_eta=100.0))
        op = StokesOperator(pb)
        meshes = pb.mesh.hierarchy(3)[::-1]
        etas = coefficient_hierarchy(meshes, pb.eta_q, pb.quad)
        mg, _ = build_gmg(meshes, etas, pb.bc_builder, fine_op=op.A_op)
        pc = FieldSplitPreconditioner(op, mg)
        b = op.rhs()
        res = gcr(op.apply, b, M=pc, rtol=1e-5, maxiter=200, restart=100)
        x_ref, hist_ref = gcr_reference(op.apply, b, pc, 1e-5, 200, 100)
        assert res.converged
        assert res.iterations == len(hist_ref) - 1
        # q's sweep is the reference's arithmetic; p's combination is summed
        # by one matrix-vector product, so the two differ in rounding.  On
        # this system a 1-ulp change of b moves the reference's own x by
        # 1.1e-10 relative (measured), which bounds what any reordering of
        # the arithmetic can promise; the well-conditioned cases below hold
        # 1e-12.
        assert np.linalg.norm(res.x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
        assert np.allclose(res.residuals, hist_ref, rtol=1e-9, atol=0)

    def test_restart_boundary_matches_reference(self):
        A, b, _ = spd_system(60)
        matvec = lambda v: A @ v  # noqa: E731
        M = JacobiPreconditioner(A.diagonal())
        res = gcr(matvec, b, M=M, rtol=1e-10, maxiter=500, restart=3)
        x_ref, hist_ref = gcr_reference(matvec, b, M, 1e-10, 500, 3)
        assert res.converged and res.iterations > 6  # several restarts
        assert res.iterations == len(hist_ref) - 1
        assert np.linalg.norm(res.x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_zero_direction_breakdown_preserved(self):
        """A M r = 0 cannot be normalized: DIVERGED_BREAKDOWN, the iterate
        of the accepted directions returned untouched."""
        from repro.resilience.reasons import ConvergedReason

        b = np.ones(10)
        res = gcr(lambda v: np.zeros_like(v), b, rtol=1e-8, maxiter=25)
        assert not res.converged
        assert res.reason == ConvergedReason.DIVERGED_BREAKDOWN
        assert res.iterations == 0 and np.array_equal(res.x, np.zeros(10))

    def test_identity_preconditioner_and_operator_alias_nothing(self):
        """``M=None`` hands ``r`` itself to the direction storage and the
        passthrough operator returns its argument; neither may leak an
        in-place update into the residual the monitor (and the next
        iteration) sees."""
        rng = np.random.default_rng(5)
        b = rng.standard_normal(50)
        res = gcr(lambda v: v, b, rtol=1e-12, maxiter=30)
        assert res.converged and res.iterations == 1
        assert np.allclose(res.x, b, rtol=1e-14, atol=0)

        A, b, _ = spd_system(80)
        matvec = lambda v: A @ v  # noqa: E731
        res = gcr(matvec, b, rtol=1e-10, maxiter=200)
        x_ref, hist_ref = gcr_reference(matvec, b, np.copy, 1e-10, 200, 30)
        assert res.converged and res.iterations == len(hist_ref) - 1
        assert np.linalg.norm(res.x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        # a corrupted r would let the recurrence drift off the true residual
        assert abs(np.linalg.norm(b - A @ res.x) - res.residuals[-1]) < (
            1e-10 * np.linalg.norm(b))

    def test_directions_allocated_only_as_iterations_run(self):
        """A 3-iteration solve with restart=100 holds the first block of
        direction pairs, not 100: a (restart, n) preallocation would show
        as 2 * 100 vectors in the traced peak."""
        import tracemalloc

        from repro.solvers.krylov import GCR_BLOCK

        n = 100_000
        d = np.linspace(1.0, 2.0, n)
        b = np.ones(n)
        tracemalloc.start()
        try:
            res = gcr(lambda v: d * v, b, rtol=1e-30, maxiter=3, restart=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.iterations == 3
        # one block each of p and q rows + x, r, b-sized temporaries
        assert peak < (2 * GCR_BLOCK + 8) * n * 8
