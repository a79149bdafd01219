"""Solver resilience layer: reasons, guards, fault injection, fallback,
rollback, and crash recovery (the adversarial suite of the robustness PR)."""

import glob
import json
import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.parallel import ProcessComm, ProcommEngine, RankFailure
from repro.parallel.executor import partition_range
from repro.resilience import (
    BreakdownError,
    ConvergedReason,
    FaultInjector,
    ResidualGuard,
    nonfinite,
)
from repro.sim import (
    SimulationConfig,
    load_checkpoint,
    make_rifting,
    make_sinker,
    save_checkpoint,
)
from repro.sim.checkpoint import restore_state, state_dict
from repro.sim.rifting import RiftingConfig
from repro.sim.sinker import SinkerConfig, sinker_stokes_problem
from repro.solvers import (
    ChebyshevSmoother,
    bicgstab,
    cg,
    fgmres,
    gcr,
    gmres,
    newton,
)
from repro.mg import gmg as gmg_module
from repro.solvers import krylov
from repro.stokes import StokesConfig, solve_stokes, solve_stokes_resilient
from repro.stokes.solve import EXIT_SLACK, FALLBACK_RUNGS
from repro.stokes.fieldsplit import FieldSplitPreconditioner
from repro.stokes.operators import StokesOperator
from repro import obs

ALL = [cg, gmres, fgmres, gcr, bicgstab]


def spd_system(n=80, seed=0):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    A = sp.csr_matrix(Q @ Q.T + n * np.eye(n))
    b = rng.standard_normal(n)
    return A, b


# --------------------------------------------------------------------- #
# reasons and guards
# --------------------------------------------------------------------- #
class TestReasons:
    def test_sign_convention(self):
        assert ConvergedReason.CONVERGED_RTOL.is_converged
        assert ConvergedReason.CONVERGED_ATOL.is_converged
        for r in (ConvergedReason.DIVERGED_ITS, ConvergedReason.DIVERGED_DTOL,
                  ConvergedReason.DIVERGED_NAN,
                  ConvergedReason.DIVERGED_BREAKDOWN,
                  ConvergedReason.DIVERGED_STAGNATION):
            assert r.is_diverged and not r.is_converged
        assert not ConvergedReason.CONVERGED_ITERATING.is_converged
        assert not ConvergedReason.CONVERGED_ITERATING.is_diverged

    def test_needs_recovery(self):
        # one policy for the fallback ladder and the time-step rollback
        assert {r for r in ConvergedReason if r.needs_recovery} == {
            ConvergedReason.DIVERGED_DTOL, ConvergedReason.DIVERGED_BREAKDOWN,
            ConvergedReason.DIVERGED_NAN, ConvergedReason.DIVERGED_STAGNATION}

    def test_nonfinite(self):
        assert nonfinite(float("nan"))
        assert nonfinite(float("inf"))
        assert nonfinite(float("-inf"))
        assert not nonfinite(0.0) and not nonfinite(-1e300)

    def test_breakdown_error_carries_reason(self):
        err = BreakdownError("x", reason=ConvergedReason.DIVERGED_NAN)
        assert err.reason == ConvergedReason.DIVERGED_NAN
        assert BreakdownError("y").reason == ConvergedReason.DIVERGED_BREAKDOWN


class TestResidualGuard:
    def test_nan_and_inf(self):
        g = ResidualGuard(1.0)
        assert g.check(float("nan")) == ConvergedReason.DIVERGED_NAN
        assert g.check(float("inf")) == ConvergedReason.DIVERGED_NAN

    def test_dtol(self):
        g = ResidualGuard(1.0, dtol=10.0)
        assert g.check(9.0) is None
        assert g.check(11.0) == ConvergedReason.DIVERGED_DTOL

    def test_dtol_disabled(self):
        g = ResidualGuard(1.0, dtol=0.0)
        assert g.check(1e300) is None

    def test_stagnation_window(self):
        g = ResidualGuard(1.0, dtol=0.0, stag_window=3)
        assert g.check(1.0) is None
        assert g.check(1.0) is None
        assert g.check(1.0) == ConvergedReason.DIVERGED_STAGNATION

    def test_improvement_resets_window(self):
        g = ResidualGuard(1.0, dtol=0.0, stag_window=3)
        for r in (0.9, 0.8, 0.7, 0.6, 0.5, 0.4):
            assert g.check(r) is None

    def test_restart_sets_best_to_the_true_residual(self):
        """An estimate that undershot (0.1) does not set the bar after a
        restart: the true residual does, and beating it is progress."""
        g = ResidualGuard(1.0, dtol=0.0, stag_window=2)
        assert g.check(0.1) is None
        g.restart(0.5)
        assert g.best == 0.5
        assert g.check(0.45) is None and g.check(0.4) is None
        assert g.since_best == 0


# --------------------------------------------------------------------- #
# reason threading through every solver entry point
# --------------------------------------------------------------------- #
class TestKrylovReasons:
    @pytest.mark.parametrize("method", ALL)
    def test_converged_rtol(self, method):
        A, b = spd_system()
        res = method(lambda v: A @ v, b, rtol=1e-8, maxiter=600)
        assert res.converged
        assert res.reason == ConvergedReason.CONVERGED_RTOL

    @pytest.mark.parametrize("method", ALL)
    def test_converged_atol(self, method):
        A, b = spd_system()
        # atol dominates rtol * ||b|| -> the absolute test is the binding one
        res = method(lambda v: A @ v, b, rtol=1e-16,
                     atol=1e-6 * np.linalg.norm(b), maxiter=600)
        assert res.converged
        assert res.reason == ConvergedReason.CONVERGED_ATOL

    @pytest.mark.parametrize("method", ALL)
    def test_diverged_its(self, method):
        A, b = spd_system()
        res = method(lambda v: A @ v, b, rtol=1e-14, maxiter=2)
        assert not res.converged
        assert res.reason == ConvergedReason.DIVERGED_ITS

    @pytest.mark.parametrize("method", ALL)
    def test_nan_matvec_is_diverged_nan(self, method):
        A, b = spd_system()
        calls = [0]

        def poisoned(v):
            calls[0] += 1
            out = A @ v
            if calls[0] >= 2:  # initial residual stays clean
                out = out.copy()
                out[0] = np.nan
            return out

        res = method(poisoned, b, rtol=1e-10, maxiter=200)
        assert not res.converged
        assert res.reason == ConvergedReason.DIVERGED_NAN
        # the guard stops within a few iterations of the poisoning
        assert res.iterations <= 5

    @pytest.mark.parametrize("method", ALL)
    def test_nan_rhs_detected_immediately(self, method):
        A, b = spd_system()
        b = b.copy()
        b[0] = np.nan
        res = method(lambda v: A @ v, b, maxiter=50)
        assert res.reason == ConvergedReason.DIVERGED_NAN
        assert res.iterations == 0

    @pytest.mark.parametrize("method", ALL)
    def test_reason_in_to_dict(self, method):
        A, b = spd_system()
        d = method(lambda v: A @ v, b, rtol=1e-8, maxiter=600).to_dict()
        assert d["reason"] == "CONVERGED_RTOL"


class TestIndefiniteRegressions:
    """bicgstab/gcr used to spin to max_it on hopeless systems."""

    def _indefinite(self, n=80, seed=0):
        rng = np.random.default_rng(seed)
        d = np.ones(n)
        d[: n // 2] = -1.0
        return np.diag(d) + np.triu(rng.standard_normal((n, n)), 1) * 2.0, \
            rng.standard_normal(n)

    def test_bicgstab_indefinite_stops_early(self):
        A, b = self._indefinite()
        res = bicgstab(lambda v: A @ v, b, rtol=1e-12, maxiter=2000)
        assert not res.converged
        assert res.reason in (ConvergedReason.DIVERGED_STAGNATION,
                              ConvergedReason.DIVERGED_DTOL,
                              ConvergedReason.DIVERGED_BREAKDOWN)
        assert res.iterations < 200  # not 2000 useless iterations

    def test_bicgstab_growth_trips_dtol(self):
        A, b = self._indefinite(seed=3)
        res = bicgstab(lambda v: A @ v, b, rtol=1e-12, maxiter=2000, dtol=5.0)
        assert res.reason in (ConvergedReason.DIVERGED_DTOL,
                              ConvergedReason.DIVERGED_STAGNATION)
        assert res.iterations < 100

    @pytest.mark.parametrize("method", [gcr, fgmres])
    def test_inconsistent_system_stagnates(self, method):
        # singular operator + rhs with a null-space component: no iterate
        # gets below that component, the minimal-residual methods make
        # exactly no progress once it is all that is left, and the
        # no-new-best window ends the solve
        n = 60
        d = np.ones(n)
        d[0] = 0.0
        rng = np.random.default_rng(1)
        b = rng.standard_normal(n)
        b[0] = 1.0
        res = method(lambda v: d * v, b, rtol=1e-12, maxiter=1000)
        assert res.reason == ConvergedReason.DIVERGED_STAGNATION
        assert res.iterations < 200
        # the returned iterate is no worse than the one the solve started
        # from; FGMRES keeps a cycle's start iterate when the cycle's true
        # residual grew (its one-pass estimate undershoots the floor 1.0
        # here), so it returns the best cycle end: the first of its
        # restart length of 30
        true = np.linalg.norm(b - d * res.x)
        assert true <= res.residuals[0]
        if method is fgmres:
            assert res.true_residual == true
            assert true <= res.residuals[30]

    def test_cg_indefinite_breakdown(self):
        n = 40
        d = np.ones(n)
        d[0] = -1.0
        A = np.diag(d)
        rng = np.random.default_rng(2)
        res = cg(lambda v: A @ v, rng.standard_normal(n), rtol=1e-12,
                 maxiter=200)
        assert res.reason == ConvergedReason.DIVERGED_BREAKDOWN


class TestNonlinearReasons:
    def test_newton_nan_residual(self):
        def residual(x):
            return np.full_like(x, np.nan)

        res = newton(residual, lambda x, F, t: (F, 0), np.ones(4))
        assert res.reason == ConvergedReason.DIVERGED_NAN
        assert not res.converged

    def test_newton_dtol(self):
        # each "correction" makes things worse by 100x
        state = {"f": 1.0}

        def residual(x):
            return np.full_like(x, state["f"])

        def solve(x, F, t):
            state["f"] *= 100.0
            return np.zeros_like(x), 1

        res = newton(residual, solve, np.ones(4), rtol=1e-10, maxiter=20,
                     line_search=False, dtol=1e3)
        assert res.reason == ConvergedReason.DIVERGED_DTOL

    def test_newton_its(self):
        def residual(x):
            return np.ones_like(x)

        res = newton(residual, lambda x, F, t: (np.zeros_like(x), 1),
                     np.ones(4), rtol=1e-10, maxiter=3, line_search=False)
        assert res.reason == ConvergedReason.DIVERGED_ITS

    def test_newton_converged_reason(self):
        # residual convention F(x) = b - J x: dx = F is the exact step
        def residual(x):
            return 2.0 - x

        def solve(x, F, t):
            return F, 1

        res = newton(residual, solve, np.zeros(4), rtol=1e-8)
        assert res.converged
        assert res.reason == ConvergedReason.CONVERGED_RTOL


class TestChebyshevGuard:
    def test_poisoned_apply_raises_breakdown(self):
        n = 30
        A = np.diag(np.linspace(1.0, 4.0, n))
        sm = ChebyshevSmoother(lambda v: A @ v, np.diag(A), degree=2)
        with FaultInjector() as fi:
            fi.poison_nan(sm, "A", mode="all", label="nan:A")
            # patching the attribute directly: sm.A is a plain callable
            with pytest.raises(BreakdownError) as exc:
                sm.smooth(np.ones(n))
        assert exc.value.reason == ConvergedReason.DIVERGED_NAN

    def test_guard_off_passes_nan_through(self):
        n = 10
        A = np.diag(np.ones(n))
        sm = ChebyshevSmoother(lambda v: A @ v, np.ones(n), degree=2,
                               interval=(0.2, 1.1), guard=False)
        sm.A = lambda v: np.full(n, np.nan)
        out = sm.smooth(np.ones(n))
        assert np.isnan(out).any()


# --------------------------------------------------------------------- #
# fault injector mechanics
# --------------------------------------------------------------------- #
class TestFaultInjector:
    def test_fires_on_exact_call_and_restores(self):
        class K:
            def f(self):
                return np.zeros(3)

        orig = K.f
        with FaultInjector() as fi:
            fi.poison_nan(K, "f", calls={2}, mode="all")
            k = K()
            assert np.isfinite(k.f()).all()
            assert np.isnan(k.f()).all()
            assert np.isfinite(k.f()).all()
        assert K.f is orig
        assert fi.fired == [{"label": "nan:f", "call": 2}]

    def test_limit_bounds_firings(self):
        class K:
            def f(self):
                return np.zeros(2)

        with FaultInjector() as fi:
            fi.poison_nan(K, "f", limit=1, mode="all")
            k = K()
            assert np.isnan(k.f()).all()
            assert np.isfinite(k.f()).all()

    def test_when_predicate(self):
        class K:
            def f(self):
                return np.zeros(2)

        gate = {"open": False}
        with FaultInjector() as fi:
            fi.poison_nan(K, "f", when=lambda: gate["open"], mode="all")
            k = K()
            assert np.isfinite(k.f()).all()
            gate["open"] = True
            assert np.isnan(k.f()).all()

    def test_singular_diagonal(self):
        class K:
            def diagonal(self):
                return np.ones(10)

        with FaultInjector() as fi:
            fi.singular_diagonal(K, fraction=0.3)
            d = K().diagonal()
        assert (d[:3] == 0.0).all() and (d[3:] == 1.0).all()

    def test_fail_with(self):
        class K:
            def f(self):
                return 1

        with FaultInjector() as fi:
            fi.fail_with(K, "f", BreakdownError("boom"))
            with pytest.raises(BreakdownError):
                K().f()

    def test_truncate_file(self, tmp_path):
        path = str(tmp_path / "blob.bin")
        with open(path, "wb") as fh:
            fh.write(b"x" * 1000)
        kept = FaultInjector.truncate_file(path, keep_fraction=0.25)
        assert kept == 250 == os.path.getsize(path)


# --------------------------------------------------------------------- #
# stokes-level fallback
# --------------------------------------------------------------------- #
def _tiny_problem():
    return sinker_stokes_problem(
        SinkerConfig(shape=(3, 3, 3), n_spheres=1, radius=0.2, delta_eta=10.0)
    )


def _sinker_4(delta_eta=100.0):
    """4^3, 8 spheres of radius 0.1, seed 42: the rung-rescue cells."""
    return sinker_stokes_problem(
        SinkerConfig(shape=(4, 4, 4), delta_eta=delta_eta))


class TestFallbackLadder:
    """The walk of ``solve_stokes_resilient`` over ``FALLBACK_RUNGS``, and
    one cell per lower rung that only that rung rescues."""

    CFG = StokesConfig(mg_levels=1, coarse_solver="lu", maxiter=200)

    def test_rung_tuple(self):
        cfg = StokesConfig(maxiter=100)
        names = [name for name, _ in FALLBACK_RUNGS]
        assert names == ["primary", "sa-amg", "jacobi-restart"]
        primary, sa, jac = (t(cfg) for _, t in FALLBACK_RUNGS)
        assert primary is cfg
        assert (sa.operator, sa.mg_levels, sa.coarse_solver) == (
            "asmb", 1, "sa")
        assert (jac.velocity_pc, jac.outer, jac.maxiter) == (
            "jacobi", "fgmres", 200)

    def test_first_rung_success_no_events(self):
        # a clean primary solve stops the walk at the first rung: the
        # result is the primary's own, with no fallback events recorded
        pb = _tiny_problem()
        sol = solve_stokes_resilient(pb, self.CFG)
        ref = solve_stokes(pb, FALLBACK_RUNGS[0][1](self.CFG))
        assert sol.reason == ref.reason
        assert sol.reason.is_converged
        assert sol.iterations == ref.iterations
        np.testing.assert_array_equal(sol.u, ref.u)
        np.testing.assert_array_equal(sol.p, ref.p)
        assert "fallback_events" not in sol.extra

    def test_walks_to_second_rung(self):
        # sa-amg rescues: with a NaN primary it converges in ~45 its,
        # where the Jacobi rung's 2 x 150 its end DIVERGED_ITS
        pb = _sinker_4()
        cfg = StokesConfig(maxiter=150)
        with FaultInjector() as fi:
            fi.poison_nan(FieldSplitPreconditioner, "__call__", calls={1},
                          mode="all")
            sol = solve_stokes_resilient(pb, cfg)
        assert sol.reason.is_converged
        assert sol.extra["true_relres"] <= cfg.rtol
        events = sol.extra["fallback_events"]
        assert [(e["rung"], e["reason"], e["next"]) for e in events] == [
            ("primary", "DIVERGED_NAN", "sa-amg")]
        jac = solve_stokes(pb, FALLBACK_RUNGS[2][1](cfg))
        assert jac.reason == ConvergedReason.DIVERGED_ITS

    def test_jacobi_restart_rescues(self):
        # a failing smoothed-aggregation build takes down both the primary
        # (its coarse solver) and the sa-amg rung; Jacobi needs no setup
        pb = _sinker_4()
        with FaultInjector() as fi:
            fi.fail_with(gmg_module, "smoothed_aggregation",
                         BreakdownError("SA setup failed"))
            sol = solve_stokes_resilient(pb, StokesConfig())
        assert len(fi.fired) == 2
        assert sol.reason.is_converged
        assert sol.extra["true_relres"] <= 1e-5
        events = sol.extra["fallback_events"]
        assert [(e["rung"], e["next"]) for e in events] == [
            ("primary", "sa-amg"), ("sa-amg", "jacobi-restart")]
        assert all("SA setup failed" in e["error"] for e in events)

    def test_recoverable_exception_downgrades(self):
        pb = _tiny_problem()
        with FaultInjector() as fi:
            fi.fail_with(FieldSplitPreconditioner, "__call__",
                         BreakdownError("smoother died",
                                        reason=ConvergedReason.DIVERGED_NAN),
                         calls={1})
            sol = solve_stokes_resilient(pb, self.CFG)
        assert sol.reason.is_converged
        events = sol.extra["fallback_events"]
        assert len(events) == 1
        assert events[0]["reason"] == "DIVERGED_NAN"
        assert "smoother died" in events[0]["error"]

    def test_diverged_its_not_retried_by_default(self):
        pb = _tiny_problem()
        sol = solve_stokes_resilient(
            pb, StokesConfig(mg_levels=1, coarse_solver="lu", maxiter=2))
        # budget exhaustion is not a ladder trigger
        assert sol.reason == ConvergedReason.DIVERGED_ITS
        assert not ConvergedReason.DIVERGED_ITS.needs_recovery
        assert "fallback_events" not in sol.extra

    def test_all_rungs_raise(self):
        pb = _tiny_problem()
        with FaultInjector() as fi:
            fi.fail_with(FieldSplitPreconditioner, "__call__",
                         BreakdownError("rung died"))
            with pytest.raises(BreakdownError) as exc:
                solve_stokes_resilient(pb, self.CFG)
        assert "every fallback rung failed" in str(exc.value)
        assert len(fi.fired) == len(FALLBACK_RUNGS)

    def test_last_rung_diverged_result_returned(self):
        pb = _tiny_problem()
        # primary and sa-amg go NaN on their first PC apply; the Jacobi
        # rung runs out of its (2 x 5) iterations with a finite iterate
        cfg = StokesConfig(mg_levels=1, coarse_solver="lu", maxiter=5)
        with FaultInjector() as fi:
            fi.poison_nan(FieldSplitPreconditioner, "__call__",
                          calls={1, 2}, mode="all")
            sol = solve_stokes_resilient(pb, cfg)
        assert sol.reason == ConvergedReason.DIVERGED_ITS
        assert sol.iterations == 10
        assert np.isfinite(sol.u).all() and np.isfinite(sol.p).all()
        assert [e["rung"] for e in sol.extra["fallback_events"]] == [
            "primary", "sa-amg"]
        # a last rung that fails with a recoverable reason is returned
        # too: the caller sees the reason and owns the next policy level
        with FaultInjector() as fi:
            fi.poison_nan(FieldSplitPreconditioner, "__call__", mode="all")
            sol = solve_stokes_resilient(pb, cfg)
        assert sol.reason == ConvergedReason.DIVERGED_NAN
        events = sol.extra["fallback_events"]
        assert len(events) == 3 and events[-1]["next"] is None


class TestStokesResilient:
    CFG = StokesConfig(mg_levels=1, coarse_solver="lu", maxiter=200)

    def test_clean_path_no_events(self):
        pb = _tiny_problem()
        sol = solve_stokes_resilient(pb, self.CFG)
        assert sol.converged
        assert sol.reason.is_converged
        assert "fallback_events" not in sol.extra

    def test_jacobi_velocity_pc_solves(self):
        pb = _tiny_problem()
        cfg = StokesConfig(velocity_pc="jacobi", outer="fgmres", maxiter=3000,
                           rtol=1e-4)
        sol = solve_stokes(pb, cfg)
        assert sol.converged
        assert np.isfinite(sol.u).all() and np.isfinite(sol.p).all()

    def test_nan_preconditioner_falls_back(self):
        pb = _tiny_problem()
        with FaultInjector() as fi:
            # poison every PC apply of the first (primary) attempt only
            fi.poison_nan(FieldSplitPreconditioner, "__call__", calls={1},
                          mode="all")
            sol = solve_stokes_resilient(pb, self.CFG)
        assert fi.fired
        assert sol.converged
        assert np.isfinite(sol.u).all() and np.isfinite(sol.p).all()
        events = sol.extra["fallback_events"]
        assert events[0]["rung"] == "primary"
        assert events[0]["reason"] == "DIVERGED_NAN"
        assert events[0]["next"] == "sa-amg"

    def test_fallback_records_obs_events(self):
        pb = _tiny_problem()
        obs.reset()
        obs.enable()
        try:
            with FaultInjector() as fi:
                fi.poison_nan(FieldSplitPreconditioner, "__call__", calls={1},
                              mode="all")
                sol = solve_stokes_resilient(pb, self.CFG)
        finally:
            obs.disable()
        assert sol.converged
        names = {e.name for e in obs.REGISTRY.events.values()}
        assert "ResilienceFallback[primary]" in names
        trace = obs.REGISTRY.traces["resilience"]
        assert any(t["event"] == "fallback" and t["rung"] == "primary"
                   for t in trace)
        doc = obs.snapshot()
        obs.validate(doc)  # resilience stream passes the schema
        obs.reset()


# --------------------------------------------------------------------- #
# exit check: a reported convergence is one the true residual confirms
# --------------------------------------------------------------------- #
class TestExitCheck:
    @pytest.mark.parametrize("scheme", ["fieldsplit", "scr"])
    @pytest.mark.parametrize("delta_eta", [1e2, 1e4])
    def test_reason_agrees_with_true_residual(self, scheme, delta_eta):
        pb = _sinker_4(delta_eta)
        cfg = StokesConfig(scheme=scheme)
        sol = solve_stokes(pb, cfg)
        op = StokesOperator(pb, kind="asmb")
        b = op.rhs()
        true = np.linalg.norm(b - op.apply(np.concatenate([sol.u, sol.p])))
        true /= np.linalg.norm(b)
        assert sol.extra["true_relres"] == pytest.approx(true, rel=1e-6)
        # converged means the true residual is within the exit slack of
        # rtol; a diverged solve must not have met rtol at all (SCR at
        # 1e4 reaches 5e-5 with inner solves short of inner_rtol)
        if sol.reason.is_converged:
            assert true <= EXIT_SLACK * cfg.rtol
        else:
            assert true > cfg.rtol
        if delta_eta == 1e2:
            assert sol.reason.is_converged
            assert true <= cfg.rtol

    @pytest.mark.parametrize("outer", ["fgmres", "gcr"])
    def test_exit_check_reuses_the_measured_residual(self, outer,
                                                     monkeypatch):
        """FGMRES formed ``b - A x`` for the ``x`` it returns, so the exit
        check makes no coupled apply of its own (initial residual, one per
        iteration, the cycle end); GCR's recurrence residual is not one it
        formed, so the check applies once.  Either way ``true_relres`` is
        the measured norm, bit for bit."""
        calls = []
        apply = StokesOperator.apply

        def counted(self, x):
            calls.append(1)
            return apply(self, x)

        monkeypatch.setattr(StokesOperator, "apply", counted)
        pb = _tiny_problem()
        sol = solve_stokes(pb, StokesConfig(mg_levels=1, coarse_solver="lu",
                                            outer=outer))
        assert sol.converged and sol.iterations < StokesConfig().restart
        assert len(calls) == sol.iterations + 2
        op = sol.extra["operator"]
        b = op.rhs()
        true = np.linalg.norm(b - apply(op, np.concatenate([sol.u, sol.p])))
        assert sol.extra["true_relres"] == true / np.linalg.norm(b)

    def test_refuted_convergence_falls_back(self, monkeypatch):
        # the default outer method reports convergence for a wrong iterate
        # on its first two calls (the primary and sa-amg rungs), without a
        # measured residual for it: the exit check measures, turns each
        # into DIVERGED_BREAKDOWN, and the ladder walks to the
        # jacobi-restart rung, whose solve is honest
        outer = StokesConfig().outer
        honest = getattr(krylov, outer)
        calls = []

        def lying(*args, **kwargs):
            res = honest(*args, **kwargs)
            calls.append(outer)
            if len(calls) <= 2:
                res.x[:] = 0.0
                res.true_residual = None
            return res

        monkeypatch.setattr(krylov, outer, lying)
        pb = _tiny_problem()
        cfg = StokesConfig(mg_levels=1, coarse_solver="lu")
        sol = solve_stokes(pb, cfg)
        assert sol.reason == ConvergedReason.DIVERGED_BREAKDOWN
        assert not sol.converged
        assert sol.extra["true_relres"] == pytest.approx(1.0)
        calls.clear()
        sol = solve_stokes_resilient(pb, cfg)
        assert len(calls) == 3
        assert sol.reason.is_converged
        assert [e["reason"] for e in sol.extra["fallback_events"]] == [
            "DIVERGED_BREAKDOWN", "DIVERGED_BREAKDOWN"]


# --------------------------------------------------------------------- #
# checkpoint robustness
# --------------------------------------------------------------------- #
def _chk_sim():
    return make_sinker(
        SinkerConfig(shape=(3, 3, 3), n_spheres=1, radius=0.2,
                     delta_eta=10.0),
        SimulationConfig(stokes=StokesConfig(mg_levels=1, coarse_solver="lu"),
                         max_newton=1),
    )


class TestCheckpointRobustness:
    def test_save_is_atomic_no_temp_left(self, tmp_path):
        sim = _chk_sim()
        path = str(tmp_path / "chk.npz")
        save_checkpoint(path, sim)
        assert os.path.exists(path)
        assert glob.glob(str(tmp_path / "*.tmp.*")) == []

    def test_save_appends_npz(self, tmp_path):
        sim = _chk_sim()
        path = str(tmp_path / "chk")
        save_checkpoint(path, sim)
        assert os.path.exists(path + ".npz")
        sim2 = _chk_sim()
        load_checkpoint(path, sim2)  # loader resolves the same name
        assert np.allclose(sim2.u, sim.u)

    def test_failed_save_leaves_previous_checkpoint(self, tmp_path):
        sim = _chk_sim()
        path = str(tmp_path / "chk.npz")
        save_checkpoint(path, sim)
        before = open(path, "rb").read()
        with FaultInjector() as fi:
            fi.fail_with(type(sim.points), "field", OSError("disk full"))
            sim.points.add_field("doomed", np.ones(sim.points.n))
            with pytest.raises(OSError):
                save_checkpoint(path, sim)
        assert open(path, "rb").read() == before
        assert glob.glob(str(tmp_path / "*.tmp.*")) == []

    def test_truncated_checkpoint_raises_cleanly(self, tmp_path):
        sim = _chk_sim()
        sim.step()
        path = str(tmp_path / "chk.npz")
        save_checkpoint(path, sim)
        FaultInjector.truncate_file(path, keep_fraction=0.5)
        sim2 = _chk_sim()
        u0, p0 = sim2.u.copy(), sim2.p.copy()
        t0, i0, n0 = sim2.time, sim2.step_index, sim2.points.n
        with pytest.raises(ValueError, match="unreadable or truncated"):
            load_checkpoint(path, sim2)
        # sim2 untouched: validation happened before any mutation
        assert np.array_equal(sim2.u, u0) and np.array_equal(sim2.p, p0)
        assert sim2.time == t0 and sim2.step_index == i0
        assert sim2.points.n == n0

    def test_garbage_file_raises_value_error(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        with open(path, "wb") as fh:
            fh.write(b"this is not a zip archive")
        with pytest.raises(ValueError, match="unreadable or truncated"):
            load_checkpoint(path, _chk_sim())

    def test_T_none_roundtrip(self, tmp_path):
        # sinker has no energy solve: T is None and must come back None,
        # not as a zero-length array (the old lossy convention)
        sim = _chk_sim()
        assert sim.T is None
        path = str(tmp_path / "chk.npz")
        save_checkpoint(path, sim)
        sim2 = _chk_sim()
        sim2.T = np.ones(8)  # poison: the load must reset it to None
        load_checkpoint(path, sim2)
        assert sim2.T is None

    def test_state_dict_restore_roundtrip_in_memory(self):
        sim = _chk_sim()
        sim.step()
        snap = state_dict(sim)
        u, p, t, i = sim.u.copy(), sim.p.copy(), sim.time, sim.step_index
        sim.step()  # evolve past the snapshot
        restore_state(sim, snap)
        assert np.array_equal(sim.u, u) and np.array_equal(sim.p, p)
        assert sim.time == t and sim.step_index == i

    def test_restore_rejects_missing_key(self):
        sim = _chk_sim()
        snap = state_dict(sim)
        del snap["u"]
        with pytest.raises(ValueError, match="missing required key"):
            restore_state(sim, snap)


# --------------------------------------------------------------------- #
# executor crash recovery
# --------------------------------------------------------------------- #
class _SquareKernel:
    """Trivial deterministic owner-writes span task for crash tests."""

    def apply_span(self, u, s, e, out, stash):
        out[s:e] = u[s:e] ** 2 + 3.0 * u[s:e]


@pytest.mark.skipif(os.name != "posix", reason="rank processes are POSIX-only")
class TestExecutorCrashRecovery:
    def test_worker_kill_recovers_bit_identical(self, tmp_path):
        """A rank process killed mid-dispatch surfaces as a typed
        ``RankFailure``; after ``recover`` the same dispatch recomputes
        every entry from the same state, bit for bit."""
        n = 64
        state = _SquareKernel()
        spans = partition_range(n, 2)
        u = np.linspace(-1.0, 1.0, n)
        sentinel = str(tmp_path / "kill.sentinel")
        comm = ProcessComm(2)
        try:
            engine = ProcommEngine(comm)
            engine.dispatch(state, "apply_span", spans, u, n)  # ship it
            comm.inject_fault(1, "kill", at=1, sentinel=sentinel)
            with pytest.raises(RankFailure):
                engine.dispatch(state, "apply_span", spans, u, n)
            comm.recover()
            got = engine.dispatch(state, "apply_span", spans, u, n)
            assert np.array_equal(got, u ** 2 + 3.0 * u)
            assert comm.stats.respawns >= 1
            assert os.path.exists(sentinel)
        finally:
            comm.close()


# --------------------------------------------------------------------- #
# time-loop self-healing
# --------------------------------------------------------------------- #
def _resilient_sinker(**kw):
    sim = make_sinker(
        SinkerConfig(shape=(3, 3, 3), n_spheres=1, radius=0.2,
                     delta_eta=10.0),
        SimulationConfig(stokes=StokesConfig(mg_levels=1, coarse_solver="lu"),
                         max_newton=1, resilient=True, **kw),
    )
    return sim


class TestTimeLoopRollback:
    def test_clean_steps_have_zero_retries(self):
        sim = _resilient_sinker()
        stats = sim.step()
        assert stats["retries"] == 0
        assert stats["dt_scale"] == 1.0
        assert stats["newton_reason"] in ("CONVERGED_RTOL", "CONVERGED_ATOL",
                                          "DIVERGED_ITS")

    def test_nan_step_rolls_back_and_halves_dt(self):
        sim = _resilient_sinker()
        sim.step()  # one clean step to have nontrivial state
        u, t, i = sim.u.copy(), sim.time, sim.step_index
        with FaultInjector() as fi:
            fi.poison_nan(StokesOperator, "residual", mode="all", limit=1,
                          when=lambda: sim.step_index == i)
            stats = sim.step()
        assert fi.fired
        assert stats["retries"] == 1
        assert stats["dt_scale"] == 0.5
        assert sim.step_index == i + 1
        assert np.isfinite(sim.u).all() and np.isfinite(sim.p).all()

    def test_dt_recovers_after_clean_steps(self):
        sim = _resilient_sinker()
        i0 = sim.step_index
        with FaultInjector() as fi:
            fi.poison_nan(StokesOperator, "residual", mode="all", limit=1,
                          when=lambda: sim.step_index == i0)
            sim.step()
        assert sim._dt_scale == 0.5
        sim.step()  # one clean step: not yet
        assert sim._dt_scale == 0.5
        sim.step()  # DT_RECOVER_AFTER clean -> one back-off factor undone
        assert sim._dt_scale == 1.0

    def test_persistent_failure_raises_after_budget(self):
        sim = _resilient_sinker()
        with FaultInjector() as fi:
            fi.poison_nan(StokesOperator, "residual", mode="all")
            with pytest.raises(BreakdownError, match="failed after 4 attempts"):
                sim.step()
        # the evolving state was restored to the pre-step snapshot
        assert sim.step_index == 0
        assert np.isfinite(sim.u).all()

    def test_rollback_traced(self):
        sim = _resilient_sinker()
        obs.reset()
        obs.enable()
        try:
            with FaultInjector() as fi:
                fi.poison_nan(StokesOperator, "residual", mode="all", limit=1)
                sim.step()
        finally:
            obs.disable()
        trace = obs.REGISTRY.traces["resilience"]
        assert any(t["event"] == "rollback" for t in trace)
        names = {e.name for e in obs.REGISTRY.events.values()}
        assert "ResilienceRollback" in names
        obs.reset()

    def test_rollback_leaves_one_step_record_per_accepted_step(self,
                                                               tmp_path):
        # step 2 is rolled back once: the step stream, the series derived
        # from it and a flight dump see only the three accepted steps
        sim = _resilient_sinker()
        obs.reset()
        obs.enable()
        rec = obs.flight.arm(directory=tmp_path)
        try:
            with FaultInjector() as fi:
                fi.poison_nan(StokesOperator, "residual", mode="all", limit=1,
                              when=lambda: sim.step_index == 1)
                stats = [sim.step() for _ in range(3)]
            series = obs.metrics.export()["series"]
            traces = obs.REGISTRY.traces
            dumps = [rec.dumps[0], rec.dump("manual")]
        finally:
            obs.flight.disarm()
            obs.disable()
            obs.reset()
        assert fi.fired
        assert [s["retries"] for s in stats] == [0, 1, 0]
        for s in series:
            assert all(a < b for a, b in zip(s["steps"], s["steps"][1:])), s
        steps = traces["step"]
        assert [r["step"] for r in steps] == [1, 2, 3]
        assert [r["retries"] for r in steps] == [s["retries"] for s in stats]
        assert [r["krylov_iterations"] for r in steps] == \
            [s["krylov_iterations"] for s in stats]
        docs = []
        for path in dumps:
            with open(path) as fh:
                docs.append(obs.validate(json.load(fh)))
        rollback_doc, manual_doc = docs
        # the rollback dump fired inside step 2: one accepted step so far
        assert rollback_doc["meta"]["trigger"]["kind"] == "rollback"
        assert rollback_doc["traces"]["step"] == steps[:1]
        assert manual_doc["traces"]["step"] == steps
        rollbacks = [r for r in traces["resilience"]
                     if r["event"] == "rollback"]
        assert [(r["step"], r["attempt"]) for r in rollbacks] == [(1, 1)]

    def test_non_resilient_step_unchanged(self):
        sim = make_sinker(
            SinkerConfig(shape=(3, 3, 3), n_spheres=1, radius=0.2,
                         delta_eta=10.0),
            SimulationConfig(stokes=StokesConfig(mg_levels=1,
                                                 coarse_solver="lu"),
                             max_newton=1),
        )
        stats = sim.step()
        assert stats["retries"] == 0
        assert "newton_reason" in stats


# --------------------------------------------------------------------- #
# acceptance: rifting run survives injected faults end to end
# --------------------------------------------------------------------- #
class TestRiftingSurvivesFaults:
    def test_six_steps_with_nan_fault_and_newton_divergence(self):
        cfg = RiftingConfig(shape=(6, 4, 2), mg_levels=1)
        sim = make_rifting(cfg)
        sim.config.resilient = True
        obs.reset()
        obs.enable()
        nsteps = 6
        try:
            with FaultInjector() as fi:
                # step 3 (index 2): poisoned preconditioner output drives
                # the outer Krylov solve to DIVERGED_NAN -> fallback ladder
                fi.poison_nan(FieldSplitPreconditioner, "__call__",
                              mode="all", limit=1,
                              when=lambda: sim.step_index == 2,
                              label="nan:pc")
                # step 5 (index 4): poisoned nonlinear residual forces a
                # hard Newton failure -> snapshot rollback with dt halving
                fi.poison_nan(StokesOperator, "residual", mode="all",
                              limit=1, when=lambda: sim.step_index == 4,
                              label="nan:newton")
                stats = [sim.step() for _ in range(nsteps)]
            report = obs.log_view()
        finally:
            obs.disable()
        fired = {f["label"] for f in fi.fired}
        assert fired == {"nan:pc", "nan:newton"}
        # the run completed every step
        assert sim.step_index == nsteps
        assert len(stats) == nsteps
        # recovery actually happened: fallback on step 3, rollback on step 5
        assert any(s["fallback_events"] for s in stats)
        assert any(s["retries"] > 0 for s in stats)
        # recovery events appear in the -log_view report
        assert "ResilienceFallback[primary]" in report
        assert "ResilienceRollback" in report
        trace = obs.REGISTRY.traces["resilience"]
        assert any(t["event"] == "fallback" for t in trace)
        assert any(t["event"] == "rollback" for t in trace)
        # final fields are finite
        assert np.isfinite(sim.u).all()
        assert np.isfinite(sim.p).all()
        assert np.isfinite(sim.T).all()
        obs.reset()
