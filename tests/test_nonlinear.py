"""Nonlinear solvers: Newton, line search, Eisenstat-Walker, Picard."""

import numpy as np
import pytest

from repro.solvers import newton, picard, eisenstat_walker


def quadratic_problem():
    """F(x) = b - (A x + 0.1 * x^3) (componentwise cube)."""
    rng = np.random.default_rng(0)
    n = 10
    Q = rng.standard_normal((n, n))
    A = Q @ Q.T + n * np.eye(n)
    b = rng.standard_normal(n)

    def residual(x):
        return b - (A @ x + 0.1 * x**3)

    def solve_linearized(x, F, rtol):
        J = A + np.diag(0.3 * x**2)
        return np.linalg.solve(J, F), 1

    return residual, solve_linearized, n


class TestNewton:
    def test_converges_quadratically(self):
        residual, solve, n = quadratic_problem()
        res = newton(residual, solve, np.zeros(n), rtol=1e-12, maxiter=20)
        assert res.converged
        assert res.iterations <= 8
        # terminal-phase contraction is superlinear
        r = res.residuals
        assert r[-1] < 1e-6 * r[0]

    def test_records_linear_iterations_and_steps(self):
        residual, solve, n = quadratic_problem()
        res = newton(residual, solve, np.zeros(n), rtol=1e-10)
        assert len(res.linear_iterations) == res.iterations
        assert len(res.step_lengths) == res.iterations
        assert res.total_linear_iterations == res.iterations

    def test_zero_initial_residual(self):
        """Restarting from the solution: rtol is relative to |F0| (the
        paper's per-time-step convention), so absolute convergence must be
        requested through atol."""
        residual, solve, n = quadratic_problem()
        sol = newton(residual, solve, np.zeros(n), rtol=1e-13, maxiter=30).x
        res = newton(residual, solve, sol, rtol=1e-3, atol=1e-10)
        assert res.converged and res.iterations == 0

    def test_line_search_rescues_overshooting(self):
        """A scalar problem where the full Newton step overshoots badly:
        F(x) = b - arctan(x) from far away."""

        def residual(x):
            return np.array([0.0]) - np.arctan(x)

        def solve_linearized(x, F, rtol):
            J = 1.0 / (1.0 + x**2)
            return F / J, 1

        res = newton(residual, solve_linearized, np.array([10.0]),
                     rtol=1e-10, maxiter=50)
        assert res.converged
        assert min(res.step_lengths) < 1.0  # backtracking actually happened

    def test_without_line_search_diverges_on_arctan(self):
        def residual(x):
            return -np.arctan(x)

        def solve_linearized(x, F, rtol):
            return F * (1.0 + x**2), 1

        res = newton(residual, solve_linearized, np.array([10.0]),
                     rtol=1e-10, maxiter=8, line_search=False)
        assert not res.converged

    def test_failed_line_search_accepts_its_last_trial(self):
        """When no backtrack decreases |F|, the last (shortest) trial is
        accepted as evaluated: no extra residual at a step never tried."""
        calls = []

        def residual(x):
            calls.append(x.copy())
            return np.array([1.0 + len(calls)])  # never decreases

        def solve_linearized(x, F, rtol):
            return np.ones(1), 1

        backtracks, maxiter = 3, 2
        res = newton(residual, solve_linearized, np.zeros(1), maxiter=maxiter,
                     ls_max_backtracks=backtracks)
        assert len(calls) == 1 + maxiter * (backtracks + 1)
        assert res.step_lengths == [0.5**backtracks] * maxiter
        # the accepted iterate is the last one evaluated
        assert np.array_equal(res.x, calls[-1])
        assert res.residuals[-1] == 1.0 + len(calls)

    def test_maxiter_budget(self):
        residual, solve, n = quadratic_problem()
        res = newton(residual, solve, np.zeros(n), rtol=1e-30, maxiter=2)
        assert res.iterations == 2
        assert not res.converged

    def test_monitor_called(self):
        residual, solve, n = quadratic_problem()
        calls = []
        newton(residual, solve, np.zeros(n), rtol=1e-8,
               monitor=lambda k, f: calls.append((k, f)))
        assert calls[0][0] == 0
        assert len(calls) >= 2


class TestPicard:
    def test_converges_linearly(self):
        residual, solve, n = quadratic_problem()

        def solve_picard(x, F, rtol):
            # frozen-coefficient (Picard) linearization: just A
            rng = np.random.default_rng(0)
            Q = rng.standard_normal((n, n))
            A = Q @ Q.T + n * np.eye(n)
            return np.linalg.solve(A, F), 1

        res = picard(residual, solve_picard, np.zeros(n), rtol=1e-8, maxiter=60)
        assert res.converged

    def test_slower_than_newton(self):
        residual, solve, n = quadratic_problem()

        def solve_picard(x, F, rtol):
            rng = np.random.default_rng(0)
            Q = rng.standard_normal((n, n))
            A = Q @ Q.T + n * np.eye(n)
            return np.linalg.solve(A, F), 1

        res_n = newton(residual, solve, np.zeros(n), rtol=1e-10, maxiter=50)
        res_p = picard(residual, solve_picard, np.zeros(n), rtol=1e-10, maxiter=50)
        assert res_n.iterations <= res_p.iterations


class TestEisenstatWalker:
    def test_first_call_returns_eta0(self):
        assert eisenstat_walker(1.0, None, 0.5, eta0=0.3) == 0.3

    def test_tightens_as_residual_drops(self):
        eta1 = eisenstat_walker(0.5, 1.0, 0.3)
        eta2 = eisenstat_walker(0.05, 1.0, eta1)
        assert eta2 < eta1 < 0.9

    def test_clipped_to_eta_max(self):
        eta = eisenstat_walker(10.0, 1.0, 0.9, eta_max=0.9)
        assert eta <= 0.9

    def test_safeguard_prevents_oversolving(self):
        """With a large previous eta, the safeguard keeps eta from
        collapsing even when the residual dropped a lot."""
        eta = eisenstat_walker(1e-6, 1.0, eta_prev=0.9)
        assert eta >= 0.9 * 0.9**2 * 0.999
