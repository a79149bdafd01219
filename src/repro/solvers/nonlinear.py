"""Nonlinear drivers: Picard, Newton with line search, Eisenstat-Walker.

The paper's nonlinear strategy (SS III-A): Picard iteration (successive
substitution on the effective viscosity) is robust but stagnates for
plasticity; Newton converges fast in the terminal phase but its anisotropic
linearization is hostile to multigrid smoothing, so the *Krylov operator*
uses the true Newton linearization while the *preconditioner* uses the
Picard operator.  Newton steps are guarded by a backtracking line search and
the linear tolerance is set adaptively by Eisenstat-Walker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs.registry import STATE as _OBS, instrument
from ..obs.trace import trace_snes
from ..resilience.guard import DEFAULT_DTOL
from ..resilience.reasons import ConvergedReason, nonfinite, stopping_tolerance

_NAN = ConvergedReason.DIVERGED_NAN
_ITS = ConvergedReason.DIVERGED_ITS
_DTOL = ConvergedReason.DIVERGED_DTOL


@dataclass
class NonlinearResult:
    """Outcome of a nonlinear solve.

    ``linear_iterations[k]`` counts the Krylov iterations of the k-th step,
    so Fig. 4's "Total Newton"/"Total Krylov" per time step are sums over
    this record.  ``reason`` mirrors PETSc's ``SNESConvergedReason``: like
    :class:`~repro.solvers.result.SolveResult` it is derived from
    ``converged`` when a construction site leaves it at the sentinel.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residuals: list[float] = field(default_factory=list)
    linear_iterations: list[int] = field(default_factory=list)
    step_lengths: list[float] = field(default_factory=list)
    reason: ConvergedReason = ConvergedReason.CONVERGED_ITERATING

    def __post_init__(self):
        if self.reason == ConvergedReason.CONVERGED_ITERATING:
            self.reason = (
                ConvergedReason.CONVERGED_RTOL if self.converged else _ITS
            )

    @property
    def total_linear_iterations(self) -> int:
        return int(sum(self.linear_iterations))


def eisenstat_walker(
    fnorm: float,
    fnorm_prev: float | None,
    eta_prev: float,
    eta_max: float = 0.9,
    gamma: float = 0.9,
    alpha: float = 2.0,
    eta0: float = 0.3,
) -> float:
    """Eisenstat-Walker (choice 2) forcing term for inexact Newton.

    Returns the relative tolerance for the next linear solve; safeguarded
    so the tolerance does not drop too fast while the outer residual is
    still large.
    """
    if fnorm_prev is None:
        return eta0
    eta = gamma * (fnorm / fnorm_prev) ** alpha
    # safeguard: don't let the forcing term collapse prematurely
    eta_safe = gamma * eta_prev**alpha
    if eta_safe > 0.1:
        eta = max(eta, eta_safe)
    return float(np.clip(eta, 1e-8, eta_max))


@instrument("SNESSolve")
def newton(
    residual: Callable[[np.ndarray], np.ndarray],
    solve_linearized: Callable[[np.ndarray, np.ndarray, float], tuple[np.ndarray, int]],
    x0: np.ndarray,
    rtol: float = 1e-2,
    atol: float = 0.0,
    maxiter: int = 5,
    line_search: bool = True,
    ls_alpha: float = 1e-4,
    ls_max_backtracks: int = 6,
    use_eisenstat_walker: bool = True,
    monitor: Callable | None = None,
    dtol: float = DEFAULT_DTOL,
) -> NonlinearResult:
    """Inexact Newton with backtracking line search.

    Parameters
    ----------
    residual:
        ``x -> F(x)``.
    solve_linearized:
        ``(x, F, rtol_lin) -> (dx, krylov_its)`` returning the Newton
        correction, i.e. (approximately) solving ``J(x) dx = F`` for the
        residual convention ``F(x) = b - J(x) x`` used throughout this
        package, so that ``x + dx`` solves the linearization.  The caller
        owns the choice of Newton-vs-Picard operator and preconditioner.
    rtol / atol / maxiter:
        Outer stopping: ``|F| <= max(rtol * |F0|, atol)`` within ``maxiter``
        steps (the rifting runs use rtol=1e-2, maxiter=5).
    dtol:
        Residual growth past ``dtol * |F0|`` (or a non-finite ``|F|``)
        aborts the outer loop with ``DIVERGED_DTOL`` / ``DIVERGED_NAN``
        instead of burning the remaining linear solves on garbage -- the
        signal the time loop's rollback policy keys on.
    """
    x = x0.copy()
    F = residual(x)
    fnorm = float(np.linalg.norm(F))
    residuals = [fnorm]
    tol, good = stopping_tolerance(fnorm, fnorm, rtol, atol)
    limit = dtol * fnorm if dtol else 0.0
    lin_its: list[int] = []
    steps: list[float] = []
    if _OBS.enabled:
        trace_snes(0, fnorm)
    if monitor:
        monitor(0, fnorm)
    if nonfinite(fnorm):
        return NonlinearResult(x, False, 0, residuals, lin_its, steps,
                               reason=_NAN)
    if fnorm <= tol:
        return NonlinearResult(x, True, 0, residuals, lin_its, steps,
                               reason=good)
    eta = 0.3
    fnorm_prev = None
    for it in range(1, maxiter + 1):
        if use_eisenstat_walker:
            eta = eisenstat_walker(fnorm, fnorm_prev, eta)
        dx, kits = solve_linearized(x, F, eta)
        lin_its.append(kits)
        # backtrack until sufficient decrease (Armijo on |F|); when no
        # trial decreases enough, the last and shortest one is accepted
        # rather than stalling silently
        for k in range(ls_max_backtracks + 1):
            lam = 0.5**k
            x_trial = x + lam * dx
            F_trial = residual(x_trial)
            fnorm_trial = float(np.linalg.norm(F_trial))
            if fnorm_trial <= (1.0 - ls_alpha * lam) * fnorm or not line_search:
                break
        fnorm_prev = fnorm
        x, F, fnorm = x_trial, F_trial, fnorm_trial
        residuals.append(fnorm)
        steps.append(lam)
        if _OBS.enabled:
            trace_snes(it, fnorm, step_length=lam, linear_iterations=kits)
        if monitor:
            monitor(it, fnorm)
        if fnorm <= tol:
            return NonlinearResult(x, True, it, residuals, lin_its, steps,
                                   reason=good)
        if nonfinite(fnorm):
            return NonlinearResult(x, False, it, residuals, lin_its, steps,
                                   reason=_NAN)
        if limit and fnorm > limit:
            return NonlinearResult(x, False, it, residuals, lin_its, steps,
                                   reason=_DTOL)
    return NonlinearResult(x, False, maxiter, residuals, lin_its, steps,
                           reason=_ITS)


@instrument("SNESSolve_picard")
def picard(
    residual: Callable[[np.ndarray], np.ndarray],
    solve_picard: Callable[[np.ndarray, np.ndarray, float], tuple[np.ndarray, int]],
    x0: np.ndarray,
    rtol: float = 1e-2,
    atol: float = 0.0,
    maxiter: int = 30,
    lin_rtol: float = 1e-3,
    monitor: Callable | None = None,
    dtol: float = DEFAULT_DTOL,
) -> NonlinearResult:
    """Picard (successive substitution) iteration.

    ``solve_picard(x, F, rtol_lin)`` solves the Picard-linearized system
    (frozen effective viscosity) for the correction.  Robust far from the
    solution; the paper notes it stagnates for plasticity models, which the
    nonlinear-convergence tests exhibit.  Carries the same NaN/``dtol``
    guards as :func:`newton`.
    """
    x = x0.copy()
    F = residual(x)
    fnorm = float(np.linalg.norm(F))
    residuals = [fnorm]
    tol, good = stopping_tolerance(fnorm, fnorm, rtol, atol)
    limit = dtol * fnorm if dtol else 0.0
    lin_its: list[int] = []
    if _OBS.enabled:
        trace_snes(0, fnorm)
    if monitor:
        monitor(0, fnorm)
    if nonfinite(fnorm):
        return NonlinearResult(x, False, 0, residuals, lin_its, reason=_NAN)
    if fnorm <= tol:
        return NonlinearResult(x, True, 0, residuals, lin_its, reason=good)
    for it in range(1, maxiter + 1):
        dx, kits = solve_picard(x, F, lin_rtol)
        lin_its.append(kits)
        x = x + dx
        F = residual(x)
        fnorm = float(np.linalg.norm(F))
        residuals.append(fnorm)
        if _OBS.enabled:
            trace_snes(it, fnorm, linear_iterations=kits)
        if monitor:
            monitor(it, fnorm)
        if fnorm <= tol:
            return NonlinearResult(x, True, it, residuals, lin_its,
                                   reason=good)
        if nonfinite(fnorm):
            return NonlinearResult(x, False, it, residuals, lin_its,
                                   reason=_NAN)
        if limit and fnorm > limit:
            return NonlinearResult(x, False, it, residuals, lin_its,
                                   reason=_DTOL)
    return NonlinearResult(x, False, maxiter, residuals, lin_its, reason=_ITS)
