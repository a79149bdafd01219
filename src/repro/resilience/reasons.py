"""PETSc-style convergence reasons and the breakdown exception.

The paper's production runs (SS V) take 1500-2000 time steps through a
strongly nonlinear visco-plastic rheology.  PETSc survives individual
solver failures because every ``KSPSolve``/``SNESSolve`` reports a typed
``ConvergedReason`` instead of either raising or silently returning
garbage; callers (fallback preconditioners, time-step controllers) branch
on it.  This module is that taxonomy for the from-scratch stack:

* positive values mean the solve succeeded (and say which tolerance won);
* negative values mean it failed (and say how);
* zero (``CONVERGED_ITERATING``) is the PETSc convention for "no reason
  recorded", used only as a sentinel default.

Guards are intentionally cheap: every Krylov method already computes a
residual norm per iteration, and NaN/Inf in any component of the iterate
propagates into that norm, so non-finiteness is detected by two float
comparisons (``rnorm != rnorm`` catches NaN, ``rnorm == inf`` catches
overflow) with no extra passes over the vectors.
"""

from __future__ import annotations

import enum

_INF = float("inf")


class ConvergedReason(enum.IntEnum):
    """Why an iterative solve stopped (sign convention: PETSc's)."""

    #: sentinel: the solve is still running / no reason was recorded
    CONVERGED_ITERATING = 0
    #: relative tolerance ``rnorm <= rtol * ||b||`` met
    CONVERGED_RTOL = 2
    #: absolute tolerance ``rnorm <= atol`` met
    CONVERGED_ATOL = 3
    #: iteration budget exhausted without meeting the tolerance
    DIVERGED_ITS = -3
    #: residual grew past ``dtol * ||r0||``
    DIVERGED_DTOL = -4
    #: the recurrence broke down (zero inner product, singular block, ...)
    DIVERGED_BREAKDOWN = -5
    #: a NaN or Inf appeared in a residual norm or operator output
    DIVERGED_NAN = -6
    #: no residual reduction over the stagnation window
    DIVERGED_STAGNATION = -7

    @property
    def is_converged(self) -> bool:
        return self.value > 0

    @property
    def is_diverged(self) -> bool:
        return self.value < 0

    @property
    def needs_recovery(self) -> bool:
        """A failure the caller recovers from: every ``DIVERGED_*`` except
        ``DIVERGED_ITS``, whose exhausted budget still leaves a usable
        finite iterate.  The preconditioner fallback of
        ``solve_stokes_resilient`` and the time loop's rollback both
        branch on it."""
        return self.value < 0 and self is not ConvergedReason.DIVERGED_ITS


class BreakdownError(RuntimeError):
    """A numerical component failed in a way its caller can recover from.

    Raised by guarded kernels (e.g. the Chebyshev smoother producing a
    non-finite iterate) and by the fallback/rollback engines when every
    recovery option is exhausted.  Carries the :class:`ConvergedReason`
    that classified the failure so policy code never parses messages.
    """

    def __init__(self, message: str,
                 reason: ConvergedReason = ConvergedReason.DIVERGED_BREAKDOWN):
        super().__init__(message)
        self.reason = reason


class HealthCheckFailure(BreakdownError):
    """A physics-state invariant was violated and could not be repaired.

    Raised by the :mod:`repro.resilience.health` gates (and the guarded
    mesh/particle primitives they wrap) when the evolving state -- mesh
    geometry, material-point population, or a projected coefficient field
    -- fails validation and every configured repair action is exhausted.
    Subclasses :class:`BreakdownError` so the time loop's rollback engine
    absorbs it through the exact same channel as a solver breakdown: the
    snapshot is restored and the step retried with a smaller dt.

    ``check`` names the violated invariant (``"mesh"``, ``"particles"``,
    ``"field:eta"``, ``"divergence"``, ...) and ``details`` carries the
    measured numbers, so policy code and tests never parse messages.
    """

    def __init__(self, message: str, check: str = "",
                 details: dict | None = None,
                 reason: ConvergedReason = ConvergedReason.DIVERGED_BREAKDOWN):
        super().__init__(message, reason=reason)
        self.check = check
        self.details = dict(details or {})


def nonfinite(value: float) -> bool:
    """True when ``value`` is NaN or +-Inf (two comparisons, no numpy call)."""
    return value != value or value == _INF or value == -_INF


def stopping_tolerance(
    b_norm: float, r0_norm: float, rtol: float, atol: float
) -> tuple[float, ConvergedReason]:
    """Stopping tolerance plus the reason reported when it is met.

    Relative to ``||b||`` (PETSc's default), so an exact initial guess
    converges immediately; falls back to ``||r0||`` for homogeneous
    systems.  The binding criterion is fixed per solve: whichever of
    ``rtol * ref`` / ``atol`` is larger decides the reported reason.
    """
    ref = b_norm if b_norm > 0.0 else r0_norm
    rbound = rtol * ref
    if atol > rbound:
        return atol, ConvergedReason.CONVERGED_ATOL
    return rbound, ConvergedReason.CONVERGED_RTOL
