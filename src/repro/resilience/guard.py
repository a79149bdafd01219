"""Per-iteration residual guards shared by the Krylov drivers.

One :class:`ResidualGuard` instance lives for the duration of a single
solve and is fed the residual norm each iteration.  It detects the three
failure modes a norm can exhibit:

* **non-finiteness** -- a NaN or Inf anywhere in the iterate propagates
  into the norm, so two float comparisons catch a poisoned matvec,
  preconditioner, or right-hand side one iteration after it happens;
* **divergence** -- the norm grew past ``dtol * ||r0||`` (PETSc's
  ``KSP_DIVERGED_DTOL``, default ``dtol = 1e4``);
* **stagnation** -- no new best residual for ``stag_window`` consecutive
  iterations while still above tolerance.  The improvement test uses a
  tiny relative margin so floating-point jitter around a plateau does not
  count as progress, but the slow grind of a genuine plateau-then-converge
  history (Fig. 2's high-contrast solves) does.

The clean-path cost is a handful of scalar compares per iteration --
measured against the solver's per-iteration operator apply this is noise
(see ``benchmarks/check_resilience_overhead.py``).
"""

from __future__ import annotations

from .reasons import ConvergedReason, nonfinite

#: PETSc's default divergence tolerance
DEFAULT_DTOL = 1e4
#: relative margin below the best-so-far residual that counts as progress
STAG_MARGIN = 1e-12


class ResidualGuard:
    """Classify a residual-norm history as it grows; returns DIVERGED_* or None.

    Parameters
    ----------
    r0:
        Initial residual norm (the divergence reference).
    dtol:
        Divergence tolerance; ``rnorm > dtol * r0`` fails the solve.
        ``0`` or ``None`` disables the check.
    stag_window:
        Declare stagnation after this many consecutive iterations without
        a new best residual.  ``0`` (default) disables the check --
        norm-minimizing outer methods plateau legitimately (Fig. 2), so
        only the methods that can truly spin (BiCGstab, GCR on indefinite
        operators) enable it.
    """

    __slots__ = ("limit", "best", "since_best", "stag_window")

    def __init__(self, r0: float, dtol: float | None = DEFAULT_DTOL,
                 stag_window: int = 0):
        self.limit = (dtol * r0) if dtol else 0.0
        self.best = r0
        self.since_best = 0
        self.stag_window = int(stag_window)

    def restart(self, rnorm: float) -> None:
        """A restarted method's true residual: the best any later
        iteration has to beat (an estimate that undershot must not set
        the bar for the next cycle)."""
        self.best = rnorm

    def check(self, rnorm: float) -> ConvergedReason | None:
        """Feed one residual norm; returns a DIVERGED_* reason or ``None``."""
        if nonfinite(rnorm):
            return ConvergedReason.DIVERGED_NAN
        if self.limit and rnorm > self.limit:
            return ConvergedReason.DIVERGED_DTOL
        if self.stag_window:
            if rnorm < self.best * (1.0 - STAG_MARGIN):
                self.best = rnorm
                self.since_best = 0
            else:
                self.since_best += 1
                if self.since_best >= self.stag_window:
                    return ConvergedReason.DIVERGED_STAGNATION
        return None
