"""``repro.resilience``: the solver-failure taxonomy and recovery layer.

Four pieces, layered the way PETSc layers them (see DESIGN.md, "Failure
taxonomy and recovery"):

* :mod:`~repro.resilience.reasons` -- the :class:`ConvergedReason` enum
  every Krylov/Newton entry point returns via its result object (its
  ``needs_recovery`` is the one policy for which failures trigger a
  recovery), plus the :class:`BreakdownError` recoverable exception;
* :mod:`~repro.resilience.guard` -- cheap per-iteration NaN/Inf,
  divergence-tolerance, and stagnation checks on residual norms;
* :mod:`~repro.resilience.health` -- physics-state invariant monitoring
  and guarded degradation: mesh validity gates with a remesh/smoothing
  repair ladder, material-point census/thinning/injection with a
  conservation audit, projected-field bound guards, and a discrete
  divergence monitor, all wired into the time loop via
  ``SimulationConfig(health=HealthConfig())`` (its thresholds are module
  constants there; ``health=None`` switches every gate off);
* :mod:`~repro.resilience.inject` -- deterministic fault injection
  (NaN matvecs, singular diagonals, rank kills, truncated checkpoints,
  plus the physics-level ``fold_surface`` / ``starve_cells`` /
  ``poison_viscosity`` modes) for the adversarial test suite and the
  quickstart demo.

The two recovery policies live with the code they recover:
``solve_stokes_resilient`` walks the preconditioner fallback
(primary -> SA-AMG -> Jacobi restart, ``repro.stokes.solve.FALLBACK_RUNGS``)
and the time loop in :mod:`repro.sim.timeloop` does snapshot + dt
rollback (budget and back-off in ``MAX_STEP_RETRIES``, ``DT_BACKOFF`` and
``DT_RECOVER_AFTER``).  Both branch on ``needs_recovery`` and record
through the same obs trace stream.
"""

from .reasons import (
    BreakdownError,
    ConvergedReason,
    HealthCheckFailure,
    nonfinite,
)
from .guard import DEFAULT_DTOL, ResidualGuard
from .health import HealthConfig, HealthMonitor, guard_field
from .inject import FaultInjector

__all__ = [
    "BreakdownError",
    "ConvergedReason",
    "HealthCheckFailure",
    "HealthConfig",
    "HealthMonitor",
    "guard_field",
    "nonfinite",
    "DEFAULT_DTOL",
    "ResidualGuard",
    "FaultInjector",
]
