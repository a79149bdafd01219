"""``repro.resilience``: the solver-failure taxonomy and recovery layer.

Four pieces, layered the way PETSc layers them (see DESIGN.md, "Failure
taxonomy and recovery"):

* :mod:`~repro.resilience.reasons` -- the :class:`ConvergedReason` enum
  every Krylov/Newton entry point returns via its result object, plus the
  :class:`BreakdownError` recoverable exception;
* :mod:`~repro.resilience.guard` -- cheap per-iteration NaN/Inf,
  divergence-tolerance, and stagnation checks on residual norms;
* :mod:`~repro.resilience.fallback` -- the configurable preconditioner
  downgrade ladder (matrix-free GMG -> assembled GMG -> SA-AMG -> Jacobi
  restart) used by ``solve_stokes_resilient``;
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

Time-loop self-healing (snapshot + dt rollback, with the budget and the
back-off in the constants ``MAX_STEP_RETRIES``, ``DT_BACKOFF`` and
``DT_RECOVER_AFTER``) lives with the time loop in
:mod:`repro.sim.timeloop`; it consumes this package's reasons and
records through the same obs trace stream.
"""

from .reasons import (
    BreakdownError,
    ConvergedReason,
    HealthCheckFailure,
    converged_reason,
    nonfinite,
)
from .guard import DEFAULT_DTOL, ResidualGuard
from .fallback import (
    DEFAULT_RETRY_ON,
    FallbackLadder,
    RECOVERABLE,
    Rung,
    default_rungs,
)
from .health import HealthConfig, HealthMonitor, guard_field
from .inject import FaultInjector

__all__ = [
    "BreakdownError",
    "ConvergedReason",
    "HealthCheckFailure",
    "HealthConfig",
    "HealthMonitor",
    "guard_field",
    "converged_reason",
    "nonfinite",
    "DEFAULT_DTOL",
    "ResidualGuard",
    "DEFAULT_RETRY_ON",
    "FallbackLadder",
    "RECOVERABLE",
    "Rung",
    "default_rungs",
    "FaultInjector",
]
