"""High-level driver for one linearized Stokes solve.

Wires together the pieces exactly as SS IV-A configures them: an outer
flexible Krylov method (GCR by default) on the full space, iterating to an
*unpreconditioned* relative tolerance of 1e-5; the block lower-triangular
fieldsplit preconditioner with one V(2,2) geometric multigrid cycle as the
action of ``J_uu^{-1}``; and a smoothed-aggregation V-cycle as the coarse
grid solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..mg.coefficients import coefficient_hierarchy
from ..mg.gmg import GMGConfig, build_gmg
from ..obs import registry as _obs
from ..parallel.executor import use_workers
from ..resilience.fallback import FallbackLadder, default_rungs
from ..resilience.guard import DEFAULT_DTOL
from ..resilience.reasons import ConvergedReason
from ..solvers.krylov import gcr, fgmres
from .fieldsplit import FieldSplitPreconditioner
from .operators import StokesOperator, StokesProblem
from .scr import solve_scr


#: outer flexible Krylov methods, by ``StokesConfig.outer``
OUTER_METHODS = {"gcr": gcr, "fgmres": fgmres}


@dataclass
class StokesConfig(GMGConfig):
    """Configuration of the linear Stokes solve.

    The multigrid settings of the velocity block (``operator``,
    ``mg_levels``, ``galerkin``, ``smoother_degree``, ``coarse_solver``,
    ``gamma``) are :class:`~repro.mg.gmg.GMGConfig`'s, which
    :func:`solve_stokes` hands to :func:`~repro.mg.gmg.build_gmg` as they
    are; the fields below configure the outer solve.  An unknown
    ``operator``, ``coarse_solver``, ``outer``, ``scheme`` or
    ``velocity_pc`` raises ``ValueError`` at construction.  The SCR
    scheme's inner solves run to :func:`~repro.stokes.scr.solve_scr`'s
    ``inner_rtol``.
    """

    outer: str = "gcr"  # 'gcr' | 'fgmres'
    rtol: float = 1e-5
    maxiter: int = 400
    #: Krylov restart length; high-contrast problems stagnate before they
    #: converge (Fig. 2), so the recurrence must outlive the plateau
    restart: int = 100
    scheme: str = "fieldsplit"  # 'fieldsplit' | 'scr'
    project_pressure_nullspace: bool = False
    #: shared-memory workers for the compiled apply and the assembled
    #: levels' SpMV (None reads $REPRO_WORKERS; 1 = serial); any count
    #: gives the serial result bit for bit.  A solve arms this width's
    #: thread pool unless an outer scope armed an engine first
    workers: int | None = None
    #: velocity-block preconditioner: 'gmg' (the paper's V-cycle) or
    #: 'jacobi' (diagonal scaling -- the last rung of the fallback ladder,
    #: slow but nearly unbreakable since it needs no hierarchy setup)
    velocity_pc: str = "gmg"
    #: outer divergence tolerance: residual growth past ``dtol * ||r0||``
    #: stops the solve with ``DIVERGED_DTOL`` (0 disables)
    dtol: float = DEFAULT_DTOL

    _CHOICES: ClassVar[dict] = {
        **GMGConfig._CHOICES, "outer": tuple(OUTER_METHODS),
        "scheme": ("fieldsplit", "scr"), "velocity_pc": ("gmg", "jacobi"),
    }


@dataclass
class StokesSolution:
    """Velocity/pressure fields plus solver diagnostics."""

    u: np.ndarray
    p: np.ndarray
    iterations: int
    converged: bool
    residuals: list[float]
    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    mg_stats: object = None
    extra: dict = field(default_factory=dict)
    #: why the outer solve stopped; derived from ``converged`` when a
    #: construction site leaves the sentinel (same contract as SolveResult)
    reason: ConvergedReason = ConvergedReason.CONVERGED_ITERATING

    def __post_init__(self):
        if self.reason == ConvergedReason.CONVERGED_ITERATING:
            self.reason = (
                ConvergedReason.CONVERGED_RTOL
                if self.converged
                else ConvergedReason.DIVERGED_ITS
            )


def _pressure_null_vector(mesh) -> np.ndarray:
    """The constant-pressure function in P1disc coefficients."""
    v = np.zeros(4 * mesh.nel)
    v[0::4] = 1.0
    return v


def solve_stokes(
    problem: StokesProblem,
    config: StokesConfig | None = None,
    eta_levels: list | None = None,
    velocity_operator=None,
    monitor=None,
    rhs: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    stokes_operator: StokesOperator | None = None,
) -> StokesSolution:
    """Solve one (Picard-)linearized Stokes problem.

    Parameters
    ----------
    eta_levels:
        Optional viscosity per multigrid level (finest first); derived by
        nodal restriction of ``problem.eta_q`` when omitted.
    velocity_operator:
        Optional operator (e.g. Newton linearization) used in the coupled
        matvec while the preconditioner keeps the Picard operator
        (SS III-A).
    rhs / x0:
        Override the body-force right-hand side / initial guess (the
        nonlinear drivers pass residuals through here).
    stokes_operator:
        The Picard :class:`StokesOperator` of ``problem``, already built
        (the nonlinear loop builds one per iterate for its residual).  Used
        as it is when its viscous kernel is ``config.operator``; a rung of
        the fallback ladder with another kernel builds its own and takes
        only its ``B``.
    """
    cfg = config or StokesConfig()
    mesh = problem.mesh
    if problem.bc_builder is None:
        raise ValueError("solve_stokes needs problem.bc_builder for the MG levels")

    t0 = time.perf_counter()
    # every operator and level is built here, on the engine it then runs on
    with use_workers(cfg.workers), _obs.stage("StokesSetup"):
        # the Picard operator: preconditioned by every velocity_pc, and the
        # matvec too unless a Newton linearization replaces its viscous block
        picard = stokes_operator
        if picard is None or picard.A_op.name != cfg.operator:
            picard = StokesOperator(
                problem, kind=cfg.operator,
                divergence=getattr(stokes_operator, "B", None),
            )
        op = (picard if velocity_operator is None
              else picard.with_velocity_operator(velocity_operator))
        if cfg.velocity_pc == "jacobi":
            # last rung of the fallback ladder: diagonal scaling of the
            # viscous block, no hierarchy to build and nothing to break
            with _obs.timed("PCSetUp_jacobi"):
                d = np.array(picard.A_op.diagonal(), dtype=np.float64)
                if problem.bc is not None:
                    d[problem.bc.mask] = 1.0  # BC rows are identity
                d[d == 0.0] = 1.0
                dinv = 1.0 / d
            vel_pc = lambda ru: dinv * ru  # noqa: E731
            mg_stats = None
        else:  # "gmg"
            meshes = mesh.hierarchy(cfg.mg_levels)[::-1]
            # the Picard viscous block on problem.eta_q is multigrid level
            # 0; caller-supplied level viscosities get their own operator
            fine_op = picard.A_op if eta_levels is None else None
            if eta_levels is None:
                eta_levels = coefficient_hierarchy(
                    meshes, problem.eta_q, problem.quad
                )
            with _obs.timed("PCSetUp_gmg"):
                vel_pc, mg_stats = build_gmg(
                    meshes, eta_levels, problem.bc_builder, cfg,
                    fine_op=fine_op,
                )
        with _obs.timed("PCSetUp_fieldsplit"):
            pc = FieldSplitPreconditioner(op, vel_pc)
    setup_s = time.perf_counter() - t0

    b = op.rhs() if rhs is None else rhs
    nullvec = None
    if cfg.project_pressure_nullspace:
        nullvec = _pressure_null_vector(mesh)
        nn2 = nullvec @ nullvec

    nu = op.nu

    def project(x):
        if nullvec is not None:
            x[nu:] -= ((x[nu:] @ nullvec) / nn2) * nullvec
        return x

    t0 = time.perf_counter()
    if cfg.scheme == "scr":
        with _obs.stage("StokesSolve"):
            x, scr_stats = solve_scr(
                op, b, velocity_pc=vel_pc, rtol=cfg.rtol,
                maxiter=cfg.maxiter, monitor=monitor,
            )
        x = project(x)
        solve_s = time.perf_counter() - t0
        return StokesSolution(
            u=x[:nu], p=x[nu:], iterations=scr_stats.outer_iterations,
            converged=scr_stats.converged, residuals=[],
            setup_seconds=setup_s, solve_seconds=solve_s, mg_stats=mg_stats,
            extra={"scr": scr_stats}, reason=scr_stats.reason,
        )

    method = OUTER_METHODS[cfg.outer]

    apply_op = op.apply
    pc_apply = pc
    if nullvec is not None:
        b = project(b.copy())

        def apply_op(x, _op=op):
            return project(_op.apply(x))

        def pc_apply(r, _pc=pc):
            return project(_pc(r))

    with _obs.stage("StokesSolve"):
        res = method(
            apply_op, b, x0=x0, M=pc_apply, rtol=cfg.rtol, maxiter=cfg.maxiter,
            restart=cfg.restart, monitor=monitor, dtol=cfg.dtol,
        )
    x = project(res.x)
    solve_s = time.perf_counter() - t0
    return StokesSolution(
        u=x[:nu], p=x[nu:], iterations=res.iterations, converged=res.converged,
        residuals=res.residuals, setup_seconds=setup_s, solve_seconds=solve_s,
        mg_stats=mg_stats, extra={"operator": op, "preconditioner": pc},
        reason=res.reason,
    )


def solve_stokes_resilient(
    problem: StokesProblem,
    config: StokesConfig | None = None,
    ladder: FallbackLadder | None = None,
    **kwargs,
) -> StokesSolution:
    """:func:`solve_stokes` behind the preconditioner fallback ladder.

    Attempts the configured solve; on a recoverable failure (a DIVERGED
    reason in :data:`~repro.resilience.fallback.DEFAULT_RETRY_ON`, or a
    recoverable exception such as a smoother breakdown) it walks the
    downgrade ladder -- matrix-free GMG -> assembled GMG -> single-level
    SA-AMG -> Jacobi-preconditioned FGMRES restart -- re-running the solve
    under each progressively cheaper-to-trust configuration.  Each
    downgrade is recorded as a ``ResilienceFallback[...]`` obs event and a
    ``resilience`` trace record, and the walk's event list lands in
    ``solution.extra["fallback_events"]``.

    Raises :class:`~repro.resilience.reasons.BreakdownError` only when
    every rung *raised*; a final rung that merely failed to converge
    returns its (finite, best-effort) solution with the DIVERGED reason so
    the time loop can decide between accepting and rolling back.
    """
    cfg = config or StokesConfig()
    ladder = ladder or FallbackLadder(default_rungs())

    def attempt(rung_cfg: StokesConfig) -> StokesSolution:
        return solve_stokes(problem, rung_cfg, **kwargs)

    sol, events = ladder.walk(cfg, attempt, classify=lambda s: s.reason)
    if events:
        sol.extra["fallback_events"] = events
    return sol
