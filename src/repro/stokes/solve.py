"""High-level driver for one linearized Stokes solve.

Wires together the pieces exactly as SS IV-A configures them: an outer
flexible Krylov method (FGMRES by default) on the full space, iterating to
an *unpreconditioned* relative tolerance of 1e-5; the block lower-triangular
fieldsplit preconditioner with one V(2,2) geometric multigrid cycle as the
action of ``J_uu^{-1}``; and a smoothed-aggregation V-cycle as the coarse
grid solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from ..matfree import make_operator
from ..mg.coefficients import coefficient_hierarchy
from ..mg.gmg import GMGConfig, build_gmg
from ..obs import registry as _obs
from ..obs.trace import trace_resilience
from ..parallel.executor import use_workers
from ..resilience.reasons import BreakdownError, ConvergedReason
from ..solvers import krylov
from .fieldsplit import FieldSplitPreconditioner
from .operators import StokesOperator, StokesProblem
from .scr import solve_scr


#: a ``CONVERGED_*`` solve whose true relative residual exceeds
#: ``EXIT_SLACK * rtol`` is reported as ``DIVERGED_BREAKDOWN``
EXIT_SLACK = 10.0


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
    ``inner_rtol``; the outer method's divergence tolerance is
    :data:`~repro.resilience.guard.DEFAULT_DTOL`.
    """

    #: outer flexible Krylov method: 'fgmres' (one classical Gram-Schmidt
    #: pass per iteration, as PETSc's default) or 'gcr' (two stored
    #: direction sets, modified Gram-Schmidt; ablation A3)
    outer: str = "fgmres"
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
    #: 'jacobi' (diagonal scaling -- the ``jacobi-restart`` rung of
    #: :func:`solve_stokes_resilient`, slow but built without a hierarchy)
    velocity_pc: str = "gmg"

    _CHOICES: ClassVar[dict] = {
        **GMGConfig._CHOICES, "outer": ("gcr", "fgmres"),
        "scheme": ("fieldsplit", "scr"), "velocity_pc": ("gmg", "jacobi"),
    }


@dataclass
class StokesSolution:
    """Velocity/pressure fields plus solver diagnostics.

    ``extra["true_relres"]`` is ``||b - K x|| / ||b||`` of the returned
    ``x``: the norm (F)GMRES formed at its last cycle end, else measured
    with one coupled apply after the solve; a ``CONVERGED_*`` reason
    guarantees it is at most ``EXIT_SLACK * rtol``.
    """

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
    velocity_operator=None,
    monitor=None,
    rhs: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    stokes_operator: StokesOperator | None = None,
) -> StokesSolution:
    """Solve one (Picard-)linearized Stokes problem.

    Parameters
    ----------
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
        as it is when its viscous kernel is ``config.operator``; a fallback
        rung with another kernel swaps in its own viscous block
        (:meth:`StokesOperator.with_velocity_operator`).

    A scheme that reports ``CONVERGED_*`` while the true relative residual
    misses ``rtol`` by more than :data:`EXIT_SLACK` returns
    ``DIVERGED_BREAKDOWN`` instead.
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
        if picard is None:
            picard = StokesOperator(problem, kind=cfg.operator)
        elif picard.A_op.name != cfg.operator:
            # a fallback rung's kernel, on the caller's pressure lift
            picard = picard.with_velocity_operator(make_operator(
                cfg.operator, mesh, problem.eta_q, quad=problem.quad))
        op = (picard if velocity_operator is None
              else picard.with_velocity_operator(velocity_operator))
        if cfg.velocity_pc == "jacobi":
            # the jacobi-restart rung: diagonal scaling of the viscous
            # block, no hierarchy to build and nothing to break
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
            # the Picard viscous block is multigrid level 0; Galerkin
            # levels read only its coefficient
            eta_levels = ([problem.eta_q] if cfg.galerkin else
                          coefficient_hierarchy(meshes, problem.eta_q,
                                                problem.quad))
            with _obs.timed("PCSetUp_gmg"):
                vel_pc, mg_stats = build_gmg(
                    meshes, eta_levels, problem.bc_builder, cfg,
                    fine_op=picard.A_op,
                )
        with _obs.timed("PCSetUp_fieldsplit"):
            pc = FieldSplitPreconditioner(op, vel_pc)
    setup_s = time.perf_counter() - t0

    b = op.rhs() if rhs is None else rhs
    nu = op.nu
    apply_op = op.apply
    pc_apply = pc
    if cfg.project_pressure_nullspace:
        nullvec = _pressure_null_vector(mesh)
        nn2 = nullvec @ nullvec

        def project(x):
            x[nu:] -= ((x[nu:] @ nullvec) / nn2) * nullvec
            return x

        b = project(b.copy())

        def apply_op(x, _op=op):
            return project(_op.apply(x))

        def pc_apply(r, _pc=pc):
            return project(_pc(r))
    else:
        def project(x):
            return x

    t0 = time.perf_counter()
    with _obs.stage("StokesSolve"):
        if cfg.scheme == "scr":
            x, scr_stats = solve_scr(
                op, b, velocity_pc=vel_pc, rtol=cfg.rtol,
                maxiter=cfg.maxiter, monitor=monitor,
            )
            its, reason, residuals = (scr_stats.outer_iterations,
                                      scr_stats.reason, [])
            extra = {"scr": scr_stats}
            rnorm = None
        else:
            # looked up per solve: a wrapped or patched module function runs
            res = getattr(krylov, cfg.outer)(
                apply_op, b, x0=x0, M=pc_apply, rtol=cfg.rtol,
                maxiter=cfg.maxiter, restart=cfg.restart, monitor=monitor,
            )
            x, its, reason, residuals = (res.x, res.iterations, res.reason,
                                         res.residuals)
            extra = {"operator": op, "preconditioner": pc}
            # (F)GMRES formed b - A x for the x it returns; projecting
            # moves x, so the exit check below applies again
            rnorm = (None if cfg.project_pressure_nullspace
                     else res.true_residual)
        x = project(x)
        # exit check: the measured residual confirms what the scheme
        # reported, one coupled apply unless the outer method measured it
        if rnorm is None:
            rnorm = float(np.linalg.norm(b - apply_op(x)))
        bnorm = float(np.linalg.norm(b))
        relres = rnorm / bnorm if bnorm > 0.0 else rnorm
    solve_s = time.perf_counter() - t0
    if reason.is_converged and not relres <= EXIT_SLACK * cfg.rtol:
        reason = ConvergedReason.DIVERGED_BREAKDOWN
    extra["true_relres"] = relres
    return StokesSolution(
        u=x[:nu], p=x[nu:], iterations=its, converged=reason.is_converged,
        residuals=residuals, setup_seconds=setup_s, solve_seconds=solve_s,
        mg_stats=mg_stats, extra=extra, reason=reason,
    )


#: the fallback ladder of :func:`solve_stokes_resilient`: each rung is a
#: name and the config it solves with, made from the caller's config
FALLBACK_RUNGS = (
    ("primary", lambda cfg: cfg),
    # one smoothed-aggregation V-cycle on the assembled viscous block: no
    # geometric transfer chain, and it converges where Jacobi needs 350+ its
    ("sa-amg", lambda cfg: replace(
        cfg, operator="asmb", mg_levels=1, coarse_solver="sa")),
    # diagonal scaling under FGMRES with twice the budget: slow, but its
    # setup cannot fail
    ("jacobi-restart", lambda cfg: replace(
        cfg, velocity_pc="jacobi", outer="fgmres", maxiter=2 * cfg.maxiter)),
)

#: exceptions a rung may raise and the next rung absorb; anything else
#: (programming errors, interrupts) propagates
RECOVERABLE = (
    BreakdownError,
    FloatingPointError,
    ZeroDivisionError,
    np.linalg.LinAlgError,
    ValueError,
)


def solve_stokes_resilient(
    problem: StokesProblem,
    config: StokesConfig | None = None,
    **kwargs,
) -> StokesSolution:
    """:func:`solve_stokes` behind the :data:`FALLBACK_RUNGS` ladder.

    Runs the configured solve (``primary``).  When it raises one of
    :data:`RECOVERABLE` or returns a reason whose
    :attr:`~repro.resilience.reasons.ConvergedReason.needs_recovery` holds
    (NaN, dtol, breakdown -- including a convergence the exit check
    refuted -- or stagnation; not ``DIVERGED_ITS``), it re-runs the solve
    on the next rung: single-level SA-AMG on the assembled operator, then
    Jacobi-preconditioned FGMRES with twice the iteration budget.  Each
    downgrade is a ``ResilienceFallback[<rung>]`` obs span and a
    ``resilience`` trace record, and the list of downgrades lands in
    ``solution.extra["fallback_events"]``.

    Raises :class:`~repro.resilience.reasons.BreakdownError` only when
    every rung *raised*; otherwise the last result is returned, so a last
    rung that merely failed to converge hands back its (finite) iterate
    with its DIVERGED reason and the time loop decides between accepting
    and rolling back.
    """
    cfg = config or StokesConfig()
    events: list[dict] = []
    sol = error = None
    for i, (name, transform) in enumerate(FALLBACK_RUNGS):
        t0 = time.perf_counter()
        try:
            result = solve_stokes(problem, transform(cfg), **kwargs)
        except RECOVERABLE as err:
            error = err
            reason = getattr(err, "reason", ConvergedReason.DIVERGED_BREAKDOWN)
        else:
            sol, error, reason = result, None, result.reason
            if not reason.needs_recovery:
                break
        elapsed = time.perf_counter() - t0
        nxt = FALLBACK_RUNGS[i + 1][0] if i + 1 < len(FALLBACK_RUNGS) else None
        events.append({
            "rung": name, "reason": ConvergedReason(reason).name,
            "error": repr(error) if error is not None else None,
            "seconds": elapsed, "next": nxt,
        })
        _obs.record_span(f"ResilienceFallback[{name}]", t0, t0 + elapsed)
        trace_resilience("fallback", rung=name, reason=events[-1]["reason"],
                         next=nxt)
    if sol is None:
        raise BreakdownError(
            f"every fallback rung failed "
            f"({', '.join(e['rung'] for e in events)}); last error: {error!r}",
            reason=ConvergedReason.DIVERGED_BREAKDOWN,
        ) from error
    if events:
        sol.extra["fallback_events"] = events
    return sol
