"""Schur complement reduction (SCR / Uzawa family, SS III-B, SS IV-A).

Solves the saddle system by eliminating velocity:

    1.  A w = b_u                      (accurate viscous solve)
    2.  S dp = b_p - D w,  S = -D A^{-1} G   (Krylov on the Schur complement,
        every apply containing an accurate viscous solve)
    3.  A du = b_u - G dp

Each Schur apply is expensive, but the preconditioned operator is
symmetric (normal), so convergence does not degrade with coefficient
contrast the way the lower-triangular fieldsplit does -- the trade the
paper demonstrates in SS IV-A and our ablation A4 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..resilience.reasons import ConvergedReason
from ..solvers.krylov import cg, gcr
from .fieldsplit import SchurMass


@dataclass
class SCRStats:
    outer_iterations: int = 0
    inner_iterations: list[int] = field(default_factory=list)
    converged: bool = False
    #: the outer GCR's stopping reason, or ``DIVERGED_ITS`` when an inner
    #: velocity solve missed its tolerance (set by :func:`solve_scr`)
    reason: ConvergedReason = ConvergedReason.CONVERGED_ITERATING

    @property
    def total_inner(self) -> int:
        return int(sum(self.inner_iterations))


def solve_scr(
    stokes_op,
    b: np.ndarray,
    velocity_pc,
    schur: SchurMass | None = None,
    rtol: float = 1e-5,
    inner_rtol: float = 1e-8,
    maxiter: int = 200,
    inner_maxiter: int = 400,
    monitor=None,
) -> tuple[np.ndarray, SCRStats]:
    """Solve the coupled system by Schur complement reduction.

    ``velocity_pc`` preconditions the inner viscous CG solves (typically
    the same multigrid V-cycle the fieldsplit would use, now wrapped in an
    accurate Krylov iteration).  The outer Schur iteration stops when the
    coupled pressure residual meets ``rtol * ||b||``, the fieldsplit's
    criterion; an inner solve that misses ``inner_rtol`` turns a converged
    outer reason into ``DIVERGED_ITS``.
    """
    pb = stokes_op.problem
    nu = stokes_op.nu
    bu, bp = b[:nu], b[nu:]
    schur = schur or SchurMass(pb.mesh, pb.eta_q, pb.quad)
    stats = SCRStats()
    inner_missed = False

    def solve_A(rhs: np.ndarray) -> np.ndarray:
        nonlocal inner_missed
        res = cg(
            stokes_op._apply_A, rhs, M=velocity_pc, rtol=inner_rtol,
            maxiter=inner_maxiter,
        )
        stats.inner_iterations.append(res.iterations)
        inner_missed |= not res.converged
        return res.x

    w = solve_A(bu)
    rhs_p = bp - stokes_op.divergence(w)

    def minus_S(p: np.ndarray) -> np.ndarray:
        """Apply ``-S = D A^{-1} G`` (symmetric positive semidefinite)."""
        return stokes_op.divergence(solve_A(stokes_op.gradient(p)))

    def M_schur(rp: np.ndarray) -> np.ndarray:
        # preconditioner for -S is +M_p(1/eta)^{-1}
        return -schur(rp)

    # the Schur residual is the coupled pressure residual, so scale rtol
    # from ||rhs_p|| (often 50x ||b||) to the coupled ||b||
    pnorm = np.linalg.norm(rhs_p)
    outer_rtol = rtol * np.linalg.norm(b) / pnorm if pnorm > 0.0 else rtol
    res_p = gcr(
        minus_S, -rhs_p, M=M_schur, rtol=outer_rtol, maxiter=maxiter,
        monitor=monitor,
    )
    dp = res_p.x
    stats.outer_iterations = res_p.iterations

    du = solve_A(bu - stokes_op.gradient(dp))
    if stokes_op.bc is not None:
        du[stokes_op.bc.dofs] = stokes_op.bc.values
    stats.reason = res_p.reason
    if inner_missed and stats.reason.is_converged:
        stats.reason = ConvergedReason.DIVERGED_ITS
    stats.converged = stats.reason.is_converged
    return np.concatenate([du, dp]), stats
