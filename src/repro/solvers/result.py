"""Solve result container shared by all Krylov and nonlinear drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..resilience.reasons import ConvergedReason


@dataclass
class SolveResult:
    """Outcome of an iterative linear solve.

    Attributes
    ----------
    x:
        Final iterate.
    converged:
        Whether the tolerance was met within the iteration budget.
    iterations:
        Number of operator applications of the outer method.
    residuals:
        History of (unpreconditioned, when available) residual norms,
        including the initial one.
    reason:
        Typed :class:`~repro.resilience.reasons.ConvergedReason` -- *why*
        the solve stopped, PETSc-style.  Every solver sets it explicitly;
        the constructor derives a consistent default (``CONVERGED_RTOL`` /
        ``DIVERGED_ITS``) from ``converged`` for legacy construction
        sites, so ``converged == reason.is_converged`` always holds.
    true_residual:
        ``||b - A x||`` of the returned ``x`` when the method formed it
        (GMRES and FGMRES at a cycle end), else ``None``.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residuals: list[float] = field(default_factory=list)
    reason: ConvergedReason = ConvergedReason.CONVERGED_ITERATING
    true_residual: float | None = None

    def __post_init__(self):
        if self.reason == ConvergedReason.CONVERGED_ITERATING:
            self.reason = (
                ConvergedReason.CONVERGED_RTOL
                if self.converged
                else ConvergedReason.DIVERGED_ITS
            )

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")

    @property
    def initial_residual(self) -> float:
        return self.residuals[0] if self.residuals else float("nan")

    def to_dict(self) -> dict:
        """JSON-ready summary (the ``repro.obs`` trace-schema shape)."""
        return {
            "converged": bool(self.converged),
            "reason": self.reason.name,
            "iterations": int(self.iterations),
            "residuals": [float(r) for r in self.residuals],
            "initial_residual": float(self.initial_residual),
            "final_residual": float(self.final_residual),
        }

    def __repr__(self) -> str:
        return (
            f"SolveResult(converged={self.converged}, its={self.iterations}, "
            f"r0={self.initial_residual:.3e}, rN={self.final_residual:.3e}, "
            f"reason={self.reason.name})"
        )
