"""Generic multigrid hierarchy and V-cycle.

The same cycle code runs both the geometric hierarchy (whose finest level
may be matrix-free) and the smoothed-aggregation hierarchy -- matching the
paper's design where "the same smoother configuration is used in the
geometric and algebraic parts of the multigrid cycle".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..obs import registry as _obs
from ..obs.trace import trace_mg


@dataclass
class MGLevel:
    """One multigrid level.

    Attributes
    ----------
    apply:
        Operator application ``v -> A v`` (boundary conditions included).
    smoother:
        Object with ``smooth(b, x) -> x`` (ignored on the coarsest level).
        If it also has ``smooth_with_residual(b, x) -> (x, r)`` (Chebyshev
        does), pre-smoothing takes the residual from there instead of an
        explicit ``b - A x``.
    prolong:
        Sparse matrix interpolating from the *next coarser* level to this
        one (``None`` on the coarsest level).  Restriction is the transpose
        (paper SS III-C).
    restrict:
        The transpose of ``prolong`` stored explicitly as CSR, so the
        restriction is a row-wise SpMV instead of SciPy's slower
        column-scatter ``csc_matvec``; :class:`MGHierarchy` fills it in.
    bc_mask:
        Boolean mask of constrained dofs (residuals restricted to a coarser
        level are zeroed there), or ``None``.
    coarse_solve:
        On the coarsest level only: ``b -> x`` (approximate) solver.
    matrix:
        The sparse matrix ``apply`` multiplies by, on an assembled level
        (``None`` where a kernel applies the level).
    """

    apply: Callable[[np.ndarray], np.ndarray]
    smoother: object | None = None
    prolong: object | None = None
    restrict: object | None = None
    bc_mask: np.ndarray | None = None
    coarse_solve: Callable[[np.ndarray], np.ndarray] | None = None
    matrix: sp.csr_matrix | None = None
    # diagnostics
    ndof: int = 0
    label: str = ""


class MGHierarchy:
    """A stack of :class:`MGLevel` (finest first) with a V-cycle driver.

    Instances are callables ``r -> x``, i.e. usable directly as Krylov
    preconditioners (one V-cycle per application, as the paper configures
    the action of ``J_uu^{-1}``).
    """

    def __init__(self, levels: list[MGLevel], gamma: int = 1):
        if not levels:
            raise ValueError("empty hierarchy")
        if levels[-1].coarse_solve is None:
            raise ValueError("coarsest level must define coarse_solve")
        if gamma < 1:
            raise ValueError("cycle index gamma must be >= 1")
        for lvl in levels:
            if lvl.prolong is not None and lvl.restrict is None:
                lvl.restrict = sp.csr_matrix(lvl.prolong.T)
        self.levels = levels
        #: cycle index: 1 = V-cycle, 2 = W-cycle
        self.gamma = int(gamma)
        self.coarse_solve_calls = 0

    @property
    def nlevels(self) -> int:
        return len(self.levels)

    def vcycle(self, b: np.ndarray, x: np.ndarray | None = None, level: int = 0) -> np.ndarray:
        """One multigrid cycle on ``A x = b`` starting at ``level``.

        ``gamma = 1`` gives the V-cycle the paper uses throughout;
        ``gamma = 2`` visits each coarse level twice (W-cycle).
        """
        lvl = self.levels[level]
        if level == self.nlevels - 1:
            self.coarse_solve_calls += 1
            with _obs.timed("MGCoarseSolve"):
                return lvl.coarse_solve(b)
        obs_on = _obs.STATE.enabled
        # incoming residual norm is free only for a zero initial guess
        rnorm_in = float(np.linalg.norm(b)) if obs_on and x is None else None
        smooth_with_residual = getattr(lvl.smoother, "smooth_with_residual", None)
        if smooth_with_residual is not None:
            with _obs.timed(f"MGSmooth_level{level}"):
                x, r = smooth_with_residual(b, x)
        else:
            # smoothers without a residual recurrence (SSOR, ...)
            with _obs.timed(f"MGSmooth_level{level}"):
                x = lvl.smoother.smooth(b, x)
            with _obs.timed(f"MGResid_level{level}"):
                r = b - lvl.apply(x)
        coarse = self.levels[level + 1]
        if obs_on:
            trace_mg(level, "presmooth", float(np.linalg.norm(r)), rnorm_in)
        with _obs.timed(f"MGRestrict_level{level}"):
            rc = lvl.restrict @ r
        if coarse.bc_mask is not None:
            rc[coarse.bc_mask] = 0.0
        # gamma = 1: V-cycle; gamma = 2: W-cycle (iterate the coarse-level
        # cycle on the same restricted residual)
        ec = None
        for _ in range(self.gamma):
            ec = self.vcycle(rc, ec, level + 1)
        with _obs.timed(f"MGProlong_level{level}"):
            x += lvl.prolong @ ec
        with _obs.timed(f"MGSmooth_level{level}"):
            x = lvl.smoother.smooth(b, x)
        if obs_on and _obs.STATE.mg_post_residuals:
            # one extra operator apply per level per cycle: opt-in
            trace_mg(
                level, "postsmooth", float(np.linalg.norm(b - lvl.apply(x)))
            )
        return x

    def solve_iterate(self, b, x=None, cycles=1):
        """Run repeated V-cycles as a stationary iteration."""
        for _ in range(cycles):
            x = self.vcycle(b, x)
        return x

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Preconditioner interface: one V-cycle from a zero guess."""
        return self.vcycle(r)
