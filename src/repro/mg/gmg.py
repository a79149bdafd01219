"""Geometric multigrid for the Q2 viscous block (paper SS III-C, SS IV).

Hierarchy layout (paper default, 3 levels):

* finest level: matrix-free tensor-product operator (no assembled matrix
  ever exists at this resolution -- the memory savings that let larger
  problems fit on a machine);
* next level: *rediscretized* on the coarse mesh (you cannot form a
  Galerkin product from a matrix-free fine operator) and, being smoothed,
  applied through the same matrix-free kernel as the finest level -- its
  matrix is assembled only as the input of the Galerkin product below and
  is not kept by the hierarchy;
* lower levels: Galerkin ``R A P`` from the assembled level above
  (more robust for rough coefficients, at assembly cost);
* coarsest level: one V-cycle of smoothed aggregation (GAMG substitute),
  exact LU, block-Jacobi LU, or CG/ASM (the SS V rifting configuration).

Table IV's GMG-i / GMG-ii configurations are expressed through
:class:`GMGConfig` (``operator="asmb"``: every level assembled) and, for
GMG-ii, ``build_gmg(..., galerkin_from_fine=True)`` (Galerkin everywhere).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..fem import assembly
from ..fem.bc import DirichletBC
from ..fem.quadrature import GaussQuadrature
from ..matfree import OPERATOR_TYPES, make_operator
from ..parallel.executor import ParallelCSRMatVec, current_engine
from ..solvers.chebyshev import ChebyshevSmoother
from ..solvers.relaxation import BlockJacobiLU
from .cycles import MGLevel, MGHierarchy
from .transfer import vector_prolongation
from .sa import COARSE_NBLOCKS, smoothed_aggregation, rigid_body_modes


#: coarsest-level solvers of the geometric hierarchy
COARSE_SOLVERS = ("sa", "lu", "bjacobi-lu", "asm-cg")
#: overlap, tolerance and iteration cap of the ``asm-cg`` coarse solve
ASM_OVERLAP = 4
ASM_RTOL = 1e-4
ASM_MAXITER = 25


@dataclass
class GMGConfig:
    """Geometric multigrid configuration: the one declaration of the
    multigrid settings (:class:`~repro.stokes.solve.StokesConfig` inherits
    them and adds the outer solve's).

    Attributes
    ----------
    operator:
        One of ``asmb | mf | tensor | tensor_c | tensor_compiled`` -- the
        Table I kernel applying the finest level and every other level that
        is rediscretized and smoothed (``asmb`` keeps all levels assembled).
        The default compiled kernel falls back to the packed NumPy apply on
        hosts without a C toolchain.
    mg_levels:
        Number of geometric levels (paper uses 3).
    galerkin:
        If True, levels below the first assembled one use Galerkin RAP;
        otherwise they are rediscretized.
    smoother_degree:
        Chebyshev degree per pre/post smooth: 2 gives the paper's V(2,2),
        3 gives the V(3,3) used in the rifting runs.
    coarse_solver:
        ``sa`` (one V-cycle of smoothed aggregation with the default
        :class:`~repro.mg.sa.SAConfig`, the paper's default), ``lu``,
        ``bjacobi-lu``, or ``asm-cg`` (SS V configuration, with
        :data:`ASM_OVERLAP`, :data:`ASM_RTOL` and :data:`ASM_MAXITER`).
    gamma:
        Cycle index: 1 = V-cycle, 2 = W-cycle.

    An unknown ``operator`` or ``coarse_solver`` raises ``ValueError`` at
    construction.  Every level's applies run on the engine in scope when
    the hierarchy is built
    (:func:`~repro.parallel.executor.current_engine`).
    """

    operator: str = "tensor_compiled"
    mg_levels: int = 3
    galerkin: bool = True
    smoother_degree: int = 2
    coarse_solver: str = "sa"
    gamma: int = 1

    #: field -> the values it may take
    _CHOICES: ClassVar[dict] = {"operator": tuple(OPERATOR_TYPES),
                                "coarse_solver": COARSE_SOLVERS}

    def __post_init__(self):
        for name, allowed in self._CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r}; expected one "
                                 f"of {sorted(allowed)}")


@dataclass
class GMGSetupStats:
    """Setup-time breakdown reported by :func:`build_gmg` (Table II columns)."""

    coarse_setup_seconds: float = 0.0
    assemble_seconds: float = 0.0
    galerkin_seconds: float = 0.0
    level_ndofs: list[int] = field(default_factory=list)


def _wrap_assembled(A_bc: sp.csr_matrix):
    engine = current_engine()
    if engine is not None:
        # row-partitioned SpMV on the engine in scope; bit-identical to
        # the plain matvec (each row is one task's dot product)
        return ParallelCSRMatVec(A_bc, engine)
    return lambda v: A_bc @ v


def _coarsest_solver(A_bc: sp.csr_matrix, mesh, bc: DirichletBC, cfg: GMGConfig):
    """Build the coarse-grid solve closure for the coarsest geometric level."""
    if cfg.coarse_solver == "lu":
        lu = spla.splu(A_bc.tocsc())
        return lu.solve
    if cfg.coarse_solver == "bjacobi-lu":
        return BlockJacobiLU(A_bc, COARSE_NBLOCKS)
    if cfg.coarse_solver == "sa":
        B = rigid_body_modes(mesh.coords, bc.mask)
        return smoothed_aggregation(A_bc, B)
    # asm-cg, the last of COARSE_SOLVERS
    from ..solvers.asm import AdditiveSchwarz
    from ..solvers.krylov import cg

    # symmetric (non-restricted) variant: the inner accelerator is CG
    M = AdditiveSchwarz(
        A_bc, nsub=COARSE_NBLOCKS, overlap=ASM_OVERLAP,
        subsolve="ilu0", restricted=False,
    )
    def solve(b):
        return cg(lambda v: A_bc @ v, b, M=M, rtol=ASM_RTOL,
                  maxiter=ASM_MAXITER).x
    return solve


def build_gmg(
    meshes: list,
    eta_levels: list[np.ndarray],
    bc_builder,
    config: GMGConfig | None = None,
    fine_op=None,
    galerkin_from_fine: bool = False,
) -> tuple[MGHierarchy, GMGSetupStats]:
    """Assemble the geometric hierarchy for the viscous block.

    Parameters
    ----------
    meshes:
        Nested meshes, *finest first* (e.g. ``mesh.hierarchy(3)`` reversed --
        use ``mesh.hierarchy(n)[::-1]``); only the first
        ``config.mg_levels`` are used.
    eta_levels:
        Viscosity at quadrature points per mesh, finest first.  Entries for
        Galerkin levels may be ``None``.
    bc_builder:
        ``mesh -> DirichletBC`` building the velocity-space constraints for
        a given level (same faces/components on every level).
    fine_op:
        An already built ``config.operator`` operator on ``meshes[0]``
        with viscosity ``eta_levels[0]`` to use as the finest level instead
        of constructing an identical one (the coupled solve shares its
        viscous block this way).
    galerkin_from_fine:
        If True *and* the fine operator is assembled, the first coarse
        level is also a Galerkin product of the fine matrix (the paper's
        GMG-ii configuration).  Default False: level 1 is rediscretized
        regardless of the fine kernel, so all four Table I kernels share
        an identical hierarchy.
    """
    cfg = config or GMGConfig()
    if len(meshes) < cfg.mg_levels:
        raise ValueError(f"need {cfg.mg_levels} meshes, got {len(meshes)}")
    meshes = meshes[: cfg.mg_levels]
    stats = GMGSetupStats()
    quad = GaussQuadrature.hex(3)
    bcs = [bc_builder(m) for m in meshes]

    if cfg.mg_levels == 1:
        # degenerate hierarchy: assemble and hand the whole problem to the
        # coarse solver (useful for tiny meshes and unit tests)
        bc0 = bcs[0]
        t0 = time.perf_counter()
        A_raw = assembly.assemble_viscous(meshes[0], eta_levels[0], quad)
        A_bc, _ = bc0.eliminate(A_raw, np.zeros(3 * meshes[0].nnodes))
        stats.assemble_seconds += time.perf_counter() - t0
        t0 = time.perf_counter()
        coarse = _coarsest_solver(A_bc, meshes[0], bc0, cfg)
        stats.coarse_setup_seconds += time.perf_counter() - t0
        stats.level_ndofs.append(3 * meshes[0].nnodes)
        lvl = MGLevel(
            apply=_wrap_assembled(A_bc), coarse_solve=coarse,
            bc_mask=bc0.mask, ndof=3 * meshes[0].nnodes,
            label=f"single[{cfg.coarse_solver}]",
        )
        return MGHierarchy([lvl], gamma=cfg.gamma), stats

    def operator_level(op, bc, label):
        """Smoothed level applying through a viscous operator kernel."""
        # calling the operator keeps the MatMult event visible inside
        # smoother sweeps
        apply = bc.wrap_apply(op)
        diag = op.diagonal()
        diag[bc.mask] = 1.0
        return MGLevel(
            apply=apply,
            smoother=ChebyshevSmoother(apply, diag, degree=cfg.smoother_degree),
            bc_mask=bc.mask,
            ndof=op.ndof,
            label=label,
        )

    fine_is_assembled = cfg.operator == "asmb"
    # finest level
    bc0 = bcs[0]
    t0 = time.perf_counter()
    op = fine_op if fine_op is not None else make_operator(
        cfg.operator, meshes[0], eta_levels[0], quad=quad)
    levels = [operator_level(op, bc0, f"gmg-fine[{cfg.operator}]")]
    # matrix of the level above, while a Galerkin product may need it
    A_above = None
    if fine_is_assembled:
        A_above, _ = bc0.eliminate(op.matrix, np.zeros(op.ndof))
        stats.assemble_seconds += time.perf_counter() - t0
    stats.level_ndofs.append(op.ndof)

    # coarser levels: each needs the prolongator from itself to the level
    # above, both for the cycle and for the Galerkin products
    for k in range(1, cfg.mg_levels):
        mesh = meshes[k]
        bc = bcs[k]
        ndof = 3 * mesh.nnodes
        P = vector_prolongation(meshes[k - 1], mesh)
        levels[k - 1].prolong = P
        coarsest = k == cfg.mg_levels - 1
        use_galerkin = cfg.galerkin and A_above is not None
        if k == 1 and not galerkin_from_fine:
            use_galerkin = False
        # a rediscretized, smoothed level applies through the fine kernel;
        # its matrix is then only the input of the Galerkin product below
        matrix_free = not (use_galerkin or coarsest or fine_is_assembled)
        Ak = None
        if use_galerkin:
            t0 = time.perf_counter()
            Ak = (P.T @ A_above @ P).tocsr()
            # re-impose identity rows/cols at the coarse Dirichlet dofs
            keep = sp.diags((~bc.mask).astype(float))
            Ak = (keep @ Ak @ keep + sp.diags(bc.mask.astype(float))).tocsr()
            stats.galerkin_seconds += time.perf_counter() - t0
        elif cfg.galerkin or not matrix_free:
            t0 = time.perf_counter()
            A_raw = assembly.assemble_viscous(mesh, eta_levels[k], quad)
            Ak, _ = bc.eliminate(A_raw, np.zeros(ndof))
            stats.assemble_seconds += time.perf_counter() - t0
        # rebinding drops the matrix above unless its level applies it
        A_above = Ak
        if matrix_free:
            op_k = make_operator(cfg.operator, mesh, eta_levels[k],
                                 quad=quad)
            levels.append(
                operator_level(op_k, bc, f"gmg-mf[{cfg.operator}]")
            )
        elif coarsest:
            t0 = time.perf_counter()
            coarse = _coarsest_solver(Ak, mesh, bc, cfg)
            stats.coarse_setup_seconds += time.perf_counter() - t0
            levels.append(
                MGLevel(
                    apply=_wrap_assembled(Ak),
                    coarse_solve=coarse,
                    bc_mask=bc.mask,
                    ndof=ndof,
                    label=f"gmg-coarse[{cfg.coarse_solver}]",
                )
            )
        else:
            apply_k = _wrap_assembled(Ak)
            diag = Ak.diagonal().copy()
            diag[diag == 0.0] = 1.0
            levels.append(
                MGLevel(
                    apply=apply_k,
                    smoother=ChebyshevSmoother(apply_k, diag, degree=cfg.smoother_degree),
                    bc_mask=bc.mask,
                    ndof=ndof,
                    label="gmg-assembled",
                )
            )
        stats.level_ndofs.append(ndof)
    return MGHierarchy(levels, gamma=cfg.gamma), stats
