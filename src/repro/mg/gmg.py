"""Geometric multigrid for the Q2 viscous block (paper SS III-C, SS IV).

Hierarchy layout (paper default, 3 levels):

* finest level: matrix-free tensor-product operator (no assembled matrix
  ever exists at this resolution -- the memory savings that let larger
  problems fit on a machine);
* coarser levels: Galerkin ``Pᵀ A P``, formed cell by cell from the fine
  coefficient (:mod:`repro.mg.galerkin`): the trilinear prolongation is
  local to one cell of the nested lattice, so the product needs neither a
  fine matrix nor a rediscretized level, and it is the same for every fine
  kernel;
* coarsest level: one V-cycle of smoothed aggregation (GAMG substitute),
  exact LU, block-Jacobi LU, or CG/ASM (the SS V rifting configuration).

Table IV's GMG-ii is this hierarchy with ``operator="asmb"``; GMG-i
(``galerkin=False``, ablation A1) rediscretizes every coarse level on its
own mesh from the restricted viscosity, applying the smoothed ones through
the fine kernel.
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
from ..obs import registry as _obs
from ..parallel.executor import ParallelCSRMatVec, current_engine
from ..solvers.chebyshev import ChebyshevSmoother
from ..solvers.relaxation import BlockJacobiLU
from .cycles import MGLevel, MGHierarchy
from .galerkin import galerkin_flops, galerkin_levels
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
        Table I kernel applying the finest level (and, with
        ``galerkin=False``, every rediscretized smoothed level; ``asmb``
        then assembles them).
        The default compiled kernel falls back to the packed NumPy apply on
        hosts without a C toolchain.
    mg_levels:
        Number of geometric levels (paper uses 3).
    galerkin:
        If True (GMG-ii), every coarse level is the Galerkin product of the
        fine operator; otherwise (GMG-i) each is rediscretized.
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
) -> tuple[MGHierarchy, GMGSetupStats]:
    """Build the geometric hierarchy for the viscous block.

    Parameters
    ----------
    meshes:
        Nested meshes, *finest first* (e.g. ``mesh.hierarchy(3)`` reversed --
        use ``mesh.hierarchy(n)[::-1]``); only the first
        ``config.mg_levels`` are used.
    eta_levels:
        Viscosity at quadrature points per mesh, finest first.  Galerkin
        levels read only the finest entry; rediscretized ones
        (``galerkin=False``) read their own.
    bc_builder:
        ``mesh -> DirichletBC`` building the velocity-space constraints for
        a given level (same faces/components on every level).
    fine_op:
        An already built ``config.operator`` operator on ``meshes[0]``
        with viscosity ``eta_levels[0]`` to use as the finest level instead
        of constructing an identical one (the coupled solve shares its
        viscous block this way).

    A Galerkin hierarchy raises ``ValueError`` when a fine Dirichlet dof
    interpolates from a free coarse dof (the BCs are not nested).
    """
    cfg = config or GMGConfig()
    if len(meshes) < cfg.mg_levels:
        raise ValueError(f"need {cfg.mg_levels} meshes, got {len(meshes)}")
    meshes = meshes[: cfg.mg_levels]
    stats = GMGSetupStats()
    quad = GaussQuadrature.hex(3)
    bcs = [bc_builder(m) for m in meshes]
    prolongs = [vector_prolongation(meshes[k - 1], meshes[k])
                for k in range(1, cfg.mg_levels)]
    galerkin = []
    if cfg.galerkin and prolongs:
        t0 = time.perf_counter()
        with _obs.timed("MGGalerkin", flops=galerkin_flops(meshes)):
            galerkin = galerkin_levels(meshes, eta_levels[0], quad,
                                       [bc.mask for bc in bcs], prolongs)
        stats.galerkin_seconds += time.perf_counter() - t0
    levels = []
    for k, (mesh, bc) in enumerate(zip(meshes, bcs)):
        ndof = 3 * mesh.nnodes
        stats.level_ndofs.append(ndof)
        coarsest = k == cfg.mg_levels - 1
        if k and galerkin:
            A, label = galerkin[k - 1], "gmg-galerkin"
        elif coarsest or (k and cfg.operator == "asmb"):
            # assembled on its own mesh: a single-level hierarchy, and the
            # rediscretized (GMG-i) levels that are solved or have no kernel
            t0 = time.perf_counter()
            A, _ = bc.eliminate(assembly.assemble_viscous(
                mesh, eta_levels[k], quad), np.zeros(ndof))
            label = "gmg-assembled"
            stats.assemble_seconds += time.perf_counter() - t0
        else:
            # the fine level and GMG-i's smoothed levels apply through the
            # kernel; calling the operator keeps its MatMult event visible
            # inside smoother sweeps
            op = fine_op if k == 0 and fine_op is not None else make_operator(
                cfg.operator, mesh, eta_levels[k], quad=quad)
            apply = bc.wrap_apply(op)
            diag = op.diagonal()
            diag[bc.mask] = 1.0
            levels.append(MGLevel(
                apply=apply, bc_mask=bc.mask, ndof=ndof,
                smoother=ChebyshevSmoother(apply, diag,
                                           degree=cfg.smoother_degree),
                label=f"gmg-{'mf' if k else 'fine'}[{cfg.operator}]"))
            continue
        apply = _wrap_assembled(A)
        if coarsest:
            t0 = time.perf_counter()
            coarse = _coarsest_solver(A, mesh, bc, cfg)
            stats.coarse_setup_seconds += time.perf_counter() - t0
            levels.append(MGLevel(
                apply=apply, coarse_solve=coarse, matrix=A, bc_mask=bc.mask,
                ndof=ndof, label=f"{'gmg-coarse' if k else 'single'}"
                                 f"[{cfg.coarse_solver}]"))
        else:
            diag = A.diagonal()
            diag[diag == 0.0] = 1.0
            levels.append(MGLevel(
                apply=apply, matrix=A, bc_mask=bc.mask, ndof=ndof,
                smoother=ChebyshevSmoother(apply, diag,
                                           degree=cfg.smoother_degree),
                label=label))
    for lvl, P in zip(levels, prolongs):
        lvl.prolong = P
    return MGHierarchy(levels, gamma=cfg.gamma), stats
