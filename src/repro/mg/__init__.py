"""Multigrid: geometric hierarchy (GMG) and smoothed aggregation (SA-AMG).

The action of ``J_uu^{-1}`` inside the Stokes fieldsplit preconditioner is a
single multigrid V-cycle (paper SS III-C).  The hierarchy mixes matrix-free
and assembled levels: the finest geometric level applied matrix-free,
Galerkin levels below it formed cell by cell from the fine coefficient
(:mod:`repro.mg.galerkin`; rediscretized ones for GMG-i), and -- when
further distributed coarsening is needed -- a switch to smoothed
aggregation (the paper uses PETSc's GAMG with the six rigid-body modes and
strength threshold 0.01, reproduced here in :mod:`repro.mg.sa`).
"""

from .transfer import (
    q1_interpolation_1d,
    nodal_prolongation,
    vector_prolongation,
)
from .cycles import MGLevel, MGHierarchy
from .gmg import GMGConfig, build_gmg
from .sa import SAConfig, smoothed_aggregation, rigid_body_modes

__all__ = [
    "q1_interpolation_1d",
    "nodal_prolongation",
    "vector_prolongation",
    "MGLevel",
    "MGHierarchy",
    "GMGConfig",
    "build_gmg",
    "SAConfig",
    "smoothed_aggregation",
    "rigid_body_modes",
]
