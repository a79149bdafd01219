"""repro: a from-scratch Python reproduction of pTatin3D (May, Brown,
Le Pourhiet, SC'14) -- high-performance methods for long-term lithospheric
dynamics.

The package combines the material-point method for tracking rock
composition with a mixed Q2-P1disc finite-element discretization of
heterogeneous, incompressible, visco-plastic Stokes flow, solved by a
flexible Krylov method with a block fieldsplit preconditioner whose
viscous block is a (matrix-free, tensor-product) geometric multigrid
V-cycle.

Quickstart::

    import numpy as np
    from repro import StructuredMesh, StokesProblem, solve_stokes
    from repro.sim.sinker import free_slip_bc

    mesh = StructuredMesh((8, 8, 8), order=2)
    ones = np.ones((mesh.nel, 27))
    problem = StokesProblem(mesh, eta_q=ones, rho_q=ones,
                            bc_builder=free_slip_bc)
    solution = solve_stokes(problem)

See ``examples/`` for the sinker sedimentation and continental rifting
models, and ``benchmarks/`` for the reproduction of every table and figure
in the paper's evaluation.
"""

__version__ = "1.0.0"

from .fem import (
    StructuredMesh,
    GaussQuadrature,
    DirichletBC,
    boundary_nodes,
    component_dofs,
)
from .matfree import (
    AssembledOperator,
    MFOperator,
    TensorOperator,
    TensorCOperator,
    NewtonTensorOperator,
    make_operator,
)
from .stokes import (
    StokesProblem,
    StokesOperator,
    StokesConfig,
    StokesSolution,
    solve_stokes,
    solve_stokes_resilient,
    FieldSplitPreconditioner,
    eta_at_quadrature,
)
from .mg import build_gmg, GMGConfig, smoothed_aggregation, SAConfig, MGHierarchy
from .solvers import gcr, fgmres, gmres, cg, bicgstab, ChebyshevSmoother
from .mpm import MaterialPoints, seed_points, locate_points, advect_points
from .rheology import (
    Material,
    CompositeRheology,
    ConstantViscosity,
    ArrheniusViscosity,
    DruckerPrager,
)
from .sim import Simulation, SimulationConfig, make_sinker, make_rifting
from .resilience import (
    BreakdownError,
    ConvergedReason,
    FaultInjector,
    HealthCheckFailure,
    HealthConfig,
)
from . import obs

__all__ = [
    "__version__",
    "StructuredMesh",
    "GaussQuadrature",
    "DirichletBC",
    "boundary_nodes",
    "component_dofs",
    "AssembledOperator",
    "MFOperator",
    "TensorOperator",
    "TensorCOperator",
    "NewtonTensorOperator",
    "make_operator",
    "StokesProblem",
    "StokesOperator",
    "StokesConfig",
    "StokesSolution",
    "solve_stokes",
    "solve_stokes_resilient",
    "FieldSplitPreconditioner",
    "eta_at_quadrature",
    "build_gmg",
    "GMGConfig",
    "smoothed_aggregation",
    "SAConfig",
    "MGHierarchy",
    "gcr",
    "fgmres",
    "gmres",
    "cg",
    "bicgstab",
    "ChebyshevSmoother",
    "MaterialPoints",
    "seed_points",
    "locate_points",
    "advect_points",
    "Material",
    "CompositeRheology",
    "ConstantViscosity",
    "ArrheniusViscosity",
    "DruckerPrager",
    "BreakdownError",
    "ConvergedReason",
    "FaultInjector",
    "HealthCheckFailure",
    "HealthConfig",
    "Simulation",
    "SimulationConfig",
    "make_sinker",
    "make_rifting",
    "obs",
]
