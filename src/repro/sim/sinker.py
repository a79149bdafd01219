"""The sedimentation ("multi-sinker") test problem of SS IV-A / Fig. 1.

``N_c`` randomly placed, non-intersecting spheres of radius ``R_c`` in the
unit cube; ambient fluid has viscosity ``1/delta_eta`` and density 1, the
spheres viscosity 1 and density 1.2.  Free-slip walls, free surface on top,
gravity ``(0, 0, -9.8)``.  Unlike the single-sinker problem, the many
inclusions produce a complicated nonlocal flow (the streamlines of Fig. 1)
that keeps Krylov methods from converging unrealistically fast.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..fem.bc import DirichletBC, boundary_nodes, component_dofs
from ..fem.mesh import StructuredMesh
from ..fem.quadrature import GaussQuadrature
from ..mpm.points import seed_points
from ..rheology.composite import Material
from ..stokes.operators import StokesProblem
from .timeloop import Simulation, SimulationConfig


@dataclass
class SinkerConfig:
    """Geometry and material parameters of the sinker problem."""

    shape: tuple[int, int, int] = (8, 8, 8)
    n_spheres: int = 8
    radius: float = 0.1
    delta_eta: float = 1e4
    rho_ambient: float = 1.0
    rho_sphere: float = 1.2
    gravity: tuple[float, float, float] = (0.0, 0.0, -9.8)
    points_per_dim: int = 3
    jitter: float = 0.3
    seed: int = 42


def free_slip_bc(mesh) -> DirichletBC:
    """Slip walls (zero normal velocity) + free surface at the top."""
    bc = DirichletBC(3 * mesh.nnodes)
    for face, comp in (
        ("xmin", 0), ("xmax", 0), ("ymin", 1), ("ymax", 1), ("zmin", 2),
    ):
        bc.add(component_dofs(boundary_nodes(mesh, face), comp), 0.0)
    return bc.finalize()


def place_spheres(cfg: SinkerConfig) -> np.ndarray:
    """Rejection-sample non-intersecting sphere centers; shape ``(N_c, 3)``."""
    rng = np.random.default_rng(cfg.seed)
    centers: list[np.ndarray] = []
    margin = cfg.radius
    attempts = 0
    while len(centers) < cfg.n_spheres:
        c = rng.uniform(margin, 1.0 - margin, size=3)
        if all(np.linalg.norm(c - o) >= 2 * cfg.radius for o in centers):
            centers.append(c)
        attempts += 1
        if attempts > 100000:
            raise RuntimeError(
                f"could not place {cfg.n_spheres} non-intersecting spheres "
                f"of radius {cfg.radius}"
            )
    return np.array(centers)


def sinker_materials(cfg: SinkerConfig) -> list[Material]:
    """Lithology 0: ambient fluid; lithology 1: sphere material."""
    return [
        Material.simple("ambient", cfg.rho_ambient, 1.0 / cfg.delta_eta),
        Material.simple("sphere", cfg.rho_sphere, 1.0),
    ]


def make_sinker(cfg: SinkerConfig | None = None,
                sim_config: SimulationConfig | None = None) -> Simulation:
    """Build the sinker problem as a full MPM simulation."""
    cfg = cfg or SinkerConfig()
    from ..obs import metrics as _metrics

    _metrics.set_manifest(seed=cfg.seed)
    mesh = StructuredMesh(cfg.shape, order=2)
    pts = seed_points(mesh, cfg.points_per_dim, jitter=cfg.jitter,
                      rng=np.random.default_rng(cfg.seed))
    centers = place_spheres(cfg)
    inside = np.zeros(pts.n, dtype=bool)
    for c in centers:
        inside |= np.linalg.norm(pts.x - c, axis=1) < cfg.radius
    pts.lithology = inside.astype(np.int32)
    sim_config = sim_config or SimulationConfig()
    # the sinker rheologies are linear: pin the inner tolerance to the
    # paper's 1e-5 so one correction suffices
    if sim_config.linear_rtol is None:
        sim_config = replace(sim_config, linear_rtol=1e-5)
    sim = Simulation(
        mesh, sinker_materials(cfg), pts, free_slip_bc,
        config=sim_config, gravity=cfg.gravity,
    )
    sim.sphere_centers = centers
    return sim


def sinker_problem_fields(cfg: SinkerConfig, mesh=None):
    """Analytic (marker-free) quadrature fields for solver-only benches.

    For the robustness/scalability experiments the material interface can
    be sampled directly at quadrature points, bypassing the marker
    projection -- the solver sees the same coefficient structure either
    way, and the benches avoid paying marker costs they do not measure.
    Returns ``(mesh, eta_q, rho_q)``.
    """
    mesh = mesh or StructuredMesh(cfg.shape, order=2)
    quad = GaussQuadrature.hex(3)
    _, _, xq = mesh.geometry_at(quad)
    centers = place_spheres(cfg)
    inside = np.zeros(xq.shape[:2], dtype=bool)
    for c in centers:
        inside |= np.linalg.norm(xq - c, axis=-1) < cfg.radius
    eta_q = np.where(inside, 1.0, 1.0 / cfg.delta_eta)
    rho_q = np.where(inside, cfg.rho_sphere, cfg.rho_ambient)
    return mesh, eta_q, rho_q


def sinker_stokes_problem(cfg: SinkerConfig | None = None, mesh=None) -> StokesProblem:
    """A ready-to-solve linear :class:`StokesProblem` for the sinker."""
    cfg = cfg or SinkerConfig()
    mesh, eta_q, rho_q = sinker_problem_fields(cfg, mesh)
    return StokesProblem(
        mesh, eta_q, rho_q, gravity=cfg.gravity, bc_builder=free_slip_bc
    )
