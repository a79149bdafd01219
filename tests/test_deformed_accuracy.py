"""SS II-B's accuracy claim: Q2-P1disc keeps its order on deformed meshes
*because* the pressure basis lives in physical coordinates.

We solve a manufactured Stokes problem on a smoothly deformed box and
check the velocity error decreases at close to the regular-mesh rate.
"""

import numpy as np
import pytest

from repro.fem import GaussQuadrature, StructuredMesh
from repro.fem.bc import DirichletBC, boundary_nodes, component_dofs
from repro.stokes import StokesConfig, StokesOperator, StokesProblem, solve_stokes

QUAD = GaussQuadrature.hex(3)
PI = np.pi


def u_exact(c):
    x, y, z = c[..., 0], c[..., 1], c[..., 2]
    ux = np.sin(PI * x) * np.cos(PI * y) * z
    uy = -np.cos(PI * x) * np.sin(PI * y) * z
    uz = np.zeros_like(x)
    return np.stack([ux, uy, uz], axis=-1)


def f_body(c):
    x, y, z = c[..., 0], c[..., 1], c[..., 2]
    lap_ux = -2 * PI**2 * np.sin(PI * x) * np.cos(PI * y) * z
    lap_uy = 2 * PI**2 * np.cos(PI * x) * np.sin(PI * y) * z
    gpx = -PI * np.sin(PI * x) * np.cos(PI * z)
    gpz = -PI * np.cos(PI * x) * np.sin(PI * z)
    return np.stack([-lap_ux + gpx, -lap_uy, np.full_like(x, 0.0) + gpz],
                    axis=-1)


def deform(mesh, amp=0.04):
    """Smooth interior deformation vanishing at the boundary."""
    c = mesh.coords
    bump = (np.sin(PI * c[:, 0]) * np.sin(PI * c[:, 1])
            * np.sin(PI * c[:, 2]))[:, None]
    shift = amp * bump * np.array([1.0, -0.7, 0.5])
    mesh.set_coords(c + shift)


def solve_on(n, deformed):
    mesh = StructuredMesh((n, n, n), order=2)
    if deformed:
        deform(mesh)

    def bc_builder(m):
        bc = DirichletBC(3 * m.nnodes)
        ue = u_exact(m.coords)
        for face in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax"):
            nodes = boundary_nodes(m, face)
            for comp in range(3):
                bc.add(component_dofs(nodes, comp), ue[nodes, comp])
        return bc.finalize()

    shape = (mesh.nel, QUAD.npoints)
    pb = StokesProblem(mesh, np.ones(shape), np.zeros(shape),
                       gravity=(0, 0, 0), bc_builder=bc_builder)
    op = StokesOperator(pb)
    _, det, xq = mesh.geometry_at(QUAD)
    N = mesh.basis.eval(QUAD.points)
    fe = np.einsum("nq,qa,nqc->nac", det * QUAD.weights[None], N, f_body(xq))
    Fu = np.zeros(3 * mesh.nnodes)
    edofs = 3 * mesh.connectivity[:, :, None] + np.arange(3)[None, None, :]
    np.add.at(Fu, edofs.ravel(), fe.ravel())
    g = np.zeros(pb.nu)
    g[pb.bc.dofs] = pb.bc.values
    Fu -= op.A_op.apply(g)
    Fu[pb.bc.dofs] = pb.bc.values
    b = np.concatenate([Fu, op.rhs()[pb.nu:]])
    sol = solve_stokes(pb, StokesConfig(mg_levels=1, coarse_solver="lu",
                                        rtol=1e-11, maxiter=800,
                                        project_pressure_nullspace=True),
                       rhs=b)
    assert sol.converged
    return np.abs(sol.u.reshape(-1, 3) - u_exact(mesh.coords)).max()


class TestDeformedMeshAccuracy:
    def test_velocity_convergence_on_deformed_mesh(self):
        e2 = solve_on(2, deformed=True)
        e4 = solve_on(4, deformed=True)
        rate = np.log2(e2 / e4)
        assert rate > 2.0, f"deformed-mesh rate {rate:.2f} ({e2:.2e}->{e4:.2e})"

    def test_deformation_costs_less_than_one_order(self):
        """Accuracy on the deformed mesh is within a small factor of the
        regular-mesh accuracy at the same resolution."""
        e_reg = solve_on(4, deformed=False)
        e_def = solve_on(4, deformed=True)
        assert e_def < 8.0 * e_reg
