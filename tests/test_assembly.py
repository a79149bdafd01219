"""FE assembly: symmetry, definiteness, consistency, convergence."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.fem import StructuredMesh, GaussQuadrature, assembly
from repro.fem.bc import DirichletBC, boundary_nodes


class TestViscousBlock:
    def test_symmetric(self, deformed_mesh, quad, rng):
        eta = np.exp(rng.normal(size=(deformed_mesh.nel, quad.npoints)))
        A = assembly.assemble_viscous(deformed_mesh, eta, quad)
        assert abs(A - A.T).max() < 1e-11

    def test_positive_semidefinite_with_rbm_nullspace(self, small_mesh, quad, rng):
        """The unconstrained stress operator annihilates rigid-body modes."""
        from repro.mg.sa import rigid_body_modes

        eta = np.ones((small_mesh.nel, quad.npoints))
        A = assembly.assemble_viscous(small_mesh, eta, quad)
        B = rigid_body_modes(small_mesh.coords)
        assert np.abs(A @ B).max() < 1e-10
        v = rng.standard_normal(A.shape[0])
        assert v @ (A @ v) >= -1e-10

    def test_scales_linearly_with_viscosity(self, small_mesh, quad):
        eta = np.ones((small_mesh.nel, quad.npoints))
        A1 = assembly.assemble_viscous(small_mesh, eta, quad)
        A5 = assembly.assemble_viscous(small_mesh, 5 * eta, quad)
        assert abs(A5 - 5 * A1).max() < 1e-10

    @pytest.mark.parametrize("shape", [(3, 2, 4), (9, 8, 8)])
    def test_diagonal_matches_assembled(self, shape, quad, rng):
        """Deformed mesh, variable viscosity; 576 elements cross the
        element-chunk boundary of the diagonal kernel, 24 do not."""
        mesh = StructuredMesh(shape, order=2, extent=(1.0, 0.7, 1.3))
        mesh.deform(lambda c: c + 0.03 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
        eta = np.exp(rng.normal(size=(mesh.nel, quad.npoints)))
        A = assembly.assemble_viscous(mesh, eta, quad)
        d = assembly.viscous_diagonal(mesh, eta, quad)
        assert np.abs(d - A.diagonal()).max() <= 1e-13 * np.abs(d).max()
        assert np.allclose(d, A.diagonal(), rtol=1e-12)

    def test_chunking_invariance(self, small_mesh, quad):
        eta = np.ones((small_mesh.nel, quad.npoints))
        A1 = assembly.assemble_viscous(small_mesh, eta, quad, chunk=4)
        A2 = assembly.assemble_viscous(small_mesh, eta, quad, chunk=10**6)
        assert abs(A1 - A2).max() < 1e-12


class TestDivergence:
    def test_divergence_free_fields_in_kernel(self, deformed_mesh):
        B = assembly.assemble_divergence(deformed_mesh)
        m = deformed_mesh
        # linear solenoidal field u = (x, y, -2z)
        u = np.zeros(3 * m.nnodes)
        u[0::3] = m.coords[:, 0]
        u[1::3] = m.coords[:, 1]
        u[2::3] = -2 * m.coords[:, 2]
        assert np.abs(B @ u).max() < 1e-12

    def test_constant_mode_integrates_divergence(self):
        m = StructuredMesh((4, 4, 4), order=2)
        B = assembly.assemble_divergence(m)
        u = np.zeros(3 * m.nnodes)
        u[0::3] = m.coords[:, 0]  # div u = 1
        elvol = 1.0 / m.nel
        # constant pressure mode rows: -int div u = -elvol
        assert np.allclose((B @ u)[0::4], -elvol, atol=1e-13)

    def test_rigid_translation_in_kernel(self, deformed_mesh):
        B = assembly.assemble_divergence(deformed_mesh)
        u = np.zeros(3 * deformed_mesh.nnodes)
        u[1::3] = 1.0
        assert np.abs(B @ u).max() < 1e-12


class TestPressureMass:
    def test_blocks_spd(self, deformed_mesh, quad):
        Mp = assembly.pressure_mass_blocks(deformed_mesh, None, quad)
        eigs = np.linalg.eigvalsh(Mp)
        assert eigs.min() > 0

    def test_block_diag_consistency(self, small_mesh, quad):
        blocks = assembly.pressure_mass_blocks(small_mesh, None, quad)
        M = assembly.assemble_pressure_mass(small_mesh, None, quad)
        assert np.allclose(M[:4, :4].toarray(), blocks[0])

    def test_constant_mode_is_element_volume(self, quad):
        m = StructuredMesh((2, 2, 2), order=2, extent=(1, 1, 1))
        Mp = assembly.pressure_mass_blocks(m, None, quad)
        assert np.allclose(Mp[:, 0, 0], 1.0 / 8.0)

    def test_weighting(self, small_mesh, quad):
        w = np.full((small_mesh.nel, quad.npoints), 2.0)
        M1 = assembly.pressure_mass_blocks(small_mesh, None, quad)
        M2 = assembly.pressure_mass_blocks(small_mesh, w, quad)
        assert np.allclose(M2, 2 * M1)


class TestBodyForce:
    def test_total_force_matches_weight(self, quad):
        m = StructuredMesh((3, 3, 3), order=2, extent=(1, 1, 1))
        rho = np.full((m.nel, quad.npoints), 2.5)
        F = assembly.rhs_body_force(m, rho, np.array([0.0, 0.0, -9.8]), quad)
        # sum of nodal forces = total weight (partition of unity)
        assert F[2::3].sum() == pytest.approx(-9.8 * 2.5, rel=1e-12)
        assert abs(F[0::3].sum()) < 1e-12


class TestPoisson:
    def test_manufactured_solution_converges(self):
        """-lap u = f with u = sin(pi x) sin(pi y) sin(pi z), Q2 elements:
        L2 error drops ~ h^3."""
        errs = []
        for n in (2, 4):
            m = StructuredMesh((n, n, n), order=2)
            quad = GaussQuadrature.hex(3)
            A = assembly.assemble_poisson(m, quad=quad)
            x, y, z = m.coords.T
            u_exact = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
            # f = 3 pi^2 u; build consistent load vector
            _, det, xq = m.geometry_at(quad)
            N = m.basis.eval(quad.points)
            fq = 3 * np.pi**2 * (
                np.sin(np.pi * xq[..., 0])
                * np.sin(np.pi * xq[..., 1])
                * np.sin(np.pi * xq[..., 2])
            )
            fe = np.einsum("nq,qa->na", det * quad.weights[None] * fq, N)
            b = np.zeros(m.nnodes)
            np.add.at(b, m.connectivity.ravel(), fe.ravel())
            bc = DirichletBC(m.nnodes)
            for face in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax"):
                bc.add(boundary_nodes(m, face), 0.0)
            bc.finalize()
            A_bc, b_bc = bc.eliminate(A, b)
            u = spla.spsolve(A_bc.tocsc(), b_bc)
            errs.append(np.abs(u - u_exact).max())
        rate = np.log2(errs[0] / errs[1])
        assert rate > 2.5, f"observed rate {rate:.2f}, errors {errs}"

    def test_kappa_scaling(self, small_mesh, quad):
        kap = np.full((small_mesh.nel, quad.npoints), 3.0)
        A1 = assembly.assemble_poisson(small_mesh, None, quad)
        A3 = assembly.assemble_poisson(small_mesh, kap, quad)
        assert abs(A3 - 3 * A1).max() < 1e-11


class TestLumpedMass:
    def test_sums_to_volume(self, quad):
        m = StructuredMesh((3, 3, 3), order=2, extent=(1, 2, 1))
        mvec = assembly.scalar_mass_lumped(m)
        assert mvec.sum() == pytest.approx(2.0, rel=1e-12)
