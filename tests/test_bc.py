"""Dirichlet boundary conditions: faces, elimination, matrix-free wrap."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem import StructuredMesh, DirichletBC, boundary_nodes, component_dofs
from repro.fem import assembly
from repro.fem.quadrature import GaussQuadrature


class TestBoundaryNodes:
    def test_face_sizes(self):
        m = StructuredMesh((3, 2, 4), order=2)
        nnx, nny, nnz = m.nodes_per_dim
        assert boundary_nodes(m, "xmin").size == nny * nnz
        assert boundary_nodes(m, "ymax").size == nnx * nnz
        assert boundary_nodes(m, "zmin").size == nnx * nny

    def test_face_coordinates(self):
        m = StructuredMesh((2, 2, 2), order=2, extent=(1, 1, 1))
        assert np.allclose(m.coords[boundary_nodes(m, "xmax"), 0], 1.0)
        assert np.allclose(m.coords[boundary_nodes(m, "zmin"), 2], 0.0)

    def test_unknown_face(self):
        m = StructuredMesh((2, 2, 2))
        with pytest.raises(ValueError):
            boundary_nodes(m, "top")

    def test_component_dofs(self):
        dofs = component_dofs(np.array([0, 2]), 1)
        assert np.array_equal(dofs, [1, 7])


class TestDirichletBC:
    def _simple_bc(self, n=12):
        bc = DirichletBC(n)
        bc.add(np.array([0, 3]), 1.5)
        bc.add(np.array([3, 5]), np.array([2.0, -1.0]))  # overrides dof 3
        return bc.finalize()

    def test_override_semantics(self):
        bc = self._simple_bc()
        assert np.array_equal(bc.dofs, [0, 3, 5])
        assert np.allclose(bc.values, [1.5, 2.0, -1.0])

    def test_frozen_after_finalize(self):
        bc = self._simple_bc()
        with pytest.raises(RuntimeError):
            bc.add(np.array([1]), 0.0)

    def test_eliminate_matches_direct_solve(self, rng):
        """Eliminated system returns the BC values and the constrained
        interior solution."""
        n = 20
        Q = rng.standard_normal((n, n))
        A = sp.csr_matrix(Q @ Q.T + n * np.eye(n))
        b = rng.standard_normal(n)
        bc = DirichletBC(n)
        bc.add(np.array([0, 7, 19]), np.array([1.0, -2.0, 0.5])).finalize()
        A_bc, b_bc = bc.eliminate(A, b)
        x = np.linalg.solve(A_bc.toarray(), b_bc)
        assert np.allclose(x[bc.dofs], bc.values)
        # interior rows satisfy the original equations with x fixed at bc
        interior = np.setdiff1d(np.arange(n), bc.dofs)
        r = (A @ x - b)[interior]
        assert np.allclose(r, 0.0, atol=1e-10)

    def test_eliminate_preserves_symmetry(self, rng):
        n = 15
        Q = rng.standard_normal((n, n))
        A = sp.csr_matrix(Q @ Q.T + n * np.eye(n))
        bc = DirichletBC(n)
        bc.add(np.array([2, 3]), 0.0).finalize()
        A_bc, _ = bc.eliminate(A, np.zeros(n))
        assert abs(A_bc - A_bc.T).max() < 1e-12

    def test_wrap_apply_matches_eliminated_matrix(self, rng):
        """The matrix-free BC wrap is algebraically identical to the
        eliminated assembled matrix."""
        mesh = StructuredMesh((2, 2, 2), order=2)
        quad = GaussQuadrature.hex(3)
        eta = np.ones((mesh.nel, quad.npoints))
        A = assembly.assemble_viscous(mesh, eta, quad)
        bc = DirichletBC(3 * mesh.nnodes)
        bc.add(component_dofs(boundary_nodes(mesh, "xmin"), 0), 0.3).finalize()
        A_bc, _ = bc.eliminate(A, np.zeros(3 * mesh.nnodes))
        wrapped = bc.wrap_apply(lambda v: A @ v)
        u = rng.standard_normal(3 * mesh.nnodes)
        assert np.allclose(wrapped(u), A_bc @ u, atol=1e-11)

    def test_wrap_apply_reuses_its_buffer_safely(self, rng):
        """The wrapper masks its input in a work buffer it keeps between
        calls: the argument is never written, earlier results survive
        later calls, and a poisoned constrained entry never reaches the
        operator."""
        n = 12
        bc = DirichletBC(n)
        bc.add(np.array([0, 5, 11]), 0.0).finalize()
        seen = []

        def op(v):
            seen.append(v.copy())
            return 2.0 * v

        wrapped = bc.wrap_apply(op)
        u1 = rng.standard_normal(n)
        u1[5] = np.nan
        u1_in = u1.copy()
        y1 = wrapped(u1)
        y1_copy = y1.copy()
        u2 = rng.standard_normal(n)
        y2 = wrapped(u2)
        assert np.array_equal(u1, u1_in, equal_nan=True)
        assert np.array_equal(y1, y1_copy, equal_nan=True)
        assert np.all(seen[0][bc.dofs] == 0.0) and np.all(np.isfinite(seen[0]))
        free = ~bc.mask
        assert np.array_equal(y2[free], 2.0 * u2[free])
        assert np.array_equal(y2[bc.mask], u2[bc.mask])

    def test_lift_rhs_matches_eliminate(self, rng):
        mesh = StructuredMesh((2, 2, 2), order=2)
        quad = GaussQuadrature.hex(3)
        eta = np.ones((mesh.nel, quad.npoints))
        A = assembly.assemble_viscous(mesh, eta, quad)
        bc = DirichletBC(3 * mesh.nnodes)
        bc.add(component_dofs(boundary_nodes(mesh, "zmax"), 2), -0.7).finalize()
        b = rng.standard_normal(3 * mesh.nnodes)
        _, b_ref = bc.eliminate(A, b)
        b_mf = bc.lift_rhs(lambda v: A @ v, b)
        assert np.allclose(b_mf, b_ref, atol=1e-12)

    def test_homogenize(self):
        bc = DirichletBC(5)
        bc.add(np.array([1, 4]), np.array([2.0, 3.0])).finalize()
        u = bc.homogenize(np.zeros(5))
        assert np.allclose(u, [0, 2, 0, 0, 3])
