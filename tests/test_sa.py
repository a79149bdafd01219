"""Smoothed aggregation AMG (the GAMG/ML substitute, SS III-C, Table IV)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem import StructuredMesh, GaussQuadrature, assembly
from repro.mg.sa import (
    SAConfig,
    aggregate,
    block_strength_graph,
    isolated_nodes,
    rigid_body_modes,
    smoothed_aggregation,
    tentative_prolongator,
)
from repro.solvers import cg

from tests.conftest import no_slip_bc

QUAD = GaussQuadrature.hex(3)


def elasticity_system(shape=(4, 4, 4), seed=0):
    rng = np.random.default_rng(seed)
    mesh = StructuredMesh(shape, order=2)
    eta = np.exp(0.5 * rng.normal(size=(mesh.nel, QUAD.npoints)))
    A = assembly.assemble_viscous(mesh, eta, QUAD)
    bc = no_slip_bc(mesh)
    A_bc, _ = bc.eliminate(A, np.zeros(3 * mesh.nnodes))
    B = rigid_body_modes(mesh.coords, bc.mask)
    return mesh, A_bc, B, bc


class TestRigidBodyModes:
    def test_six_independent_modes(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        B = rigid_body_modes(mesh.coords)
        assert B.shape == (3 * mesh.nnodes, 6)
        assert np.linalg.matrix_rank(B) == 6

    def test_annihilated_by_unconstrained_operator(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.ones((mesh.nel, QUAD.npoints))
        A = assembly.assemble_viscous(mesh, eta, QUAD)
        B = rigid_body_modes(mesh.coords)
        assert np.abs(A @ B).max() < 1e-10

    def test_bc_rows_zeroed(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        bc = no_slip_bc(mesh)
        B = rigid_body_modes(mesh.coords, bc.mask)
        assert np.abs(B[bc.mask]).max() == 0.0


class TestStrengthGraph:
    def test_symmetric_no_diagonal(self):
        _, A, _, _ = elasticity_system()
        S = block_strength_graph(A, 3, 0.01)
        assert (S != S.T).nnz == 0
        assert np.all(S.diagonal() == 0)

    def test_higher_threshold_fewer_edges(self):
        _, A, _, _ = elasticity_system()
        S1 = block_strength_graph(A, 3, 0.01)
        S2 = block_strength_graph(A, 3, 0.2)
        assert S2.nnz <= S1.nnz

    def test_scalar_block_size(self):
        A = sp.csr_matrix(np.array([[2.0, -1, 0], [-1, 2, -0.001], [0, -0.001, 2]]))
        S = block_strength_graph(A, 1, 0.01)
        assert S[0, 1] and not S[1, 2]


class TestIsolatedNodes:
    def test_detects_identity_rows(self):
        A = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        A = A.tolil()
        A[1, 2] = 0.5
        A[2, 1] = 0.5
        A = A.tocsr()
        iso = isolated_nodes(A, 1)
        assert iso.tolist() == [True, False, False]

    def test_dirichlet_rows_isolated(self):
        _, A, _, bc = elasticity_system((2, 2, 2))
        iso = isolated_nodes(A, 3)
        # fully constrained nodes are isolated
        node_bc = bc.mask.reshape(-1, 3).all(axis=1)
        assert np.array_equal(iso, node_bc)


class TestAggregation:
    def test_all_nonskipped_assigned(self):
        _, A, _, _ = elasticity_system()
        S = block_strength_graph(A, 3, 0.01)
        skip = isolated_nodes(A, 3)
        agg = aggregate(S, skip)
        assert np.all(agg[~skip] >= 0)
        assert np.all(agg[skip] == -1)

    def test_substantial_coarsening(self):
        _, A, _, _ = elasticity_system()
        S = block_strength_graph(A, 3, 0.01)
        skip = isolated_nodes(A, 3)
        agg = aggregate(S, skip)
        n_active = int((~skip).sum())
        assert agg.max() + 1 < n_active / 5

    def test_aggregates_contiguous_ids(self):
        _, A, _, _ = elasticity_system((2, 2, 2))
        S = block_strength_graph(A, 3, 0.01)
        agg = aggregate(S, isolated_nodes(A, 3))
        used = np.unique(agg[agg >= 0])
        assert np.array_equal(used, np.arange(used.size))


class TestTentativeProlongator:
    def test_reproduces_near_nullspace(self):
        """P_tent exactly interpolates the near-nullspace: B = P B_c."""
        _, A, B, _ = elasticity_system((2, 2, 2))
        S = block_strength_graph(A, 3, 0.01)
        skip = isolated_nodes(A, 3)
        agg = aggregate(S, skip)
        P, Bc = tentative_prolongator(agg, B, 3)
        # on non-skipped dofs, P @ Bc reproduces B
        active = np.repeat(~skip, 3)
        assert np.abs((P @ Bc - B)[active]).max() < 1e-10

    def test_orthonormal_columns_per_aggregate(self):
        _, A, B, _ = elasticity_system((2, 2, 2))
        S = block_strength_graph(A, 3, 0.01)
        agg = aggregate(S, isolated_nodes(A, 3))
        P, _ = tentative_prolongator(agg, B, 3)
        G = (P.T @ P).toarray()
        assert np.allclose(G, np.eye(G.shape[0]), atol=1e-10)


class TestHierarchy:
    def test_preconditions_cg(self):
        _, A, B, bc = elasticity_system()
        sa = smoothed_aggregation(A, B, SAConfig(max_coarse=200))
        rng = np.random.default_rng(0)
        b = rng.standard_normal(A.shape[0])
        b[bc.mask] = 0.0
        res = cg(lambda v: A @ v, b, M=sa, rtol=1e-8, maxiter=100)
        assert res.converged
        assert res.iterations < 30

    def test_scalar_problem_default_nullspace(self):
        mesh = StructuredMesh((6, 6, 6), order=1)
        A = assembly.assemble_poisson(mesh)
        from repro.fem.bc import DirichletBC, boundary_nodes

        bc = DirichletBC(mesh.nnodes)
        for f in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax"):
            bc.add(boundary_nodes(mesh, f), 0.0)
        bc.finalize()
        A_bc, _ = bc.eliminate(A, np.zeros(mesh.nnodes))
        sa = smoothed_aggregation(A_bc, config=SAConfig(max_coarse=50))
        rng = np.random.default_rng(1)
        b = rng.standard_normal(mesh.nnodes)
        b[bc.mask] = 0.0
        res = cg(lambda v: A_bc @ v, b, M=sa, rtol=1e-8, maxiter=100)
        assert res.converged

    def test_drop_tolerance_sparsifies(self):
        _, A, B, _ = elasticity_system()
        plain = smoothed_aggregation(A, B, SAConfig(max_coarse=200))
        dropped = smoothed_aggregation(A, B, SAConfig(max_coarse=200, drop_tol=0.05))
        # compare prolongator nnz through the level operators
        nnz_plain = sum(l.prolong.nnz for l in plain.levels if l.prolong is not None)
        nnz_drop = sum(l.prolong.nnz for l in dropped.levels if l.prolong is not None)
        assert nnz_drop <= nnz_plain

    @pytest.mark.parametrize("coarse", ["lu", "bjacobi-lu", "fgmres-ilu"])
    def test_coarse_solver_options(self, coarse):
        _, A, B, bc = elasticity_system((2, 2, 2))
        sa = smoothed_aggregation(
            A, B, SAConfig(max_coarse=100, coarse_solver=coarse)
        )
        rng = np.random.default_rng(2)
        b = rng.standard_normal(A.shape[0])
        b[bc.mask] = 0.0
        res = cg(lambda v: A @ v, b, M=sa, rtol=1e-6, maxiter=200)
        assert res.converged

    def test_custom_smoother_factory(self):
        """The SAML-ii configuration: Krylov smoothing inside the cycle."""
        from repro.solvers.krylov import fgmres
        from repro.solvers.relaxation import JacobiPreconditioner

        class KrylovSmoother:
            def __init__(self, apply_k, diag, A):
                self.apply = apply_k
                self.M = JacobiPreconditioner(diag)

            def smooth(self, b, x):
                return fgmres(self.apply, b, x0=x, M=self.M, rtol=1e-14,
                              maxiter=2).x

        _, A, B, bc = elasticity_system((2, 2, 2))
        sa = smoothed_aggregation(
            A, B, SAConfig(max_coarse=100, smoother_factory=KrylovSmoother)
        )
        rng = np.random.default_rng(3)
        b = rng.standard_normal(A.shape[0])
        b[bc.mask] = 0.0
        from repro.solvers import gcr

        res = gcr(lambda v: A @ v, b, M=sa, rtol=1e-6, maxiter=200)
        assert res.converged
