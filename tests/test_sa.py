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


def tentative_prolongator_loop(
    agg: np.ndarray, B: np.ndarray, block_size: int
) -> tuple[sp.csr_matrix, np.ndarray]:
    """The per-aggregate loop :func:`tentative_prolongator` replaced: one
    QR per aggregate, kept as its oracle."""
    n_nodes = agg.size
    k = B.shape[1]
    n_agg = int(agg.max()) + 1
    rows_all, cols_all, vals_all = [], [], []
    coarse_B_rows = []
    col_offset = 0
    order = np.argsort(agg, kind="stable")
    # skipped nodes (agg == -1) sort first and receive no coarse dofs
    order = order[agg[order] >= 0]
    boundaries = np.searchsorted(agg[order], np.arange(n_agg + 1))
    for a in range(n_agg):
        nodes = order[boundaries[a]:boundaries[a + 1]]
        dofs = (
            block_size * nodes[:, None] + np.arange(block_size)[None, :]
        ).ravel()
        Ba = B[dofs]
        Q, R = np.linalg.qr(Ba)
        # rank by diagonal of R (zero rows of B at bc dofs shrink the rank)
        diag = np.abs(np.diag(R))
        scale = diag.max() if diag.size else 0.0
        r = int(np.sum(diag > 1e-10 * max(scale, 1e-300))) if scale > 0 else 0
        if r == 0:
            # aggregate fully constrained: inject the first dof so the
            # prolongator keeps full column rank
            r = 1
            Q = np.zeros((dofs.size, 1))
            Q[0, 0] = 1.0
            R = np.zeros((1, k))
        else:
            Q = Q[:, :r]
            R = R[:r]
        rows_all.append(np.repeat(dofs, r))
        cols_all.append(np.tile(np.arange(col_offset, col_offset + r), dofs.size))
        vals_all.append(Q.ravel())
        coarse_B_rows.append(R)
        col_offset += r
    P = sp.csr_matrix(
        (
            np.concatenate(vals_all),
            (np.concatenate(rows_all), np.concatenate(cols_all)),
        ),
        shape=(block_size * n_nodes, col_offset),
    )
    return P, np.vstack(coarse_B_rows)


def assert_same_prolongator(got, want):
    (P, Bc), (P_ref, Bc_ref) = got, want
    P.sort_indices()
    P_ref.sort_indices()
    assert np.array_equal(P.indptr, P_ref.indptr)
    assert np.array_equal(P.indices, P_ref.indices)
    assert np.array_equal(P.data, P_ref.data)
    assert np.array_equal(Bc, Bc_ref)


class TestTentativeProlongator:
    def test_stacked_qr_matches_the_per_aggregate_loop(self):
        """Bitwise: aggregation of an elasticity block (skipped Dirichlet
        nodes, rank-deficient boundary aggregates) and the scalar second
        level fed the first level's coarse near-nullspace."""
        _, A, B, _ = elasticity_system((4, 4, 4))
        agg = aggregate(block_strength_graph(A, 3, 0.01), isolated_nodes(A, 3))
        got = tentative_prolongator(agg, B, 3)
        assert_same_prolongator(got, tentative_prolongator_loop(agg, B, 3))
        assert len(np.unique(np.bincount(agg[agg >= 0]))) > 1
        P, Bc = got
        Ac = (P.T @ A @ P).tocsr()
        agg2 = aggregate(block_strength_graph(Ac, 1, 0.01),
                         isolated_nodes(Ac, 1))
        assert_same_prolongator(tentative_prolongator(agg2, Bc, 1),
                                tentative_prolongator_loop(agg2, Bc, 1))

    def test_fully_constrained_aggregate_injects_one_dof(self):
        rng = np.random.default_rng(3)
        agg = np.repeat(np.arange(5), 3)
        B = rng.standard_normal((3 * agg.size, 6))
        B[:9] = 0.0  # aggregate 0 carries no near-nullspace
        B[9:18, 3:] = 0.0  # aggregate 1 has rank 3
        got = tentative_prolongator(agg, B, 3)
        assert_same_prolongator(got, tentative_prolongator_loop(agg, B, 3))
        assert got[0][:, 0].toarray().ravel()[:9].tolist() == [1.0] + [0.0] * 8

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
