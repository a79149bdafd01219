"""Multigrid cycle machinery: validation, V/W cycles, SSOR smoother."""

import types

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem import StructuredMesh, GaussQuadrature
from repro.mg import GMGConfig, MGHierarchy, MGLevel, build_gmg
from repro.solvers import SymmetricGaussSeidel, ChebyshevSmoother, cg

from tests.conftest import no_slip_bc

QUAD = GaussQuadrature.hex(3)


def laplace_1d(n):
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).tocsr()


class TestHierarchyValidation:
    def test_empty(self):
        with pytest.raises(ValueError):
            MGHierarchy([])

    def test_missing_coarse_solve(self):
        lvl = MGLevel(apply=lambda v: v)
        with pytest.raises(ValueError):
            MGHierarchy([lvl])

    def test_bad_gamma(self):
        lvl = MGLevel(apply=lambda v: v, coarse_solve=lambda b: b)
        with pytest.raises(ValueError):
            MGHierarchy([lvl], gamma=0)


class TestCycleShapes:
    def _two_level(self, gamma, degree=2, count_applies=None,
                   plain_smoother=False):
        """Manual 2-level hierarchy on the 1D Laplacian."""
        n = 63
        A = laplace_1d(n)
        nc = 31
        P = sp.lil_matrix((n, nc))
        for i in range(nc):
            P[2 * i, i] = 0.5
            P[2 * i + 1, i] = 1.0
            P[2 * i + 2, i] = 0.5
        P = P.tocsr()
        Ac = (P.T @ A @ P).tocsr()
        import scipy.sparse.linalg as spla

        lu = spla.splu(Ac.tocsc())

        def apply_fine(v):
            if count_applies is not None:
                count_applies[0] += 1
            return A @ v

        smoother = ChebyshevSmoother(apply_fine, A.diagonal(), degree=degree)
        if plain_smoother:
            # only ``smooth``: the cycle must form b - A x itself
            smoother = types.SimpleNamespace(smooth=smoother.smooth)
        fine = MGLevel(apply=apply_fine, smoother=smoother, prolong=P, ndof=n)
        coarse = MGLevel(apply=lambda v: Ac @ v, coarse_solve=lu.solve, ndof=nc)
        return A, MGHierarchy([fine, coarse], gamma=gamma)

    def test_vcycle_contracts(self):
        A, mg = self._two_level(gamma=1)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(A.shape[0])
        x = mg.vcycle(b)
        assert np.linalg.norm(b - A @ x) < 0.2 * np.linalg.norm(b)

    def test_wcycle_at_least_as_good(self):
        rng = np.random.default_rng(1)
        res = {}
        for gamma in (1, 2):
            A, mg = self._two_level(gamma=gamma)
            b = rng.standard_normal(A.shape[0])
            x = mg.vcycle(b)
            res[gamma] = np.linalg.norm(b - A @ x)
        assert res[2] <= res[1] * 1.05

    def test_wcycle_visits_coarse_twice(self):
        A, mg = self._two_level(gamma=2)
        mg.vcycle(np.ones(A.shape[0]))
        assert mg.coarse_solve_calls == 2

    def test_repeated_cycles_converge(self):
        A, mg = self._two_level(gamma=1)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(A.shape[0])
        x = None
        for _ in range(12):
            x = mg.vcycle(b, x)
        assert np.linalg.norm(b - A @ x) < 1e-8 * np.linalg.norm(b)

    def test_solve_iterate_matches_manual(self):
        A, mg = self._two_level(gamma=1)
        b = np.ones(A.shape[0])
        x1 = mg.solve_iterate(b, cycles=3)
        x2 = None
        for _ in range(3):
            x2 = mg.vcycle(b, x2)
        assert np.allclose(x1, x2)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_vcycle_apply_count(self, degree):
        """A V(d,d) cycle costs exactly 2 d applies on a smoothed level:
        d for pre-smoothing with the recurrence residual, 1 + (d - 1) for
        post-smoothing from the corrected iterate.  A smoother without
        ``smooth_with_residual`` spends (d - 1) + 1 on pre-smoothing plus
        the explicit residual -- the same count -- and gives the same
        cycle up to rounding."""
        rng = np.random.default_rng(7)
        b = rng.standard_normal(63)
        res, applies = {}, {}
        for plain in (False, True):
            counter = [0]
            A, mg = self._two_level(
                gamma=1, degree=degree, count_applies=counter,
                plain_smoother=plain,
            )
            counter[0] = 0
            x = mg.vcycle(b)
            applies[plain] = counter[0]
            res[plain] = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert applies[False] == applies[True] == 2 * degree
        assert res[False] < 0.2
        assert res[False] == pytest.approx(res[True], rel=1e-6)

    def test_restriction_is_stored_transpose(self):
        """The hierarchy stores R = P^T as CSR once; the row-wise product
        sums in the same order as SciPy's transposed (CSC) product."""
        A, mg = self._two_level(gamma=1)
        fine = mg.levels[0]
        assert sp.isspmatrix_csr(fine.restrict)
        r = np.random.default_rng(8).standard_normal(A.shape[0])
        assert np.array_equal(fine.restrict @ r, fine.prolong.T @ r)


class TestSSOR:
    def test_validation(self):
        A = laplace_1d(8)
        with pytest.raises(ValueError):
            SymmetricGaussSeidel(A, omega=2.5)
        A0 = A.tolil()
        A0[3, 3] = 0.0
        with pytest.raises(ValueError):
            SymmetricGaussSeidel(A0.tocsr())

    def test_reduces_residual(self):
        A = laplace_1d(64)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(64)
        gs = SymmetricGaussSeidel(A)
        x = gs.smooth(b)
        assert np.linalg.norm(b - A @ x) < np.linalg.norm(b)

    def test_symmetric_preconditioner_for_cg(self):
        """SSOR (unlike a single forward sweep) is a symmetric operator and
        hence a valid CG preconditioner."""
        A = laplace_1d(128)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(128)
        res = cg(lambda v: A @ v, b, M=SymmetricGaussSeidel(A), rtol=1e-10,
                 maxiter=300)
        assert res.converged

    def test_chebyshev_matches_multiplicative_smoothing(self):
        """The paper's SS III-C claim (after [47]): polynomial smoothers
        attain efficiency similar to multiplicative ones for elasticity.
        Two-level MG iteration counts with Chebyshev(2) are within 2x of
        SSOR on the viscous block."""
        mesh = StructuredMesh((4, 4, 4), order=2)
        from repro.fem import assembly
        from repro.mg.coefficients import coefficient_hierarchy
        from repro.mg.transfer import vector_prolongation
        import scipy.sparse.linalg as spla

        eta = np.ones((mesh.nel, QUAD.npoints))
        bc = no_slip_bc(mesh)
        A = assembly.assemble_viscous(mesh, eta, QUAD)
        A_bc, _ = bc.eliminate(A, np.zeros(3 * mesh.nnodes))
        coarse_mesh = mesh.coarsen()
        P = vector_prolongation(mesh, coarse_mesh)
        cbc = no_slip_bc(coarse_mesh)
        Ac = (P.T @ A_bc @ P).tocsr()
        keep = sp.diags((~cbc.mask).astype(float))
        Ac = (keep @ Ac @ keep + sp.diags(cbc.mask.astype(float))).tocsr()
        lu = spla.splu(Ac.tocsc())
        its = {}
        for name, smoother in [
            ("chebyshev", ChebyshevSmoother(lambda v: A_bc @ v,
                                            A_bc.diagonal(), degree=2)),
            ("ssor", SymmetricGaussSeidel(A_bc)),
        ]:
            fine = MGLevel(apply=lambda v: A_bc @ v, smoother=smoother,
                           prolong=P, bc_mask=bc.mask)
            coarse = MGLevel(apply=lambda v: Ac @ v, coarse_solve=lu.solve,
                             bc_mask=cbc.mask)
            mg = MGHierarchy([fine, coarse])
            rng = np.random.default_rng(3)
            b = rng.standard_normal(3 * mesh.nnodes)
            b[bc.mask] = 0.0
            res = cg(lambda v: A_bc @ v, b, M=mg, rtol=1e-8, maxiter=100)
            assert res.converged, name
            its[name] = res.iterations
        assert its["chebyshev"] <= 2 * its["ssor"]


class TestWcycleGMG:
    def test_wcycle_through_config(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        meshes = mesh.hierarchy(2)[::-1]
        etas = [np.ones((m.nel, QUAD.npoints)) for m in meshes]
        mg, _ = build_gmg(meshes, etas, no_slip_bc,
                          GMGConfig(mg_levels=2, coarse_solver="lu", gamma=2))
        assert mg.gamma == 2
        bc = no_slip_bc(mesh)
        from repro.matfree import make_operator

        op = make_operator("tensor", mesh, etas[0], quad=QUAD)
        A = bc.wrap_apply(op.apply)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(3 * mesh.nnodes)
        b[bc.mask] = 0.0
        res = cg(A, b, M=mg, rtol=1e-8, maxiter=100)
        assert res.converged
