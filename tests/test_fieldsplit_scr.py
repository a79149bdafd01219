"""Fieldsplit preconditioner (Eq. 17) and Schur complement reduction."""

import numpy as np
import pytest

from repro.fem import StructuredMesh, GaussQuadrature
from repro.mg.coefficients import coefficient_hierarchy
from repro.mg.gmg import GMGConfig, build_gmg
from repro.stokes import (
    FieldSplitPreconditioner,
    SchurMass,
    StokesConfig,
    StokesOperator,
    StokesProblem,
    eta_at_quadrature,
    solve_stokes,
)
from repro.stokes.scr import solve_scr

from tests.conftest import free_slip_bc

QUAD = GaussQuadrature.hex(3)


def sinker_fields(mesh, contrast):
    blob = lambda x: np.linalg.norm(x - 0.5, axis=-1) < 0.25
    eta = eta_at_quadrature(mesh, lambda x: np.where(blob(x), 1.0, 1.0 / contrast), QUAD)
    rho = eta_at_quadrature(mesh, lambda x: np.where(blob(x), 1.2, 1.0), QUAD)
    return eta, rho


class TestSchurMass:
    def test_inverse_roundtrip(self, rng):
        mesh = StructuredMesh((3, 2, 2), order=2)
        eta = np.exp(rng.normal(size=(mesh.nel, QUAD.npoints)))
        S = SchurMass(mesh, eta, QUAD)
        p = rng.standard_normal(4 * mesh.nel)
        # S~^{-1} then -M_p gives back p
        assert np.allclose(S.mass_apply(-S(p)), p, atol=1e-10)

    def test_sign_negative_definite(self, rng):
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.ones((mesh.nel, QUAD.npoints))
        S = SchurMass(mesh, eta, QUAD)
        p = rng.standard_normal(4 * mesh.nel)
        assert p @ S(p) < 0


class TestFieldSplit:
    def _setup(self, contrast=1e2, shape=(4, 4, 4)):
        mesh = StructuredMesh(shape, order=2)
        eta, rho = sinker_fields(mesh, contrast)
        pb = StokesProblem(mesh, eta, rho, bc_builder=free_slip_bc)
        op = StokesOperator(pb)
        meshes = mesh.hierarchy(2)[::-1]
        etas = coefficient_hierarchy(meshes, eta, QUAD)
        mg, _ = build_gmg(meshes, etas, free_slip_bc,
                          GMGConfig(mg_levels=2, coarse_solver="lu"))
        return pb, op, FieldSplitPreconditioner(op, mg)

    def test_preconditioned_solve_converges(self):
        from repro.solvers import gcr

        pb, op, pc = self._setup()
        res = gcr(op.apply, op.rhs(), M=pc, rtol=1e-6, maxiter=200)
        assert res.converged

    def test_iterations_grow_with_contrast(self):
        """The non-normality pathology of SS IV-A: higher viscosity contrast
        slows the lower-triangular fieldsplit."""
        from repro.solvers import gcr

        its = []
        for contrast in (1e0, 1e2):
            pb, op, pc = self._setup(contrast)
            res = gcr(op.apply, op.rhs(), M=pc, rtol=1e-6, maxiter=400,
                      restart=100)
            assert res.converged
            its.append(res.iterations)
        assert its[1] > its[0]

    def test_exact_blocks_converge_fast(self):
        """With an exact velocity solve and the spectrally equivalent Schur
        mass, GCR needs only a handful of iterations (the two-iteration
        theory of SS III-B, perturbed by the inexact Schur block)."""
        import scipy.sparse.linalg as spla
        from repro.fem import assembly
        from repro.solvers import gcr

        mesh = StructuredMesh((2, 2, 2), order=2)
        eta, rho = sinker_fields(mesh, 10.0)
        pb = StokesProblem(mesh, eta, rho, bc_builder=free_slip_bc)
        op = StokesOperator(pb)
        A = assembly.assemble_viscous(mesh, eta, QUAD)
        A_bc, _ = pb.bc.eliminate(A, np.zeros(pb.nu))
        lu = spla.splu(A_bc.tocsc())
        pc = FieldSplitPreconditioner(op, lambda r: lu.solve(r))
        res = gcr(op.apply, op.rhs(), M=pc, rtol=1e-6, maxiter=100)
        assert res.converged
        assert res.iterations <= 40


class TestSCR:
    def test_matches_fieldsplit_solution(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        eta, rho = sinker_fields(mesh, 1e2)
        pb = StokesProblem(mesh, eta, rho, bc_builder=free_slip_bc)

        fs = solve_stokes(pb, StokesConfig(mg_levels=2, coarse_solver="lu",
                                           rtol=1e-8))
        scr = solve_stokes(pb, StokesConfig(mg_levels=2, coarse_solver="lu",
                                            rtol=1e-8, scheme="scr"))
        assert fs.converged and scr.converged
        scale = np.abs(fs.u).max()
        assert np.abs(fs.u - scr.u).max() < 1e-5 * scale

    def test_scr_outer_iterations_robust_to_contrast(self):
        """SCR's Schur iteration count should barely move with contrast
        (the preconditioned Schur operator stays normal, SS IV-A)."""
        its = []
        for contrast in (1e0, 1e4):
            mesh = StructuredMesh((4, 4, 4), order=2)
            eta, rho = sinker_fields(mesh, contrast)
            pb = StokesProblem(mesh, eta, rho, bc_builder=free_slip_bc)
            sol = solve_stokes(pb, StokesConfig(mg_levels=2, coarse_solver="lu",
                                                rtol=1e-6, scheme="scr"))
            assert sol.converged
            its.append(sol.iterations)
        # 4 decades of contrast cost SCR only a handful of outer iterations,
        # while the fieldsplit fails outright at 1e4 on this mesh
        assert its[1] <= 6 * max(its[0], 1)

    def test_scr_stats_expose_inner_cost(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        eta, rho = sinker_fields(mesh, 100.0)
        pb = StokesProblem(mesh, eta, rho, bc_builder=free_slip_bc)
        sol = solve_stokes(pb, StokesConfig(mg_levels=2, coarse_solver="lu",
                                            rtol=1e-6, scheme="scr"))
        stats = sol.extra["scr"]
        # each Schur apply contains an accurate inner solve
        assert stats.total_inner > stats.outer_iterations
