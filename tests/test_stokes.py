"""Coupled Stokes: operator structure, hydrostatics, manufactured solutions."""

import numpy as np
import pytest

from repro.fem import StructuredMesh, GaussQuadrature
from repro.stokes import (
    StokesConfig,
    StokesOperator,
    StokesProblem,
    eta_at_quadrature,
    solve_stokes,
    split_uy_p,
)

from tests.conftest import free_slip_bc, no_slip_bc

QUAD = GaussQuadrature.hex(3)


def ones_fields(mesh):
    shape = (mesh.nel, QUAD.npoints)
    return np.ones(shape), np.ones(shape)


class TestOperatorStructure:
    def test_coupled_apply_symmetric(self, rng):
        mesh = StructuredMesh((3, 2, 2), order=2)
        eta, rho = ones_fields(mesh)
        pb = StokesProblem(mesh, eta, rho, bc_builder=no_slip_bc)
        op = StokesOperator(pb)
        x = rng.standard_normal(pb.ndof)
        y = rng.standard_normal(pb.ndof)
        assert op(x) @ y == pytest.approx(op(y) @ x, rel=1e-9)

    def test_bc_rows_identity(self, rng):
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta, rho = ones_fields(mesh)
        pb = StokesProblem(mesh, eta, rho, bc_builder=no_slip_bc)
        op = StokesOperator(pb)
        x = rng.standard_normal(pb.ndof)
        y = op(x)
        assert np.allclose(y[: pb.nu][pb.bc.mask], x[: pb.nu][pb.bc.mask])

    def test_one_divergence_matrix(self, rng):
        """A non-compiled kind stores one sparse matrix, ``B_int``; its
        transposed (CSC) product adds in the same order as a stored CSR
        transpose, and the coupled apply leaves its argument alone.  The
        compiled default stores none until ``B_int`` is asked for."""
        import scipy.sparse as sp

        mesh = StructuredMesh((3, 2, 2), order=2)
        eta, rho = ones_fields(mesh)
        pb = StokesProblem(mesh, eta, rho, bc_builder=free_slip_bc)
        op = StokesOperator(pb, kind="tensor")
        held = [v for v in vars(op).values() if sp.issparse(v)]
        assert len(held) == 1 and held[0] is op.B_int
        assert sp.isspmatrix_csr(op.B_int)
        p = rng.standard_normal(pb.npress)
        gp = op.B_int.T.tocsr() @ p
        gp[pb.bc.dofs] = 0.0
        assert np.array_equal(op.gradient(p), gp)
        x = rng.standard_normal(pb.ndof)
        compiled = StokesOperator(pb)
        held = [v for v in vars(compiled).values() if sp.issparse(v)]
        if compiled._fused:
            assert not held
        else:  # the NumPy fallback reads B_int like any other kind
            assert len(held) == 1 and held[0] is compiled.B_int
        for o in (op, compiled):
            x_in = x.copy()
            y1, y2 = o.apply(x), o.apply(x)
            assert np.array_equal(x, x_in) and np.array_equal(y1, y2)
            assert y1 is not y2
            assert np.allclose(y1, o.assemble() @ x, atol=1e-12)
        assert sp.isspmatrix_csr(compiled.B_int)  # built on first use

    @pytest.mark.parametrize("bc_builder", [free_slip_bc, no_slip_bc])
    def test_apply_and_rhs_match_three_matrix_formulas(self, rng, bc_builder):
        """A non-compiled kind's ``apply`` and ``rhs`` are bit-equal to the
        formulas on ``B``, ``B_int`` and a stored CSR ``B_int^T``, rebuilt
        here from a freshly assembled ``B`` as the oracle; the compiled
        default, which applies ``B`` and ``B^T`` in its kernel, meets them
        to a few ulp."""
        import scipy.sparse as sp
        from repro.fem import assembly

        mesh = StructuredMesh((3, 2, 2), order=2)
        mesh.deform(lambda c: c + 0.03 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
        eta = 1.0 + rng.random((mesh.nel, QUAD.npoints))
        rho = rng.random((mesh.nel, QUAD.npoints))
        pb = StokesProblem(mesh, eta, rho, bc_builder=bc_builder)
        bc = pb.bc
        B = assembly.assemble_divergence(mesh, QUAD)
        B_int = (B @ sp.diags((~bc.mask).astype(float))).tocsr()
        B_int_T = B_int.T.tocsr()
        x = rng.standard_normal(pb.ndof)
        u, p = x[: pb.nu], x[pb.nu:]
        gp = B_int_T @ p
        gp[bc.dofs] = 0.0
        g = np.zeros(pb.nu)
        g[bc.dofs] = bc.values
        Fu = assembly.rhs_body_force(mesh, rho, np.asarray(pb.gravity), QUAD)
        for kind in ("tensor", "tensor_compiled"):
            op = StokesOperator(pb, kind=kind)
            yu = bc.wrap_apply(op.A_op)(u)
            yu += gp
            y = np.concatenate([yu, B_int @ u])
            F = Fu - op.A_op.apply(g)
            F[bc.dofs] = bc.values
            b = np.concatenate([F, np.zeros(pb.npress) - B @ g])
            if kind == "tensor":
                assert op.apply(x).tobytes() == y.tobytes()
                assert op.rhs().tobytes() == b.tobytes()
            else:
                assert np.abs(op.apply(x) - y).max() <= 1e-13 * np.abs(y).max()
                assert np.abs(op.rhs() - b).max() <= 1e-13 * np.abs(b).max()

    def test_fallback_kernel_shares_divergence(self, rng):
        """The ``sa-amg`` rung's operator, made from the caller's compiled
        one with ``with_velocity_operator``, reads ``B_int`` (assembled on
        first use): its apply is the floats of one built fresh with that
        kind, and its right-hand side keeps the caller's lift."""
        from repro.matfree import make_operator
        from repro.stokes.solve import FALLBACK_RUNGS

        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = eta_at_quadrature(mesh, lambda x: 1.0 + x[..., 0], QUAD)
        rho = eta_at_quadrature(mesh, lambda x: 1.0 + x[..., 2], QUAD)
        pb = StokesProblem(mesh, eta, rho, bc_builder=no_slip_bc)
        cfg = dict(FALLBACK_RUNGS)["sa-amg"](StokesConfig())
        op = StokesOperator(pb)
        swapped = op.with_velocity_operator(
            make_operator(cfg.operator, mesh, eta, quad=QUAD))
        fresh = StokesOperator(pb, kind=cfg.operator)
        x = rng.standard_normal(pb.ndof)
        assert swapped.apply(x).tobytes() == fresh.apply(x).tobytes()
        assert np.array_equal(swapped._lift_p, op._lift_p)
        b, ref = swapped.rhs(), fresh.rhs()
        assert np.abs(b - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_rhs_satisfies_bc(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta, rho = ones_fields(mesh)
        pb = StokesProblem(mesh, eta, rho, bc_builder=free_slip_bc)
        op = StokesOperator(pb)
        b = op.rhs()
        assert np.allclose(b[: pb.nu][pb.bc.mask], 0.0)

    def test_split_uy_p(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        r = np.zeros(3 * mesh.nnodes + 4 * mesh.nel)
        r[2] = 3.0  # a w-component entry
        r[3 * mesh.nnodes] = 4.0  # a pressure entry
        ru, ruz, rp = split_uy_p(mesh, r)
        assert ru == pytest.approx(3.0)
        assert ruz == pytest.approx(3.0)
        assert rp == pytest.approx(4.0)


class TestHydrostatics:
    def test_still_fluid_linear_pressure(self):
        """Constant density with a free surface: u = 0 and p = rho g depth.
        This pins the sign conventions of the entire discretization."""
        mesh = StructuredMesh((4, 4, 4), order=2)
        eta, rho = ones_fields(mesh)
        pb = StokesProblem(mesh, eta, rho, gravity=(0, 0, -9.8),
                           bc_builder=free_slip_bc)
        sol = solve_stokes(pb, StokesConfig(mg_levels=2, coarse_solver="lu",
                                            rtol=1e-9))
        assert sol.converged
        assert np.abs(sol.u).max() < 1e-7
        cent, _ = mesh.element_centroids_and_extents()
        p0 = sol.p[0::4]
        assert np.abs(p0 - 9.8 * (1.0 - cent[:, 2])).max() < 1e-6

    def test_dense_blob_sinks(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        blob = lambda x: np.linalg.norm(x - 0.5, axis=-1) < 0.25
        eta = eta_at_quadrature(mesh, lambda x: np.where(blob(x), 10.0, 1.0), QUAD)
        rho = eta_at_quadrature(mesh, lambda x: np.where(blob(x), 1.2, 1.0), QUAD)
        pb = StokesProblem(mesh, eta, rho, gravity=(0, 0, -9.8),
                           bc_builder=free_slip_bc)
        sol = solve_stokes(pb, StokesConfig(mg_levels=2, coarse_solver="lu"))
        assert sol.converged
        center = mesh.node_index(4, 4, 4)
        assert sol.u[3 * center + 2] < 0  # sinks

    def test_velocity_divergence_free(self):
        """The locally conservative Q2-P1disc element gives element-wise
        zero divergence (constant mode rows of B u vanish)."""
        mesh = StructuredMesh((4, 4, 4), order=2)
        blob = lambda x: np.linalg.norm(x - 0.5, axis=-1) < 0.3
        eta = eta_at_quadrature(mesh, lambda x: np.where(blob(x), 100.0, 1.0), QUAD)
        rho = eta_at_quadrature(mesh, lambda x: np.where(blob(x), 1.5, 1.0), QUAD)
        pb = StokesProblem(mesh, eta, rho, bc_builder=free_slip_bc)
        sol = solve_stokes(pb, StokesConfig(mg_levels=2, coarse_solver="lu",
                                            rtol=1e-9))
        op = StokesOperator(pb)
        div = op.B_int @ sol.u
        # scaled by the velocity magnitude
        assert np.abs(div).max() < 1e-6 * max(np.abs(sol.u).max(), 1)


class TestManufacturedSolution:
    def _solve(self, n):
        """u = curl of a smooth potential (divergence free), Dirichlet BCs
        from the exact solution, f from the strong form with eta = 1."""
        mesh = StructuredMesh((n, n, n), order=2)
        pi = np.pi

        def u_exact(c):
            x, y, z = c[..., 0], c[..., 1], c[..., 2]
            ux = np.sin(pi * x) * np.cos(pi * y) * z
            uy = -np.cos(pi * x) * np.sin(pi * y) * z
            uz = np.zeros_like(x)
            return np.stack([ux, uy, uz], axis=-1)

        def p_exact(c):
            return np.cos(pi * c[..., 0]) * np.cos(pi * c[..., 2])

        def f_body(c):
            # f = -div(2 D(u)) + grad p (so the momentum equation holds
            # with our convention A u + B^T p = F, F = int f.w)
            x, y, z = c[..., 0], c[..., 1], c[..., 2]
            lap_ux = -2 * pi**2 * np.sin(pi * x) * np.cos(pi * y) * z
            lap_uy = 2 * pi**2 * np.cos(pi * x) * np.sin(pi * y) * z
            lap_uz = np.zeros_like(x)
            # div u = 0 => div(2 D(u)) = lap u
            gpx = -pi * np.sin(pi * x) * np.cos(pi * z)
            gpz = -pi * np.cos(pi * x) * np.sin(pi * z)
            fx = -lap_ux + gpx
            fy = -lap_uy
            fz = -lap_uz + gpz
            return np.stack([fx, fy, fz], axis=-1)

        from repro.fem.bc import DirichletBC, boundary_nodes, component_dofs

        def bc_builder(m):
            bc = DirichletBC(3 * m.nnodes)
            ue = u_exact(m.coords)
            for face in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax"):
                nodes = boundary_nodes(m, face)
                for c in range(3):
                    bc.add(component_dofs(nodes, c), ue[nodes, c])
            return bc.finalize()

        eta = np.ones((mesh.nel, QUAD.npoints))
        rho = np.zeros((mesh.nel, QUAD.npoints))
        pb = StokesProblem(mesh, eta, rho, gravity=(0, 0, 0), bc_builder=bc_builder)
        op = StokesOperator(pb)
        # rhs from the manufactured body force: F_a = int f . phi_a
        _, det, xq = mesh.geometry_at(QUAD)
        N = mesh.basis.eval(QUAD.points)
        fq = f_body(xq)
        fe = np.einsum("nq,qa,nqc->nac", det * QUAD.weights[None], N, fq)
        Fu = np.zeros(3 * mesh.nnodes)
        conn = mesh.connectivity
        edofs = 3 * conn[:, :, None] + np.arange(3)[None, None, :]
        np.add.at(Fu, edofs.ravel(), fe.ravel())
        g = np.zeros(pb.nu)
        g[pb.bc.dofs] = pb.bc.values
        Fu = Fu - op.A_op.apply(g)
        Fu[pb.bc.dofs] = pb.bc.values
        Fp = op.rhs()[pb.nu:]
        b = np.concatenate([Fu, Fp])
        sol = solve_stokes(pb, StokesConfig(mg_levels=2, coarse_solver="lu",
                                            rtol=1e-10, maxiter=600,
                                            project_pressure_nullspace=True),
                           rhs=b)
        assert sol.converged
        ue = u_exact(mesh.coords)
        err_u = np.abs(sol.u.reshape(-1, 3) - ue).max()
        # compare element-mean pressure (shift-invariant); use the RMS over
        # elements -- max-norm pressure at coarse resolutions is dominated
        # by corner elements and converges preasymptotically
        cent, _ = mesh.element_centroids_and_extents()
        pe = p_exact(cent)
        p0 = sol.p[0::4]
        diff = (p0 - p0.mean()) - (pe - pe.mean())
        err_p = float(np.sqrt(np.mean(diff**2)))
        return err_u, err_p

    def test_convergence_orders(self):
        eu2, ep2 = self._solve(2)
        eu4, ep4 = self._solve(4)
        rate_u = np.log2(eu2 / eu4)
        rate_p = np.log2(ep2 / ep4)
        assert rate_u > 2.3, f"velocity rate {rate_u:.2f} ({eu2:.2e} -> {eu4:.2e})"
        assert rate_p > 1.3, f"pressure rate {rate_p:.2f} ({ep2:.2e} -> {ep4:.2e})"


class TestSolverPlumbing:
    def test_requires_bc_builder(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta, rho = ones_fields(mesh)
        bc = free_slip_bc(mesh)
        pb = StokesProblem(mesh, eta, rho, bc=bc)
        with pytest.raises(ValueError):
            solve_stokes(pb)

    def test_fgmres_outer(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        eta, rho = ones_fields(mesh)
        pb = StokesProblem(mesh, eta, rho, bc_builder=free_slip_bc)
        sol = solve_stokes(pb, StokesConfig(mg_levels=2, coarse_solver="lu",
                                            outer="fgmres"))
        assert sol.converged

    def test_monitor_wired_through(self):
        from repro.diagnostics import FieldSplitMonitor

        mesh = StructuredMesh((4, 4, 4), order=2)
        eta, rho = ones_fields(mesh)
        pb = StokesProblem(mesh, eta, rho, bc_builder=free_slip_bc)
        mon = FieldSplitMonitor(mesh)
        solve_stokes(pb, StokesConfig(mg_levels=2, coarse_solver="lu"),
                     monitor=mon)
        assert len(mon.total) >= 2
        assert not np.isnan(mon.pressure).any()
