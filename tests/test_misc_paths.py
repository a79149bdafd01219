"""Coverage of secondary paths: quadrature line rule, Schur weighting,
picard monitor, VTK vector shapes, advection hints."""

import numpy as np
import pytest

from repro.fem import GaussQuadrature, StructuredMesh, assembly

QUAD = GaussQuadrature.hex(3)


class TestQuadratureLine:
    def test_line_matches_1d_rule(self):
        q = GaussQuadrature.hex(3)
        pts, wts = q.line()
        assert pts.shape == (3,)
        assert wts.sum() == pytest.approx(2.0)


class TestSchurMassWeighting:
    def test_matches_assembled_weighted_mass(self, rng):
        """SchurMass's blocks equal the assembled 1/eta-weighted pressure
        mass matrix."""
        from repro.stokes import SchurMass

        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.exp(rng.normal(size=(mesh.nel, QUAD.npoints)))
        S = SchurMass(mesh, eta, QUAD)
        Mp = assembly.pressure_mass_blocks(mesh, 1.0 / eta, QUAD)
        p = rng.standard_normal(4 * mesh.nel)
        # S(p) = -Mp^{-1} p blockwise
        expected = -np.linalg.solve(Mp, p.reshape(-1, 4, 1))[:, :, 0].ravel()
        assert np.allclose(S(p), expected, atol=1e-12)


class TestPicardMonitor:
    def test_monitor_sequence(self):
        from repro.solvers import picard

        calls = []

        def residual(x):
            return -x**3 - x + 1.0  # root near 0.68

        def solve_picard(x, F, rtol):
            return F / (1.0 + 3 * 0.7**2), 1  # frozen-slope correction

        res = picard(residual, solve_picard, np.array([0.0]), rtol=1e-8,
                     maxiter=100, monitor=lambda k, f: calls.append(k))
        assert res.converged
        assert calls[0] == 0 and calls[-1] == res.iterations


class TestVTKShapes:
    def test_2d_vector_array(self, tmp_path):
        from repro.diagnostics import write_vts

        mesh = StructuredMesh((2, 2, 2), order=2)
        v = np.zeros((mesh.nnodes, 3))
        v[:, 0] = 1.0
        path = tmp_path / "v.vts"
        write_vts(str(path), mesh, {"v": v})
        assert 'NumberOfComponents="3"' in path.read_text()


class TestAdvectionHints:
    def test_stale_hints_recovered(self, rng):
        """locate_points with wildly wrong hints still resolves by walking."""
        from repro.mpm import locate_points

        mesh = StructuredMesh((6, 6, 6), order=2)
        x = rng.uniform(0.05, 0.95, size=(50, 3))
        good, _, _ = locate_points(mesh, x)
        stale = np.full(50, mesh.nel - 1, dtype=np.int64)
        els, _, lost = locate_points(mesh, x, hints=stale)
        assert not lost.any()
        assert np.array_equal(els, good)

    def test_mixed_valid_invalid_hints(self, rng):
        from repro.mpm import locate_points

        mesh = StructuredMesh((4, 4, 4), order=2)
        x = rng.uniform(0.1, 0.9, size=(10, 3))
        ref, _, _ = locate_points(mesh, x)
        hints = ref.copy()
        hints[::2] = -1  # half the cache invalidated
        els, _, lost = locate_points(mesh, x, hints=hints)
        assert not lost.any()
        assert np.array_equal(els, ref)


class TestCommValidation:
    def test_unknown_op(self):
        from repro.parallel import tree_reduce

        with pytest.raises(ValueError):
            tree_reduce([1.0, 2.0], op="median")

    def test_size_validation(self):
        from repro.parallel import VirtualComm

        with pytest.raises(ValueError):
            VirtualComm(0)


class TestNewtonOperatorInCoupledSolve:
    def test_newton_velocity_operator_passes_through(self, rng):
        """solve_stokes accepts a Newton linearization for the matvec while
        the preconditioner keeps Picard (SS III-A wiring)."""
        from repro.matfree import NewtonTensorOperator
        from repro.sim.fields import strain_rate_at_quadrature
        from repro.sim.sinker import SinkerConfig, sinker_stokes_problem
        from repro.stokes import StokesConfig, solve_stokes

        pb = sinker_stokes_problem(
            SinkerConfig(shape=(3, 3, 3), n_spheres=1, radius=0.2,
                         delta_eta=10.0)
        )
        u0 = rng.standard_normal(pb.nu) * 1e-3
        Du = strain_rate_at_quadrature(pb.mesh, u0, QUAD)
        deta = -0.01 * pb.eta_q  # mildly shear thinning
        vel_op = NewtonTensorOperator(pb.mesh, pb.eta_q, Du, deta, quad=QUAD)
        sol = solve_stokes(pb, StokesConfig(mg_levels=1, coarse_solver="lu",
                                            rtol=1e-6),
                           velocity_operator=vel_op)
        assert sol.converged
