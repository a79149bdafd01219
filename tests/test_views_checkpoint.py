"""Assembled saddle matrix, checkpointing, stress diagnostics."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.fem import GaussQuadrature, StructuredMesh
from repro.sim import (
    SimulationConfig,
    load_checkpoint,
    make_sinker,
    save_checkpoint,
    stress_invariant_at_quadrature,
    stress_invariant_nodal,
)
from repro.sim.sinker import SinkerConfig, sinker_stokes_problem
from repro.stokes import StokesConfig, StokesOperator, solve_stokes

QUAD = GaussQuadrature.hex(3)


class TestAssembledSaddle:
    def test_matches_matrix_free_apply(self, rng):
        cfg = SinkerConfig(shape=(3, 3, 3), n_spheres=1, radius=0.2,
                           delta_eta=10.0)
        pb = sinker_stokes_problem(cfg)
        op = StokesOperator(pb)
        J = op.assemble()
        x = rng.standard_normal(pb.ndof)
        assert np.allclose(J @ x, op.apply(x), atol=1e-10)

    def test_direct_solve_matches_iterative(self):
        """The fieldsplit-preconditioned GCR solution agrees with a sparse
        direct solve of the assembled saddle system -- the strongest
        correctness anchor for the whole solver stack."""
        cfg = SinkerConfig(shape=(3, 3, 3), n_spheres=1, radius=0.2,
                           delta_eta=100.0)
        pb = sinker_stokes_problem(cfg)
        op = StokesOperator(pb)
        J = op.assemble().tocsc()
        x_direct = spla.spsolve(J, op.rhs())
        sol = solve_stokes(pb, StokesConfig(mg_levels=1, coarse_solver="lu",
                                            rtol=1e-10, maxiter=600))
        assert sol.converged
        scale = np.abs(x_direct[: pb.nu]).max()
        assert np.abs(sol.u - x_direct[: pb.nu]).max() < 1e-6 * scale
        pscale = np.abs(x_direct[pb.nu:]).max()
        assert np.abs(sol.p - x_direct[pb.nu:]).max() < 1e-5 * pscale


class TestCheckpoint:
    def _sim(self):
        return make_sinker(
            SinkerConfig(shape=(3, 3, 3), n_spheres=1, radius=0.2,
                         delta_eta=10.0),
            SimulationConfig(stokes=StokesConfig(mg_levels=1,
                                                 coarse_solver="lu"),
                             max_newton=1),
        )

    def test_roundtrip_restores_state(self, tmp_path):
        sim = self._sim()
        sim.step()
        path = str(tmp_path / "chk.npz")
        save_checkpoint(path, sim)
        sim2 = self._sim()
        load_checkpoint(path, sim2)
        assert np.allclose(sim2.u, sim.u)
        assert np.allclose(sim2.p, sim.p)
        assert sim2.time == sim.time
        assert sim2.step_index == sim.step_index
        assert sim2.points.n == sim.points.n
        assert np.allclose(sim2.points.x, sim.points.x)
        assert np.array_equal(sim2.points.lithology, sim.points.lithology)

    def test_restart_continues_identically(self, tmp_path):
        """step; checkpoint; step  ==  restore; step  (bitwise-close)."""
        sim = self._sim()
        sim.step(dt=0.05)
        path = str(tmp_path / "chk.npz")
        save_checkpoint(path, sim)
        sim.step(dt=0.05)
        sim2 = self._sim()
        load_checkpoint(path, sim2)
        sim2.step(dt=0.05)
        assert np.allclose(sim2.u, sim.u, atol=1e-12)
        assert np.allclose(sim2.points.x, sim.points.x, atol=1e-12)

    def test_mesh_shape_validation(self, tmp_path):
        sim = self._sim()
        path = str(tmp_path / "chk.npz")
        save_checkpoint(path, sim)
        other = make_sinker(
            SinkerConfig(shape=(4, 4, 4), n_spheres=1, radius=0.2,
                         delta_eta=10.0),
            SimulationConfig(stokes=StokesConfig(mg_levels=1,
                                                 coarse_solver="lu")),
        )
        with pytest.raises(ValueError):
            load_checkpoint(path, other)

    def test_extra_point_fields_roundtrip(self, tmp_path):
        sim = self._sim()
        sim.points.add_field("age", np.arange(float(sim.points.n)))
        path = str(tmp_path / "chk.npz")
        save_checkpoint(path, sim)
        sim2 = self._sim()
        load_checkpoint(path, sim2)
        assert np.array_equal(sim2.points.field("age"),
                              np.arange(float(sim.points.n)))


class TestStressDiagnostics:
    def test_pure_shear_stress(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        u = np.zeros(3 * mesh.nnodes)
        u[0::3] = mesh.coords[:, 1]  # eps_II = 1/2
        eta = np.full((mesh.nel, QUAD.npoints), 3.0)
        tau = stress_invariant_at_quadrature(mesh, u, eta, QUAD)
        assert np.allclose(tau, 2 * 3.0 * 0.5)

    def test_nodal_reconstruction_constant(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        u = np.zeros(3 * mesh.nnodes)
        u[0::3] = mesh.coords[:, 1]
        eta = np.ones((mesh.nel, QUAD.npoints))
        nodal = stress_invariant_nodal(mesh, u, eta, QUAD)
        assert nodal.shape == (3**3,)
        assert np.allclose(nodal, 1.0, atol=1e-10)
