"""Simulation drivers: sinker and rifting models, field evaluation."""

import numpy as np
import pytest

from repro.fem import StructuredMesh, GaussQuadrature
from repro.sim import (
    Simulation,
    SimulationConfig,
    make_rifting,
    make_sinker,
    pressure_at_points,
    pressure_at_quadrature,
    strain_invariant_at_points,
    strain_invariant_at_quadrature,
)
from repro.sim.rifting import RiftingConfig, rifting_materials
from repro.sim.sinker import (
    SinkerConfig,
    free_slip_bc,
    place_spheres,
    sinker_stokes_problem,
)
from repro.stokes import StokesConfig, solve_stokes

QUAD = GaussQuadrature.hex(3)


class TestFieldEvaluation:
    def test_strain_invariant_pure_shear(self, rng):
        mesh = StructuredMesh((2, 2, 2), order=2)
        u = np.zeros(3 * mesh.nnodes)
        u[0::3] = mesh.coords[:, 1]  # du_x/dy = 1 -> eps_II = 1/2
        eps_q = strain_invariant_at_quadrature(mesh, u, QUAD)
        assert np.allclose(eps_q, 0.5, atol=1e-12)
        els = rng.integers(0, mesh.nel, size=10)
        xi = rng.uniform(-0.9, 0.9, size=(10, 3))
        eps_p = strain_invariant_at_points(mesh, u, els, xi)
        assert np.allclose(eps_p, 0.5, atol=1e-12)

    def test_pressure_evaluation_consistent(self, rng):
        """P1disc coefficients evaluated at points/quadrature reproduce the
        linear-per-element field."""
        mesh = StructuredMesh((2, 2, 2), order=2)
        p = rng.standard_normal(4 * mesh.nel)
        pq = pressure_at_quadrature(mesh, p, QUAD)
        # compare one quadrature point against a manual basis evaluation
        _, _, xq = mesh.geometry_at(QUAD)
        cent, h = mesh.element_centroids_and_extents()
        n, q = 3, 7
        psi = np.array([
            1.0,
            (xq[n, q, 0] - cent[n, 0]) / h[n, 0],
            (xq[n, q, 1] - cent[n, 1]) / h[n, 1],
            (xq[n, q, 2] - cent[n, 2]) / h[n, 2],
        ])
        assert pq[n, q] == pytest.approx(psi @ p[4 * n: 4 * n + 4])

    def test_point_and_quadrature_pressure_agree(self, rng):
        mesh = StructuredMesh((2, 2, 2), order=2)
        p = rng.standard_normal(4 * mesh.nel)
        els = np.array([3])
        xi = np.zeros((1, 3))  # element center
        pp = pressure_at_points(mesh, p, els, xi)
        cent, h = mesh.element_centroids_and_extents()
        # at the centroid only the constant mode contributes (regular mesh)
        assert pp[0] == pytest.approx(p[12], abs=1e-12)


class TestSinker:
    def test_sphere_placement_non_intersecting(self):
        cfg = SinkerConfig(n_spheres=8, radius=0.1, seed=3)
        centers = place_spheres(cfg)
        assert centers.shape == (8, 3)
        for i in range(8):
            for j in range(i + 1, 8):
                assert np.linalg.norm(centers[i] - centers[j]) >= 2 * cfg.radius
        assert centers.min() >= cfg.radius
        assert centers.max() <= 1 - cfg.radius

    def test_impossible_placement_raises(self):
        with pytest.raises(RuntimeError):
            place_spheres(SinkerConfig(n_spheres=200, radius=0.2))

    def test_stokes_problem_coefficients(self):
        cfg = SinkerConfig(shape=(4, 4, 4), delta_eta=1e3, n_spheres=2,
                           radius=0.15)
        pb = sinker_stokes_problem(cfg)
        assert pb.eta_q.min() == pytest.approx(1e-3)
        assert pb.eta_q.max() == pytest.approx(1.0)
        assert set(np.round(np.unique(pb.rho_q), 6)) == {1.0, 1.2}

    def test_linear_solve_converges(self):
        cfg = SinkerConfig(shape=(4, 4, 4), delta_eta=1e2, n_spheres=2,
                           radius=0.15)
        pb = sinker_stokes_problem(cfg)
        sol = solve_stokes(pb, StokesConfig(mg_levels=2, coarse_solver="lu"))
        assert sol.converged
        # spheres are denser: net downward flow through the midplane center
        mesh = pb.mesh
        assert np.abs(sol.u).max() > 0

    def test_simulation_step(self):
        cfg = SinkerConfig(shape=(4, 4, 4), n_spheres=2, radius=0.15,
                           delta_eta=1e2)
        sim = make_sinker(cfg, SimulationConfig(
            stokes=StokesConfig(mg_levels=2, coarse_solver="lu"),
            max_newton=2,
        ))
        stats = sim.step()
        assert stats["newton_converged"]
        assert stats["dt"] > 0
        assert np.abs(sim.u).max() > 0
        # markers are tracked: both lithologies still present
        assert set(np.unique(sim.points.lithology)) == {0, 1}

    def test_marker_eta_matches_analytic_field(self):
        """Marker-projected viscosity approximates the analytic sampling."""
        cfg = SinkerConfig(shape=(4, 4, 4), n_spheres=2, radius=0.2,
                           delta_eta=1e2, points_per_dim=3)
        sim = make_sinker(cfg)
        problem = sim.linearize(np.concatenate([sim.u, sim.p])).picard.problem
        eta_q, rho_q = problem.eta_q, problem.rho_q
        assert eta_q.min() >= 1.0 / cfg.delta_eta - 1e-12
        assert eta_q.max() <= 1.0 + 1e-12
        assert rho_q.max() <= 1.2 + 1e-12

    def test_make_sinker_leaves_its_config_alone(self):
        sc = SimulationConfig(stokes=StokesConfig(mg_levels=2,
                                                  coarse_solver="lu"))
        sim = make_sinker(SinkerConfig(shape=(3, 3, 3), n_spheres=1,
                                       radius=0.2), sc)
        assert sc == SimulationConfig(stokes=StokesConfig(
            mg_levels=2, coarse_solver="lu"))
        assert sim.config.linear_rtol == 1e-5


class _ClaimsNonzero(np.ndarray):
    """A ``deta_q`` whose ``any()`` says yes: forces the Newton operator."""

    def any(self, *args, **kwargs):
        return True


class TestNewtonOperatorIsDerived:
    """The Newton matvec is built only when ``eta'`` is nonzero somewhere;
    with ``eta' == 0`` it is the Picard operator, so a constant-viscosity
    run builds none and gets the same floats."""

    @staticmethod
    def constant_viscosity_sim():
        base = make_sinker(SinkerConfig(shape=(4, 4, 4), n_spheres=2,
                                        radius=0.15, delta_eta=1.0))
        # the default nonlinear settings: Eisenstat-Walker forcing, so the
        # solve takes a second (Newton-phase) correction
        return Simulation(
            base.mesh, base.materials, base.points, free_slip_bc,
            config=SimulationConfig(
                stokes=StokesConfig(mg_levels=2, coarse_solver="lu")),
        )

    def test_constant_viscosity_builds_no_newton_operator(self, monkeypatch):
        from repro.sim import timeloop

        built = []

        class Spy(timeloop.NewtonTensorOperator):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(timeloop, "NewtonTensorOperator", Spy)
        sim = self.constant_viscosity_sim()
        res = sim.solve_stokes_nonlinear()
        assert res.iterations > timeloop.PICARD_CORRECTIONS
        assert not built

        # the oracle: the same solve with the zero-eta' Newton operator
        linearize = Simulation.linearize

        def forced(self, x):
            lin = linearize(self, x)
            lin.deta_q = lin.deta_q.view(_ClaimsNonzero)
            return lin

        monkeypatch.setattr(Simulation, "linearize", forced)
        ref_sim = self.constant_viscosity_sim()
        ref = ref_sim.solve_stokes_nonlinear()
        assert built
        assert res.iterations == ref.iterations
        if built[0].compiled:
            assert res.residuals == ref.residuals
            assert np.array_equal(res.x, ref.x)
        else:  # the einsum fallback reassociates: equal up to rounding
            assert res.residuals == pytest.approx(ref.residuals, rel=1e-9)
            assert np.allclose(res.x, ref.x, rtol=0,
                               atol=1e-10 * np.abs(ref.x).max())


class TestRifting:
    def test_materials(self):
        mats = rifting_materials()
        assert [m.name for m in mats] == ["mantle", "weak crust", "strong crust"]
        # crusts carry plasticity, the mantle does not
        assert mats[0].rheology.plastic is None
        assert mats[1].rheology.plastic is not None

    def test_setup_lithology_layers(self):
        cfg = RiftingConfig(shape=(6, 4, 2))
        sim = make_rifting(cfg)
        z = sim.points.x[:, 2]
        assert np.all(sim.points.lithology[z < 0.7] == 0)
        assert np.all(sim.points.lithology[z > 0.95] == 2)

    def test_damage_seed_in_crust_only(self):
        cfg = RiftingConfig(shape=(6, 4, 2))
        sim = make_rifting(cfg)
        damaged = sim.points.plastic_strain > 0
        assert damaged.any()
        assert np.all(sim.points.x[damaged, 2] >= cfg.mantle_top)
        # concentrated near the back face
        assert sim.points.x[damaged, 1].min() > cfg.extent[1] - cfg.damage_depth_from_back - 1e-9

    def test_two_steps_converge_and_subside(self):
        cfg = RiftingConfig(shape=(6, 4, 2), mg_levels=1)
        sim = make_rifting(cfg)
        s1 = sim.step()
        s2 = sim.step()
        assert s1["newton_converged"] and s2["newton_converged"]
        assert s2["newton_iterations"] <= s1["newton_iterations"]
        assert s1["yielded_fraction"] > 0.02  # plasticity active
        # extension thins the domain: surface drops on average
        topo = sim.mesh.coords[:, 2].max()
        assert topo <= 1.0 + 1e-9

    def test_one_flow_law_evaluation_per_iterate(self, monkeypatch):
        """The residual, the linear solve and the plastic update of one
        iterate share its linearization: a step of 3 Newton iterations
        evaluates the flow laws at its 4 distinct iterates, once each."""
        cfg = RiftingConfig(shape=(6, 4, 2), mg_levels=1)
        sim = make_rifting(cfg)
        sim.config.newton_rtol = 1e-12
        sim.config.max_newton = 3
        seen = []
        evaluate = sim.point_properties

        def counted(u, p):
            seen.append(np.concatenate([u, p]).tobytes())
            return evaluate(u, p)

        monkeypatch.setattr(sim, "point_properties", counted)
        stats = sim.step()
        assert stats["newton_iterations"] == 3
        assert len(seen) == 4 == len(set(seen))

    def test_temperature_stays_bounded(self):
        cfg = RiftingConfig(shape=(6, 4, 2), mg_levels=1)
        sim = make_rifting(cfg)
        sim.step()
        assert sim.T.min() >= -1e-6
        assert sim.T.max() <= 1.0 + 1e-6


class TestTimeLoopPlumbing:
    def test_cfl_dt(self):
        cfg = SinkerConfig(shape=(4, 4, 4), n_spheres=2, radius=0.15,
                           delta_eta=1e2)
        sim = make_sinker(cfg)
        sim.solve_stokes_nonlinear()
        dt = sim.stable_dt()
        h_min = 0.25
        assert dt == pytest.approx(
            sim.config.cfl * h_min / np.abs(sim.u).max()
        )

    def test_run_collects_stats(self):
        cfg = SinkerConfig(shape=(4, 4, 4), n_spheres=1, radius=0.2,
                           delta_eta=10.0)
        sim = make_sinker(cfg, SimulationConfig(
            stokes=StokesConfig(mg_levels=2, coarse_solver="lu"),
            max_newton=2,
        ))
        stats = sim.run(2)
        assert len(stats) == 2
        assert all(s["newton_iterations"] >= 1 for s in stats)
        assert sim.step_index == 2
        assert sim.time > 0

    def test_thermal_requires_T0(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        from repro.rheology import Material
        from repro.mpm import seed_points

        with pytest.raises(ValueError):
            Simulation(mesh, [Material.simple("m", 1.0, 1.0)],
                       seed_points(mesh, 2), free_slip_bc,
                       SimulationConfig(thermal_kappa=0.1))
