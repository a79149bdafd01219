"""Physics-state health guards: mesh/particle/field invariant monitoring
with guarded degradation (the adversarial suite of the health-gate PR)."""

import numpy as np
import pytest

from repro.ale import (
    detj_at_vertices,
    mesh_quality,
    remesh_vertical,
    smooth_surface,
    surface_fold_report,
)
from repro.fem import StructuredMesh
from repro.fem.quadrature import GaussQuadrature
from repro.fem import geometry
from repro.mpm import MaterialPoints, seed_points
from repro.mpm.migration import (
    count_points_per_element,
    migrate_points,
    populate_empty_cells,
    thin_overcrowded_cells,
)
from repro.parallel.comm import VirtualComm
from repro.parallel.decomposition import BlockDecomposition
from repro.resilience import (
    FaultInjector,
    HealthCheckFailure,
    HealthConfig,
    guard_field,
)
from repro.resilience import health as health_mod
from repro.resilience.health import MIN_POINTS_PER_ELEMENT, HealthMonitor
from repro.resilience.reasons import BreakdownError, ConvergedReason
from repro.sim import SimulationConfig, make_rifting, make_sinker
from repro.sim.rifting import RiftingConfig
from repro.sim.sinker import SinkerConfig
from repro import obs


def fold_mesh(shape=(4, 4, 4), depth=0.2, span=(1, 3)):
    """A free-surface mesh whose central top band crossed the bottom."""
    mesh = StructuredMesh(shape, order=2)
    nnx, nny, nnz = mesh.nodes_per_dim
    coords = mesh.coords.copy().reshape(nnz, nny, nnx, 3)
    i0, i1 = span
    coords[-1, :, i0:i1, 2] = coords[0, :, i0:i1, 2] - depth
    mesh.set_coords(coords.reshape(-1, 3))
    return mesh


# --------------------------------------------------------------------- #
# typed failure
# --------------------------------------------------------------------- #
class TestHealthCheckFailure:
    def test_is_breakdown_with_metadata(self):
        exc = HealthCheckFailure("bad", check="mesh", details={"k": 1})
        assert isinstance(exc, BreakdownError)
        assert exc.check == "mesh"
        assert exc.details == {"k": 1}
        assert exc.reason == ConvergedReason.DIVERGED_BREAKDOWN

    def test_reason_override(self):
        exc = HealthCheckFailure("nan", check="field:eta",
                                 reason=ConvergedReason.DIVERGED_NAN)
        assert exc.reason == ConvergedReason.DIVERGED_NAN


# --------------------------------------------------------------------- #
# mesh invariants (satellites 1 + 2)
# --------------------------------------------------------------------- #
class TestMeshQuality:
    def test_corner_inversion_invisible_to_gauss_points(self):
        """Regression: a corner-localized inversion keeps every 2-pt Gauss
        detJ positive; only the vertex-sampled detJ exposes it."""
        mesh = StructuredMesh((1, 1, 1), order=2)
        c = mesh.coords.copy()
        corner = int(np.argmin(np.abs(c - [1, 1, 1]).sum(axis=1)))
        c[corner] = [1, 1, 1] - 0.25 * np.array([0.5, 0.5, 0.5])
        mesh.set_coords(c)
        quad = GaussQuadrature.hex(2)
        dN = mesh.basis.grad(quad.points)
        det_g = geometry.det_3x3(geometry.jacobians(mesh.element_coords(), dN))
        det_v = detj_at_vertices(mesh)
        assert det_g.min() > 0          # Gauss points are blind to it
        assert det_v.min() < 0          # the corner sample is not
        q = mesh_quality(mesh)
        assert q["min_detJ"] > 0
        assert q["min_detJ_vertex"] < 0
        assert q["inverted_vertex"] and not q["inverted_gauss"]
        assert q["inverted"]

    def test_healthy_mesh_reports_clean(self, small_mesh):
        q = mesh_quality(small_mesh)
        assert q["min_detJ"] > 0 and q["min_detJ_vertex"] > 0
        assert not q["inverted"]
        assert q["max_aspect"] >= 1.0
        assert q["max_taper"] >= 1.0

    def test_vertex_detj_matches_affine_jacobian(self):
        mesh = StructuredMesh((2, 2, 2), order=2, extent=(2.0, 1.0, 0.5))
        det_v = detj_at_vertices(mesh)
        # affine elements: detJ constant = volume ratio of one element
        expect = (1.0 * 0.5 * 0.25) / 8.0
        assert np.allclose(det_v, expect)


class TestRemeshVertical:
    def test_degenerate_column_raises_by_default(self):
        mesh = fold_mesh()
        with pytest.raises(HealthCheckFailure) as exc:
            remesh_vertical(mesh)
        assert exc.value.check == "mesh"

    def test_repair_ladder_restores_validity(self):
        mesh = fold_mesh()
        assert surface_fold_report(mesh)["folded"]
        # rung 1: clamping restores positive column thickness ...
        repaired = remesh_vertical(mesh, on_degenerate="repair")
        assert repaired > 0
        report = surface_fold_report(mesh)
        assert not report["folded"]
        assert report["min_dz"] > 0
        # ... but the lateral shear between a clamped column and its
        # healthy neighbor can still invert elements -- which is why the
        # ladder has a smoothing rung
        smooth_surface(mesh, passes=2, alpha=0.5)
        remesh_vertical(mesh, on_degenerate="repair")
        assert not mesh_quality(mesh)["inverted"]

    def test_healthy_mesh_untouched(self, small_mesh):
        before = small_mesh.coords.copy()
        assert remesh_vertical(small_mesh) == 0
        assert np.allclose(small_mesh.coords, before)

    def test_min_thickness_floor(self):
        mesh = fold_mesh(depth=0.05)
        repaired = remesh_vertical(mesh, min_thickness=0.3,
                                   on_degenerate="repair")
        assert repaired > 0
        nnx, nny, nnz = mesh.nodes_per_dim
        coords = mesh.coords.reshape(nnz, nny, nnx, 3)
        thickness = coords[-1, :, :, 2] - coords[0, :, :, 2]
        assert thickness.min() >= 0.3 - 1e-12


class TestSmoothSurface:
    def test_reduces_surface_roughness(self):
        mesh = StructuredMesh((6, 4, 2), order=2)
        nnx, nny, nnz = mesh.nodes_per_dim
        coords = mesh.coords.copy().reshape(nnz, nny, nnx, 3)
        rng = np.random.default_rng(0)
        coords[-1, :, :, 2] += 0.05 * rng.standard_normal((nny, nnx))
        mesh.set_coords(coords.reshape(-1, 3))
        rough = np.std(mesh.coords.reshape(nnz, nny, nnx, 3)[-1, :, :, 2])
        smooth_surface(mesh, passes=4, alpha=0.5)
        smoothed = np.std(mesh.coords.reshape(nnz, nny, nnx, 3)[-1, :, :, 2])
        assert smoothed < rough

    def test_flat_surface_is_fixed_point(self, small_mesh):
        before = small_mesh.coords.copy()
        smooth_surface(small_mesh, passes=3)
        assert np.allclose(small_mesh.coords, before)


# --------------------------------------------------------------------- #
# particle invariants (satellite 3 + thinning + audit)
# --------------------------------------------------------------------- #
class TestThinning:
    def make_crowded(self, per_element=40, lith_fraction=0.25, seed=0):
        mesh = StructuredMesh((2, 2, 2), order=2)
        rng = np.random.default_rng(seed)
        pts = seed_points(mesh, 2)
        # pile extra points into element 0 (the [0,.5]^3 octant)
        extra = MaterialPoints(rng.uniform(0.01, 0.49, size=(per_element, 3)))
        from repro.mpm import locate_points
        els, xi, _ = locate_points(mesh, extra.x)
        extra.el, extra.xi = els, xi
        k = int(per_element * lith_fraction)
        extra.lithology[:k] = 1
        pts.extend(extra)
        return mesh, pts

    def test_caps_population_and_preserves_fractions(self):
        mesh, pts = self.make_crowded()
        crowded_el = 0
        liths_before = pts.lithology[pts.el == crowded_el]
        frac_before = np.mean(liths_before == 1)
        out = thin_overcrowded_cells(mesh, pts, max_per_element=16)
        assert out["removed"] > 0
        assert out["elements"] == 1
        counts = count_points_per_element(mesh, pts)
        assert counts.max() <= 16
        liths_after = pts.lithology[pts.el == crowded_el]
        assert liths_after.size == 16
        frac_after = np.mean(liths_after == 1)
        # largest-remainder apportionment keeps the material fraction
        assert abs(frac_after - frac_before) <= 1.0 / 16 + 1e-12
        assert set(np.unique(liths_after)) == set(np.unique(liths_before))
        assert sum(out["per_lithology"].values()) == out["removed"]

    def test_deterministic(self):
        results = []
        for _ in range(2):
            mesh, pts = self.make_crowded()
            thin_overcrowded_cells(mesh, pts, max_per_element=16)
            results.append(pts.x.copy())
        assert np.array_equal(results[0], results[1])

    def test_uncrowded_untouched(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        pts = seed_points(mesh, 2)
        n0 = pts.n
        out = thin_overcrowded_cells(mesh, pts, max_per_element=64)
        assert out["removed"] == 0 and pts.n == n0

    def test_rejects_zero_budget(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        pts = seed_points(mesh, 2)
        with pytest.raises(ValueError):
            thin_overcrowded_cells(mesh, pts, max_per_element=0)


class TestPopulateFallback:
    def starved(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        pts = seed_points(mesh, 2)
        pts.lithology[:] = 3
        pts.plastic_strain[:] = 0.7
        pts.remove(pts.el == 0)  # empty one element
        return mesh, pts

    def test_missing_key_falls_back_to_nearest(self):
        """A partial nodal_fields dict must not leave seed defaults."""
        mesh, pts = self.starved()
        nodal = {"plastic_strain": np.full(
            (np.prod(np.array(mesh.shape) + 1),), 0.7)}
        out = populate_empty_cells(mesh, pts, min_per_element=1,
                                   nodal_fields=nodal)
        assert out["total"] > 0
        # lithology is missing from nodal_fields -> nearest-point copy,
        # not the seed default 0
        assert (pts.lithology == 3).all()
        assert out["per_lithology"] == {3: out["total"]}

    def test_breakdown_dict(self):
        mesh, pts = self.starved()
        out = populate_empty_cells(mesh, pts, min_per_element=1)
        assert set(out) == {"total", "elements", "per_lithology"}
        assert out["elements"] == 1
        assert sum(out["per_lithology"].values()) == out["total"]
        assert count_points_per_element(mesh, pts).min() >= 1

    def test_noop_returns_empty_breakdown(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        pts = seed_points(mesh, 2)
        out = populate_empty_cells(mesh, pts, min_per_element=1)
        assert out == {"total": 0, "elements": 0, "per_lithology": {}}


class TestMigrationAudit:
    def setup_ranks(self, ranks=(2, 2, 1), shape=(4, 4, 2)):
        mesh = StructuredMesh(shape, order=2)
        decomp = BlockDecomposition(mesh, ranks)
        comm = VirtualComm(decomp.nranks)
        pts = seed_points(mesh, 2)
        owner = decomp.element_owner[pts.el]
        rank_points = [pts.subset(np.flatnonzero(owner == r))
                       for r in range(decomp.nranks)]
        return mesh, decomp, comm, pts, rank_points

    def test_clean_round_conserves(self):
        _, decomp, comm, _, rank_points = self.setup_ranks()
        total = sum(p.n for p in rank_points)
        out, deleted = migrate_points(decomp, comm, rank_points)
        assert sum(p.n for p in out) + deleted == total

    def test_nonneighbor_jump_loss_raises(self):
        """A point jumping past the neighbor halo (a CFL violation the
        flooding protocol cannot express) is silently dropped by every
        receiver -- the global audit must catch it."""
        _, decomp, comm, pts, rank_points = self.setup_ranks(
            ranks=(4, 1, 1), shape=(8, 4, 2))
        assert 2 not in decomp.neighbors(0)
        # teleport a rank-0 point into a rank-2 element
        donor = int(np.flatnonzero(decomp.element_owner[pts.el] == 2)[0])
        mover = rank_points[0]
        mover.x[0] = pts.x[donor]
        el, xi = mover.el.copy(), mover.xi.copy()
        el[0], xi[0] = pts.el[donor], pts.xi[donor]
        mover.el, mover.xi = el, xi  # (el, xi) change through the setters
        with pytest.raises(HealthCheckFailure) as exc:
            migrate_points(decomp, comm, rank_points)
        assert exc.value.check == "particles"
        assert exc.value.details["unaccounted"] == 1
        assert "lost" in str(exc.value)

    def test_audit_can_be_disabled(self):
        _, decomp, comm, pts, rank_points = self.setup_ranks(
            ranks=(4, 1, 1), shape=(8, 4, 2))
        donor = int(np.flatnonzero(decomp.element_owner[pts.el] == 2)[0])
        mover = rank_points[0]
        mover.x[0] = pts.x[donor]
        el, xi = mover.el.copy(), mover.xi.copy()
        el[0], xi[0] = pts.el[donor], pts.xi[donor]
        mover.el, mover.xi = el, xi  # (el, xi) change through the setters
        before = sum(p.n for p in rank_points)
        out, deleted = migrate_points(decomp, comm, rank_points, audit=False)
        # the loss happened; only the audit was off
        assert sum(p.n for p in out) + deleted == before - 1


# --------------------------------------------------------------------- #
# field guards
# --------------------------------------------------------------------- #
class TestGuardField:
    def test_in_bounds_passthrough_no_copy(self):
        v = np.array([1.0, 2.0, 3.0])
        out, n = guard_field("eta", v, (0.0, 10.0))
        assert n == 0 and out is v

    def test_clip_counts_and_copies(self):
        v = np.array([0.5, 20.0, -1.0, 2.0])
        out, n = guard_field("eta", v, (0.0, 10.0))
        assert n == 2
        assert out.min() == 0.0 and out.max() == 10.0
        assert v[1] == 20.0  # original untouched

    def test_nonfinite_always_rejects_even_unbounded(self):
        with pytest.raises(HealthCheckFailure) as exc:
            guard_field("eta", np.array([1.0, np.nan]), None)
        assert exc.value.reason == ConvergedReason.DIVERGED_NAN


# --------------------------------------------------------------------- #
# monitor gates on a live simulation
# --------------------------------------------------------------------- #
def small_sinker(health=None, **kw):
    cfg = SinkerConfig(shape=(4, 4, 4), n_spheres=1, radius=0.2, seed=0)
    sim_cfg = SimulationConfig(free_surface=True, resilient=True,
                               health=health, **kw)
    return make_sinker(cfg, sim_cfg)


class TestHealthMonitor:
    def test_clean_step_summary_and_low_divergence(self):
        sim = small_sinker(health=HealthConfig())
        stats = sim.step()
        h = stats["health"]
        assert h["mesh_repairs"] == 0
        assert h["clipped"] == 0
        assert h["divergence"] < 1e-4
        assert np.isfinite(sim.u).all()
        # summary drained: next reset state is zeroed
        assert sim.health._step["divergence"] == 0.0

    def test_divergence_check_is_the_assembled_divergence(self):
        """``|B u| / |u|`` through the iterate's Picard operator -- its
        interior divergence minus the boundary lift -- is the assembled
        ``B``'s, and a step assembles no ``B`` when the kernel is
        compiled."""
        from repro.fem import assembly
        from repro.matfree import _ckernel

        calls = []
        assemble = assembly.assemble_divergence

        def counted(*args, **kwargs):
            calls.append(1)
            return assemble(*args, **kwargs)

        sim = small_sinker(health=HealthConfig())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembly, "assemble_divergence", counted)
            sim.step()
        assert bool(calls) is not _ckernel.available()
        bc = sim.bc_builder(sim.mesh)
        u = np.random.default_rng(3).standard_normal(sim.u.size)
        u[bc.dofs] = bc.values
        B = assemble(sim.mesh, sim.quad)
        ref = np.linalg.norm(B @ u) / np.linalg.norm(u)
        assert sim.health.divergence_check(u) == pytest.approx(ref,
                                                               rel=1e-12)

    def test_pre_step_rejects_inverted_mesh(self):
        sim = small_sinker(health=HealthConfig())
        sim.config.resilient = False
        nnx, nny, nnz = sim.mesh.nodes_per_dim
        coords = sim.mesh.coords.copy().reshape(nnz, nny, nnx, 3)
        coords[-1, :, 1:3, 2] = -0.2  # fold below the bottom
        sim.mesh.set_coords(coords.reshape(-1, 3))
        with pytest.raises(HealthCheckFailure) as exc:
            sim.step()
        assert exc.value.check == "mesh"
        assert sim.health.stats["rejections"] == 1

    def test_pre_step_rejects_corrupt_points(self):
        sim = small_sinker(health=HealthConfig())
        sim.config.resilient = False
        sim.points.x[0] = np.nan
        with pytest.raises(HealthCheckFailure) as exc:
            sim.step()
        assert exc.value.check == "particles"

    def test_divergence_limit_rejects(self):
        sim = small_sinker(health=HealthConfig(max_divergence=1e-30))
        sim.config.resilient = False
        with pytest.raises(HealthCheckFailure) as exc:
            sim.step()
        assert exc.value.check == "divergence"

    def test_thinning_fires_through_gate(self, monkeypatch):
        monkeypatch.setattr(health_mod, "MAX_POINTS_PER_ELEMENT", 8)
        sim = small_sinker(health=HealthConfig())
        # crowd one element well past the cap
        from repro.mpm import locate_points
        rng = np.random.default_rng(1)
        extra = MaterialPoints(rng.uniform(0.01, 0.24, size=(30, 3)))
        extra.el, extra.xi, _ = locate_points(sim.mesh, extra.x)
        sim.points.extend(extra)
        out = sim.health.particle_gate()
        assert out["thinned"] > 0
        assert sim.health.stats["thinned"] == out["thinned"]
        # the cap holds at gate time (the later ALE remesh may re-bin)
        assert count_points_per_element(sim.mesh, sim.points).max() <= 8

    def test_temperature_guard_clips(self):
        sim = small_sinker(health=HealthConfig(T_bounds=(0.0, 1.0)))
        monitor = sim.health
        T = np.array([-0.5, 0.5, 2.0])
        out = monitor.guard_temperature(T)
        assert out.min() == 0.0 and out.max() == 1.0
        assert monitor.stats["clipped"] == 2


# --------------------------------------------------------------------- #
# fault modes of the injector
# --------------------------------------------------------------------- #
class TestPhysicsFaultModes:
    def test_fold_surface_repaired_by_ladder(self):
        sim = small_sinker(health=HealthConfig())
        with FaultInjector() as fi:
            fi.fold_surface(sim.mesh, depth=0.2,
                            when=lambda: sim.step_index == 0, limit=1)
            stats = [sim.step() for _ in range(2)]
        assert [f["label"] for f in fi.fired] == ["fold:surface"]
        assert sim.health.stats["mesh_repairs"] > 0
        assert not mesh_quality(sim.mesh)["inverted"]
        assert np.isfinite(sim.u).all()
        assert all(np.isfinite(s["dt"]) for s in stats)

    def test_starve_cells_repaired_by_injection(self):
        sim = small_sinker(health=HealthConfig())
        with FaultInjector() as fi:
            fi.starve_cells(sim, elements=np.arange(8),
                            when=lambda: sim.step_index == 0, limit=1)
            sim.step()
        assert fi.fired
        assert sim.health.stats["injected"] > 0
        counts = count_points_per_element(sim.mesh, sim.points)
        assert counts.min() >= MIN_POINTS_PER_ELEMENT

    def test_poison_viscosity_spike_clipped(self):
        health = HealthConfig(eta_bounds=(1e-4, 1e4))
        sim = small_sinker(health=health)
        with FaultInjector() as fi:
            fi.poison_viscosity(mode="spike", factor=1e12,
                                when=lambda: sim.step_index == 0, limit=1)
            sim.step()
        assert fi.fired
        assert sim.health.stats["clipped"] > 0
        assert np.isfinite(sim.u).all()

    def test_poison_viscosity_nan_triggers_rollback(self):
        sim = small_sinker(health=HealthConfig())
        with FaultInjector() as fi:
            fi.poison_viscosity(mode="nan",
                                when=lambda: sim.step_index == 0, limit=1)
            stats = sim.step()
        assert fi.fired
        # the NaN is unclippable: the guard rejects, rollback retries
        assert stats["retries"] > 0
        assert sim.health.stats["rejections"] > 0
        assert np.isfinite(sim.u).all()

    def test_poison_viscosity_negative_clipped_to_floor(self):
        health = HealthConfig(eta_bounds=(1e-4, 1e4))
        sim = small_sinker(health=health)
        with FaultInjector() as fi:
            fi.poison_viscosity(mode="negative",
                                when=lambda: sim.step_index == 0, limit=1)
            sim.step()
        assert fi.fired
        assert sim.health.stats["clipped"] > 0
        assert np.isfinite(sim.u).all()

    def test_injector_validates_mode(self):
        with FaultInjector() as fi:
            with pytest.raises(ValueError):
                fi.poison_viscosity(mode="wild")


# --------------------------------------------------------------------- #
# acceptance: rifting survives all three physics faults in one run
# --------------------------------------------------------------------- #
class TestRiftingSurvivesPhysicsFaults:
    def test_five_steps_with_three_faults(self):
        cfg = RiftingConfig(shape=(6, 4, 2), mg_levels=1)
        health = HealthConfig(eta_bounds=(1e-6, 1e6))
        sim = make_rifting(cfg, None)
        sim.config.resilient = True
        sim.config.health = health
        sim.health = HealthMonitor(sim, health)
        obs.reset()
        obs.enable()
        nsteps = 5
        try:
            with FaultInjector() as fi:
                fi.fold_surface(sim.mesh, depth=0.1,
                                when=lambda: sim.step_index == 1, limit=1)
                fi.starve_cells(sim, elements=np.arange(4),
                                when=lambda: sim.step_index == 2, limit=1)
                fi.poison_viscosity(mode="spike", factor=1e9,
                                    when=lambda: sim.step_index == 3,
                                    limit=1)
                stats = [sim.step() for _ in range(nsteps)]
            report = obs.log_view()
            trace = list(obs.REGISTRY.traces["resilience"])
        finally:
            obs.disable()
            obs.reset()
        fired = {f["label"] for f in fi.fired}
        assert fired == {"fold:surface", "starve:cells",
                         "poison:viscosity:spike"}
        assert sim.step_index == nsteps
        assert len(stats) == nsteps
        # each fault met its guard
        assert sim.health.stats["mesh_repairs"] > 0
        assert sim.health.stats["injected"] > 0
        assert sim.health.stats["clipped"] > 0
        # observable: Health* events in -log_view, health_* in the trace
        assert "HealthMeshRepair" in report
        assert "HealthInject" in report
        assert "HealthClip_eta" in report
        events = {t["event"] for t in trace}
        assert {"health_mesh_repair", "health_inject",
                "health_clip"} <= events
        # final state finite and population healthy
        assert np.isfinite(sim.u).all()
        assert np.isfinite(sim.p).all()
        assert np.isfinite(sim.points.x).all()
        counts = count_points_per_element(sim.mesh, sim.points)
        assert counts.min() >= MIN_POINTS_PER_ELEMENT
