"""Per-point geometric tables: one writer for ``(el, xi)``, one build per
relocation, and readers that evaluate no basis of their own."""

from functools import cached_property

import numpy as np
import pytest

from repro.fem import GaussQuadrature, StructuredMesh
from repro.fem.basis import HexBasis
from repro.mpm import (
    MaterialPoints,
    advect_points,
    locate_points,
    project_to_corners,
    project_to_quadrature,
    seed_points,
)
from repro.mpm.migration import migrate_points
from repro.mpm.points import PointTables
from repro.mpm.projection import EmptySupportError
from repro.parallel.comm import VirtualComm
from repro.parallel.decomposition import BlockDecomposition
from repro.sim import make_rifting
from repro.sim.checkpoint import restore_state, state_dict
from repro.sim.rifting import RiftingConfig
from repro.sim.timeloop import Simulation

QUAD = GaussQuadrature.hex(3)


def warm(points, mesh):
    """Read every table group, so a writer that forgot to drop them would
    leave stale arrays behind."""
    t = points.tables(mesh)
    t.G, t.q1_weights, t.projection
    return t


def assert_current(points, mesh):
    """The held tables equal a fresh build from the current state."""
    held = points.tables(mesh)
    ref = PointTables(mesh, points.el.copy(), points.xi.copy())
    for name in ("G", "psi", "q1_weights", "corner_ids"):
        assert np.array_equal(getattr(held, name), getattr(ref, name)), name
    for a, b in zip(held.projection, ref.projection):
        assert np.array_equal(a, b)


@pytest.fixture
def placed(deformed_mesh, rng):
    pts = seed_points(deformed_mesh, 2, jitter=0.3, rng=rng)
    return deformed_mesh, pts


class TestOneWriter:
    def test_in_place_writes_raise(self, placed):
        mesh, pts = placed
        with pytest.raises(ValueError):
            pts.el[0] = 1
        with pytest.raises(ValueError):
            pts.xi[0, 0] = 0.5
        t = warm(pts, mesh)
        with pytest.raises(ValueError):
            t.G[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            t.projection[1][0] = 1.0

    def test_setter_stores_a_copy(self, placed):
        _, pts = placed
        el = pts.el.copy()
        pts.el = el
        el[0] = -7  # the caller's array stays the caller's
        assert pts.el[0] != -7

    def test_kept_until_a_writer_runs(self, placed):
        mesh, pts = placed
        t = warm(pts, mesh)
        assert pts.tables(mesh) is t
        pts.plastic_strain[:] = 1.0  # not a geometric input
        assert pts.tables(mesh) is t
        pts.xi = pts.xi
        assert pts.tables(mesh) is not t

    def test_set_coords(self, placed):
        mesh, pts = placed
        before = warm(pts, mesh).G.copy()
        mesh.deform(lambda c: c * np.array([1.1, 1.0, 0.9]))
        assert not np.array_equal(pts.tables(mesh).G, before)
        assert_current(pts, mesh)

    def test_advect(self, placed):
        mesh, pts = placed
        warm(pts, mesh)
        u = np.zeros((mesh.nnodes, 3))
        u[:, 0] = 0.2 * mesh.coords[:, 2]
        u[:, 2] = 0.1 * np.sin(np.pi * mesh.coords[:, 0])
        advect_points(mesh, u.ravel(), pts, dt=0.3)
        assert_current(pts, mesh)

    def test_remove_extend_subset(self, placed):
        mesh, pts = placed
        warm(pts, mesh)
        extra = pts.subset(np.arange(0, pts.n, 3))
        warm(extra, mesh)
        assert_current(extra, mesh)
        pts.remove(np.arange(pts.n) % 2 == 0)
        assert_current(pts, mesh)
        warm(pts, mesh)
        pts.extend(extra)
        assert_current(pts, mesh)

    def test_migration(self):
        mesh = StructuredMesh((4, 4, 2), order=2)
        decomp = BlockDecomposition(mesh, (2, 2, 1))
        pts = seed_points(mesh, 2)
        owner = decomp.element_owner[pts.el]
        held = np.where(owner == 0, 1, owner)  # rank 0's points sit on 1
        rank_points = [pts.subset(np.flatnonzero(held == r))
                       for r in range(decomp.nranks)]
        for p in rank_points:
            warm(p, mesh)
        out, _ = migrate_points(decomp, VirtualComm(decomp.nranks),
                                rank_points)
        assert out[0].n > 0
        for p in out:
            assert_current(p, mesh)

    def test_relocate_and_checkpoint_restore(self):
        sim = make_rifting(RiftingConfig(shape=(6, 4, 2), mg_levels=1))
        warm(sim.points, sim.mesh)
        sim.mesh.deform(lambda c: c + 0.01 * np.sin(np.pi * c[:, [2, 0, 1]]))
        sim._relocate_points()
        assert_current(sim.points, sim.mesh)
        G = warm(sim.points, sim.mesh).G
        restore_state(sim, state_dict(sim))
        assert_current(sim.points, sim.mesh)
        assert np.array_equal(sim.points.tables(sim.mesh).G, G)


class TestReadersBitwise:
    """The table-backed readers against the per-call construction they
    replaced (basis, Jacobian and weights rebuilt on every call): equal
    bit for bit, the contract that keeps run digests unchanged."""

    def test_strain_pressure_temperature_projection(self, placed, rng):
        from repro.fem.geometry import invert_3x3
        from repro.fem.basis import q1_basis
        from repro.sim.fields import (pressure_at_points,
                                      strain_invariant_at_points,
                                      temperature_at_points)
        from repro.rheology.laws import (strain_rate_invariant,
                                         strain_rate_tensor)

        mesh, pts = placed
        els, xi = pts.el, pts.xi
        u = rng.standard_normal(3 * mesh.nnodes)
        p = rng.standard_normal(4 * mesh.nel)
        lattice = mesh.corner_node_lattice()
        T = rng.uniform(size=lattice.size)
        vals = rng.uniform(1.0, 2.0, size=pts.n)
        # the oracle: everything rebuilt per call, as before the tables
        dN = mesh.basis.grad(xi)
        coords = mesh.coords[mesh.connectivity[els]]
        Jp = np.einsum("pad,pac->pcd", dN, coords, optimize=True)
        Jinv, _ = invert_3x3(Jp)
        G = np.einsum("pae,ped->pad", dN, Jinv, optimize=True)
        ue = u.reshape(-1, 3)[mesh.connectivity[els]]
        H = np.einsum("pac,pad->pcd", ue, G, optimize=True)
        eps = strain_rate_invariant(strain_rate_tensor(H))
        x = np.einsum("pa,pac->pc", mesh.basis.eval(xi), coords,
                      optimize=True)
        centroid, h = mesh.element_centroids_and_extents()
        psi = np.empty((els.size, 4))
        psi[:, 0] = 1.0
        psi[:, 1:] = (x - centroid[els]) / h[els]
        prs = np.einsum("pm,pm->p", psi, p.reshape(-1, 4)[els], optimize=True)
        remap = np.full(mesh.nnodes, -1, dtype=np.int64)
        remap[lattice] = np.arange(lattice.size)
        local = remap[mesh.corner_connectivity()][els]
        w = q1_basis().eval(xi)
        Tp = np.einsum("pa,pa->p", w, T[local], optimize=True)
        wc = np.maximum(w, 0.0)
        num = np.bincount(local.ravel(), weights=(wc * vals[:, None]).ravel(),
                          minlength=lattice.size)
        den = np.bincount(local.ravel(), weights=wc.ravel(),
                          minlength=lattice.size)
        nodal = np.divide(num, den, out=np.zeros_like(num), where=den > 0)

        for tab in (None, pts.tables(mesh)):
            assert np.array_equal(
                strain_invariant_at_points(mesh, u, els, xi, tab), eps)
            assert np.array_equal(pressure_at_points(mesh, p, els, xi, tab),
                                  prs)
            assert np.array_equal(
                temperature_at_points(mesh, T, els, xi, tab), Tp)
            got, _ = project_to_corners(mesh, els, xi, vals, tab)
            assert np.array_equal(got, nodal)


class TestEmptyPointSets:
    @pytest.mark.parametrize("hints", [None, np.empty(0, dtype=np.int64)])
    def test_locate_returns_empty(self, small_mesh, hints):
        els, xi, lost = locate_points(small_mesh, np.empty((0, 3)),
                                      hints=hints)
        assert els.shape == (0,) and els.dtype == np.int64
        assert xi.shape == (0, 3)
        assert lost.shape == (0,) and lost.dtype == bool

    def test_projection_names_the_empty_support(self, small_mesh):
        with pytest.raises(EmptySupportError, match="empty support"):
            project_to_quadrature(small_mesh, np.empty(0, dtype=np.int64),
                                  np.empty((0, 3)), np.empty(0), QUAD)

    def test_empty_container_projects_through_its_tables(self, small_mesh):
        pts = MaterialPoints(np.empty((0, 3)))
        with pytest.raises(EmptySupportError):
            project_to_quadrature(small_mesh, pts.el, pts.xi, np.empty(0),
                                  QUAD, tables=pts.tables(small_mesh))


def test_work_count_gate(monkeypatch):
    """Two rifting steps (plasticity, temperature, ALE): each table group is
    built at most once per relocation, every basis evaluation inside
    ``point_properties`` is such a build, and the flow-law inputs of the 8
    linearizations come from 2 builds."""
    counts = {"q2": 0, "q1": 0, "relocations": 0, "basis": 0,
              "basis_in_props": 0, "builds_in_props": 0, "props": 0}
    inside = [False]

    def counting_group(name):
        func = getattr(PointTables, f"_{name}").func

        def build(self):
            counts[name] += 1
            counts["builds_in_props"] += inside[0]
            return func(self)

        prop = cached_property(build)
        prop.__set_name__(PointTables, f"_{name}")
        monkeypatch.setattr(PointTables, f"_{name}", prop)

    counting_group("q2")
    counting_group("q1")

    tables = HexBasis.tables

    def counted_tables(self, points):
        counts["basis"] += 1
        counts["basis_in_props"] += inside[0]
        return tables(self, points)

    monkeypatch.setattr(HexBasis, "tables", counted_tables)

    relocate = Simulation._relocate_points

    def counted_relocate(self):
        counts["relocations"] += 1
        return relocate(self)

    monkeypatch.setattr(Simulation, "_relocate_points", counted_relocate)
    import repro.sim.timeloop as timeloop

    advect = timeloop.advect_points

    def counted_advect(*args, **kwargs):
        counts["relocations"] += 1
        return advect(*args, **kwargs)

    monkeypatch.setattr(timeloop, "advect_points", counted_advect)
    props = Simulation.point_properties

    def counted_props(self, u, p):
        counts["props"] += 1
        inside[0] = True
        try:
            return props(self, u, p)
        finally:
            inside[0] = False

    monkeypatch.setattr(Simulation, "point_properties", counted_props)

    sim = make_rifting(RiftingConfig(shape=(6, 4, 2), mg_levels=1))
    sim.config.newton_rtol = 1e-12
    sim.config.max_newton = 3
    for _ in range(2):
        sim.step()
    assert counts["relocations"] == 1 + 2 * 2  # construction, advect, ALE
    assert counts["props"] == 8
    assert counts["basis_in_props"] == counts["builds_in_props"]
    assert counts["q2"] <= counts["relocations"]
    assert counts["q1"] <= counts["relocations"]
    # the points sit still between advections: one build serves 4
    # point_properties calls and the plastic update
    assert counts["q2"] == 2 and counts["q1"] == 2
