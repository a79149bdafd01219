"""Virtual parallelism: communicator, decomposition, migration, halos."""

import numpy as np
import pytest

from repro.fem import StructuredMesh
from repro.mpm import advect_points, migrate_points, seed_points
from repro.mpm.migration import count_points_per_element, populate_empty_cells
from repro.parallel import (
    BlockDecomposition,
    VirtualComm,
    VirtualRankEngine,
    halo_exchange_plan,
)


class TestVirtualComm:
    def test_send_recv(self):
        comm = VirtualComm(3)
        comm.send(0, 2, np.arange(5))
        comm.send(1, 2, np.arange(3))
        msgs = comm.recv_all(2)
        assert [src for src, _ in msgs] == [0, 1]
        assert comm.pending() == 0

    def test_traffic_accounting(self):
        comm = VirtualComm(2)
        comm.send(0, 1, np.zeros(10))
        assert comm.stats.messages == 1
        assert comm.stats.bytes == 80
        comm.send(0, 1, "x", nbytes=1234)
        assert comm.stats.bytes == 80 + 1234

    def test_self_send_rejected(self):
        comm = VirtualComm(2)
        with pytest.raises(ValueError):
            comm.send(1, 1, np.zeros(1))

    def test_rank_bounds(self):
        comm = VirtualComm(2)
        with pytest.raises(ValueError):
            comm.send(0, 5, np.zeros(1))

    def test_allreduce(self):
        # the solve's allreduce is a rank engine's dot over the comm: one
        # fixed-tree reduction of the per-rank partials
        comm = VirtualComm(3)
        x = np.arange(7.0)
        assert VirtualRankEngine(comm).dot(x, x) == 91.0  # exact integers
        assert comm.stats.reductions == 1


class TestDecomposition:
    def test_every_element_owned_once(self):
        mesh = StructuredMesh((5, 4, 3), order=2)
        d = BlockDecomposition(mesh, (2, 2, 1))
        counts = np.bincount(d.element_owner, minlength=d.nranks)
        assert counts.sum() == mesh.nel
        assert np.all(counts > 0)

    def test_subdomain_shapes_tile_mesh(self):
        # each rank owns exactly the elements of its (bx, by, bz) block,
        # and the blocks cover the mesh
        mesh = StructuredMesh((5, 4, 3), order=2)
        d = BlockDecomposition(mesh, (2, 2, 3))
        owner = d.element_owner.reshape(mesh.shape[::-1])  # (z, y, x)
        total = 0
        for r in range(d.nranks):
            rx, ry, rz = d.rank_coords(r)
            block = owner[d.bz[rz]:d.bz[rz + 1], d.by[ry]:d.by[ry + 1],
                          d.bx[rx]:d.bx[rx + 1]]
            assert block.size > 0 and np.all(block == r)
            total += block.size
        assert total == mesh.nel

    def test_neighbors_symmetric(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        d = BlockDecomposition(mesh, (2, 2, 2))
        for r in range(d.nranks):
            for nb in d.neighbors(r):
                assert r in d.neighbors(nb)

    def test_corner_rank_has_seven_neighbors(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        d = BlockDecomposition(mesh, (2, 2, 2))
        assert len(d.neighbors(0)) == 7

    def test_invalid_rank_grid(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        with pytest.raises(ValueError):
            BlockDecomposition(mesh, (4, 1, 1))

    def test_ghost_counts_positive_interior(self):
        mesh = StructuredMesh((6, 6, 6), order=2)
        d = BlockDecomposition(mesh, (3, 1, 1))
        # the middle rank has ghosts on two faces, the ends on one
        assert d.ghost_node_count(1) > d.ghost_node_count(0) > 0


class TestMigration:
    def _distribute(self, mesh, pts, decomp):
        out = []
        for r in range(decomp.nranks):
            mine = (pts.el >= 0) & (decomp.element_owner[pts.el] == r)
            out.append(pts.subset(np.flatnonzero(mine)))
        return out

    def test_conservation_and_ownership(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        decomp = BlockDecomposition(mesh, (2, 2, 1))
        comm = VirtualComm(decomp.nranks)
        pts = seed_points(mesh, 2, jitter=0.2, rng=np.random.default_rng(0))
        rank_points = self._distribute(mesh, pts, decomp)
        n0 = sum(p.n for p in rank_points)
        u = np.zeros(3 * mesh.nnodes)
        u[0::3] = 0.3  # push everything right
        for rp in rank_points:
            if rp.n:
                advect_points(mesh, u, rp, dt=1.0)
        rank_points, deleted = migrate_points(decomp, comm, rank_points)
        n1 = sum(p.n for p in rank_points)
        assert n1 + deleted == n0
        assert deleted > 0  # the rightmost column exits the domain
        for r, rp in enumerate(rank_points):
            if rp.n:
                assert np.all(decomp.element_owner[rp.el] == r)
        assert comm.stats.messages > 0
        assert comm.pending() == 0

    def test_no_motion_no_migration(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        decomp = BlockDecomposition(mesh, (2, 1, 1))
        comm = VirtualComm(decomp.nranks)
        pts = seed_points(mesh, 2)
        rank_points = self._distribute(mesh, pts, decomp)
        n0 = sum(p.n for p in rank_points)
        rank_points, deleted = migrate_points(decomp, comm, rank_points)
        assert deleted == 0
        assert sum(p.n for p in rank_points) == n0
        assert comm.stats.messages == 0

    def test_point_state_survives_migration(self):
        mesh = StructuredMesh((4, 2, 2), order=2)
        decomp = BlockDecomposition(mesh, (2, 1, 1))
        comm = VirtualComm(decomp.nranks)
        pts = seed_points(mesh, 2, jitter=0.1, rng=np.random.default_rng(1))
        pts.plastic_strain[:] = np.arange(pts.n, dtype=float)
        rank_points = self._distribute(mesh, pts, decomp)
        u = np.zeros(3 * mesh.nnodes)
        u[0::3] = 0.26  # move one subdomain over
        for rp in rank_points:
            advect_points(mesh, u, rp, dt=1.0)
        rank_points, _ = migrate_points(decomp, comm, rank_points)
        merged = np.concatenate([rp.plastic_strain for rp in rank_points])
        # strains are preserved (just reordered / truncated by outflow)
        assert np.all(np.isin(merged, np.arange(pts.n, dtype=float)))


class TestPopulationControl:
    def test_injects_into_empty_elements(self):
        mesh = StructuredMesh((3, 3, 3), order=2)
        pts = seed_points(mesh, 2)
        # wipe out one element's points
        victim = 13
        pts.remove(pts.el == victim)
        assert count_points_per_element(mesh, pts)[victim] == 0
        injected = populate_empty_cells(mesh, pts, min_per_element=1)
        assert injected["total"] > 0
        assert sum(injected["per_lithology"].values()) == injected["total"]
        assert count_points_per_element(mesh, pts)[victim] > 0

    def test_no_injection_when_populated(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        pts = seed_points(mesh, 2)
        assert populate_empty_cells(mesh, pts, min_per_element=1)["total"] == 0

    def test_injected_points_inherit_nearest_state(self):
        mesh = StructuredMesh((2, 1, 1), order=2)
        pts = seed_points(mesh, 2)
        pts.lithology[:] = 4
        pts.remove(pts.el == 1)
        populate_empty_cells(mesh, pts, min_per_element=1)
        assert np.all(pts.lithology == 4)


class TestHaloModel:
    def test_plan_scales_with_ranks(self):
        mesh = StructuredMesh((8, 8, 8), order=2)
        small = halo_exchange_plan(BlockDecomposition(mesh, (2, 1, 1)))
        large = halo_exchange_plan(BlockDecomposition(mesh, (2, 2, 2)))
        assert large.messages > small.messages
        assert large.bytes_total > small.bytes_total
