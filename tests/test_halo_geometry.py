"""Halo/ownership formulas validated against brute-force enumeration."""

import numpy as np
import pytest

from repro.fem import StructuredMesh
from repro.mg.coefficients import inject_corner_field
from repro.parallel import BlockDecomposition


class TestGhostCountFormula:
    @pytest.mark.parametrize("ranks", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 2)])
    def test_matches_enumeration(self, ranks):
        """ghost_node_count's closed form equals |touched nodes| minus the
        rank's extended-block interior, enumerated from the lattice."""
        mesh = StructuredMesh((6, 4, 4), order=2)
        d = BlockDecomposition(mesh, ranks)
        k = mesh.order
        for rank in range(d.nranks):
            rx, ry, rz = d.rank_coords(rank)
            # lattice node ranges of the subdomain block
            i0, i1 = k * d.bx[rx], k * d.bx[rx + 1]
            j0, j1 = k * d.by[ry], k * d.by[ry + 1]
            l0, l1 = k * d.bz[rz], k * d.bz[rz + 1]
            own_count = (i1 - i0 + 1) * (j1 - j0 + 1) * (l1 - l0 + 1)
            # extend by one element (k lattice planes) toward interior nbrs
            px, py, pz = d.ranks
            gi0 = i0 - (k if rx > 0 else 0)
            gi1 = i1 + (k if rx < px - 1 else 0)
            gj0 = j0 - (k if ry > 0 else 0)
            gj1 = j1 + (k if ry < py - 1 else 0)
            gl0 = l0 - (k if rz > 0 else 0)
            gl1 = l1 + (k if rz < pz - 1 else 0)
            ext_count = ((gi1 - gi0 + 1) * (gj1 - gj0 + 1) * (gl1 - gl0 + 1))
            assert d.ghost_node_count(rank) == ext_count - own_count


class TestLocalViewVsGhostFormula:
    def test_view_nodes_within_extended_block(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        d = BlockDecomposition(mesh, (2, 2, 1))
        for rank in range(d.nranks):
            # the rank's local view is the nodes of its own elements; all
            # of them lie in its subdomain's lattice block
            nodes = np.unique(mesh.connectivity[d.element_owner == rank])
            k = mesh.order
            rx, ry, rz = d.rank_coords(rank)
            nnx, nny, _ = mesh.nodes_per_dim
            i = nodes % nnx
            j = (nodes // nnx) % nny
            l = nodes // (nnx * nny)
            assert i.min() >= k * d.bx[rx] and i.max() <= k * d.bx[rx + 1]
            assert j.min() >= k * d.by[ry] and j.max() <= k * d.by[ry + 1]
            assert l.min() >= k * d.bz[rz] and l.max() <= k * d.bz[rz + 1]


class TestCoefficientInjectValidation:
    def test_rejects_non_nested(self):
        fine = StructuredMesh((4, 4, 4), order=2)
        coarse = StructuredMesh((3, 3, 3), order=2)
        with pytest.raises(ValueError):
            inject_corner_field(fine, coarse, np.zeros(5**3))

    def test_injection_values(self):
        fine = StructuredMesh((4, 4, 4), order=2)
        coarse = fine.coarsen()
        f = np.arange(float(5**3))  # corner lattice of the fine mesh
        c = inject_corner_field(fine, coarse, f)
        # coarse corner (1,1,1) = fine corner (2,2,2) = index 2 + 5*(2+5*2)
        assert c.reshape(3, 3, 3)[1, 1, 1] == f.reshape(5, 5, 5)[2, 2, 2]


class TestFreeSurfaceSinker:
    def test_sinker_with_deforming_surface(self):
        """The ALE branch of the time loop runs on the sinker too: the
        surface subsides above the sinking spheres."""
        from repro.sim import SimulationConfig, make_sinker
        from repro.sim.sinker import SinkerConfig
        from repro.stokes import StokesConfig

        sim = make_sinker(
            SinkerConfig(shape=(4, 4, 4), n_spheres=1, radius=0.2,
                         delta_eta=100.0),
            SimulationConfig(
                stokes=StokesConfig(mg_levels=2, coarse_solver="lu"),
                max_newton=1, free_surface=True, cfl=0.2,
            ),
        )
        sim.run(2)
        from repro.ale import surface_topography, mesh_quality

        h = surface_topography(sim.mesh)
        assert h.min() < 1.0  # surface moved
        assert not mesh_quality(sim.mesh)["inverted"]
