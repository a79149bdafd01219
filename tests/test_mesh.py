"""Structured mesh: lattices, connectivity, geometry, coarsening."""

import numpy as np
import pytest

from repro.fem import StructuredMesh, GaussQuadrature


class TestLattice:
    def test_nodes_per_dim(self):
        m = StructuredMesh((3, 2, 4), order=2)
        assert m.nodes_per_dim == (7, 5, 9)
        m1 = StructuredMesh((3, 2, 4), order=1)
        assert m1.nodes_per_dim == (4, 3, 5)

    def test_nnodes_and_nel(self):
        m = StructuredMesh((3, 2, 4), order=2)
        assert m.nel == 24
        assert m.nnodes == 7 * 5 * 9

    def test_coordinates_span_extent(self):
        m = StructuredMesh((2, 2, 2), order=2, extent=(2.0, 3.0, 4.0),
                           origin=(1.0, -1.0, 0.5))
        assert np.allclose(m.coords.min(axis=0), [1.0, -1.0, 0.5])
        assert np.allclose(m.coords.max(axis=0), [3.0, 2.0, 4.5])

    def test_node_index_ordering(self):
        m = StructuredMesh((2, 2, 2), order=2)
        nnx, nny, _ = m.nodes_per_dim
        assert m.node_index(1, 0, 0) == 1
        assert m.node_index(0, 1, 0) == nnx
        assert m.node_index(0, 0, 1) == nnx * nny

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            StructuredMesh((0, 2, 2))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            StructuredMesh((2, 2, 2), order=3)


class TestConnectivity:
    def test_element_nodes_match_geometry(self):
        """Element-gathered coordinates equal the reference-mapped lattice."""
        m = StructuredMesh((2, 3, 2), order=2, extent=(1, 1, 1))
        ec = m.element_coords()
        # first element spans [0, 0.5] x [0, 1/3] x [0, 0.5]
        assert np.allclose(ec[0].min(axis=0), [0, 0, 0])
        assert np.allclose(ec[0].max(axis=0), [0.5, 1 / 3, 0.5])
        # local node 0 is the min corner, local node 26 the max corner
        assert np.allclose(ec[0, 0], [0, 0, 0])
        assert np.allclose(ec[0, 26], [0.5, 1 / 3, 0.5])

    def test_neighbor_elements_share_nodes(self):
        m = StructuredMesh((2, 1, 1), order=2)
        c = m.connectivity
        # right face of element 0 == left face of element 1
        right = c[0].reshape(3, 3, 3)[:, :, 2]
        left = c[1].reshape(3, 3, 3)[:, :, 0]
        assert np.array_equal(right, left)

    def test_corner_connectivity(self):
        m = StructuredMesh((2, 2, 2), order=2)
        cc = m.corner_connectivity()
        assert cc.shape == (8, 8)
        corners = m.coords[cc[0]]
        assert np.allclose(corners[0], [0, 0, 0])
        assert np.allclose(corners[7], [0.5, 0.5, 0.5])

    def test_corner_lattice_size(self):
        m = StructuredMesh((3, 2, 4), order=2)
        assert m.corner_node_lattice().size == 4 * 3 * 5


class TestGeometry:
    def test_volume_regular(self, quad):
        m = StructuredMesh((4, 4, 4), order=2, extent=(1, 2, 3))
        _, det, _ = m.geometry_at(quad)
        assert (det * quad.weights).sum() == pytest.approx(6.0, abs=1e-12)

    def test_volume_invariant_under_deformation(self, quad):
        """A divergence-free-ish shear keeps detJ positive; the volume of a
        perturbed box matches the divergence theorem estimate."""
        m = StructuredMesh((4, 4, 4), order=2)
        m.deform(lambda c: c + 0.05 * np.sin(np.pi * c[:, [1, 2, 0]]) * [1, 0, 0])
        _, det, _ = m.geometry_at(quad)
        assert det.min() > 0

    def test_geometry_cache_invalidation(self, quad):
        m = StructuredMesh((2, 2, 2), order=2)
        _, det1, _ = m.geometry_at(quad)
        m.deform(lambda c: 2 * c)
        _, det2, _ = m.geometry_at(quad)
        assert det2.mean() == pytest.approx(8 * det1.mean())

    def test_set_coords_shape_check(self):
        m = StructuredMesh((2, 2, 2), order=2)
        with pytest.raises(ValueError):
            m.set_coords(np.zeros((5, 3)))

    def test_quadrature_points_inside_elements(self, quad):
        m = StructuredMesh((2, 2, 2), order=2)
        _, _, xq = m.geometry_at(quad)
        cent, h = m.element_centroids_and_extents()
        assert np.all(np.abs(xq - cent[:, None, :]) <= h[:, None, :] / 2 + 1e-12)


class TestGeometryStorage:
    """The geometry cache stores ``Jinv``; gradients are formed by chunk."""

    @staticmethod
    def _deformed():
        m = StructuredMesh((3, 2, 4), order=2, extent=(1.0, 0.7, 1.3))
        m.deform(lambda c: c + 0.03 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
        return m

    @pytest.mark.parametrize("cut", [1, 7, None])
    def test_chunked_gradients_bit_equal(self, quad, cut):
        from repro.fem import geometry

        m = self._deformed()
        dN = m.basis.grad(quad.points)
        G, det = geometry.physical_gradients(m.element_coords(), dN)
        Jinv, detJ, _ = m.geometry_at(quad)
        assert np.array_equal(det, detJ)
        cut = cut or m.nel
        for s in range(0, m.nel, cut):
            e = min(m.nel, s + cut)
            assert np.array_equal(geometry.gradients(dN, Jinv[s:e]), G[s:e])
            assert np.array_equal(m.gradients_at(quad, s, e), G[s:e])

    def test_cache_holds_no_basis_axis(self, quad):
        m = self._deformed()
        nb = m.basis.nbasis
        arrays = m.geometry_at(quad)
        assert len(arrays) == 3
        # (nel, nq, ...) each; for Q2 at hex(3) nq == nbasis, so only the
        # trailing axes could be a basis axis
        assert all(a.shape[:2] == (m.nel, quad.npoints) for a in arrays)
        assert all(nb not in a.shape[2:] for a in arrays)
        g_size = m.nel * quad.npoints * nb * 3
        assert sum(a.size for a in arrays) <= g_size / 5


class TestCoarsening:
    def test_can_coarsen(self):
        assert StructuredMesh((4, 4, 4)).can_coarsen()
        assert not StructuredMesh((3, 4, 4)).can_coarsen()

    def test_coarsen_shape(self):
        c = StructuredMesh((4, 6, 8)).coarsen()
        assert c.shape == (2, 3, 4)

    def test_coarsen_requires_even(self):
        with pytest.raises(ValueError):
            StructuredMesh((3, 4, 4)).coarsen()

    def test_nodally_nested_injection(self):
        m = StructuredMesh((4, 4, 4), order=2, extent=(1, 2, 3))
        m.deform(lambda c: c + 0.02 * np.cos(c))
        c = m.coarsen()
        # every coarse node must coincide with a fine node
        ci = c.coords[:, None, :]
        d = np.abs(m.coords[None, :, :] - ci).sum(axis=2).min(axis=1)
        assert d.max() < 1e-14

    def test_hierarchy(self):
        m = StructuredMesh((8, 8, 8))
        h = m.hierarchy(3)
        assert [mm.shape[0] for mm in h] == [2, 4, 8]
        assert h[-1] is m

    def test_hierarchy_too_deep(self):
        with pytest.raises(ValueError):
            StructuredMesh((4, 4, 4)).hierarchy(4)
