"""DMDA-like structured hexahedral mesh with IJK topology.

The paper partitions the domain with a structured but *deformable* mesh of
hexahedral elements (SS II-B, SS III-C): node coordinates need not align with
the x, y, z axes (ALE free-surface tracking moves them), but the IJK index
topology is fixed.  That topology is what makes nodally nested coarsening
(injection) and tensor-product element gathers trivial, and it is what this
class encodes.

Node lattice: a mesh of ``(M, N, P)`` elements of polynomial order ``k``
carries ``(k*M + 1, k*N + 1, k*P + 1)`` nodes.  Global node index is
x-fastest: ``g = i + nnx*(j + nny*k)``.  Element index is likewise
x-fastest: ``e = ex + M*(ey + N*ez)``.
"""

from __future__ import annotations

import numpy as np

from .basis import HexBasis, q1_basis, q2_basis
from .quadrature import GaussQuadrature
from . import geometry


class StructuredMesh:
    """Structured hex mesh of order-``k`` Lagrange elements.

    Parameters
    ----------
    shape:
        Number of elements per direction ``(M, N, P)``.
    order:
        Polynomial order of the node lattice (1 for Q1, 2 for Q2).
    extent:
        Physical box extents ``(Lx, Ly, Lz)`` for the initial regular
        lattice.
    origin:
        Physical coordinates of the box corner, default the origin.
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        order: int = 2,
        extent: tuple[float, float, float] = (1.0, 1.0, 1.0),
        origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
    ):
        self.shape = tuple(int(s) for s in shape)
        if any(s < 1 for s in self.shape):
            raise ValueError(f"mesh shape must be positive, got {self.shape}")
        self.order = int(order)
        if self.order not in (1, 2):
            raise ValueError("only Q1 and Q2 meshes are supported")
        self.extent = tuple(float(e) for e in extent)
        self.origin = tuple(float(o) for o in origin)
        self.basis: HexBasis = q2_basis() if self.order == 2 else q1_basis()
        self._coords = self._regular_coords()
        self._coords.flags.writeable = False
        # bumped by set_coords so geometry caches and operators rebuild
        self.coords_version = 0
        self._conn: np.ndarray | None = None
        self._corner_conn: np.ndarray | None = None
        self._geom_cache: dict = {}

    # ------------------------------------------------------------------ #
    # lattice bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def nodes_per_dim(self) -> tuple[int, int, int]:
        """Node lattice dimensions ``(nnx, nny, nnz)``."""
        return tuple(self.order * s + 1 for s in self.shape)

    @property
    def nnodes(self) -> int:
        nnx, nny, nnz = self.nodes_per_dim
        return nnx * nny * nnz

    @property
    def nel(self) -> int:
        M, N, P = self.shape
        return M * N * P

    def _regular_coords(self) -> np.ndarray:
        nnx, nny, nnz = tuple(self.order * s + 1 for s in self.shape)
        x = np.linspace(self.origin[0], self.origin[0] + self.extent[0], nnx)
        y = np.linspace(self.origin[1], self.origin[1] + self.extent[1], nny)
        z = np.linspace(self.origin[2], self.origin[2] + self.extent[2], nnz)
        Z, Y, X = np.meshgrid(z, y, x, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    def node_index(self, i, j, k) -> np.ndarray:
        """Global node index for lattice indices (broadcasting)."""
        nnx, nny, _ = self.nodes_per_dim
        return np.asarray(i) + nnx * (np.asarray(j) + nny * np.asarray(k))

    def element_index(self, ex, ey, ez) -> np.ndarray:
        """Global element index for element lattice indices (broadcasting)."""
        M, N, _ = self.shape
        return np.asarray(ex) + M * (np.asarray(ey) + N * np.asarray(ez))

    @property
    def connectivity(self) -> np.ndarray:
        """Element-to-node map, shape ``(nel, nbasis)``, x-fastest ordering."""
        if self._conn is None:
            k = self.order
            M, N, P = self.shape
            ex = np.arange(M)
            ey = np.arange(N)
            ez = np.arange(P)
            # base (corner) lattice index of each element
            EZ, EY, EX = np.meshgrid(k * ez, k * ey, k * ex, indexing="ij")
            base = self.node_index(EX.ravel(), EY.ravel(), EZ.ravel())
            # local offsets within an element, local-x fastest
            loc = np.arange(k + 1)
            nnx, nny, _ = self.nodes_per_dim
            offs = np.array(
                [
                    lx + nnx * (ly + nny * lz)
                    for lz in loc
                    for ly in loc
                    for lx in loc
                ],
                dtype=np.int64,
            )
            self._conn = base[:, None] + offs[None, :]
        return self._conn

    def element_coords(self) -> np.ndarray:
        """Node coordinates gathered per element: ``(nel, nbasis, 3)``."""
        return self.coords[self.connectivity]

    # ------------------------------------------------------------------ #
    # geometry caches
    # ------------------------------------------------------------------ #
    def geometry_at(self, quad: GaussQuadrature):
        """Cached ``(Jinv, detJ, xq)`` at the quadrature points of ``quad``.

        ``Jinv`` are the inverse Jacobians ``(nel, nq, 3, 3)``, ``detJ``
        their determinants ``(nel, nq)`` and ``xq`` the physical quadrature
        points ``(nel, nq, 3)``; one entry, dropped when the coordinates
        change.  Physical basis gradients (9x ``Jinv`` for Q2) are not
        stored: see :meth:`gradients_at`.
        """
        key = (quad.npoints_1d, self.coords_version)
        if key not in self._geom_cache:
            self._geom_cache.clear()
            N, dN = self.basis.at_quadrature(quad)
            ecoords = self.element_coords()
            Jinv, det = geometry.invert_3x3(geometry.jacobians(ecoords, dN))
            xq = geometry.map_to_physical(ecoords, N)
            self._geom_cache[key] = (Jinv, det, xq)
        return self._geom_cache[key]

    def gradients_at(self, quad: GaussQuadrature, s: int, e: int) -> np.ndarray:
        """Physical basis gradients of elements ``[s, e)``, shape
        ``(e - s, nq, nbasis, 3)``, formed from the cached ``Jinv`` on each
        call: consumers take them one element chunk at a time."""
        Jinv = self.geometry_at(quad)[0]
        return geometry.gradients(self.basis.at_quadrature(quad)[1], Jinv[s:e])

    @property
    def coords(self) -> np.ndarray:
        """Node coordinates ``(nnodes, 3)``; read-only, see :meth:`set_coords`."""
        return self._coords

    def set_coords(self, coords: np.ndarray) -> None:
        """The one writer of :attr:`coords`: keep a read-only copy."""
        coords = np.array(coords, dtype=np.float64)
        if coords.shape != (self.nnodes, 3):
            raise ValueError(
                f"expected coords of shape {(self.nnodes, 3)}, got {coords.shape}"
            )
        coords.flags.writeable = False
        self._coords = coords
        self.coords_version += 1
        self._geom_cache.clear()

    def deform(self, fn) -> None:
        """Apply ``fn(coords) -> coords`` to the node coordinates."""
        self.set_coords(fn(self.coords.copy()))

    # ------------------------------------------------------------------ #
    # element metrics
    # ------------------------------------------------------------------ #
    def element_centroids_and_extents(self) -> tuple[np.ndarray, np.ndarray]:
        """Centroid (mean of corner vertices) and bbox extents per element.

        Used by the physical-coordinate P1disc pressure basis.
        """
        corners = self.corner_coords()
        centroid = corners.mean(axis=1)
        h = corners.max(axis=1) - corners.min(axis=1)
        return centroid, h

    def corner_connectivity(self) -> np.ndarray:
        """Per-element corner-vertex indices, shape ``(nel, 8)``.

        Corners are the order-1 sub-lattice of the element's node block and
        define the trilinear (Q1) space the material-point projection and
        the geometric-multigrid prolongation embed into.
        """
        conn = self.connectivity
        k = self.order
        n1 = k + 1
        loc = np.array(
            [
                lx + n1 * (ly + n1 * lz)
                for lz in (0, k)
                for ly in (0, k)
                for lx in (0, k)
            ]
        )
        return conn[:, loc]

    def corner_coords(self) -> np.ndarray:
        """Coordinates of the 8 corner vertices per element: ``(nel, 8, 3)``."""
        return self.coords[self.corner_connectivity()]

    def corner_node_lattice(self) -> np.ndarray:
        """Global node indices of the corner (Q1) sub-lattice.

        Shape ``(ncx * ncy * ncz,)`` with ``nc* = shape + 1``, x-fastest.
        For a Q2 mesh these are the nodes at even lattice positions; MPM
        projection (Eq. 12) reconstructs onto exactly this vertex set.
        """
        k = self.order
        M, N, P = self.shape
        i = np.arange(0, k * M + 1, k)
        j = np.arange(0, k * N + 1, k)
        l = np.arange(0, k * P + 1, k)
        K, J, I = np.meshgrid(l, j, i, indexing="ij")
        return self.node_index(I.ravel(), J.ravel(), K.ravel())

    def corner_lattice_connectivity(self) -> np.ndarray:
        """Per-element corner ids in the corner-lattice numbering of
        :meth:`corner_node_lattice`, shape ``(nel, 8)``; topology only, so
        built once and read-only."""
        if self._corner_conn is None:
            lattice = self.corner_node_lattice()
            remap = np.full(self.nnodes, -1, dtype=np.int64)
            remap[lattice] = np.arange(lattice.size)
            local = remap[self.corner_connectivity()]
            local.flags.writeable = False
            self._corner_conn = local
        return self._corner_conn

    # ------------------------------------------------------------------ #
    # hierarchy
    # ------------------------------------------------------------------ #
    def can_coarsen(self) -> bool:
        return all(s % 2 == 0 and s >= 2 for s in self.shape)

    def coarsen(self) -> "StructuredMesh":
        """Nodally nested coarse mesh by injection (paper SS III-C).

        Halves the element count per direction; coarse node coordinates are
        *copied* from the coincident fine nodes, so deformed geometry is
        represented exactly on every level of the hierarchy.
        """
        if not self.can_coarsen():
            raise ValueError(
                f"mesh shape {self.shape} is not coarsenable (need even sizes)"
            )
        coarse = StructuredMesh(
            tuple(s // 2 for s in self.shape),
            order=self.order,
            extent=self.extent,
            origin=self.origin,
        )
        cm, cn, cp = coarse.nodes_per_dim
        # coarse node (i, j, k) coincides with fine node (2i, 2j, 2k);
        # walk in coarse x-fastest order
        K, J, I = np.meshgrid(
            2 * np.arange(cp), 2 * np.arange(cn), 2 * np.arange(cm), indexing="ij"
        )
        fine_idx = self.node_index(I.ravel(), J.ravel(), K.ravel())
        coarse.set_coords(self.coords[fine_idx])
        return coarse

    def hierarchy(self, levels: int) -> list["StructuredMesh"]:
        """Nested mesh hierarchy ``[coarsest, ..., self]`` of ``levels`` meshes."""
        meshes = [self]
        for _ in range(levels - 1):
            meshes.append(meshes[-1].coarsen())
        return meshes[::-1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StructuredMesh(shape={self.shape}, order={self.order}, "
            f"nnodes={self.nnodes})"
        )
