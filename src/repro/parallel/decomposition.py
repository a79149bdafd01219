"""Block decomposition of the structured element grid (SS II-D).

The paper decomposes the ``M x N x P`` element mesh into structured
subdomains, one per rank, with material points owned by the rank whose
subdomain contains them.  This class computes the element ownership map,
the neighbor topology (26-neighborhood), and the ghost-node counts used
by migration and by the halo-exchange accounting.
"""

from __future__ import annotations

import numpy as np


def _split(n: int, parts: int) -> np.ndarray:
    """Bounds of an as-even-as-possible split of ``n`` items into ``parts``."""
    base = n // parts
    rem = n % parts
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:rem] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


class BlockDecomposition:
    """Cartesian decomposition of a :class:`repro.fem.mesh.StructuredMesh`.

    Parameters
    ----------
    mesh:
        The (fine) Q2 mesh.
    ranks:
        Process grid ``(px, py, pz)``; each dimension must not exceed the
        element count in that dimension.
    """

    def __init__(self, mesh, ranks: tuple[int, int, int]):
        self.mesh = mesh
        self.ranks = tuple(int(r) for r in ranks)
        M, N, P = mesh.shape
        px, py, pz = self.ranks
        if px > M or py > N or pz > P or min(self.ranks) < 1:
            raise ValueError(
                f"rank grid {self.ranks} incompatible with mesh {mesh.shape}"
            )
        self.bx = _split(M, px)
        self.by = _split(N, py)
        self.bz = _split(P, pz)
        # element -> owner rank
        ex = np.arange(M)
        ey = np.arange(N)
        ez = np.arange(P)
        ox = np.searchsorted(self.bx, ex, side="right") - 1
        oy = np.searchsorted(self.by, ey, side="right") - 1
        oz = np.searchsorted(self.bz, ez, side="right") - 1
        OZ, OY, OX = np.meshgrid(oz, oy, ox, indexing="ij")
        self.element_owner = (
            OX + px * (OY + py * OZ)
        ).ravel()  # element index x-fastest matches mesh.element_index

    @property
    def nranks(self) -> int:
        px, py, pz = self.ranks
        return px * py * pz

    def rank_coords(self, rank: int) -> tuple[int, int, int]:
        px, py, _ = self.ranks
        return rank % px, (rank // px) % py, rank // (px * py)

    def rank_of_coords(self, rx: int, ry: int, rz: int) -> int:
        px, py, pz = self.ranks
        if not (0 <= rx < px and 0 <= ry < py and 0 <= rz < pz):
            return -1
        return rx + px * (ry + py * rz)

    def neighbors(self, rank: int) -> list[int]:
        """The (up to 26) face/edge/corner neighbor ranks."""
        rx, ry, rz = self.rank_coords(rank)
        out = []
        for dz in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == dy == dz == 0:
                        continue
                    r = self.rank_of_coords(rx + dx, ry + dy, rz + dz)
                    if r >= 0:
                        out.append(r)
        return out

    def ghost_node_count(self, rank: int) -> int:
        """Ghost-layer node count for one rank (one element layer wide).

        The Q2 stencil needs one layer of off-rank elements, i.e. ``order``
        lattice planes per interior face plus edge/corner slivers.
        """
        k = self.mesh.order
        rx, ry, rz = self.rank_coords(rank)
        px, py, pz = self.ranks
        mx = k * (self.bx[rx + 1] - self.bx[rx]) + 1
        my = k * (self.by[ry + 1] - self.by[ry]) + 1
        mz = k * (self.bz[rz + 1] - self.bz[rz]) + 1
        gx = mx + k * ((rx > 0) + (rx < px - 1))
        gy = my + k * ((ry > 0) + (ry < py - 1))
        gz = mz + k * ((rz > 0) + (rz < pz - 1))
        return int(gx * gy * gz - mx * my * mz)
