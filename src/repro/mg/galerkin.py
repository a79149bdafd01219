"""Galerkin coarse levels, formed cell by cell from the fine coefficient.

On the nested Q2 hierarchy the trilinear prolongation is local to a cell:
a fine element's 27 nodes interpolate from the 8 corners of one level-1
lattice cell (the 27x8 factor ``Q``), a level-k cell's 8 nodes from those
of the level-(k+1) cell holding it (octant ``o``: ``Q_o``, 8x8).  So
``Pᵀ A P`` is a sum of 24x24 cell blocks: on level 1 the fine element's
quadrature sum of ``2 eta D(v):D(w)`` over the prolonged basis ``G Q`` (no
fine element matrix, no fine matrix), below it ``sum_o Q_oᵀ B_o Q_o`` over
the 8 sub-cells.  They are formed in z-slabs of cells and added into each
level's 27-node stencil, which the level's CSR is read from.  When no fine
Dirichlet dof interpolates from a free coarse dof, ``Pᵀ A_bc P`` is
``Pᵀ A P`` with the coarse Dirichlet rows and columns masked and a unit
diagonal.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..fem import geometry
from ..fem.assembly import DEFAULT_CHUNK, viscous_element_matrices
from .transfer import q1_interpolation_1d

#: 1-D interpolation in one cell: a Q2 element's 3 lattice points from the
#: cell's 2 corners; rows ``o:o+2`` serve half-cell ``o``
_LINE = q1_interpolation_1d(2).toarray()
#: cell corners ``(az, ay, ax)``, x fastest like the element numbering
_CORNERS = list(np.ndindex(2, 2, 2))
_Q = np.kron(_LINE, np.kron(_LINE, _LINE))
_Q_OCTANT = np.array([np.kron(_LINE[z:z + 2], np.kron(_LINE[y:y + 2],
                                                      _LINE[x:x + 2]))
                      for z, y, x in _CORNERS])
#: stencil slot (of 27, x fastest) of corner b seen from corner a
_SLOT = [[int(np.ravel_multi_index(np.subtract(b, a) + 1, (3, 3, 3)))
          for b in _CORNERS] for a in _CORNERS]


def galerkin_flops(meshes: list) -> int:
    """Analytic flops of :func:`galerkin_levels`: per level-1 block the
    prolonged gradients, the weighted ``(G Q)ᵀ (G Q)`` and its trace; per
    coarser block ``Q_oᵀ B Q_o`` over 8 sub-cells (8x8 on 72 columns)."""
    fine = 27 * (8 * 3 * 3 * 2 + 8 * 3 + 24 * 24 * 2) + 8 * 8 * 3
    return (meshes[0].nel * fine
            + sum(8 * m.nel for m in meshes[2:]) * 8 * 2 * 8 * 8 * 72 * 2)


def _coarsen_blocks(B: np.ndarray) -> np.ndarray:
    """Cell blocks ``(cz, cy, cx, 24, 24)`` to the next coarser lattice's."""
    cz, cy, cx = (s // 2 for s in B.shape[:3])
    # (octant, coarse cell, a, (i, b, j))
    B = B.reshape(cz, 2, cy, 2, cx, 2, 8, 72).transpose(1, 3, 5, 0, 2, 4, 6, 7)
    T = np.matmul(_Q_OCTANT.transpose(0, 2, 1)[:, None],
                  B.reshape(8, -1, 8, 72))
    T = T.reshape(8, -1, 24, 8, 3).swapaxes(3, 4)
    T = np.matmul(T, _Q_OCTANT[:, None, None]).sum(axis=0)
    return T.swapaxes(2, 3).reshape(cz, cy, cx, 24, 24)


def _add_blocks(S: np.ndarray, B: np.ndarray, z0: int) -> None:
    """Add the blocks ``(nl, cy, cx, 24, 24)`` of cell layers ``z0 ..
    z0+nl`` to the level's stencil ``S`` ``(nz, ny, nx, 3, 27, 3)``."""
    nl, cy, cx = B.shape[:3]
    B = B.reshape(nl, cy, cx, 8, 3, 8, 3)
    # upper corners first: a node layer adds its lower cell layer first
    # wherever the slabs end, so the floats do not depend on them
    for a in reversed(range(8)):
        az, ay, ax = _CORNERS[a]
        cell = S[z0 + az:z0 + az + nl, ay:ay + cy, ax:ax + cx]
        for b in range(8):
            cell[..., _SLOT[a][b], :] += B[:, :, :, a, :, b]


def _stencil_csr(S: np.ndarray, mask: np.ndarray) -> sp.csr_matrix:
    """The CSR read off a level's stencil, Dirichlet rows and columns
    masked and a unit diagonal set."""
    nz, ny, nx = S.shape[:3]
    keep = np.pad((~mask).reshape(nz, ny, nx, 3).astype(np.float64),
                  ((1, 1), (1, 1), (1, 1), (0, 0)))
    S *= keep[1:-1, 1:-1, 1:-1, :, None, None]
    S *= np.stack([keep[dz:dz + nz, dy:dy + ny, dx:dx + nx]
                   for dz, dy, dx in np.ndindex(3, 3, 3)], axis=3)[:, :, :, None]
    for c in range(3):  # slot 13 is the node itself
        S[:, :, :, c, 13, c][mask[c::3].reshape(nz, ny, nx)] = 1.0
    # the stencil entries that lie in the lattice, row by row
    inside = [np.ones((n, 3), dtype=bool) for n in (nz, ny, nx)]
    for v in inside:
        v[0, 0] = v[-1, 2] = False
    iz, iy, ix = inside
    sel = np.broadcast_to((iz[:, None, None, :, None, None]
                           & iy[:, None, None, :, None] & ix[:, None, None, :]
                           ).reshape(nz, ny, nx, 1, 27, 1), S.shape)
    rownnz = sel.reshape(-1, 81).sum(axis=1)
    itype = sp.get_index_dtype(maxval=int(rownnz.sum()) + rownnz.size)
    indptr = np.zeros(rownnz.size + 1, dtype=itype)
    np.cumsum(rownnz, out=indptr[1:])
    d = np.arange(-1, 2)
    offset = (d[:, None, None] * ny * nx + d[:, None] * nx + d).ravel()
    node = np.arange(nz * ny * nx, dtype=itype).reshape(nz, ny, nx, 1, 1, 1)
    cols = 3 * (node + offset[:, None].astype(itype)) + np.arange(3, dtype=itype)
    A = sp.csr_matrix((S[sel], np.broadcast_to(cols, S.shape)[sel], indptr),
                      shape=(rownnz.size,) * 2)
    A.has_sorted_indices = True
    # masked entries and couplings a regular mesh cancels are dropped:
    # a Dirichlet row is isolated, as after elimination
    A.eliminate_zeros()
    return A


def galerkin_levels(meshes: list, eta_q: np.ndarray, quad, masks: list,
                    prolongs: list) -> list[sp.csr_matrix]:
    """``Pᵀ A_bc P`` of coarse levels ``1 .. len(meshes)-1`` as CSR.

    ``meshes`` are nested, finest first, ``masks[k]`` is level k's
    Dirichlet mask and ``prolongs[k-1]`` the prolongation from level k to
    level k-1.  Raises ``ValueError`` when a fine Dirichlet dof
    interpolates from a free coarse dof (the constraints are not nested).
    """
    for k, P in enumerate(prolongs, start=1):
        bad = masks[k - 1] & (P @ (~masks[k]).astype(np.float64) != 0.0)
        if bad.any():
            raise ValueError(
                f"level {k}: {bad.sum()} Dirichlet dofs of the level above "
                "interpolate from free dofs; the boundary conditions are "
                "not nested, so no Galerkin level is formed")
    fine = meshes[0]
    M, N, K = fine.shape
    eta_q = np.asarray(eta_q, dtype=np.float64)
    # a level-1 block is the Q1 stress form over the prolonged basis G Q
    dNQ = np.einsum("bc,qbr->qcr", _Q, fine.basis.at_quadrature(quad)[1])
    Jinv, det, _ = fine.geometry_at(quad)
    # level k's node lattice has fine.shape / 2**(k-1) cells a side
    stencils = [np.zeros(((K >> k - 1) + 1, (N >> k - 1) + 1,
                          (M >> k - 1) + 1, 3, 27, 3))
                for k in range(1, len(meshes))]
    # each z-slab holds whole cells of the coarsest level
    step = 1 << (len(meshes) - 2)
    step *= max(1, DEFAULT_CHUNK // (M * N * step))
    for z0 in range(0, K, step):
        z1 = min(K, z0 + step)
        s, e = z0 * M * N, z1 * M * N
        B = viscous_element_matrices(geometry.gradients(dNQ, Jinv[s:e]),
                                     det[s:e] * quad.weights, eta_q[s:e])
        B = B.reshape(z1 - z0, N, M, 24, 24)
        for k, S in enumerate(stencils):
            B = _coarsen_blocks(B) if k else B
            _add_blocks(S, B, z0 >> k)
    return [_stencil_csr(S, masks[k + 1]) for k, S in enumerate(stencils)]
