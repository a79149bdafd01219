"""Grid transfer operators for nodally nested Q2 hierarchies.

The paper (SS III-C) prolongs velocity with *trilinear* interpolation: a Q1
finite element space embedded on the nodes of the Q2 discretization.  On a
nodally nested hierarchy the fine node lattice is exactly the 2x refinement
of the coarse one, so the scalar prolongator is the Kronecker product of
three 1D linear-interpolation matrices, and restriction is its transpose.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp


def q1_interpolation_1d(n_coarse: int) -> sp.csr_matrix:
    """1D linear interpolation from ``n_coarse`` to ``2*n_coarse - 1`` points.

    Coincident points copy, midpoints average their two neighbors.
    """
    n_fine = 2 * n_coarse - 1
    rows, cols, vals = [], [], []
    for i in range(n_coarse):
        rows.append(2 * i)
        cols.append(i)
        vals.append(1.0)
    for i in range(n_coarse - 1):
        rows += [2 * i + 1, 2 * i + 1]
        cols += [i, i + 1]
        vals += [0.5, 0.5]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_fine, n_coarse))


def nodal_prolongation(fine_mesh, coarse_mesh) -> sp.csr_matrix:
    """Scalar prolongator between the node lattices of nested meshes.

    Global node ordering is x-fastest (``g = i + nx*(j + ny*k)``), so the
    3D operator is ``kron(Pz, kron(Py, Px))``.
    """
    return _lattice_prolongation(tuple(fine_mesh.nodes_per_dim),
                                 tuple(coarse_mesh.nodes_per_dim))


def _lattice_prolongation(nf: tuple, nc: tuple) -> sp.csr_matrix:
    if tuple(2 * c - 1 for c in nc) != tuple(nf):
        raise ValueError(
            f"meshes are not nested: fine lattice {nf}, coarse lattice {nc}"
        )
    Px = q1_interpolation_1d(nc[0])
    Py = q1_interpolation_1d(nc[1])
    Pz = q1_interpolation_1d(nc[2])
    return sp.kron(Pz, sp.kron(Py, Px, format="csr"), format="csr")


def vector_prolongation(fine_mesh, coarse_mesh, ncomp: int = 3) -> sp.csr_matrix:
    """Prolongator for interleaved vector dofs (``dof = ncomp*node + c``).

    It depends only on the two node lattices, so each ``(fine lattice,
    coarse lattice, ncomp)`` is built once (the last :data:`PROLONGATION_CACHE`
    are kept) and shared read-only by every hierarchy on those lattices.
    """
    return _vector_prolongation(tuple(fine_mesh.nodes_per_dim),
                                tuple(coarse_mesh.nodes_per_dim), int(ncomp))


#: lattice pairs whose vector prolongator is kept (a hierarchy has a few)
PROLONGATION_CACHE = 8


@functools.lru_cache(maxsize=PROLONGATION_CACHE)
def _vector_prolongation(nf: tuple, nc: tuple, ncomp: int) -> sp.csr_matrix:
    P = sp.kron(_lattice_prolongation(nf, nc), sp.eye(ncomp), format="csr")
    P.sum_duplicates()  # canonical now, so no later product sorts it in place
    for a in (P.data, P.indices, P.indptr):
        a.flags.writeable = False
    return P
