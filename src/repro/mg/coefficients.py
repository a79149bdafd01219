"""Coefficient transfer between multigrid levels.

pTatin rediscretizes coarse operators by re-projecting material points on
every level (SS III-C).  The equivalent pipeline here: reconstruct a nodal
Q1 field on the fine corner-vertex lattice from the fine quadrature values
(the same local-L2 reconstruction the MPM projection uses, Eq. 12), inject
it onto the nested coarse corner lattices (coarse corner vertices coincide
with fine ones), and interpolate at each coarse level's quadrature points.
"""

from __future__ import annotations

import numpy as np

from ..fem.basis import q1_basis
from ..fem.quadrature import GaussQuadrature


def quadrature_to_corner_nodal(mesh, f_q: np.ndarray, quad: GaussQuadrature) -> np.ndarray:
    """Local-L2 reconstruction of quadrature data onto corner vertices.

    Returns the nodal field on the corner (Q1) lattice, shape
    ``((M+1)*(N+1)*(P+1),)``, x-fastest.
    """
    N1 = q1_basis().at_quadrature(quad)[0]  # (nq, 8)
    w = quad.weights
    num_el = np.einsum("q,qa,nq->na", w, N1, f_q, optimize=True)
    den_el = np.einsum("q,qa->a", w, N1)
    local = mesh.corner_lattice_connectivity()
    size = mesh.corner_node_lattice().size
    num = np.bincount(local.ravel(), weights=num_el.ravel(), minlength=size)
    den = np.bincount(
        local.ravel(),
        weights=np.broadcast_to(den_el, local.shape).ravel(),
        minlength=size,
    )
    return num / den


def corner_nodal_to_quadrature(mesh, f_nodal: np.ndarray, quad: GaussQuadrature) -> np.ndarray:
    """Interpolate a corner-lattice nodal field at the quadrature points."""
    N1 = q1_basis().at_quadrature(quad)[0]
    local = mesh.corner_lattice_connectivity()
    return np.einsum("qa,na->nq", N1, f_nodal[local], optimize=True)


def inject_corner_field(fine_mesh, coarse_mesh, f_nodal: np.ndarray) -> np.ndarray:
    """Restrict a corner nodal field to a nested coarse mesh by injection."""
    fm, fn, fp = fine_mesh.shape
    cm, cn, cp = coarse_mesh.shape
    if (2 * cm, 2 * cn, 2 * cp) != (fm, fn, fp):
        raise ValueError("meshes are not a nested pair")
    F = f_nodal.reshape(fp + 1, fn + 1, fm + 1)
    return F[::2, ::2, ::2].ravel()


def coefficient_hierarchy(
    meshes: list, f_q_fine: np.ndarray, quad: GaussQuadrature | None = None
) -> list[np.ndarray]:
    """Quadrature-point coefficient on every level (finest first)."""
    quad = quad or GaussQuadrature.hex(3)
    out = [np.asarray(f_q_fine, dtype=np.float64)]
    nodal = quadrature_to_corner_nodal(meshes[0], out[0], quad)
    for k in range(1, len(meshes)):
        nodal = inject_corner_field(meshes[k - 1], meshes[k], nodal)
        out.append(corner_nodal_to_quadrature(meshes[k], nodal, quad))
    return out
