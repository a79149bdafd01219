"""Evaluation of FE solution fields at material points and quadrature points.

The MPM-nonlinear coupling needs the strain-rate invariant, pressure, and
temperature *at material points* (where the flow laws live, SS II-C) and
the strain-rate tensor *at quadrature points* (for the Newton operator's
anisotropic term, SS III-A).
"""

from __future__ import annotations

import numpy as np

from ..fem.assembly import DEFAULT_CHUNK, _chunks
from ..fem.basis import P1DiscBasis
from ..fem.quadrature import GaussQuadrature
from ..mpm.points import PointTables
from ..rheology.laws import strain_rate_invariant, strain_rate_tensor


# The ``*_at_points`` readers take the points' ``(els, xi)``; passing the
# points' own ``tables`` (:meth:`repro.mpm.points.MaterialPoints.tables`)
# reuses the geometry built once per relocation, otherwise a throwaway
# :class:`~repro.mpm.points.PointTables` is built from ``(els, xi)``.


def velocity_gradient_at_points(mesh, u, els, xi,
                                tables: PointTables | None = None) -> np.ndarray:
    """Physical velocity gradient ``H[p, c, d] = du_c/dx_d`` at points."""
    t = tables if tables is not None else PointTables(mesh, els, xi)
    ue = np.take(u.reshape(-1, 3), mesh.connectivity[els], axis=0)
    return np.einsum("pac,pad->pcd", ue, t.G, optimize=True)


def strain_invariant_at_points(mesh, u, els, xi,
                               tables: PointTables | None = None) -> np.ndarray:
    """``eps_II`` at material points."""
    H = velocity_gradient_at_points(mesh, u, els, xi, tables)
    return strain_rate_invariant(strain_rate_tensor(H))


def strain_rate_at_quadrature(mesh, u, quad: GaussQuadrature) -> np.ndarray:
    """Strain-rate tensor ``D[n, q, 3, 3]`` at quadrature points."""
    ue = u.reshape(-1, 3)[mesh.connectivity]
    H = np.empty((mesh.nel, quad.npoints, 3, 3))
    for s, e in _chunks(mesh.nel, DEFAULT_CHUNK):
        G = mesh.gradients_at(quad, s, e)
        H[s:e] = np.einsum("nac,nqad->nqcd", ue[s:e], G, optimize=True)
    return strain_rate_tensor(H)


def strain_invariant_at_quadrature(mesh, u, quad: GaussQuadrature) -> np.ndarray:
    """``eps_II`` at quadrature points, shape ``(nel, nq)``."""
    return strain_rate_invariant(strain_rate_at_quadrature(mesh, u, quad))


def pressure_at_points(mesh, p, els, xi,
                       tables: PointTables | None = None) -> np.ndarray:
    """P1disc pressure at material points."""
    t = tables if tables is not None else PointTables(mesh, els, xi)
    pe = p.reshape(-1, 4)[els]
    return np.einsum("pm,pm->p", t.psi, pe, optimize=True)


def pressure_at_quadrature(mesh, p, quad: GaussQuadrature) -> np.ndarray:
    """P1disc pressure at quadrature points, shape ``(nel, nq)``."""
    _, _, xq = mesh.geometry_at(quad)
    centroid, h = mesh.element_centroids_and_extents()
    psi = P1DiscBasis.eval(xq, centroid, h)
    return np.einsum("nqm,nm->nq", psi, p.reshape(-1, 4), optimize=True)


def temperature_at_points(mesh, T_nodal, els, xi,
                          tables: PointTables | None = None) -> np.ndarray:
    """Corner-lattice (Q1) temperature at material points."""
    from ..mpm.projection import interpolate_nodal_at_points

    return interpolate_nodal_at_points(mesh, T_nodal, els, xi, tables)


def stress_invariant_at_quadrature(
    mesh, u, eta_q: np.ndarray, quad: GaussQuadrature
) -> np.ndarray:
    """Second invariant of the deviatoric stress, ``tau_II = 2 eta eps_II``.

    The quantity the Drucker-Prager envelope caps, and the field plotted
    in rifting snapshots (Fig. 3); shape ``(nel, nq)``.
    """
    eps = strain_invariant_at_quadrature(mesh, u, quad)
    return 2.0 * np.asarray(eta_q) * eps


def stress_invariant_nodal(mesh, u, eta_q: np.ndarray, quad: GaussQuadrature) -> np.ndarray:
    """Corner-lattice reconstruction of ``tau_II`` for visualization."""
    from ..mg.coefficients import quadrature_to_corner_nodal

    tau = stress_invariant_at_quadrature(mesh, u, eta_q, quad)
    return quadrature_to_corner_nodal(mesh, tau, quad)
