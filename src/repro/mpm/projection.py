"""Approximate local L2 projection of material-point data (Eq. 12/13).

Point values are reconstructed on the *corner vertices* of the Q2 mesh
(the embedded Q1 lattice):

    f_i = sum_p N_i(x_p) f_p / sum_p N_i(x_p)

with trilinear ``N_i``, then interpolated at the Stokes quadrature points
(Eq. 13).  The reconstruction is a convex combination of point values, so
it preserves positivity and the min/max bounds of the point data --
properties the hypothesis tests assert.
"""

from __future__ import annotations

import numpy as np

from ..fem.quadrature import GaussQuadrature
from ..mg.coefficients import corner_nodal_to_quadrature
from ..obs.registry import instrument
from .points import PointTables


class EmptySupportError(ValueError):
    """No corner vertex has a material point in its support, so the
    reconstruction (Eq. 12) has no data to average."""


def project_to_corners(
    mesh,
    els: np.ndarray,
    xi: np.ndarray,
    values: np.ndarray,
    tables: PointTables | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct point ``values`` on the corner lattice.

    Returns ``(nodal, empty)`` where ``empty`` marks vertices whose support
    contains no material point (their nodal value is 0 and the caller
    should trigger population control).  ``tables`` are the points'
    :meth:`~repro.mpm.points.MaterialPoints.tables`; without them a
    throwaway set is built from ``(els, xi)``.  Raises
    :class:`EmptySupportError` when no vertex has support (no points).
    """
    t = tables if tables is not None else PointTables(mesh, els, xi)
    w, den, empty = t.projection
    if empty.all():
        raise EmptySupportError(
            f"empty support: none of the {empty.size} corner vertices has a "
            f"material point in its support ({els.size} points)")
    num = np.bincount(t.corner_ids.ravel(),
                      weights=(w * values[:, None]).ravel(), minlength=den.size)
    nodal = np.divide(num, den, out=np.zeros_like(num), where=~empty)
    return nodal, empty


@instrument("MPMProject")
def project_to_quadrature(
    mesh,
    els: np.ndarray,
    xi: np.ndarray,
    values: np.ndarray,
    quad: GaussQuadrature | None = None,
    fill_empty: float | None = None,
    tables: PointTables | None = None,
) -> np.ndarray:
    """Point values -> quadrature points, via the corner reconstruction.

    ``fill_empty`` substitutes vertices with empty support (defaults to the
    mean of the reconstructed field, matching a pragmatic population-control
    fallback); ``tables`` as in :func:`project_to_corners`.
    """
    quad = quad or GaussQuadrature.hex(3)
    nodal, empty = project_to_corners(mesh, els, xi, values, tables)
    if empty.any():
        fill = float(nodal[~empty].mean()) if fill_empty is None else fill_empty
        nodal = np.where(empty, fill, nodal)
    return corner_nodal_to_quadrature(mesh, nodal, quad)


@instrument("MPMInterp")
def interpolate_nodal_at_points(
    mesh, nodal: np.ndarray, els: np.ndarray, xi: np.ndarray,
    tables: PointTables | None = None,
) -> np.ndarray:
    """Evaluate a corner-lattice nodal field at material points (Eq. 13)."""
    t = tables if tables is not None else PointTables(mesh, els, xi)
    return np.einsum("pa,pa->p", t.q1_weights, nodal[t.corner_ids],
                     optimize=True)
