"""Free-surface tracking with a boundary-fitted (ALE) mesh.

The paper's models carry a deformable free surface (sigma.n = 0 on top)
tracked by the boundary-fitted mesh (SS I, SS V): surface nodes follow the
material, interior nodes are redistributed.  The implementation here uses
the standard kinematic update for single-valued topography ``h(x, y)``:

    dh/dt = u_z - u_x dh/dx - u_y dh/dy ,

evaluated on the surface node lattice with finite differences for the
slopes, followed by uniform vertical redistribution of each interior node
column between the (fixed) bottom and the new surface.  Since the IJK
topology is preserved, nested coarsening and all tensor-product machinery
keep working on the deformed mesh.
"""

from __future__ import annotations

import numpy as np

from ..obs.registry import instrument


def _lattice_view(mesh) -> np.ndarray:
    """Coordinates reshaped to the node lattice ``(nnz, nny, nnx, 3)``."""
    nnx, nny, nnz = mesh.nodes_per_dim
    return mesh.coords.reshape(nnz, nny, nnx, 3)


def surface_topography(mesh) -> np.ndarray:
    """Surface height ``h(x, y)`` on the top node plane, shape ``(nny, nnx)``."""
    return _lattice_view(mesh)[-1, :, :, 2].copy()


@instrument("ALESurfaceUpdate")
def update_free_surface(mesh, u: np.ndarray, dt: float) -> np.ndarray:
    """Advance the surface kinematically and return the new topography.

    ``u`` is the Q2 velocity (interleaved dofs).  Only the top lattice
    plane moves here; call :func:`remesh_vertical` afterwards to relax the
    interior.
    """
    nnx, nny, nnz = mesh.nodes_per_dim
    C = _lattice_view(mesh)
    V = u.reshape(nnz, nny, nnx, 3)
    h = C[-1, :, :, 2]
    x = C[-1, :, :, 0]
    y = C[-1, :, :, 1]
    ux, uy, uz = (V[-1, :, :, c] for c in range(3))
    dhdx = np.gradient(h, axis=1) / np.maximum(np.gradient(x, axis=1), 1e-300)
    dhdy = np.gradient(h, axis=0) / np.maximum(np.gradient(y, axis=0), 1e-300)
    h_new = h + dt * (uz - ux * dhdx - uy * dhdy)
    coords = mesh.coords.copy().reshape(nnz, nny, nnx, 3)
    coords[-1, :, :, 2] = h_new
    mesh.set_coords(coords.reshape(-1, 3))
    return h_new


@instrument("ALERemesh")
def remesh_vertical(mesh, min_thickness: float = 0.0,
                    on_degenerate: str = "raise") -> int:
    """Redistribute interior nodes uniformly along each vertical column.

    Bottom and top planes stay where they are; everything between is placed
    at equal spacing -- the paper's "mesh updates associated with the ALE
    formulation".

    Columns whose surface has crossed the bottom (``z_top - z_bot <=
    min_thickness``) would be written back *inverted* and feed negative
    detJ into every downstream operator apply.  ``on_degenerate`` selects
    what happens instead of that silent corruption: ``"raise"`` (default)
    raises :class:`~repro.resilience.reasons.HealthCheckFailure`;
    ``"repair"`` clamps the surface of the bad columns to a positive floor
    (``min_thickness`` when positive, else 5% of the median healthy column
    height) before redistributing.  Returns the number of repaired columns
    (0 on a healthy mesh).
    """
    if on_degenerate not in ("raise", "repair"):
        raise ValueError(
            f"on_degenerate must be 'raise' or 'repair', got {on_degenerate!r}"
        )
    nnx, nny, nnz = mesh.nodes_per_dim
    coords = mesh.coords.copy().reshape(nnz, nny, nnx, 3)
    z_bot = coords[0, :, :, 2]
    z_top = coords[-1, :, :, 2]
    thickness = z_top - z_bot
    degenerate = thickness <= min_thickness
    repaired = int(degenerate.sum())
    if repaired:
        from ..resilience.reasons import HealthCheckFailure

        if on_degenerate == "raise":
            raise HealthCheckFailure(
                f"remesh_vertical: {repaired} column(s) have "
                f"z_top <= z_bot + {min_thickness:g} "
                f"(min thickness {thickness.min():.3g}); the surface crossed "
                "the bottom",
                check="mesh",
                details={"degenerate_columns": repaired,
                         "min_thickness": float(thickness.min())},
            )
        healthy = thickness[~degenerate]
        floor = min_thickness if min_thickness > 0 else (
            0.05 * float(np.median(healthy)) if healthy.size else 0.0
        )
        if floor <= 0:
            raise HealthCheckFailure(
                "remesh_vertical: every column is degenerate and no positive "
                "repair floor is available",
                check="mesh",
                details={"degenerate_columns": repaired},
            )
        z_top = np.where(degenerate, z_bot + floor, z_top)
        coords[-1, :, :, 2] = z_top
    frac = np.linspace(0.0, 1.0, nnz)[:, None, None]
    coords[:, :, :, 2] = z_bot[None] + frac * (z_top - z_bot)[None]
    mesh.set_coords(coords.reshape(-1, 3))
    return repaired


@instrument("ALESmoothSurface")
def smooth_surface(mesh, passes: int = 1, alpha: float = 0.5) -> np.ndarray:
    """Damped-Jacobi smoothing of the top surface plane (fold repair).

    Each pass moves every surface node ``alpha`` of the way toward the
    average of its lattice neighbors, which flattens the short-wavelength
    folds a kinematic update can create when surface velocities converge.
    Interior columns are *not* touched -- call :func:`remesh_vertical`
    afterwards.  Returns the smoothed topography.
    """
    nnx, nny, nnz = mesh.nodes_per_dim
    coords = mesh.coords.copy().reshape(nnz, nny, nnx, 3)
    h = coords[-1, :, :, 2].copy()
    for _ in range(int(passes)):
        padded = np.pad(h, 1, mode="edge")
        nbr = 0.25 * (padded[:-2, 1:-1] + padded[2:, 1:-1]
                      + padded[1:-1, :-2] + padded[1:-1, 2:])
        h = (1.0 - alpha) * h + alpha * nbr
    coords[-1, :, :, 2] = h
    mesh.set_coords(coords.reshape(-1, 3))
    return h


def surface_fold_report(mesh) -> dict:
    """Detect folded / bottom-crossing vertical columns.

    A column is *non-monotone* when its lattice z values do not strictly
    increase from bottom to top (an interior plane crossed another one),
    and *bottom-crossing* when the surface sits at or below the bottom.
    Both states make the isoparametric map non-invertible somewhere in the
    column, so the health gate treats either as a fold.
    """
    nnx, nny, nnz = mesh.nodes_per_dim
    z = mesh.coords.reshape(nnz, nny, nnx, 3)[:, :, :, 2]
    dz = np.diff(z, axis=0)
    non_monotone = (dz <= 0.0).any(axis=0)
    bottom_crossing = z[-1] <= z[0]
    return {
        "folded_columns": int((non_monotone | bottom_crossing).sum()),
        "non_monotone_columns": int(non_monotone.sum()),
        "bottom_crossing_columns": int(bottom_crossing.sum()),
        "min_dz": float(dz.min()),
        "folded": bool((non_monotone | bottom_crossing).any()),
    }


def detj_at_vertices(mesh) -> np.ndarray:
    """Jacobian determinants at the 8 element corners, shape ``(nel, 8)``.

    Gauss points sit strictly inside the reference cube, so a distortion
    localized at a corner (the signature of a folding free surface) can
    leave every quadrature detJ positive while the map is already
    non-invertible at the vertex.  Corner sampling closes that blind spot;
    for trilinear geometry the corner minimum is the true cell minimum.
    """
    from ..fem import geometry

    corners = np.array([
        [sx, sy, sz]
        for sz in (-1.0, 1.0) for sy in (-1.0, 1.0) for sx in (-1.0, 1.0)
    ])
    dN = mesh.basis.grad(corners)           # (8, nbasis, 3)
    J = geometry.jacobians(mesh.element_coords(), dN)
    return geometry.det_3x3(J)


def mesh_quality(mesh) -> dict:
    """Quality metrics: detJ at Gauss points *and* element vertices.

    ``min_detJ``/``max_detJ`` keep their historical Gauss-point meaning;
    the ``*_vertex`` keys report the corner-sampled determinants that
    catch corner-localized inversions (see :func:`detj_at_vertices`).
    ``inverted`` is true when *either* sampling finds a non-positive
    detJ.  ``max_aspect`` is the worst bounding-box edge ratio and
    ``max_taper`` the worst within-element detJ spread (both on healthy
    elements only, so one inverted cell cannot turn them into noise).

    The determinants are computed directly (not through
    ``mesh.geometry_at``), so the per-step health gate never evicts the
    single-entry ``(Jinv, detJ, xq)`` cache that the Stokes assembly,
    right-hand side and coefficient evaluation read.
    """
    from ..fem import geometry
    from ..fem.quadrature import GaussQuadrature

    quad = GaussQuadrature.hex(2)
    dN = mesh.basis.at_quadrature(quad)[1]
    det = geometry.det_3x3(geometry.jacobians(mesh.element_coords(), dN))
    det_v = detj_at_vertices(mesh)
    _, h = mesh.element_centroids_and_extents()
    aspect = h.max(axis=1) / np.maximum(h.min(axis=1), 1e-300)
    vmin, vmax = det_v.min(axis=1), det_v.max(axis=1)
    healthy = vmin > 0
    taper = np.where(healthy, vmax / np.maximum(vmin, 1e-300), np.inf)
    return {
        "min_detJ": float(det.min()),
        "max_detJ": float(det.max()),
        "min_detJ_vertex": float(det_v.min()),
        "max_detJ_vertex": float(det_v.max()),
        "max_aspect": float(aspect.max()),
        "max_taper": float(taper[healthy].max()) if healthy.any() else float("inf"),
        "inverted_gauss": bool((det <= 0).any()),
        "inverted_vertex": bool((det_v <= 0).any()),
        "inverted": bool((det <= 0).any() or (det_v <= 0).any()),
    }
