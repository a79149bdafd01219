"""Material point advection through the FE velocity field.

Points move with the Q2-interpolated velocity; the default integrator is
explicit midpoint (RK2), relocating points between stages so the velocity
is always evaluated with consistent local coordinates.
"""

from __future__ import annotations

import numpy as np

from ..obs.registry import instrument
from .location import locate_points
from .points import MaterialPoints


def interpolate_velocity(
    mesh, u: np.ndarray, els: np.ndarray, xi: np.ndarray
) -> np.ndarray:
    """Q2 velocity at (element, local coordinate) pairs; shape ``(np, 3)``."""
    N = mesh.basis.eval(xi)  # (np, nb)
    ue = np.take(u.reshape(-1, 3), mesh.connectivity[els], axis=0)
    return np.einsum("pa,pac->pc", N, ue, optimize=True)


@instrument("MPMAdvect")
def advect_points(
    mesh,
    u: np.ndarray,
    points: MaterialPoints,
    dt: float,
    scheme: str = "rk2",
) -> np.ndarray:
    """Advect ``points`` in place; returns the mask of points that left
    the domain (the caller -- usually the migration layer -- deletes them,
    which is how outflow boundaries shed material, SS II-D).

    Points are relocated (element + local coordinate cache refreshed)
    after the move.
    """
    els, xi, lost0 = locate_points(mesh, points.x, hints=points.el)
    v1 = interpolate_velocity(mesh, u, els, xi)

    def stage_velocity(x_stage, hints):
        """Velocity at a stage position; stages that stepped outside the
        domain fall back to the previous stage's velocity."""
        e, s, lost = locate_points(mesh, x_stage, hints=hints)
        v = interpolate_velocity(mesh, u, e, s)
        return np.where(lost[:, None], v1, v), e

    if scheme == "euler":
        x_new = points.x + dt * v1
    elif scheme == "rk2":
        v2, _ = stage_velocity(points.x + 0.5 * dt * v1, els)
        x_new = points.x + dt * v2
    elif scheme == "rk4":
        v2, e2 = stage_velocity(points.x + 0.5 * dt * v1, els)
        v3, e3 = stage_velocity(points.x + 0.5 * dt * v2, e2)
        v4, _ = stage_velocity(points.x + dt * v3, e3)
        x_new = points.x + (dt / 6.0) * (v1 + 2 * v2 + 2 * v3 + v4)
    else:
        raise ValueError(f"unknown advection scheme {scheme!r}")
    points.x = x_new
    els, xi, lost = locate_points(mesh, points.x, hints=els)
    points.el = np.where(lost, -1, els)
    points.xi = xi
    return lost | lost0
