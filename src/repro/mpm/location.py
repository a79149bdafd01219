"""Point location on deformed structured meshes (SS II-D).

Given a physical position, find the element containing it and the local
(reference) coordinate ``xi`` -- the routine the paper applies after every
advection step.  The algorithm: start from a cached element hint (or the
uniform-box guess), Newton-invert the isoparametric Q2 map inside the
candidate element, and if the resulting ``xi`` falls outside the reference
cube, *walk* to the neighboring element in the offending direction(s).
Points that walk off the domain boundary are reported as lost (they exit
through outflow boundaries and are deleted by the migration layer).
"""

from __future__ import annotations

import numpy as np

from ..obs.registry import instrument

#: |xi| tolerance for "inside the reference element"
INSIDE_TOL = 1e-9


def invert_map(
    mesh,
    els: np.ndarray,
    x: np.ndarray,
    xi0: np.ndarray | None = None,
    tol: float = 1e-12,
    maxit: int = 25,
) -> np.ndarray:
    """Newton inversion of the isoparametric map, batched over points.

    Returns the reference coordinates ``xi`` such that the element map of
    ``els[p]`` sends ``xi[p]`` to ``x[p]``.  (For points outside their
    element, the result lies outside ``[-1, 1]^3`` -- which is exactly what
    the walking search needs.)
    """
    basis = mesh.basis
    # (np, nb, 3); np.take gathers whole rows ~3x faster than indexing
    coords = np.take(mesh.coords, mesh.connectivity[els], axis=0)
    xi = np.zeros_like(x) if xi0 is None else np.array(xi0, dtype=np.float64)
    for _ in range(maxit):
        N, dN = basis.tables(xi)
        xm = np.einsum("pa,pac->pc", N, coords, optimize=True)
        r = xm - x
        if np.abs(r).max() < tol:
            break
        J = np.einsum("pad,pac->pcd", dN, coords, optimize=True)
        dxi = np.linalg.solve(J, r[..., None])[..., 0]
        xi = xi - dxi
        # keep Newton from running away on far-outside points; the walk
        # only needs the sign/magnitude ordering of the overshoot
        xi = np.clip(xi, -3.0, 3.0)
    return xi


@instrument("MPMLocate")
def locate_points(
    mesh,
    x: np.ndarray,
    hints: np.ndarray | None = None,
    max_walk: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Locate points on the mesh.

    Returns ``(els, xi, lost)``: containing element per point, local
    coordinates, and a mask of points not contained in the domain.
    """
    x = np.atleast_2d(x)
    npts = x.shape[0]
    if npts == 0:
        return np.empty(0, dtype=np.int64), np.empty((0, 3)), np.empty(0, dtype=bool)
    M, N, P = mesh.shape
    if max_walk is None:
        max_walk = M + N + P + 4
    if hints is None or np.any(hints < 0):
        # uniform-box initial guess from the bounding box of the mesh
        lo = mesh.coords.min(axis=0)
        hi = mesh.coords.max(axis=0)
        frac = (x - lo) / np.where(hi > lo, hi - lo, 1.0)
        gx = np.clip((frac[:, 0] * M).astype(np.int64), 0, M - 1)
        gy = np.clip((frac[:, 1] * N).astype(np.int64), 0, N - 1)
        gz = np.clip((frac[:, 2] * P).astype(np.int64), 0, P - 1)
        guess = mesh.element_index(gx, gy, gz)
        els = guess if hints is None else np.where(hints < 0, guess, hints)
    else:
        els = hints.astype(np.int64).copy()
    els = np.asarray(els, dtype=np.int64)
    xi = np.zeros((npts, 3))
    lost = np.zeros(npts, dtype=bool)
    active = np.arange(npts)
    for _ in range(max_walk):
        xi_a = invert_map(mesh, els[active], x[active])
        xi[active] = xi_a
        outside = np.abs(xi_a) > 1.0 + INSIDE_TOL
        todo = outside.any(axis=1)
        if not todo.any():
            active = active[:0]
            break
        moving = active[todo]
        xi_m = xi_a[todo]
        # current element lattice indices
        e = els[moving]
        ex = e % M
        ey = (e // M) % N
        ez = e // (M * N)
        exyz = np.column_stack([ex, ey, ez])
        limits = np.array([M, N, P]) - 1
        stuck = np.zeros(moving.size, dtype=bool)
        for d in range(3):
            step = np.zeros(moving.size, dtype=np.int64)
            step[xi_m[:, d] > 1.0 + INSIDE_TOL] = 1
            step[xi_m[:, d] < -1.0 - INSIDE_TOL] = -1
            newpos = exyz[:, d] + step
            # walking off the lattice means the point left the domain
            # through this face (unless another direction still moves it)
            off = (newpos < 0) | (newpos > limits[d])
            stuck |= off & (step != 0)
            exyz[:, d] = np.clip(newpos, 0, limits[d])
        els[moving] = mesh.element_index(exyz[:, 0], exyz[:, 1], exyz[:, 2])
        lost[moving[stuck]] = True
        active = moving[~stuck]
        if active.size == 0:
            break
    # anything still unresolved after max_walk is treated as lost
    lost[active] = True
    if hints is not None and lost.any():
        # a hinted walk can die on a non-convex boundary (a free-surface
        # valley between the hint and the target column reads as "left
        # through the top"); retry those once from the bounding-box guess
        # before flagging outflow
        retry = np.flatnonzero(lost)
        els_r, xi_r, lost_r = locate_points(
            mesh, x[retry], hints=None, max_walk=max_walk
        )
        els[retry] = els_r
        xi[retry] = xi_r
        lost[retry] = lost_r
    return els, xi, lost
