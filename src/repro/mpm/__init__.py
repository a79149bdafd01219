"""Material-point method: Lagrangian tracking of rock lithology (SS II-C/D).

The rock type field ``Phi`` (Eq. 6) is carried by Lagrangian material
points.  Each time step: evaluate the flow law at every point, project the
resulting viscosity/density onto the corner-vertex (Q1) lattice with the
approximate local L2 projection of Eq. 12, interpolate at the quadrature
points of the Stokes operator, solve, then advect the points through the
velocity field and migrate any that crossed subdomain boundaries
(the L_s / L_r protocol of SS II-D).
"""

from .points import MaterialPoints, PointTables, seed_points
from .location import invert_map, locate_points
from .projection import (
    EmptySupportError,
    project_to_corners,
    project_to_quadrature,
)
from .advection import interpolate_velocity, advect_points
from .migration import (
    migrate_points,
    count_points_per_element,
    populate_empty_cells,
    thin_overcrowded_cells,
)

__all__ = [
    "MaterialPoints",
    "PointTables",
    "seed_points",
    "invert_map",
    "locate_points",
    "EmptySupportError",
    "project_to_corners",
    "project_to_quadrature",
    "interpolate_velocity",
    "advect_points",
    "migrate_points",
    "count_points_per_element",
    "populate_empty_cells",
    "thin_overcrowded_cells",
]
