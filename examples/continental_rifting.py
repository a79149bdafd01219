#!/usr/bin/env python3
"""Continental rifting and breakup (paper SS V), laptop scale.

Three lithologies (mantle, weak crust, strong crust) under oblique
extension, with temperature/pressure/strain-rate dependent visco-plastic
rheology, a damage seed along the back face, a deforming free surface
(ALE), and the SUPG energy equation -- the paper's full coupled time loop.

Per time step the script prints the Fig. 4 quantities: Newton iterations,
total Krylov iterations, the yielded fraction, and the developing
topography.

Run:  python examples/continental_rifting.py [nsteps]
"""

import sys

import numpy as np

from repro.ale import surface_topography
from repro.sim import make_rifting
from repro.sim.rifting import RiftingConfig


def main(nsteps: int = 8):
    cfg = RiftingConfig(
        shape=(10, 6, 4),      # 1200 x 600 x 200 km scaled by layer depth
        v_extension=0.5,       # 2 cm/yr, nondimensional
        obliquity=0.1,         # 2 mm/yr shortening against the back face
        points_per_dim=3,
        mg_levels=1,
    )
    sim = make_rifting(cfg)
    print(f"rift model: mesh {cfg.shape}, {sim.points.n} points, "
          f"obliquity {cfg.obliquity}, damage zone seeded")
    print(f"{'step':>4} {'Newton':>7} {'Krylov':>7} {'conv':>5} "
          f"{'yielded':>8} {'dt':>7} {'relief':>8}")
    krylov = []
    for k in range(nsteps):
        s = sim.step()
        krylov.append(s["krylov_iterations"])
        h = surface_topography(sim.mesh)
        print(f"{k:>4} {s['newton_iterations']:>7} "
              f"{s['krylov_iterations']:>7} {str(s['newton_converged']):>5} "
              f"{s['yielded_fraction']:>8.2f} {s['dt']:>7.3f} "
              f"{h.max() - h.min():>8.4f}")
    print(f"\nafter t = {sim.time:.2f}:")
    print(f"  mean surface height {surface_topography(sim.mesh).mean():.4f} "
          f"(started at {cfg.extent[2]:.1f}; extension causes subsidence)")
    print(f"  temperature range  [{sim.T.min():.3f}, {sim.T.max():.3f}]")
    damaged = sim.points.plastic_strain > 0.1
    print(f"  {damaged.sum()} points carry plastic strain > 0.1 "
          f"({100 * damaged.mean():.1f}%)")
    print(f"  average Krylov its/step: {np.mean(krylov):.1f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
