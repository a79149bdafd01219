#!/usr/bin/env python3
"""Smoke-check the memory high-water of one matrix-free Stokes solve.

Builds a ``--size``^3 four-sphere sinker (viscosity contrast 100) and
solves it once with the compiled Tensor operator and the geometric
multigrid fieldsplit, under ``obs.enable(memory=True)``.  The
``StokesSetup`` and ``StokesSolve`` stages then carry their
``tracemalloc`` high-water (NumPy buffers included); both are printed in
MB and as a multiple of one coupled ``[u; p]`` vector, so a stored
geometric quantity or a duplicated operator shows as a jump of whole
vectors.  Fails when either stage exceeds its own value recorded for this
size and kernel (compiled, or the NumPy fallback, which allocates
per-apply temporaries) by more than 10 %: a set-up transient that comes
back fails even while the solve stage holds the larger high-water.

Run:  python benchmarks/check_memory.py [--size 12]
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.sim.sinker import SinkerConfig, sinker_stokes_problem
from repro.stokes.solve import StokesConfig, solve_stokes

#: measured high-water per (size, compiled kernel): ({stage: MB}, date),
#: where MB = 2**20 bytes; each stage's gate is 10 % above its value
RECORDED_MB = {
    (12, True): ({"StokesSetup": 44.2, "StokesSolve": 78.5}, "2026-10-21"),
    (12, False): ({"StokesSetup": 52.6, "StokesSolve": 103.6}, "2026-10-21"),
}
SLACK = 1.10
STAGES = ("StokesSetup", "StokesSolve")


def measure(size: int) -> tuple[dict, int, int, bool]:
    """Stage high-water in bytes, bytes per coupled vector, iterations and
    whether the compiled kernel ran."""
    obs.reset()
    obs.enable(memory=True)
    try:
        pb = sinker_stokes_problem(SinkerConfig(
            shape=(size,) * 3, n_spheres=4, radius=0.12, delta_eta=100.0,
            seed=5))
        sol = solve_stokes(pb, StokesConfig(
            operator="tensor_compiled", mg_levels=3, coarse_solver="sa",
            workers=1))
        peaks = {name: obs.REGISTRY.stages[name].mem_peak_bytes
                 for name in STAGES}
        compiled = bool(getattr(sol.extra["operator"].A_op, "compiled",
                                False))
    finally:
        obs.disable()
        obs.reset()
    if not sol.converged:
        raise SystemExit(f"FAIL: the {size}^3 solve did not converge "
                         f"({sol.reason.name})")
    return peaks, 8 * pb.ndof, sol.iterations, compiled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=12,
                    help="elements per direction (default 12)")
    args = ap.parse_args(argv)
    peaks, vec, its, compiled = measure(args.size)
    for name, peak in peaks.items():
        print(f"{name:12s} high-water {peak / 2**20:8.1f} MB = "
              f"{peak / vec:6.1f} coupled vectors")
    kernel = "compiled" if compiled else "NumPy fallback"
    print(f"{args.size}^3, {kernel} kernel: {its} its, one coupled vector "
          f"{vec / 2**20:.2f} MB")
    if (args.size, compiled) not in RECORDED_MB:
        print("no recorded high-water for this size and kernel; not gated")
        return 0
    recorded, date = RECORDED_MB[args.size, compiled]
    failed = False
    for name in STAGES:
        high, bound = peaks[name] / 2**20, SLACK * recorded[name]
        print(f"{name:12s} recorded {recorded[name]:.1f} MB on {date}; "
              f"bound {bound:.1f} MB")
        if high > bound:
            print(f"FAIL: {name} high-water {high:.1f} MB exceeds "
                  f"{bound:.1f} MB")
            failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
