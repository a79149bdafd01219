#!/usr/bin/env python3
"""Matrix-free operator trade-offs (paper SS III-D / Table I).

Applies the Q2 viscous operator with all five implementations --
assembled CSR, reference matrix-free, tensor-product, stored coefficient
tensor, and the compiled sum-factorized SIMD kernel -- and prints the
per-element flop/byte analysis next to measured timings and Edison
roofline predictions.

Run:  python examples/operator_performance.py [n]
"""

import sys
import time

import numpy as np

from repro import GaussQuadrature, StructuredMesh, make_operator
from repro.perf import EDISON, OPERATOR_COUNTS, modeled_apply_time


def main(n: int = 10):
    rng = np.random.default_rng(0)
    mesh = StructuredMesh((n, n, n), order=2)
    quad = GaussQuadrature.hex(3)
    eta = np.exp(rng.normal(size=(mesh.nel, quad.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    print(f"mesh {n}^3 = {mesh.nel} elements, {3 * mesh.nnodes} velocity dofs\n")
    header = (f"{'operator':>15} {'flops/el':>9} {'B/el':>7} {'AI f/B':>7} "
              f"{'meas ms':>8} {'meas GF/s':>10} {'Edison ms (8 nodes)':>20}")
    print(header)
    print("-" * len(header))
    ys = {}
    for kind in ("asmb", "mf", "tensor", "tensor_c", "tensor_compiled"):
        op = make_operator(kind, mesh, eta, quad=quad)
        ys[kind] = op.apply(u)  # warm-up + correctness sample
        reps = 5
        t0 = time.perf_counter()
        for _ in range(reps):
            op.apply(u)
        dt = (time.perf_counter() - t0) / reps
        c = OPERATOR_COUNTS[kind]
        gf = c.flops * mesh.nel / dt / 1e9
        model_ms = modeled_apply_time(kind, 64**3,
                                      8 * EDISON.cores_per_node) * 1e3
        print(f"{kind:>15} {c.flops:>9} {c.bytes_perfect_cache:>7} "
              f"{c.intensity_perfect:>7.1f} {dt * 1e3:>8.2f} {gf:>10.2f} "
              f"{model_ms:>20.2f}")
    ref = ys["asmb"]
    err = max(np.abs(ys[k] - ref).max() for k in ys)
    print(f"\nmax deviation between implementations: {err:.2e} "
          "(same discrete operator)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
