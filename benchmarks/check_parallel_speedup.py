#!/usr/bin/env python3
"""Smoke-check the threaded compiled apply's speedup over serial.

Times the default fine-level operator (``tensor_compiled``) with one
worker and through the :class:`repro.parallel.executor.ParallelExecutor`
thread pool, interleaved over ``--rounds`` (per-round minimum of each, so
one polluted round cannot fail the gate), verifies the parallel result is
bit-identical to the ``workers=1`` operator's, and fails when
``parallel < --min-speedup x serial``.

The gate is core-count-aware: a genuine speedup needs real cores, so on a
machine with fewer cores than ``--workers`` the default expectation is
only "not much slower than serial" (dispatch overhead stays bounded) --
CI machines with real parallelism pass ``--min-speedup 1.5`` explicitly.
Without a C toolchain the operator is the serial NumPy fallback and the
ratio measures only that nothing got slower.

Run:  python benchmarks/check_parallel_speedup.py --size 16 --workers 2
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.fem import GaussQuadrature, StructuredMesh
from repro.matfree import make_operator
from repro.parallel import thread_pool, use_executor
from repro.perf import OPERATOR_COUNTS

KIND = "tensor_compiled"


def build(size: int, workers: int):
    rng = np.random.default_rng(0)
    mesh = StructuredMesh((size, size, size), order=2)
    quad = GaussQuadrature.hex(3)
    eta = np.exp(rng.normal(size=(mesh.nel, quad.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    with use_executor(None):
        serial_op = make_operator(KIND, mesh, eta, quad=quad)
    with use_executor(thread_pool(workers)):
        par_op = make_operator(KIND, mesh, eta, quad=quad)
    return mesh, u, serial_op, par_op


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=16,
                    help="elements per dimension (default 16)")
    ap.add_argument("--workers", type=int, default=2)
    # a 16^3 apply is ~2 ms, so 20 rounds cost little and give each
    # side's minimum a chance to escape thread wake-up latency
    ap.add_argument("--rounds", type=int, default=20,
                    help="interleaved serial/parallel timing rounds")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="fail below this serial/parallel ratio; default "
                         "0.95 (overhead bound) on machines with fewer "
                         "cores than --workers, 1.5 otherwise")
    args = ap.parse_args(argv)

    cores = os.cpu_count() or 1
    if args.min_speedup is None:
        args.min_speedup = 1.5 if cores >= args.workers else 0.95

    mesh, u, serial_op, par_op = build(args.size, args.workers)
    path = f"compiled, {par_op.isa}" if par_op.compiled else "NumPy fallback"
    print(f"{KIND} apply ({path}), {mesh.nel} elements, {args.workers} "
          f"thread workers on {cores} core(s)")

    # correctness first: one answer, however many workers
    if not np.array_equal(par_op.apply(u), serial_op.apply(u)):
        print("FAIL: parallel apply is not bit-identical to workers=1")
        return 1

    t_ser = np.inf
    t_par = np.inf
    for _ in range(args.rounds):
        t0 = time.perf_counter()
        serial_op.apply(u)
        t_ser = min(t_ser, time.perf_counter() - t0)
        t0 = time.perf_counter()
        par_op.apply(u)
        t_par = min(t_par, time.perf_counter() - t0)

    flops = OPERATOR_COUNTS[KIND].flops * mesh.nel
    speedup = t_ser / t_par
    print(f"  serial  : {t_ser * 1e3:8.2f} ms  {flops / t_ser / 1e9:6.2f} GF/s")
    print(f"  parallel: {t_par * 1e3:8.2f} ms  {flops / t_par / 1e9:6.2f} GF/s")
    print(f"  speedup : {speedup:.2f}x  (required: {args.min_speedup:.2f}x)")

    if speedup < args.min_speedup:
        print("FAIL: executor below the required speedup")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
