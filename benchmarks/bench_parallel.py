"""Shared-memory executor: serial vs threaded compiled-apply throughput.

Benchmarks the default fine-level operator (``tensor_compiled``, the
GIL-releasing C kernel) with one worker against the
:mod:`repro.parallel.executor` thread pool, checks the threaded result is
bit-identical to the ``workers=1`` one, and attaches a
``parallel_speedup`` monitor so the exported ``BENCH_parallel.json``
(schema ``repro.obs/1``) carries the serial-vs-parallel GF/s comparison
alongside the engine's own ``ParExec*`` events.

On a single-core container the parallel row mostly measures dispatch
overhead; the CI speedup gate lives in ``check_parallel_speedup.py``.
"""

import os
import time

import numpy as np
import pytest

from repro import obs
from repro.fem import GaussQuadrature, StructuredMesh
from repro.matfree import make_operator
from repro.parallel import thread_pool, use_executor
from repro.perf import OPERATOR_COUNTS

from conftest import print_table, fmt, once

SHAPE = (12, 12, 12)
KIND = "tensor_compiled"
WORKERS = max(2, min(4, os.cpu_count() or 1))


def _flops_per_apply(mesh) -> float:
    return OPERATOR_COUNTS[KIND].flops * mesh.nel


@pytest.fixture(scope="module")
def setting():
    rng = np.random.default_rng(0)
    mesh = StructuredMesh(SHAPE, order=2)
    quad = GaussQuadrature.hex(3)
    eta = np.exp(rng.normal(size=(mesh.nel, quad.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    with use_executor(None):
        serial_op = make_operator(KIND, mesh, eta, quad=quad)
    with use_executor(thread_pool(WORKERS)):
        par_op = make_operator(KIND, mesh, eta, quad=quad)
    return mesh, u, serial_op, par_op


def _time_apply(op, u, rounds=3) -> float:
    op.apply(u)  # warm caches / start the pool outside the timed region
    best = np.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        op.apply(u)
        best = min(best, time.perf_counter() - t0)
    return best


def test_serial_apply(benchmark, setting):
    mesh, u, serial_op, _ = setting
    y = benchmark(serial_op.apply, u)
    assert np.isfinite(y).all()
    benchmark.extra_info.update(workers=1, nel=mesh.nel)


def test_parallel_apply(benchmark, setting):
    mesh, u, serial_op, par_op = setting
    par_op.apply(u)  # start the pool before timing
    y = benchmark(par_op.apply, u)
    # one answer, however many workers
    assert np.array_equal(y, serial_op.apply(u))
    benchmark.extra_info.update(
        workers=WORKERS, nel=mesh.nel, **par_op.engine.stats.as_dict(),
    )


def test_summary_table(benchmark, setting):
    """Serial-vs-parallel GF/s table, attached to the exported JSON."""
    mesh, u, serial_op, par_op = setting
    once(benchmark, lambda: None)
    flops = _flops_per_apply(mesh)
    t_serial = _time_apply(serial_op, u)
    t_par = _time_apply(par_op, u)
    summary = {
        "nel": mesh.nel,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "flops_per_apply": flops,
        "serial_seconds": t_serial,
        "serial_gflops": flops / t_serial / 1e9,
        "thread_seconds": t_par,
        "thread_gflops": flops / t_par / 1e9,
        "thread_speedup": t_serial / t_par,
    }
    obs.attach_monitor("parallel_speedup", summary)
    print_table(
        f"{KIND} apply, {mesh.nel} elements",
        ["engine", "workers", "seconds", "GF/s"],
        [["serial", 1, fmt(t_serial), fmt(flops / t_serial / 1e9)],
         ["thread", WORKERS, fmt(t_par), fmt(flops / t_par / 1e9)]],
    )
    assert summary["serial_gflops"] > 0
