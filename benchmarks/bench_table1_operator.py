"""Table I: cost of applying the Q2 viscous operator, five ways.

Regenerates, per operator kind (Assembled / Matrix-free / Tensor /
Tensor-C / the compiled sum-factorized SIMD Tensor kernel):

* the paper's exact per-element flop and byte counts (analytic,
  SS III-D -- asserted, not just printed);
* the Edison-model time and GF/s for the paper's setting (64^3 elements,
  8 nodes);
* the *measured* NumPy/C wall time of our kernels at bench scale, whose
  ordering must reproduce the paper's: tensor < mf on flops, and the
  assembled SpMV throughput bound by memory bandwidth.

The scaling section runs the compiled backend against assembled SpMV at
16^3 (and 32^3 with ``$REPRO_BENCH_LARGE=1``) -- sizes the einsum kernels
could not reach -- and gauges the matrix-free/assembled GF/s ratio the
paper's Table I headlines (~10x at scale).  The ratios and GF/s are
published in the BENCH JSON as ``monitors.table1`` (keys
``ratio_mf_asmb_einsum_8``, ``ratio_mf_asmb_<kind>_<n>``,
``gflops_<kind>_<n>``, ``gflops_asmb_<n>``) and gated here, against
kernels measured on the same host: above the 8^3 einsum ratio everywhere
and above ``RATIO_FLOOR_16`` on AVX2/AVX-512 hosts.
"""

import os
import time

import numpy as np
import pytest

from repro import obs
from repro.fem import GaussQuadrature, StructuredMesh
from repro.matfree import make_operator
from repro.perf import OPERATOR_COUNTS, table1_model

from conftest import print_table, fmt, once

SHAPE = (8, 8, 8)
KINDS = ["asmb", "mf", "tensor", "tensor_c", "tensor_compiled"]

#: large-size sweep: einsum kernels are excluded (the per-chunk temporaries
#: are exactly what caps them at 8^3); 32^3 is opt-in for timed CI legs
LARGE = [(16, ["asmb", "tensor_c", "tensor_compiled"])]
if os.environ.get("REPRO_BENCH_LARGE"):
    LARGE.append((32, ["asmb", "tensor_compiled"]))

#: paper-model column for kinds without their own Table I row
_MODEL_ALIAS = {"tensor_compiled": "tensor_c"}

#: asserted floor of the 16^3 compiled mf/assembled GF/s ratio on a host
#: whose CPU runs a wide (AVX2 / AVX-512) variant.  Measured 13.9-14.6 on
#: the reference box (AVX-512: ~22 vs ~1.6 GF/s); the old dense C kernel
#: reached 6.08.  The 2-lane baseline variant is only required to beat the
#: einsum backend.
RATIO_FLOOR_16 = 8.0


def _measured_gflops(op, u, nel, kind, reps=3) -> tuple[float, float]:
    """(seconds, implementation-GF/s) of one apply, best-of-``reps``."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        op.apply(u)
        best = min(best, time.perf_counter() - t0)
    return best, OPERATOR_COUNTS[kind].flops * nel / best / 1e9


@pytest.fixture(scope="module")
def setting():
    rng = np.random.default_rng(0)
    mesh = StructuredMesh(SHAPE, order=2)
    quad = GaussQuadrature.hex(3)
    eta = np.exp(rng.normal(size=(mesh.nel, quad.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    ops = {k: make_operator(k, mesh, eta, quad=quad) for k in KINDS}
    return mesh, u, ops


@pytest.mark.parametrize("kind", KINDS)
def test_operator_apply(benchmark, setting, kind):
    mesh, u, ops = setting
    op = ops[kind]
    y = benchmark(op.apply, u)
    assert np.isfinite(y).all()
    c = OPERATOR_COUNTS[kind]
    benchmark.extra_info.update(
        flops_per_element=c.flops,
        bytes_perfect=c.bytes_perfect_cache,
        bytes_pessimal=c.bytes_pessimal_cache,
        intensity_flops_per_byte=round(c.intensity_perfect, 2),
        nel=mesh.nel,
    )
    if kind == "tensor_compiled":
        benchmark.extra_info.update(
            compiled=op.compiled, fallback_reason=op.fallback_reason,
            isa=op.isa,
        )


def test_print_table1(benchmark, setting):
    """Assemble the full Table I: paper counts + model + measurement."""
    once(benchmark, lambda: None)

    mesh, u, ops = setting
    rows = []
    measured = {}
    for kind in KINDS:
        measured[kind], _ = _measured_gflops(ops[kind], u, mesh.nel, kind)
    model = {r["operator"]: r for r in table1_model()}
    for kind in KINDS:
        c = OPERATOR_COUNTS[kind]
        m = model[_MODEL_ALIAS.get(kind, kind)]
        rows.append([
            kind,
            c.flops,
            c.bytes_pessimal_cache,
            c.bytes_perfect_cache,
            fmt(m["time_ms"]),
            fmt(m["gflops"]),
            fmt(measured[kind] * 1e3),
            fmt(c.flops * mesh.nel / measured[kind] / 1e9),
        ])
    print_table(
        "Table I: Q2 viscous operator application (per element)",
        ["op", "flops", "B(pessimal)", "B(perfect)",
         "model ms (64^3, 8 Edison nodes)", "model GF/s",
         "measured ms (8^3)", "measured GF/s"],
        rows,
    )
    # the paper's ordering must hold in the model
    assert model["tensor"]["time_ms"] < model["mf"]["time_ms"] < model["asmb"]["time_ms"]


def test_scaling_ratio(benchmark, setting):
    """16^3(-32^3) sweep: the compiled kernel must widen the matrix-free /
    assembled GF/s ratio beyond what the 8^3 einsum backend achieves --
    the acceptance trend toward the paper's ~10x."""
    once(benchmark, lambda: None)

    mesh8, u8, ops8 = setting
    _, gf_asmb8 = _measured_gflops(ops8["asmb"], u8, mesh8.nel, "asmb")
    _, gf_einsum8 = _measured_gflops(ops8["tensor_c"], u8, mesh8.nel, "tensor_c")
    ratio_einsum_8 = gf_einsum8 / gf_asmb8
    published = {"ratio_mf_asmb_einsum_8": ratio_einsum_8}

    rows = [["8^3 (einsum tensor_c)", mesh8.nel, fmt(gf_einsum8),
             fmt(gf_asmb8), fmt(ratio_einsum_8)]]
    ratios = {}
    rng = np.random.default_rng(1)
    for n, kinds in LARGE:
        mesh = StructuredMesh((n, n, n), order=2)
        quad = GaussQuadrature.hex(3)
        eta = np.exp(rng.normal(size=(mesh.nel, quad.npoints)))
        u = rng.standard_normal(3 * mesh.nnodes)
        gf = {}
        for kind in kinds:
            op = make_operator(kind, mesh, eta, quad=quad)
            _, gf[kind] = _measured_gflops(op, u, mesh.nel, kind)
            del op
        for kind in kinds:
            if kind == "asmb":
                continue
            ratio = gf[kind] / gf["asmb"]
            ratios[(n, kind)] = ratio
            published[f"ratio_mf_asmb_{kind}_{n}"] = ratio
            published[f"gflops_{kind}_{n}"] = gf[kind]
            rows.append([f"{n}^3 ({kind})", mesh.nel, fmt(gf[kind]),
                         fmt(gf["asmb"]), fmt(ratio)])
        published[f"gflops_asmb_{n}"] = gf["asmb"]
    obs.attach_monitor("table1", published)
    print_table(
        "Matrix-free vs assembled GF/s (implementation counts)",
        ["setting", "nel", "mf GF/s", "asmb GF/s", "mf/asmb"],
        rows,
    )
    benchmark.extra_info.update(
        ratio_einsum_8=ratio_einsum_8,
        **{f"ratio_{k}_{n}": r for (n, k), r in ratios.items()},
    )
    # acceptance: the compiled backend at 16^3 beats the einsum backend's
    # ratio at 8^3 (toolchain-less fallback runs the same NumPy path, so
    # only gate when the kernel actually compiled)
    probe = make_operator("tensor_compiled", mesh8, np.ones((mesh8.nel, 27)))
    if probe.compiled:
        assert ratios[(16, "tensor_compiled")] > ratio_einsum_8
        if probe.isa != "base":
            assert ratios[(16, "tensor_compiled")] > RATIO_FLOOR_16
