"""Table II: algorithmic scalability of the Stokes solve.

The paper varies mesh (64^3 / 96^3 / 192^3) and core count (192..12288) and
reports Krylov iterations, coarse-solve setup/apply time, and total Stokes
solve time for the assembled / matrix-free / tensor fine-level kernels.

Scaled reproduction: meshes 4^3 / 8^3 (3-level GMG, SA coarse solve,
V(2,2), GCR to 1e-5 unpreconditioned) run sequentially; measured quantities
are bit-faithful iteration counts and our NumPy wall times, plus the
Edison-model solve times at the paper's core counts so the at-scale *shape*
(Tens < MF < Asmb, mild iteration growth with refinement, cheap coarse
setup) is visible.
"""

import time

import numpy as np
import pytest

from repro.parallel import BlockDecomposition, halo_exchange_plan
from repro.perf import modeled_solve_time
from repro.sim.sinker import SinkerConfig, sinker_stokes_problem
from repro.stokes import StokesConfig, solve_stokes

from conftest import print_table, fmt, once

GRIDS = [(4, 4, 4), (8, 8, 8)]
KINDS = ["asmb", "mf", "tensor"]
#: virtual core counts mirroring the paper's 192 / 1536 columns
MODEL_CORES = [192, 1536]


def run_case(shape, kind):
    cfg = SinkerConfig(shape=shape, n_spheres=8, radius=0.1, delta_eta=1e2)
    pb = sinker_stokes_problem(cfg)
    levels = 3 if shape[0] % 4 == 0 and shape[0] >= 8 else 2
    t0 = time.perf_counter()
    sol = solve_stokes(pb, StokesConfig(
        mg_levels=levels, coarse_solver="sa", operator=kind,
        rtol=1e-5, maxiter=600, restart=200,
    ))
    wall = time.perf_counter() - t0
    return pb, sol, wall


@pytest.fixture(scope="module")
def sweep():
    out = {}
    for shape in GRIDS:
        for kind in KINDS:
            out[(shape, kind)] = run_case(shape, kind)
    return out


def test_table2_rows(benchmark, sweep):
    once(benchmark, lambda: None)
    rows = []
    for shape in GRIDS:
        for kind in KINDS:
            pb, sol, wall = sweep[(shape, kind)]
            nel = pb.mesh.nel
            stats = sol.mg_stats
            model = {
                c: modeled_solve_time(kind, nel * (64**3 // 4**3), c,
                                      sol.iterations)
                for c in MODEL_CORES
            }
            rows.append([
                f"{shape[0]}^3", kind, sol.iterations, sol.converged,
                fmt(stats.coarse_setup_seconds),
                fmt(sol.setup_seconds), fmt(sol.solve_seconds),
                fmt(model[192]), fmt(model[1536]),
            ])
    print_table(
        "Table II: iterations and times (measured numpy + Edison model)",
        ["grid", "SpMV", "its", "conv", "coarse setup s", "PC setup s",
         "solve s", "model@192c s", "model@1536c s"],
        rows,
    )


def test_table2_iteration_growth_is_mild(benchmark, sweep):
    """Refining 4^3 -> 8^3 with a fixed number of levels grows iterations
    only mildly (the paper sees 112 -> 141 over 64^3 -> 192^3)."""
    once(benchmark, lambda: None)
    its = {s: sweep[(s, "tensor")][1].iterations for s in GRIDS}
    assert its[(8, 8, 8)] <= 3.0 * its[(4, 4, 4)]
    for s in GRIDS:
        assert sweep[(s, "tensor")][1].converged


def test_table2_iterations_independent_of_kernel(benchmark, sweep):
    """Asmb/MF/Tensor are the same operator: iteration counts agree."""
    once(benchmark, lambda: None)
    for shape in GRIDS:
        its = [sweep[(shape, k)][1].iterations for k in KINDS]
        assert max(its) - min(its) <= 2, (shape, its)


def test_table2_coarse_setup_is_small(benchmark, sweep):
    """The SA coarse-grid setup is a small fraction of the solve (the
    paper: <5 s on 12k cores vs minutes of solve)."""
    once(benchmark, lambda: None)
    pb, sol, wall = sweep[((8, 8, 8), "tensor")]
    assert sol.mg_stats.coarse_setup_seconds < 0.5 * sol.solve_seconds


def test_table2_modeled_tensor_fastest_at_scale(benchmark, sweep):
    once(benchmark, lambda: None)
    for shape in GRIDS:
        t = {}
        for kind in KINDS:
            pb, sol, _ = sweep[(shape, kind)]
            t[kind] = modeled_solve_time(kind, 64**3, 1536, sol.iterations)
        assert t["tensor"] < t["mf"] < t["asmb"]


def test_table2_halo_model(benchmark):
    """Communication accounting used by the model: halo bytes per apply for
    the paper's decompositions."""
    once(benchmark, lambda: None)
    from repro.fem import StructuredMesh

    mesh = StructuredMesh((8, 8, 8), order=2)
    rows = []
    for ranks in [(2, 2, 2), (4, 2, 2), (4, 4, 2)]:
        d = BlockDecomposition(mesh, ranks)
        plan = halo_exchange_plan(d)
        rows.append([str(ranks), d.nranks, plan.messages, plan.bytes_total,
                     plan.max_bytes_per_rank])
    print_table("halo-exchange plan (one ghost update, 3 dofs/node)",
                ["rank grid", "ranks", "messages", "total bytes",
                 "max bytes/rank"], rows)
