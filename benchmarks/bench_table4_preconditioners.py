"""Table IV: matrix-free GMG vs assembled geometric and algebraic MG.

Reproduces the preconditioner shoot-out of SS IV-C on the multi-sinker
problem.  Configurations (names as in the paper):

* ``GMG-mf``   -- our default: tensor matrix-free fine level, Galerkin
  coarse levels formed cell by cell from the fine coefficient, SA coarse
  solve;
* ``GMG-i``    -- assembled fine level, every coarse level rediscretized
  and assembled on its own mesh;
* ``GMG-ii``   -- assembled fine level with *Galerkin* coarse operators on
  all levels (lowest iterations, highest setup cost in the paper): the
  default hierarchy with ``operator="asmb"``, so its coarse levels are
  GMG-mf's;
* ``SA-i``     -- pure smoothed aggregation on the assembled fine matrix
  (GAMG configuration: theta = 0.01, rigid-body modes);
* ``SAML-i``   -- SA with an ML-style 0.01 drop tolerance and max coarse
  size 100;
* ``SAML-ii``  -- SAML-i with the stronger smoother (FGMRES(2) +
  block-Jacobi ILU(0)) and an inexact FGMRES coarse solve.

Reported per configuration: Krylov iterations, PC setup time, PC apply
time, total solve time.  The paper's shape: GMG-ii needs the fewest
iterations, GMG-mf has the best time-to-solution, and the purely algebraic
configurations are substantially slower (3.3-12.4x on Edison).
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem import GaussQuadrature, assembly
from repro.mg import GMGConfig, SAConfig, build_gmg, rigid_body_modes, smoothed_aggregation
from repro.mg.coefficients import coefficient_hierarchy
from repro.sim.sinker import SinkerConfig, free_slip_bc, sinker_stokes_problem
from repro.solvers import gcr
from repro.solvers.krylov import fgmres
from repro.solvers.relaxation import JacobiPreconditioner
from repro.stokes import FieldSplitPreconditioner, StokesOperator

from conftest import print_table, fmt, once

SHAPE = (8, 8, 8)
QUAD = GaussQuadrature.hex(3)
RTOL = 1e-5


class KrylovSmoother:
    """FGMRES(2) preconditioned with block-Jacobi ILU(0) (SAML-ii)."""

    def __init__(self, apply_k, diag, A):
        from repro.solvers.ilu import ILU0

        self.apply = apply_k
        # one ILU(0) per (virtual) subdomain block; a single block here
        self.M = ILU0(A)

    def smooth(self, b, x):
        return fgmres(self.apply, b, x0=x, M=self.M, rtol=1e-14, maxiter=2).x


def build_configuration(name, pb):
    """Return (velocity_pc, setup_seconds, operator_kind) for one row."""
    mesh = pb.mesh
    t0 = time.perf_counter()
    if name in ("GMG-mf", "GMG-i", "GMG-ii"):
        meshes = mesh.hierarchy(3)[::-1]
        cfg = {
            "GMG-mf": GMGConfig(mg_levels=3, operator="tensor",
                                galerkin=True, coarse_solver="sa"),
            "GMG-i": GMGConfig(mg_levels=3, operator="asmb",
                               galerkin=False, coarse_solver="sa"),
            "GMG-ii": GMGConfig(mg_levels=3, operator="asmb",
                                galerkin=True, coarse_solver="sa"),
        }[name]
        # Galerkin levels read only the fine coefficient
        etas = ([pb.eta_q] if cfg.galerkin
                else coefficient_hierarchy(meshes, pb.eta_q, QUAD))
        pc, _ = build_gmg(meshes, etas, free_slip_bc, cfg)
        kind = cfg.operator
    else:
        A = assembly.assemble_viscous(mesh, pb.eta_q, QUAD)
        A_bc, _ = pb.bc.eliminate(A, np.zeros(3 * mesh.nnodes))
        B = rigid_body_modes(mesh.coords, pb.bc.mask)
        sa_cfg = {
            "SA-i": SAConfig(max_coarse=400, coarse_solver="bjacobi-lu"),
            "SAML-i": SAConfig(drop_tol=0.01, max_coarse=100,
                               coarse_solver="bjacobi-lu"),
            "SAML-ii": SAConfig(drop_tol=0.01, max_coarse=100,
                                coarse_solver="fgmres-ilu",
                                smoother_factory=KrylovSmoother),
        }[name]
        pc = smoothed_aggregation(A_bc, B, sa_cfg)
        kind = "asmb"
    return pc, time.perf_counter() - t0, kind


def run_configuration(name, pb):
    pc_vel, setup_s, kind = build_configuration(name, pb)
    op = StokesOperator(pb, kind=kind)
    pc = FieldSplitPreconditioner(op, pc_vel)
    pc_time = [0.0]
    matmult_time = [0.0]

    def timed_pc(r):
        t0 = time.perf_counter()
        out = pc(r)
        pc_time[0] += time.perf_counter() - t0
        return out

    def timed_op(x):
        t0 = time.perf_counter()
        out = op.apply(x)
        matmult_time[0] += time.perf_counter() - t0
        return out

    t0 = time.perf_counter()
    res = gcr(timed_op, op.rhs(), M=timed_pc, rtol=RTOL, maxiter=600,
              restart=200)
    solve_s = time.perf_counter() - t0
    return {
        "name": name, "its": res.iterations, "converged": res.converged,
        "matmult_s": matmult_time[0], "pc_setup_s": setup_s,
        "pc_apply_s": pc_time[0], "solve_s": solve_s,
    }


CONFIGS = ["GMG-mf", "GMG-i", "GMG-ii", "SA-i", "SAML-i", "SAML-ii"]


@pytest.fixture(scope="module")
def shootout():
    cfg = SinkerConfig(shape=SHAPE, n_spheres=8, radius=0.1, delta_eta=1e2)
    pb = sinker_stokes_problem(cfg)
    return {name: run_configuration(name, pb) for name in CONFIGS}


def test_table4_rows(benchmark, shootout):
    once(benchmark, lambda: None)
    rows = [
        [r["name"], r["its"], r["converged"], fmt(r["matmult_s"]),
         fmt(r["pc_setup_s"]), fmt(r["pc_apply_s"]), fmt(r["solve_s"])]
        for r in shootout.values()
    ]
    print_table(
        "Table IV: preconditioner comparison (multi-sinker, 8^3, 1e-5)",
        ["config", "its", "conv", "MatMult s", "PC setup s", "PC apply s",
         "Solve s"],
        rows,
    )


def test_table4_all_converge(benchmark, shootout):
    once(benchmark, lambda: None)
    for name, r in shootout.items():
        assert r["converged"], name


def test_table4_geometric_beats_algebraic_iterations(benchmark, shootout):
    """Geometric MG configurations take fewer iterations than the purely
    algebraic ones (SS IV-C)."""
    once(benchmark, lambda: None)
    gmg_best = min(shootout[n]["its"] for n in ("GMG-mf", "GMG-i", "GMG-ii"))
    sa_best = min(shootout[n]["its"] for n in ("SA-i", "SAML-i", "SAML-ii"))
    assert gmg_best <= sa_best


def test_table4_gmg_mf_fast_time_to_solution_model(benchmark, shootout):
    """GMG-mf's time-to-solution beats the algebraic configurations by
    3.3x-12.4x in the paper.  The measured NumPy wall times *invert* this
    for the fine-level apply (scipy's compiled CSR SpMV vs our interpreted
    tensor kernel -- see EXPERIMENTS.md), so the at-scale claim is checked
    through the Edison model with the *measured* iteration counts: modeled
    solve time = its x fine applies x per-apply roofline cost."""
    once(benchmark, lambda: None)
    from repro.perf import modeled_solve_time

    nel = SHAPE[0] ** 3
    t_mf = modeled_solve_time("tensor", nel, 24, shootout["GMG-mf"]["its"])
    for name in ("SA-i", "SAML-i", "SAML-ii"):
        t_alg = modeled_solve_time("asmb", nel, 24, shootout[name]["its"])
        speedup = t_alg / t_mf
        assert speedup > 2.0, (name, speedup)


def test_table4_algebraic_setup_dominates(benchmark, shootout):
    """Even in measured NumPy time, the algebraic configurations pay far
    more setup than the matrix-free geometric hierarchy (the paper's other
    Table IV observation)."""
    once(benchmark, lambda: None)
    setup_mf = shootout["GMG-mf"]["pc_setup_s"]
    for name in ("SA-i", "SAML-i", "SAML-ii"):
        assert shootout[name]["pc_setup_s"] > setup_mf, name


def test_table4_gmg_ii_lowest_iterations(benchmark, shootout):
    """Full Galerkin coarsening gives the lowest iteration count among the
    geometric configurations (paper: 23% fewer than GMG-mf)."""
    once(benchmark, lambda: None)
    assert shootout["GMG-ii"]["its"] <= shootout["GMG-mf"]["its"]
    assert shootout["GMG-ii"]["its"] <= shootout["GMG-i"]["its"] + 1
