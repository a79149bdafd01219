"""Ablations A1-A5: the design choices SS III/V call out, isolated.

A1  Galerkin vs rediscretized coarse operators (SS III-C: "Galerkin
    coarsening is more robust but is expensive to compute").
A2  Smoother strength: V(2,2) vs V(3,3) Chebyshev degree.
A3  Outer Krylov method: GCR vs FGMRES (SS III-A: both flexible and both
    minimize the residual over the same space, so their counts agree), on
    the A-series problem and on the default pipeline over a contrast column.
A4  Fieldsplit vs Schur complement reduction under coefficient contrast
    (SS IV-A: SCR trades inner solves for normality).
A5  Coarse-grid solver: ASM vs smoothed aggregation as the (virtual)
    subdomain count grows (SS V: ASM efficient below ~2k ranks, SA needed
    beyond).
A6  Chebyshev vs multiplicative (SSOR) smoothing (SS III-C: polynomial
    smoothers match multiplicative efficiency without needing matrix rows
    -- the prerequisite for the whole matrix-free design).
A7  V-cycle vs W-cycle (the paper fixes V; W buys little here for 2x the
    coarse work).

Each ablation's configuration sweep runs as a battery of supervised jobs
through :func:`repro.serve.run_battery` (inline isolation: same process,
submit order, serial) -- the ensemble service's accounting replaces the
hand-rolled loops while the obs trace, and therefore the emitted
``BENCH_ablations.json`` document, stays byte-for-byte what the loops
produced.
"""

import numpy as np
import pytest

from repro.fem import GaussQuadrature, assembly
from repro.resilience.reasons import ConvergedReason
from repro.serve import JobSpec, JobState, ServeConfig, run_battery
from repro.sim.sinker import SinkerConfig, free_slip_bc, sinker_stokes_problem
from repro.solvers import AdditiveSchwarz, cg, gcr
from repro.stokes import StokesConfig, solve_stokes

from conftest import print_table, fmt, once

QUAD = GaussQuadrature.hex(3)


def sinker(delta_eta=1e2, shape=(8, 8, 8)):
    return sinker_stokes_problem(
        SinkerConfig(shape=shape, n_spheres=8, radius=0.1, delta_eta=delta_eta)
    )


def sweep(cases):
    """Run ``[(name, thunk), ...]`` as an inline battery; ``{name: value}``.

    Inline isolation executes the thunks synchronously in submit order in
    this process, so solver events accumulate into the module's obs trace
    exactly as the old ``for`` loops did.  ``max_retries=0`` and the
    re-raise keep pytest semantics: a failing configuration fails the
    bench with its original exception, not a report summary.
    """
    specs = [JobSpec(name=name, fn=fn, use_cache=False)
             for name, fn in cases]
    report = run_battery(
        specs,
        ServeConfig(isolation="inline", max_jobs=1, max_retries=0),
    )
    out = {}
    for name, _fn in cases:
        record = report.record(name)
        if record.state is not JobState.DONE:
            if record.exception is not None:
                raise record.exception
            raise RuntimeError(
                f"bench job {name!r} ended {record.state.value}"
            )
        out[name] = record.value
    return out


# --------------------------------------------------------------------- A1 #
@pytest.fixture(scope="module")
def a1_results():
    def case(galerkin):
        def run():
            pb = sinker()
            return solve_stokes(pb, StokesConfig(
                mg_levels=3, coarse_solver="sa", galerkin=galerkin,
                rtol=1e-5, maxiter=600, restart=200,
            ))
        return run

    vals = sweep([(f"a1-galerkin={g}", case(g)) for g in (True, False)])
    return {g: vals[f"a1-galerkin={g}"] for g in (True, False)}


def test_a1_galerkin_vs_rediscretized(benchmark, a1_results):
    once(benchmark, lambda: None)
    rows = []
    for galerkin, sol in a1_results.items():
        label = "Galerkin" if galerkin else "rediscretized"
        rows.append([label, sol.iterations, sol.converged,
                     fmt(sol.mg_stats.galerkin_seconds),
                     fmt(sol.mg_stats.assemble_seconds), fmt(sol.solve_seconds)])
    print_table("A1: coarsest-operator construction",
                ["coarse ops", "its", "conv", "RAP s", "assemble s",
                 "solve s"], rows)
    assert a1_results[True].converged and a1_results[False].converged
    # Galerkin must not need (significantly) more iterations
    assert a1_results[True].iterations <= a1_results[False].iterations + 5


# --------------------------------------------------------------------- A2 #
def test_a2_smoother_degree(benchmark):
    once(benchmark, lambda: None)

    def case(degree):
        def run():
            pb = sinker()
            return solve_stokes(pb, StokesConfig(
                mg_levels=2, coarse_solver="sa", smoother_degree=degree,
                rtol=1e-5, maxiter=800, restart=200,
            ))
        return run

    degrees = (1, 2, 3)
    vals = sweep([(f"a2-degree={d}", case(d)) for d in degrees])
    rows = []
    its = {}
    for degree in degrees:
        sol = vals[f"a2-degree={degree}"]
        its[degree] = sol.iterations
        rows.append([f"V({degree},{degree})", sol.iterations, sol.converged,
                     fmt(sol.solve_seconds)])
    print_table("A2: Chebyshev smoother degree", ["cycle", "its", "conv",
                                                  "solve s"], rows)
    assert its[3] <= its[2] <= its[1]


# --------------------------------------------------------------------- A3 #
def test_a3_outer_krylov(benchmark):
    once(benchmark, lambda: None)

    def case(outer):
        def run():
            pb = sinker()
            return solve_stokes(pb, StokesConfig(
                mg_levels=2, coarse_solver="sa", outer=outer,
                rtol=1e-5, maxiter=600, restart=200,
            ))
        return run

    def contrast_case(outer, delta_eta):
        # the default pipeline on the 8^3 analytic sinker
        def run():
            return solve_stokes(sinker(delta_eta=delta_eta), StokesConfig(
                outer=outer, maxiter=600))
        return run

    outers = ("gcr", "fgmres")
    contrasts = (1e1, 1e2, 1e3)
    vals = sweep([(f"a3-outer={o}", case(o)) for o in outers]
                 + [(f"a3-outer={o}-de={de:g}", contrast_case(o, de))
                    for de in contrasts for o in outers])
    rows = []
    its = {}
    for outer in outers:
        sol = vals[f"a3-outer={outer}"]
        its[outer] = sol.iterations
        rows.append([outer, sol.iterations, sol.converged,
                     fmt(sol.solve_seconds)])
    print_table("A3: outer flexible Krylov method",
                ["method", "its", "conv", "solve s"], rows)
    # both minimize the residual over the same space: the same iterates
    assert its["gcr"] == its["fgmres"]

    rows = []
    for de in contrasts:
        sols = {o: vals[f"a3-outer={o}-de={de:g}"] for o in outers}
        rows.append([f"{de:g}"] + [
            f"{sols[o].iterations} ({sols[o].extra['true_relres']:.2e})"
            for o in outers])
        assert sols["gcr"].iterations == sols["fgmres"].iterations
        for sol in sols.values():
            assert sol.reason == ConvergedReason.CONVERGED_RTOL
            assert sol.extra["true_relres"] <= 1e-5
    print_table("A3: its (true residual) on the 8^3 sinker, default "
                "pipeline", ["delta_eta", *outers], rows)


# --------------------------------------------------------------------- A4 #
def test_a4_fieldsplit_vs_scr(benchmark):
    once(benchmark, lambda: None)

    def case(contrast, scheme):
        def run():
            pb = sinker(delta_eta=contrast, shape=(4, 4, 4))
            return solve_stokes(pb, StokesConfig(
                mg_levels=2, coarse_solver="lu", scheme=scheme,
                rtol=1e-6, maxiter=800, restart=300,
            ))
        return run

    combos = [(contrast, scheme) for contrast in (1e1, 1e3)
              for scheme in ("fieldsplit", "scr")]
    vals = sweep([(f"a4-{scheme}@{contrast:g}", case(contrast, scheme))
                  for contrast, scheme in combos])
    rows = []
    data = {}
    for contrast, scheme in combos:
        sol = vals[f"a4-{scheme}@{contrast:g}"]
        data[(contrast, scheme)] = sol
        inner = sol.extra.get("scr")
        rows.append([
            fmt(contrast), scheme, sol.iterations, sol.converged,
            inner.total_inner if inner else "-", fmt(sol.solve_seconds),
        ])
    print_table("A4: full-space fieldsplit vs Schur complement reduction",
                ["contrast", "scheme", "outer its", "conv", "inner its",
                 "solve s"], rows)
    # SCR outer iterations barely move with contrast; fieldsplit's grow
    fs_growth = data[(1e3, "fieldsplit")].iterations / data[(1e1, "fieldsplit")].iterations
    scr_growth = data[(1e3, "scr")].iterations / max(data[(1e1, "scr")].iterations, 1)
    assert fs_growth > scr_growth
    for sol in data.values():
        assert sol.converged


# --------------------------------------------------------------------- A5 #
def test_a5_asm_vs_sa_coarse_solver(benchmark):
    """ASM degrades as subdomain count grows; SA stays flat (SS V)."""
    once(benchmark, lambda: None)
    from repro.fem import StructuredMesh
    from repro.mg.sa import SAConfig, rigid_body_modes, smoothed_aggregation

    mesh = StructuredMesh((6, 6, 6), order=2)
    rng = np.random.default_rng(0)
    eta = np.exp(rng.normal(size=(mesh.nel, QUAD.npoints)))
    A = assembly.assemble_viscous(mesh, eta, QUAD)
    bc = free_slip_bc(mesh)
    A_bc, _ = bc.eliminate(A, np.zeros(3 * mesh.nnodes))
    b = rng.standard_normal(3 * mesh.nnodes)
    b[bc.mask] = 0.0

    # restricted ASM is nonsymmetric, so the accelerator is (flexible) GCR;
    # overlap 1 keeps the subdomains from swallowing this small test mesh
    def asm_case(nsub):
        def run():
            M = AdditiveSchwarz(A_bc, nsub=nsub, overlap=1, subsolve="lu")
            return gcr(lambda v: A_bc @ v, b, M=M, rtol=1e-6, maxiter=400,
                       restart=100)
        return run

    def sa_case():
        B = rigid_body_modes(mesh.coords, bc.mask)
        sa = smoothed_aggregation(A_bc, B, SAConfig(max_coarse=400))
        return gcr(lambda v: A_bc @ v, b, M=sa, rtol=1e-6, maxiter=400,
                   restart=100)

    nsubs = (2, 8, 32)
    vals = sweep([(f"a5-asm-{n}", asm_case(n)) for n in nsubs]
                 + [("a5-sa", sa_case)])
    rows = []
    asm_its = {}
    for nsub in nsubs:
        res = vals[f"a5-asm-{nsub}"]
        asm_its[nsub] = res.iterations
        rows.append([f"ASM({nsub} subdomains, ovl 1)", res.iterations,
                     res.converged])
    res_sa = vals["a5-sa"]
    rows.append(["SA (GAMG)", res_sa.iterations, res_sa.converged])
    print_table("A5: coarse-solver preconditioner scalability",
                ["preconditioner", "GCR its", "conv"], rows)
    assert asm_its[32] > asm_its[8] > asm_its[2]  # ASM degrades
    assert res_sa.iterations <= asm_its[32]       # SA does not


# --------------------------------------------------------------------- A6 #
def test_a6_chebyshev_vs_multiplicative(benchmark):
    """Chebyshev(Jacobi) smoothing matches SSOR iteration counts on the
    viscous block (within 2x), while needing only operator applications."""
    once(benchmark, lambda: None)
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from repro.fem import StructuredMesh
    from repro.mg.cycles import MGHierarchy, MGLevel
    from repro.mg.transfer import vector_prolongation
    from repro.solvers import ChebyshevSmoother, SymmetricGaussSeidel

    mesh = StructuredMesh((6, 6, 6), order=2)
    rng = np.random.default_rng(0)
    eta = np.exp(rng.normal(size=(mesh.nel, QUAD.npoints)))
    A = assembly.assemble_viscous(mesh, eta, QUAD)
    bc = free_slip_bc(mesh)
    A_bc, _ = bc.eliminate(A, np.zeros(3 * mesh.nnodes))
    coarse_mesh = mesh.coarsen()
    P = vector_prolongation(mesh, coarse_mesh)
    cbc = free_slip_bc(coarse_mesh)
    Ac = (P.T @ A_bc @ P).tocsr()
    keep = sp.diags((~cbc.mask).astype(float))
    Ac = (keep @ Ac @ keep + sp.diags(cbc.mask.astype(float))).tocsr()
    lu = spla.splu(Ac.tocsc())
    b = rng.standard_normal(3 * mesh.nnodes)
    b[bc.mask] = 0.0
    import time

    smoothers = [
        ("Chebyshev(2)/Jacobi",
         ChebyshevSmoother(lambda v: A_bc @ v, A_bc.diagonal(), degree=2)),
        ("SSOR (multiplicative)", SymmetricGaussSeidel(A_bc)),
    ]

    def case(smoother):
        def run():
            fine = MGLevel(apply=lambda v: A_bc @ v, smoother=smoother,
                           prolong=P, bc_mask=bc.mask)
            coarse = MGLevel(apply=lambda v: Ac @ v, coarse_solve=lu.solve,
                             bc_mask=cbc.mask)
            mg = MGHierarchy([fine, coarse])
            t0 = time.perf_counter()
            res = cg(lambda v: A_bc @ v, b, M=mg, rtol=1e-8, maxiter=200)
            return res, time.perf_counter() - t0
        return run

    vals = sweep([(name, case(sm)) for name, sm in smoothers])
    rows = []
    its = {}
    for name, _sm in smoothers:
        res, dt = vals[name]
        its[name] = res.iterations
        rows.append([name, res.iterations, res.converged, fmt(dt)])
    print_table("A6: smoother choice inside the V-cycle",
                ["smoother", "CG its", "conv", "solve s"], rows)
    assert its["Chebyshev(2)/Jacobi"] <= 2 * its["SSOR (multiplicative)"]


# --------------------------------------------------------------------- A7 #
def test_a7_v_vs_w_cycle(benchmark):
    once(benchmark, lambda: None)

    def case(gamma):
        def run():
            pb = sinker()
            return solve_stokes(pb, StokesConfig(
                mg_levels=3, coarse_solver="sa", rtol=1e-5, maxiter=600,
                restart=200, gamma=gamma,
            ))
        return run

    cycles = ((1, "V(2,2)"), (2, "W(2,2)"))
    vals = sweep([(f"a7-gamma={g}", case(g)) for g, _label in cycles])
    rows = []
    its = {}
    for gamma, label in cycles:
        sol = vals[f"a7-gamma={gamma}"]
        its[gamma] = sol.iterations
        rows.append([label, sol.iterations, sol.converged,
                     fmt(sol.solve_seconds)])
    print_table("A7: cycle shape", ["cycle", "its", "conv", "solve s"], rows)
    assert its[2] <= its[1] + 2  # W never (meaningfully) worse in its
