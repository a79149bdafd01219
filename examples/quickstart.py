#!/usr/bin/env python3
"""Quickstart: solve one variable-viscosity Stokes problem.

A dense, stiff spherical inclusion sinks through a weak fluid in a unit
box with free-slip walls and a free surface -- the smallest end-to-end use
of the library: build a mesh, sample coefficients, pick boundary
conditions, and run the fieldsplit + geometric-multigrid solver.

Run:  python examples/quickstart.py

With ``--inject-fault`` a deterministic NaN fault is injected into the
preconditioner mid-run and a second one into the Newton residual two steps
later: the first drives the linear solve to ``DIVERGED_NAN`` and down the
preconditioner fallback ladder, the second triggers a time-step rollback
with dt halving -- a live demo of the resilience layer recovering a run
that would otherwise die.  ``--inject-fault KIND`` selects a physics-state
fault instead (``fold_surface``, ``starve_cells``, ``poison_viscosity``):
the free surface is folded through the bottom, elements are starved of
material points, or the projected viscosity is corrupted, and the health
gates (``SimulationConfig(health=HealthConfig())``) detect and repair the
damage -- mesh repair ladder, point injection, or bound clipping.

With ``--log-view`` the run is profiled through ``repro.obs`` (the
PETSc-style observability layer): a few material-point time steps ride
along so the report spans every layer -- matrix-free operator applies
with achieved GF/s against the analytic Table I flop counts, per-level
multigrid smoother/transfer events, Krylov and Newton solves, MPM
advection/projection, ALE remeshing -- and the same data is written as a
schema-validated JSON trace (``quickstart_trace.json``).

With ``--trace-out PATH`` (implies ``--log-view``) the per-worker span
timeline is armed as well and the merged spans are written as Chrome
trace-event JSON, read back and checked with
``obs.timeline.validate_chrome_trace`` -- open the file at
https://ui.perfetto.dev to scrub through every stage, event, and executor
task of the run.
"""

import argparse

import numpy as np

from repro import (
    DirichletBC,
    StokesConfig,
    StokesProblem,
    StructuredMesh,
    boundary_nodes,
    component_dofs,
    eta_at_quadrature,
    solve_stokes,
)


def free_slip(mesh) -> DirichletBC:
    """Zero normal velocity on the walls and bottom; the top is free."""
    bc = DirichletBC(3 * mesh.nnodes)
    for face, comp in (("xmin", 0), ("xmax", 0),
                       ("ymin", 1), ("ymax", 1), ("zmin", 2)):
        bc.add(component_dofs(boundary_nodes(mesh, face), comp), 0.0)
    return bc.finalize()


def log_view_run(trace_path: str = "quickstart_trace.json",
                 machine: str | None = None,
                 trace_out: str | None = None) -> None:
    """Profile a small end-to-end run and print the ``-log_view`` table.

    ``machine`` selects the roofline machine model by name (default:
    ``laptop``); the model used is recorded in the exported run manifest.  ``trace_out`` additionally arms the
    per-worker timeline and writes the merged spans as Chrome
    trace-event JSON -- drop the file on https://ui.perfetto.dev.
    """
    from repro import SimulationConfig, obs
    from repro.sim.sinker import SinkerConfig, make_sinker

    obs.enable()
    if trace_out is not None:
        obs.timeline.arm()
    sim = make_sinker(
        SinkerConfig(shape=(4, 4, 4)),
        SimulationConfig(
            stokes=StokesConfig(mg_levels=2, coarse_solver="lu"),
            free_surface=True,
        ),
    )
    sim.run(2)  # each step's Newton/Krylov counts ride into the JSON
    print()
    obs.log_view(machine=machine)
    doc = obs.write_json(trace_path, meta={"run": "quickstart", "steps": 2})
    layers = ("MatMult", "MGSmooth", "KSPSolve", "MPM")
    names = {e["name"] for e in doc["events"]}
    stages = {s["name"] for s in doc["stages"]}
    assert len(names) >= 10, f"expected >= 10 distinct events, got {len(names)}"
    assert all(any(n.startswith(l) for n in names) for l in layers), names
    assert any(s.startswith("TimeStep") for s in stages), stages
    series = {s["name"] for s in doc["metrics"]["series"]}
    assert {"dt", "points", "krylov_iterations"} <= series, series
    man = doc["manifest"]
    from repro.perf.machine import resolve_machine

    assert man["machine_model"] == resolve_machine(machine).name
    assert man["config_hash"] and man["seed"] is not None
    print(f"JSON trace ({obs.SCHEMA}) written to {trace_path}: "
          f"{len(names)} events, {len(doc['traces']['ksp'])} Krylov records, "
          f"{len(series)} metric series, machine model "
          f"'{man['machine_model']}'")
    if trace_out is not None:
        section = doc["timeline"]
        assert section["spans"], "timeline armed but no spans captured"
        obs.timeline.write_chrome_trace(trace_out, section)
        # read back and check the file Perfetto will load
        import json

        with open(trace_out) as fh:
            trace = obs.timeline.validate_chrome_trace(json.load(fh))
        an = section["analysis"]
        print(f"Perfetto trace ({len(trace['traceEvents'])} events, "
              f"{len(an['workers'])} track(s), serial fraction "
              f"{an['critical_path']['serial_fraction']:.0%}) written to "
              f"{trace_out} -- open at https://ui.perfetto.dev")
        obs.timeline.disarm()
    obs.disable()
    obs.reset()


def inject_fault_run() -> None:
    """Survive two injected faults: PC fallback, then dt rollback.

    The flight recorder is armed for the run, so the rollback fired by
    the second fault automatically dumps a ``FLIGHT_rollback_*.json``
    black box: the ``repro.obs/1`` document (accepted step records,
    events, traces) as it stood when the failure fired.
    """
    from repro import FaultInjector, SimulationConfig, obs
    from repro.sim.sinker import SinkerConfig, make_sinker
    from repro.stokes import solve as stokes_solve
    from repro.stokes.fieldsplit import FieldSplitPreconditioner
    from repro.stokes.operators import StokesOperator

    obs.enable()
    recorder = obs.flight.arm()
    sim = make_sinker(
        SinkerConfig(shape=(4, 4, 4)),
        SimulationConfig(
            stokes=StokesConfig(mg_levels=2, coarse_solver="lu"),
            resilient=True,
        ),
    )
    nsteps = 4
    with FaultInjector() as fi:
        # step 2: every PC apply of one linear solve returns NaN -> the
        # outer Krylov solve diverges and the fallback ladder takes over
        fi.poison_nan(FieldSplitPreconditioner, "__call__", mode="all",
                      limit=1, when=lambda: sim.step_index == 1,
                      label="nan:preconditioner")
        # step 4: a NaN Newton residual forces a hard nonlinear failure ->
        # the time loop restores its snapshot and retries with dt/2
        fi.poison_nan(StokesOperator, "residual", mode="all", limit=1,
                      when=lambda: sim.step_index == 3,
                      label="nan:newton-residual")
        # record the reason of every linear solve of step 2, the rungs'
        # included, to check that the rung after the downgrade converged
        step2_reasons = []
        fi.install(stokes_solve, "solve_stokes",
                   lambda sol: step2_reasons.append(sol.reason) or sol,
                   when=lambda: sim.step_index == 1, label="record:step2")
        downgraded = []
        for _ in range(nsteps):
            stats = sim.step()
            if stats["fallback_events"]:
                downgraded.append(stats["fallback_events"])
            extra = ""
            if stats["fallback_events"]:
                rungs = " -> ".join(e["next"] for e in stats["fallback_events"])
                extra = f"  [fallback: {rungs}]"
            if stats["retries"]:
                extra += (f"  [rolled back x{stats['retries']}, "
                          f"dt_scale={stats['dt_scale']:.2g}]")
            print(f"step {sim.step_index}: newton={stats['newton_reason']}"
                  f"{extra}")
    assert {f["label"] for f in fi.fired} == {"nan:preconditioner",
                                              "nan:newton-residual",
                                              "record:step2"}
    # exactly one downgrade, off the poisoned primary, and the next rung's
    # solve converged
    assert [[e["rung"] for e in ev] for ev in downgraded] == [["primary"]]
    assert step2_reasons[0].name == "DIVERGED_NAN"
    assert step2_reasons[1].is_converged, step2_reasons[1]
    assert sim.step_index == nsteps
    assert np.isfinite(sim.u).all() and np.isfinite(sim.p).all()
    recovery = [t["event"] for t in obs.REGISTRY.traces["resilience"]]
    print(f"\nrun completed {nsteps}/{nsteps} steps despite both faults; "
          f"recovery events: {recovery}")
    # the rollback must have dumped a valid black box with the step history
    assert recorder.dumps, "flight recorder produced no dump"
    import json

    with open(recorder.dumps[-1]) as fh:
        dump = obs.validate(json.load(fh))
    trigger = dump["meta"]["trigger"]
    steps = dump["traces"]["step"]
    assert trigger["kind"] == "rollback"
    assert steps, "flight dump carries no accepted steps"
    assert all("dt" in s and "krylov_iterations" in s for s in steps)
    assert dump["metrics"]["series"], "flight dump carries no metric series"
    print(f"flight recorder dumped {len(recorder.dumps)} black box(es); "
          f"last: {recorder.dumps[-1]} ({len(steps)} accepted steps, "
          f"trigger '{trigger['kind']}')")
    obs.flight.disarm()
    obs.disable()
    obs.reset()


def inject_physics_fault_run(kind: str) -> None:
    """Survive one injected physics-state fault via the health gates."""
    from repro import FaultInjector, HealthConfig, SimulationConfig, obs
    from repro.sim.sinker import SinkerConfig, make_sinker

    obs.enable()
    sim = make_sinker(
        SinkerConfig(shape=(4, 4, 4)),
        SimulationConfig(
            stokes=StokesConfig(mg_levels=2, coarse_solver="lu"),
            free_surface=True, resilient=True,
            health=HealthConfig(eta_bounds=(1e-6, 1e6)),
        ),
    )
    nsteps = 3
    with FaultInjector() as fi:
        fire = {"when": lambda: sim.step_index == 1, "limit": 1}
        if kind == "fold_surface":
            fi.fold_surface(sim.mesh, depth=0.2, **fire)
        elif kind == "starve_cells":
            fi.starve_cells(sim, elements=np.arange(8), **fire)
        else:
            fi.poison_viscosity(mode="spike", factor=1e12, **fire)
        for _ in range(nsteps):
            stats = sim.step()
            h = stats["health"]
            extra = "".join(
                f"  [{k}: {h[k]}]" for k in
                ("mesh_repairs", "injected", "clipped") if h.get(k)
            )
            if stats["retries"]:
                extra += f"  [rolled back x{stats['retries']}]"
            print(f"step {sim.step_index}: newton={stats['newton_reason']}"
                  f"{extra}")
    assert fi.fired, f"{kind} fault never fired"
    assert sim.step_index == nsteps
    assert np.isfinite(sim.u).all() and np.isfinite(sim.p).all()
    assert np.isfinite(sim.points.x).all()
    s = sim.health.stats
    repaired = s["mesh_repairs"] + s["injected"] + s["clipped"] \
        + s["rejections"]
    assert repaired > 0, "health gates saw nothing to repair"
    recovery = [t["event"] for t in obs.REGISTRY.traces["resilience"]
                if t["event"].startswith("health_")]
    print(f"\nrun completed {nsteps}/{nsteps} steps despite the {kind} "
          f"fault; health events: {recovery}")
    obs.disable()
    obs.reset()


def main(workers: int | None = None):
    mesh = StructuredMesh((8, 8, 8), order=2)  # Q2 velocity, P1disc pressure

    def in_blob(x):
        return np.linalg.norm(x - [0.5, 0.5, 0.6], axis=-1) < 0.2

    eta = eta_at_quadrature(mesh, lambda x: np.where(in_blob(x), 1e2, 1.0))
    rho = eta_at_quadrature(mesh, lambda x: np.where(in_blob(x), 1.2, 1.0))

    problem = StokesProblem(mesh, eta, rho, gravity=(0, 0, -9.8),
                            bc_builder=free_slip)
    config = StokesConfig(
        # operator: the default "tensor_compiled" -- the matrix-free
        # tensor-product fine level as a compiled SIMD kernel (NumPy
        # fallback on hosts without a C compiler)
        mg_levels=3,            # geometric V(2,2) hierarchy
        coarse_solver="sa",     # smoothed aggregation on the coarsest level
        rtol=1e-5,              # unpreconditioned relative tolerance
        workers=workers,        # shared-memory element-kernel workers
    )
    sol = solve_stokes(problem, config)

    w = sol.u[2::3]
    print(f"converged:      {sol.converged} in {sol.iterations} iterations")
    print(f"solve time:     {sol.solve_seconds:.2f} s "
          f"(setup {sol.setup_seconds:.2f} s)")
    print(f"sinking speed:  min w = {w.min():.4e} (negative = sinking)")
    print(f"pressure range: [{sol.p[0::4].min():.3f}, {sol.p[0::4].max():.3f}]")
    assert sol.converged and w.min() < 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--log-view", action="store_true",
        help="profile the run with repro.obs and print the stage/event table",
    )
    parser.add_argument(
        "--machine", default=None, metavar="NAME",
        help="roofline machine model for --log-view (default: 'laptop'); "
             "recorded in the exported run manifest",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="also capture a per-worker span timeline and write it as "
             "Chrome trace-event JSON viewable at https://ui.perfetto.dev "
             "(implies --log-view)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shared-memory workers for the element kernels (default: "
             "$REPRO_WORKERS or serial); results are identical to serial",
    )
    parser.add_argument(
        "--inject-fault", nargs="?", const="nan", default=None,
        choices=["nan", "fold_surface", "starve_cells", "poison_viscosity"],
        metavar="KIND",
        help="inject a deterministic fault into a short run and show the "
             "resilience layer recovering it: 'nan' (default) exercises "
             "the preconditioner fallback ladder and time-step rollback; "
             "'fold_surface', 'starve_cells' and 'poison_viscosity' "
             "exercise the physics-state health gates",
    )
    args = parser.parse_args()
    main(workers=args.workers)
    if args.log_view or args.trace_out:
        log_view_run(machine=args.machine, trace_out=args.trace_out)
    if args.inject_fault == "nan":
        inject_fault_run()
    elif args.inject_fault is not None:
        inject_physics_fault_run(args.inject_fault)
