"""Which ``repro.*`` entry points the traced run wraps, and the per-layer
metrics derived from their spans.

``ENTRY_POINTS`` is the outside-in boundary list: every row is a public
function or method of one layer, given as ``(span name, module, attribute)``
with ``Class.method`` for methods.  Several entry points may share a span
name (``gcr`` and ``fgmres`` are both ``solvers.krylov``); the layer is the
part of the name before the dot.  ``layer_metrics`` turns one traced leg
into the flat ``name -> value`` table whose names ``BENCHMARK.json`` lists
under ``per_layer``.
"""

from __future__ import annotations

import importlib
import os

from tracing import ATTR, NAME, Tracer, span_table

_COUNT_ALIAS = {"newton": "tensor"}  # NewtonTensorOperator runs the tensor kernel


def _apply_key(result, args):
    op = args[0]
    return (op.name, op.mesh.nel)


def _file_bytes(result, args):
    return os.path.getsize(result) if isinstance(result, str) else 0


def _solve_stats(result, args):
    res = result.residuals
    relres = res[-1] / res[0] if res and res[0] > 0 else 0.0
    return (result.iterations, relres)


def _iterations(result, args):
    return result.iterations


ENTRY_POINTS = [
    ("fem.assemble", "repro.fem.assembly", "assemble_viscous", None),
    ("fem.assemble", "repro.fem.assembly", "viscous_diagonal", None),
    ("fem.assemble", "repro.fem.assembly", "assemble_divergence", None),
    ("matfree.apply", "repro.matfree.base", "ViscousOperatorBase.apply",
     _apply_key),
    ("matfree.make", "repro.matfree", "make_operator", None),
    ("matfree.make", "repro.matfree.base",
     "ViscousOperatorBase.set_viscosity", None),
    ("mg.setup", "repro.mg.gmg", "build_gmg", None),
    ("mg.setup", "repro.mg.coefficients", "coefficient_hierarchy", None),
    ("mg.sa_setup", "repro.mg.sa", "smoothed_aggregation", None),
    ("mg.vcycle", "repro.mg.cycles", "MGHierarchy.vcycle", None),
    ("mg.smooth", "repro.solvers.chebyshev", "ChebyshevSmoother.smooth", None),
    ("mg.smooth", "repro.solvers.chebyshev",
     "ChebyshevSmoother.smooth_with_residual", None),
    ("solvers.krylov", "repro.solvers.krylov", "gcr", None),
    ("solvers.krylov", "repro.solvers.krylov", "fgmres", None),
    ("solvers.newton", "repro.solvers.nonlinear", "newton", _iterations),
    ("solvers.newton", "repro.solvers.nonlinear", "picard", _iterations),
    ("stokes.solve", "repro.stokes.solve", "solve_stokes", _solve_stats),
    ("stokes.op_apply", "repro.stokes.operators", "StokesOperator.apply", None),
    ("stokes.pc_apply", "repro.stokes.fieldsplit",
     "FieldSplitPreconditioner.__call__", None),
    ("rheology.point_properties", "repro.sim.timeloop",
     "Simulation.point_properties", None),
    ("rheology.evaluate", "repro.rheology.composite",
     "CompositeRheology.evaluate", None),
    ("mpm.project", "repro.mpm.projection", "project_to_quadrature", None),
    ("mpm.project", "repro.mpm.projection", "project_to_corners", None),
    ("mpm.advect", "repro.mpm.advection", "advect_points", None),
    ("mpm.migrate", "repro.mpm.migration", "migrate_points", None),
    ("mpm.migrate", "repro.mpm.migration", "populate_empty_cells", None),
    ("energy.step", "repro.energy.supg", "EnergySolver.step", None),
    ("ale.update", "repro.ale.freesurface", "update_free_surface", None),
    ("ale.update", "repro.ale.freesurface", "remesh_vertical", None),
    ("sim.step", "repro.sim.timeloop", "Simulation.step", None),
    ("sim.checkpoint", "repro.sim.checkpoint", "save_state", _file_bytes),
    ("sim.checkpoint", "repro.sim.checkpoint", "cohort_checkpoint",
     _file_bytes),
    ("sim.checkpoint", "repro.sim.checkpoint", "load_checkpoint", None),
    ("parallel.run", "repro.parallel.distributed", "run_sinker_distributed",
     None),
    ("parallel.dispatch", "repro.parallel.distributed",
     "ProcommEngine.dispatch", None),
    ("parallel.dispatch", "repro.parallel.distributed", "ProcommEngine.dot",
     None),
    ("serve.battery", "repro.serve.scheduler", "run_battery", None),
    ("serve.store_get", "repro.serve.store", "ResultStore.get", None),
    ("serve.store_put", "repro.serve.store", "ResultStore.put", None),
]


def install(tracer: Tracer) -> None:
    """Import every boundary module, then wrap every entry point."""
    for _, modname, _, _ in ENTRY_POINTS:
        importlib.import_module(modname)
    for name, modname, attribute, attr in ENTRY_POINTS:
        module = importlib.import_module(modname)
        if "." in attribute:
            clsname, method = attribute.split(".")
            tracer.install_method(getattr(module, clsname), method, name, attr)
        else:
            found = tracer.install_function(getattr(module, attribute), name,
                                            attr)
            if not found:
                raise RuntimeError(f"no binding of {modname}.{attribute}")
    tracer.disable_in_forked_children()


#: per-layer metric -> (unit, better); the list BENCHMARK.json repeats
PER_LAYER = {
    "fem.assemble_s": ("s", "lower"),
    "fem.assemble_calls": ("count", "lower"),
    "matfree.apply_s": ("s", "lower"),
    "matfree.apply_calls": ("count", "lower"),
    "matfree.apply_gflops": ("GF/s", "higher"),
    "matfree.flops_per_byte": ("flop/B", "higher"),
    "matfree.make_s": ("s", "lower"),
    "matfree.make_calls": ("count", "lower"),
    "matfree.ckernel_compile_s": ("s", "lower"),
    "mg.setup_s": ("s", "lower"),
    "mg.setup_calls": ("count", "lower"),
    "mg.sa_setup_s": ("s", "lower"),
    "mg.vcycle_self_s": ("s", "lower"),
    "mg.vcycles": ("count", "lower"),
    "mg.smooth_s": ("s", "lower"),
    "solvers.outer_its": ("count", "lower"),
    "solvers.krylov_self_s": ("s", "lower"),
    "solvers.newton_its": ("count", "lower"),
    "solvers.final_relres": ("ratio", "lower"),
    "stokes.solve_calls": ("count", "lower"),
    "stokes.op_apply_self_s": ("s", "lower"),
    "stokes.pc_apply_self_s": ("s", "lower"),
    "rheology.eval_s": ("s", "lower"),
    "rheology.eval_calls": ("count", "lower"),
    "mpm.project_s": ("s", "lower"),
    "mpm.advect_s": ("s", "lower"),
    "mpm.migrate_s": ("s", "lower"),
    "mpm.points": ("count", "higher"),
    "mpm.points_lost": ("count", "lower"),
    "energy.step_s": ("s", "lower"),
    "ale.update_s": ("s", "lower"),
    "sim.step_self_s": ("s", "lower"),
    "sim.checkpoint_s": ("s", "lower"),
    "sim.checkpoint_bytes": ("B", "lower"),
    "parallel.messages": ("count", "lower"),
    "parallel.bytes": ("B", "lower"),
    "parallel.reductions": ("count", "lower"),
    "parallel.dispatches": ("count", "lower"),
    "parallel.respawns": ("count", "lower"),
    "parallel.dispatch_wait_s": ("s", "lower"),
    "parallel.overhead_ratio": ("ratio", "lower"),
    "serve.job_service_p50_s": ("s", "lower"),
    "serve.queue_wait_p50_s": ("s", "lower"),
    "serve.cache_hit_ratio": ("ratio", "higher"),
    "serve.retries": ("count", "lower"),
    "serve.sched_idle_frac": ("ratio", "lower"),
    "serve.store_get_s": ("s", "lower"),
    "serve.store_put_s": ("s", "lower"),
    "serve.store_bytes": ("B", "lower"),
    "obs.trace_overhead_frac": ("ratio", "lower"),
}

#: metrics that are counts made by the program: they must repeat exactly
#: for a fixed seed and size
EXACT = frozenset(
    name for name, (unit, _) in PER_LAYER.items()
    if unit in ("count", "B") and name != "serve.store_bytes"
) | {"serve.cache_hit_ratio", "matfree.flops_per_byte"}


def layer_metrics(spans, n_ops: int, extras: dict) -> dict[str, float]:
    """The ``PER_LAYER`` table of one traced leg.

    Times and counts are **per operation** (solve, step or job: divided by
    ``n_ops``), so they compare across run lengths; ratios and the
    ``extras`` the workload read from returned objects (communicator and
    job-record statistics, the separately measured compile time and the
    untraced reference wall) pass through as they are.
    """
    from repro.perf.counts import OPERATOR_COUNTS

    table = span_table(spans)

    def per_op(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0) / n_ops

    flops = nbytes = 0
    last_relres = 0.0
    outer_its = 0
    for span in spans:
        if span[NAME] == "matfree.apply" and span[ATTR] is not None:
            kind, nel = span[ATTR]
            counts = OPERATOR_COUNTS.get(_COUNT_ALIAS.get(kind, kind))
            if counts is not None:
                flops += counts.flops * nel
                nbytes += counts.bytes_perfect_cache * nel
        elif span[NAME] == "stokes.solve" and span[ATTR] is not None:
            outer_its += span[ATTR][0]
            last_relres = span[ATTR][1]
    apply_s = table.get("matfree.apply", {}).get("total_s", 0.0)

    out = {
        "fem.assemble_s": per_op("fem.assemble", "total_s"),
        "fem.assemble_calls": per_op("fem.assemble", "calls"),
        "matfree.apply_s": per_op("matfree.apply", "total_s"),
        "matfree.apply_calls": per_op("matfree.apply", "calls"),
        "matfree.apply_gflops": flops / apply_s / 1e9 if apply_s else 0.0,
        "matfree.flops_per_byte": flops / nbytes if nbytes else 0.0,
        "matfree.make_s": per_op("matfree.make", "total_s"),
        "matfree.make_calls": per_op("matfree.make", "calls"),
        "mg.setup_s": per_op("mg.setup", "total_s"),
        "mg.setup_calls": per_op("mg.setup", "calls"),
        "mg.sa_setup_s": per_op("mg.sa_setup", "total_s"),
        "mg.vcycle_self_s": per_op("mg.vcycle", "self_s"),
        "mg.vcycles": per_op("mg.vcycle", "calls"),
        "mg.smooth_s": per_op("mg.smooth", "total_s"),
        "solvers.outer_its": outer_its / n_ops,
        "solvers.krylov_self_s": per_op("solvers.krylov", "self_s"),
        "solvers.newton_its": per_op("solvers.newton", "attr_sum"),
        "solvers.final_relres": last_relres,
        "stokes.solve_calls": per_op("stokes.solve", "calls"),
        "stokes.op_apply_self_s": per_op("stokes.op_apply", "self_s"),
        "stokes.pc_apply_self_s": per_op("stokes.pc_apply", "self_s"),
        "rheology.eval_s": per_op("rheology.point_properties", "total_s"),
        "rheology.eval_calls": per_op("rheology.evaluate", "calls"),
        "mpm.project_s": per_op("mpm.project", "total_s"),
        "mpm.advect_s": per_op("mpm.advect", "total_s"),
        "mpm.migrate_s": per_op("mpm.migrate", "total_s"),
        "energy.step_s": per_op("energy.step", "total_s"),
        "ale.update_s": per_op("ale.update", "total_s"),
        "sim.step_self_s": per_op("sim.step", "self_s"),
        "sim.checkpoint_s": per_op("sim.checkpoint", "total_s"),
        "sim.checkpoint_bytes": per_op("sim.checkpoint", "attr_sum"),
        "parallel.dispatch_wait_s": per_op("parallel.dispatch", "total_s"),
        "serve.store_get_s": per_op("serve.store_get", "total_s"),
        "serve.store_put_s": per_op("serve.store_put", "total_s"),
    }
    for name in PER_LAYER:
        out.setdefault(name, float(extras.get(name, 0.0)))
    return out
