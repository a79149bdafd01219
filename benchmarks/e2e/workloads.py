"""The benchmark's workloads; one process runs one workload once.

``run.py`` spawns this file as ``workloads.py --workload NAME --seed N
--seconds S --trace 0|1 --mode run|setup --t0 EPOCH`` with the environment
pinned, and reads the JSON object printed as the last line of stdout.
Everything the program sees is generated here from ``--seed``; the amount
of work is a fixed function of ``--seconds`` (``_sizes``), so that for one
``(seed, seconds)`` every count the program makes repeats exactly.

Each workload is three functions:

``setup(seed, size)``
    import the layers it needs and build the problem/simulation/specs.
    The time from ``--t0`` (taken by the parent before it spawned this
    process) to the end of ``setup`` is ``setup_s``.
``run(state, size, tracer)``
    the timed operations and the correctness checks; returns ``op_s``,
    the operation count, the failures and what the per-layer table needs
    from returned objects.  ``tracer`` is a :class:`tracing.Tracer`; in an
    untraced leg nothing is installed on it, so it records nothing.
``cleanup(state)``
    stop processes and remove temporary directories.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext

from tracing import Tracer

#: relative slack on the recomputed residual: the outer Krylov method stops
#: on its *recurrence* residual, which drifts from ``b - A x`` in the last
#: digits, and the check recomputes it with a different kernel
RESIDUAL_SLACK = 1.02


def _sizes(workload: str, seconds: float, quick: bool) -> dict:
    """Work per run as a function of ``--seconds`` (nominal costs of the
    2-core reference box: 11.5 s per 16^3 solve, 1.05 s per rifting step,
    0.37 s per cold job, 0.2 s per warm pass, 2.6 s per distributed step
    with its oracle twin)."""
    s = float(seconds)
    if quick:
        return {
            "stokes_mf": {"shape": (8, 8, 8), "mg_levels": 2, "solves": 1},
            "rift_steps": {"shape": (12, 6, 4), "steps": 6},
            "serve_cold": {"distinct": 6},
            "serve_warm": {"distinct": 4, "warm_passes": 5},
            "dist_sinker": {"shape": (8, 8, 8), "steps": 1},
        }[workload]
    return {
        "stokes_mf": {"shape": (16, 16, 16), "mg_levels": 3,
                      "solves": max(1, int(s / 20))},
        "rift_steps": {"shape": (12, 6, 4), "steps": max(6, int(0.6 * s))},
        "serve_cold": {"distinct": max(4, int(s))},
        "serve_warm": {"distinct": 6, "warm_passes": max(5, int(2 * s))},
        "dist_sinker": {"shape": (8, 8, 8), "steps": max(1, int(s / 4))},
    }[workload]


def _traced_size(size: dict) -> dict:
    """The traced run measures shares and counts, not end-to-end times, and
    runs every leg twice (untraced reference, then traced), so it halves
    the repetitions -- never the mesh."""
    return {key: max(1, value // 2)
            if key in ("steps", "distinct", "warm_passes") else value
            for key, value in size.items()}


def _digest(*parts) -> str:
    """sha256 over numpy arrays and/or byte strings."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.tobytes())
    return h.hexdigest()[:32]


def _workdir(name: str) -> str:
    return tempfile.mkdtemp(prefix=f"e2e-{name}-")


# ---------------------------------------------------------------------- #
# stokes_mf: one hierarchy setup, ~60 outer iterations at 16^3
# ---------------------------------------------------------------------- #
def _sphere_centers(seed: int):
    """Four spheres, one in each of four alternating octants, each centre
    jittered by up to one 16^3 element from the octant centre.

    ``SinkerConfig.seed`` places spheres uniformly at random, which moves
    the outer iteration count by +-10 % between seeds (57..70 at 16^3);
    the stratified layout keeps every seed a different problem while the
    iteration count stays within 57..59, so ``op_s`` measures the solver
    and not the draw.
    """
    import numpy as np

    base = np.array([[.25, .25, .25], [.75, .75, .25],
                     [.25, .75, .75], [.75, .25, .75]])
    rng = np.random.default_rng(seed)
    return base + rng.uniform(-0.06, 0.06, size=base.shape)


def setup_stokes_mf(seed: int, size: dict) -> dict:
    import numpy as np
    from repro.fem.mesh import StructuredMesh
    from repro.fem.quadrature import GaussQuadrature
    from repro.matfree import _ckernel
    from repro.sim.sinker import SinkerConfig, free_slip_bc
    from repro.stokes import StokesConfig, StokesProblem

    _ckernel.load()
    cfg = SinkerConfig(shape=size["shape"], n_spheres=4, radius=0.12,
                       delta_eta=100.0, seed=seed)
    mesh = StructuredMesh(cfg.shape, order=2)
    _, _, xq = mesh.geometry_at(GaussQuadrature.hex(3))
    inside = np.zeros(xq.shape[:2], dtype=bool)
    for centre in _sphere_centers(seed):
        inside |= np.linalg.norm(xq - centre, axis=-1) < cfg.radius
    problem = StokesProblem(
        mesh,
        np.where(inside, 1.0, 1.0 / cfg.delta_eta),
        np.where(inside, cfg.rho_sphere, cfg.rho_ambient),
        gravity=cfg.gravity, bc_builder=free_slip_bc,
    )
    config = StokesConfig(operator="tensor_compiled",
                          mg_levels=size["mg_levels"], coarse_solver="sa",
                          rtol=1e-5, workers=1)
    return {"problem": problem, "config": config}


def run_stokes_mf(state: dict, size: dict, tracer) -> dict:
    import numpy as np
    from repro.stokes import StokesOperator, solve_stokes

    problem, config = state["problem"], state["config"]
    # the check recomputes the residual from outside, with another kernel
    checker = StokesOperator(problem, kind="tensor")
    b = checker.rhs()
    bnorm = float(np.linalg.norm(b))
    times, iterations, failures = [], [], []
    relres, digest, compiled = 0.0, "", False
    for i in range(size["solves"]):
        tracer.set_op(i)
        t0 = time.perf_counter()
        try:
            sol = solve_stokes(problem, config)
        except Exception as err:  # noqa: BLE001 -- operation boundary
            times.append(time.perf_counter() - t0)
            failures.append((i, f"raised {type(err).__name__}: {err}"))
            continue
        times.append(time.perf_counter() - t0)
        iterations.append(sol.iterations)
        compiled = bool(getattr(sol.extra["operator"].A_op, "compiled", False))
        x = np.concatenate([sol.u, sol.p])
        # drop the hierarchy before the next solve builds its own, so the
        # peak is one solve's memory however many are timed
        del sol
        digest = _digest(x)
        if not np.isfinite(x).all():
            failures.append((i, "non-finite solution"))
            continue
        relres = float(np.linalg.norm(b - checker.apply(x))) / bnorm
        if relres > config.rtol * RESIDUAL_SLACK:
            failures.append((i, f"recomputed relres {relres:.3e} > rtol "
                                f"{config.rtol:g}"))
    return {
        "op_s": statistics.median(times), "op_times": times,
        "timed_s": sum(times), "n_ops": len(times),
        "attempted": len(times), "failures": failures, "digest": digest,
        "info": {"iterations": iterations, "relres": relres,
                 "compiled_kernel": compiled},
        "extras": {},
    }


# ---------------------------------------------------------------------- #
# rift_steps: hierarchy rebuilt every Newton iteration on a small mesh
# ---------------------------------------------------------------------- #
#: Newton iterations per step are pinned (unreachable tolerance, cap 3).
#: With the paper's rtol 1e-2 a step takes 2 or 3 iterations depending on
#: which side of the tolerance the seed's point jitter lands, which moved
#: the mean step time by +-9 % between seeds; pinned, every seed does the
#: same number of re-linearizations and hierarchy rebuilds per step.
NEWTON_PER_STEP = 3


def setup_rift_steps(seed: int, size: dict) -> dict:
    from repro.sim.rifting import RiftingConfig, make_rifting
    from repro.sim.timeloop import SimulationConfig
    from repro.stokes import StokesConfig

    cfg = RiftingConfig(shape=size["shape"], seed=seed)
    # make_rifting's own defaults, except the two Newton knobs
    sim_config = SimulationConfig(
        stokes=StokesConfig(mg_levels=cfg.mg_levels, smoother_degree=3,
                            coarse_solver="lu", rtol=1e-4, maxiter=300,
                            workers=1),
        newton_rtol=1e-12, max_newton=NEWTON_PER_STEP,
        free_surface=True, thermal_kappa=cfg.kappa, cfl=0.25,
    )
    return {"sim": make_rifting(cfg, sim_config)}


def run_rift_steps(state: dict, size: dict, tracer) -> dict:
    import numpy as np
    from repro.serve.store import state_digest

    sim = state["sim"]
    steps = size["steps"]
    times, failures, newton = [], [], []
    lost = 0
    for i in range(steps):
        tracer.set_op(i)
        before = sim.points.n
        t0 = time.perf_counter()
        try:
            stats = sim.run(1)[0]
        except Exception as err:  # noqa: BLE001 -- operation boundary
            times.append(time.perf_counter() - t0)
            reason = f"raised {type(err).__name__}: {err}"
            # the steps that can no longer run stay in the denominator
            failures.extend((j, reason) for j in range(i, steps))
            break
        times.append(time.perf_counter() - t0)
        lost += stats["points_lost"]
        newton.append(stats["newton_iterations"])
        finite = (np.isfinite(sim.u).all() and np.isfinite(sim.p).all()
                  and np.isfinite(sim.T).all())
        unaccounted = sim.points.n - (
            before - stats["points_lost"] + stats["points_injected"])
        if not finite:
            failures.append((i, "non-finite fields"))
        elif stats["retries"]:
            failures.append((i, f"rolled back {stats['retries']}x"))
        elif unaccounted or (sim.points.el < 0).any():
            # points leaving through the open x faces are counted by the
            # program (points_lost); any other change in the census is not
            failures.append((i, f"{unaccounted} unaccounted points"))
    total = sum(times)
    return {
        "op_s": total / len(times), "op_times": times, "timed_s": total,
        "n_ops": len(times), "attempted": steps, "failures": failures,
        "digest": state_digest(sim),
        "info": {"newton_iterations": newton, "points_lost": lost},
        "extras": {"mpm.points": sim.points.n,
                   "mpm.points_lost": lost / len(times)},
    }


# ---------------------------------------------------------------------- #
# serve_cold / serve_warm: tiny physics, so spawn, watchdog, dedupe and
# the result store dominate
# ---------------------------------------------------------------------- #
_JOB_SCENARIO = {"shape": [4, 4, 4], "n_spheres": 2, "radius": 0.15,
                 "delta_eta": 100.0, "points_per_dim": 2}
_JOB_SIM = {"picard_only": True,
            "stokes": {"mg_levels": 2, "rtol": 1e-4, "coarse_solver": "lu",
                       "workers": 1}}
MAX_JOBS = 2


def _job_specs(seed: int, distinct: int) -> list:
    """``distinct`` 4^3 3-step Picard sinkers that differ by seed, with an
    exact twin of every second one submitted two places later."""
    import numpy as np
    from repro.serve import JobSpec

    job_seeds = np.random.default_rng(seed).choice(
        2**31 - 1, size=distinct, replace=False)

    def spec(name, i):
        return JobSpec(name=name, scenario="sinker",
                       scenario_config=_JOB_SCENARIO, sim_config=_JOB_SIM,
                       nsteps=3, dt=0.05, seed=int(job_seeds[i]), workers=1)

    specs = []
    for i in range(distinct):
        specs.append(spec(f"job{i:03d}", i))
        if i % 2 == 1:
            specs.append(spec(f"twin{i - 1:03d}", i - 1))
    return specs


def setup_serve(seed: int, size: dict) -> dict:
    from repro.serve import ServeConfig

    root = _workdir("serve")
    config = ServeConfig(isolation="subprocess", max_jobs=MAX_JOBS,
                         total_workers=MAX_JOBS, store_dir=root)
    return {"root": root, "config": config,
            "specs": _job_specs(seed, size["distinct"])}


def cleanup_serve(state: dict) -> None:
    shutil.rmtree(state["root"], ignore_errors=True)


def _tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def _battery(state: dict, tracer, op_base: int, timed: bool = True):
    """One pass of the battery; returns ``(report, wall, t_submit)``."""
    from repro.serve import run_battery

    tracer.set_op(op_base)
    # preparation and check passes are not the system under test
    with (nullcontext() if timed else tracer.paused()):
        t_submit = time.time()
        t0 = time.perf_counter()
        report = run_battery(state["specs"], state["config"])
        return report, time.perf_counter() - t0, t_submit


def _check_pass(report, leaders: dict, expect_all_hits: bool, op_base: int,
                failures: list) -> None:
    """Every job DONE; twins and warm resubmissions return the digest of
    the first job that ran that configuration (``leaders``, filled here)."""
    from repro.serve import JobState

    for rec in report.records:
        index = op_base + rec.index
        if rec.state is not JobState.DONE or rec.result is None:
            failures.append((index, f"{rec.spec.name}: {rec.state.value} "
                                    f"({rec.reason})"))
            continue
        digest = rec.result.get("digest")
        leader = leaders.setdefault(rec.config_hash, digest)
        if digest != leader:
            failures.append((index, f"{rec.spec.name}: digest differs from "
                                    "the first run of its configuration"))
        elif expect_all_hits and not rec.cache_hit:
            failures.append((index, f"{rec.spec.name}: recomputed a stored "
                                    "result"))


def _serve_extras(report, wall: float, t_submit: float, root: str) -> dict:
    service, waits = [], []
    for rec in report.records:
        stamps = dict(rec.history)
        waits.append(rec.history[0][1] - t_submit if rec.history else 0.0)
        if "running" in stamps and "done" in stamps:
            service.append(stamps["done"] - stamps["running"])
    njobs = len(report.records)
    return {
        "serve.job_service_p50_s": statistics.median(service) if service else 0.0,
        "serve.queue_wait_p50_s": statistics.median(waits),
        "serve.cache_hit_ratio": sum(r.cache_hit for r in report.records) / njobs,
        "serve.retries": sum(max(0, len(r.attempts) - 1)
                             for r in report.records) / njobs,
        "serve.sched_idle_frac": max(0.0, 1.0 - sum(service) / (MAX_JOBS * wall)),
        "serve.store_bytes": _tree_bytes(root),
    }


def run_serve_cold(state: dict, size: dict, tracer) -> dict:
    """Cold pass (timed) that fills the store, then one warm pass that
    must return every stored digest unchanged."""
    failures, leaders = [], {}
    njobs = len(state["specs"])
    t_start = time.perf_counter()
    try:
        cold, wall, t_submit = _battery(state, tracer, 0)
        warm, _, _ = _battery(state, tracer, njobs, timed=False)
    except Exception as err:  # noqa: BLE001 -- operation boundary
        return _all_failed(2 * njobs, t_start, err)
    _check_pass(cold, leaders, False, 0, failures)
    _check_pass(warm, leaders, True, njobs, failures)
    extras = _serve_extras(cold, wall, t_submit, state["root"])
    return {
        "op_s": wall / njobs, "op_times": [wall], "timed_s": wall,
        "n_ops": njobs, "attempted": 2 * njobs, "failures": failures,
        "digest": _digest(*(d.encode() for d in sorted(leaders.values()))),
        "info": {"jobs": njobs, "jobs_per_s": njobs / wall,
                 "cache_hits": sum(r.cache_hit for r in cold.records)},
        "extras": extras,
    }


def run_serve_warm(state: dict, size: dict, tracer) -> dict:
    """Fill the store with an untimed cold pass, then time warm passes
    that resubmit the same battery and only read the store."""
    failures, leaders = [], {}
    njobs = len(state["specs"])
    passes = size["warm_passes"]
    t_start = time.perf_counter()
    walls, extras = [], {}
    try:
        cold, _, _ = _battery(state, tracer, -1, timed=False)
        _check_pass(cold, leaders, False, 0, failures)
        for k in range(passes):
            warm, wall, t_submit = _battery(state, tracer, k * njobs)
            walls.append(wall)
            _check_pass(warm, leaders, True, k * njobs, failures)
            extras = _serve_extras(warm, wall, t_submit, state["root"])
    except Exception as err:  # noqa: BLE001 -- operation boundary
        return _all_failed(passes * njobs, t_start, err)
    wall = statistics.median(walls)
    return {
        "op_s": wall / njobs, "op_times": walls, "timed_s": sum(walls),
        "n_ops": passes * njobs, "attempted": passes * njobs,
        "failures": failures,
        "digest": _digest(*(d.encode() for d in sorted(leaders.values()))),
        "info": {"jobs": njobs, "warm_jobs_per_s": njobs / wall},
        "extras": extras,
    }


def _all_failed(n_ops: int, t_start: float, err: Exception) -> dict:
    """The program raised out of a whole leg: every operation of the leg
    failed, none is dropped from the denominator."""
    elapsed = time.perf_counter() - t_start
    reason = f"raised {type(err).__name__}: {err}"
    return {"op_s": elapsed / n_ops, "op_times": [], "timed_s": elapsed,
            "n_ops": n_ops, "attempted": n_ops,
            "failures": [(j, reason) for j in range(n_ops)], "digest": "",
            "info": {}, "extras": {}}


# ---------------------------------------------------------------------- #
# dist_sinker: real rank processes against the in-process oracle
# ---------------------------------------------------------------------- #
RANKS = 2


def setup_dist_sinker(seed: int, size: dict) -> dict:
    from repro.parallel.procomm import ProcessComm
    from repro.sim.sinker import SinkerConfig

    # the paper's 8-sphere layout: with 2 spheres the dispatch count per
    # step moves by +-6 % between seeds, with 8 it self-averages to +-2 %
    sinker = SinkerConfig(shape=size["shape"], n_spheres=8, radius=0.1,
                          delta_eta=100.0, points_per_dim=2, seed=seed)
    return {"sinker": sinker, "root": _workdir("dist"),
            "comm": ProcessComm(RANKS)}


def cleanup_dist_sinker(state: dict) -> None:
    state["comm"].close()
    shutil.rmtree(state["root"], ignore_errors=True)


def run_dist_sinker(state: dict, size: dict, tracer) -> dict:
    from repro.parallel.distributed import run_sinker_distributed

    steps = size["steps"]
    failures = []
    tracer.set_op(0)
    t_start = time.perf_counter()
    kwargs = dict(ranks=RANKS, nsteps=steps, sinker_config=state["sinker"],
                  checkpoint_dir=state["root"])
    try:
        real = run_sinker_distributed(comm=state["comm"], **kwargs)
        # the oracle leg is the reference answer, not part of the system
        # under test: it is neither timed into op_s nor traced
        with tracer.paused():
            oracle = run_sinker_distributed(oracle=True, **kwargs)
    except Exception as err:  # noqa: BLE001 -- operation boundary
        return _all_failed(steps, t_start, err)
    if real["digest"] != oracle["digest"]:
        failures.extend((j, "procomm digest != oracle digest")
                        for j in range(steps))
    elif real["steps"] != steps or real["recoveries"]:
        failures.append((real["steps"], f"{real['recoveries']} recoveries, "
                                        f"{real['steps']}/{steps} steps"))
    comm, engine = real["comm"], real["engine"]
    return {
        "op_s": real["wall_seconds"] / steps,
        "op_times": [real["wall_seconds"]],
        "timed_s": real["wall_seconds"], "n_ops": steps,
        "attempted": steps, "failures": failures, "digest": real["digest"],
        "info": {"oracle_step_s": oracle["wall_seconds"] / steps,
                 "respawns": comm["respawns"]},
        "extras": {
            "parallel.messages": comm["messages"] / steps,
            "parallel.bytes": comm["bytes"] / steps,
            "parallel.reductions": comm["reductions"] / steps,
            "parallel.dispatches": engine["dispatches"] / steps,
            "parallel.respawns": comm["respawns"] / steps,
            "parallel.overhead_ratio":
                real["wall_seconds"] / oracle["wall_seconds"],
        },
    }


def _no_cleanup(state: dict) -> None:
    pass


WORKLOADS = {
    "stokes_mf": (setup_stokes_mf, run_stokes_mf, _no_cleanup),
    "rift_steps": (setup_rift_steps, run_rift_steps, _no_cleanup),
    "serve_cold": (setup_serve, run_serve_cold, cleanup_serve),
    "serve_warm": (setup_serve, run_serve_warm, cleanup_serve),
    "dist_sinker": (setup_dist_sinker, run_dist_sinker, cleanup_dist_sinker),
}


# ---------------------------------------------------------------------- #
# child entry point
# ---------------------------------------------------------------------- #
def _leg(workload: str, seed: int, size: dict, tracer, t0: float):
    """setup + run + cleanup; returns ``(result, setup_s)``."""
    setup, run, cleanup = WORKLOADS[workload]
    state = setup(seed, size)
    setup_s = time.time() - t0
    try:
        return run(state, size, tracer), setup_s
    finally:
        cleanup(state)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--compile-s", type=float, default=0.0)
    args = ap.parse_args(argv)

    size = _sizes(args.workload, args.seconds, args.quick)
    out = {"workload": args.workload, "seed": args.seed}

    if args.mode == "setup":
        setup, _, cleanup = WORKLOADS[args.workload]
        state = setup(args.seed, size)
        out["setup_s"] = time.time() - args.t0
        cleanup(state)
    elif not args.trace:
        result, out["setup_s"] = _leg(
            args.workload, args.seed, size, Tracer(), args.t0)
        out.update(result, size=size)
        out["rss_kb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    else:
        from layers import install, layer_metrics

        size = _traced_size(size)
        plain, out["setup_s"] = _leg(
            args.workload, args.seed, size, Tracer(), args.t0)
        with Tracer() as tracer:
            install(tracer)
            traced, _ = _leg(args.workload, args.seed, size, tracer, args.t0)
        out.update(traced, size=size)
        if traced["digest"] != plain["digest"]:
            out["failures"] = list(out["failures"]) + [
                (-1, "traced run's result differs from the untraced run's")]
        extras = dict(traced["extras"])
        extras["obs.trace_overhead_frac"] = (
            traced["timed_s"] / plain["timed_s"] - 1.0)
        extras["matfree.ckernel_compile_s"] = args.compile_s
        out["per_layer"] = layer_metrics(tracer.spans, traced["n_ops"], extras)
        out["spans"] = len(tracer.spans)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({
                    "workload": args.workload, "seed": args.seed,
                    "size": size, "untraced_timed_s": plain["timed_s"],
                    "traced_timed_s": traced["timed_s"],
                    "columns": ["name", "t0", "t1", "span_id", "parent_id",
                                "op_id", "attr"],
                    "spans": tracer.spans, "per_layer": out["per_layer"],
                }, fh)

    for index, reason in out.get("failures", ()):
        print(f"FAILED {args.workload} op {index}: {reason}", file=sys.stderr)
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
