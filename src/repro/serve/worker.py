"""Job body of the ensemble service: run one supervised simulation.

:func:`run_job` reads a job file written by the scheduler -- ``{"spec":
<JobSpec wire dict>, "serve": <runtime options and the job's grant of
workers and ranks>}`` -- builds the scenario under the granted engine,
and runs it to completion, speaking a line-based JSON protocol on stdout
(one flushed object per line)::

    {"event": "started",  "resumed_from": k, "config_hash": ...}
    {"event": "heartbeat", "step": n, "time": t, "dt": ..., "seconds": ...}
    {"event": "checkpoint", "step": n}
    {"event": "checkpoint_corrupt", "message": ...}   # resume fell back
    {"event": "result",   ...result document...}      # then exit 0
    {"event": "error",    "reason": ..., "message": ...}  # then exit != 0

In a battery the caller is a child forked from :mod:`repro.serve.zygote`,
which frames these lines with ``spawned`` (the pid) and ``exit`` (the
return code); every import the job body needs sits at the top of this
module so the zygote pays for it once.  ``python -m repro.serve.worker
JOB.json`` runs the same :func:`run_job` in an interpreter of its own, for
debugging one job by hand.

Heartbeats are piped from the time loop itself (a
:func:`repro.sim.timeloop.add_step_listener` hook fired at the end of
every step), so a solver hung *inside* a step goes silent and the
scheduler's watchdog sees it.  The listener fires whether or not
``repro.obs`` is enabled, so a job runs with the profiler off.  The
``result`` event carries ``phases``, the seconds spent per
:data:`~repro.serve.jobs.PHASES` entry.

Recovery contract: the worker saves an atomic checkpoint to the results
store every ``checkpoint_every`` steps; a killed/crashed job's retry
resumes from it, and a checkpoint the validated load rejects (corrupt)
falls back to a fresh start.  Either way the final state digest must be
bit-identical to an uninterrupted run (asserted in ``tests/test_serve.py``).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback

import numpy as np

from ..obs import metrics as _metrics
from ..parallel.distributed import ProcommEngine
from ..parallel.executor import thread_pool, use_executor
from ..parallel.procomm import ProcessComm
from ..resilience.health import HealthConfig
from ..resilience.inject import FaultInjector, claim_sentinel
from ..resilience.reasons import BreakdownError, ConvergedReason
from ..sim import checkpoint, timeloop
from ..sim.rifting import RiftingConfig, make_rifting
from ..sim.sinker import SinkerConfig, make_sinker
from ..sim.timeloop import SimulationConfig
from ..stokes.solve import StokesConfig
from .jobs import PHASES, JobSpec, config_from
from .store import ResultStore, state_digest

__all__ = ["build_simulation", "job_configs", "main", "run_job"]

#: the job file's ``serve`` section, all written by the scheduler: the
#: store, the checkpoint cadence, and the job's grant
_SERVE_KEYS = ("store_dir", "checkpoint_every", "workers", "ranks")


class _Terminated(BaseException):
    """Raised by the SIGTERM handler to unwind the step loop.

    A ``BaseException`` on purpose: it must sail through both the job
    boundary's ``except Exception`` and the resilient time loop's
    rollback handler (which absorbs only ``BreakdownError``), so a
    graceful-shutdown request can never be mistaken for a solver failure
    and retried in place.  Raising from the handler also interrupts
    ``time.sleep`` (PEP 475), so even a worker stuck in an injected hang
    honors the scheduler's grace period.
    """


def _emit(event: str, **payload) -> None:
    doc = {"event": event, **payload}
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    sys.stdout.flush()


#: scenario name -> (config dataclass, ``make_*`` function)
_SCENARIOS = {"sinker": (SinkerConfig, make_sinker),
              "rifting": (RiftingConfig, make_rifting)}


def job_configs(spec) -> tuple:
    """The config dataclasses a :class:`~repro.serve.jobs.JobSpec` names:
    ``(scenario config, SimulationConfig)``.

    ``scenario_config`` feeds the scenario's config dataclass (JSON lists
    are coerced to the tuples the dataclasses expect); ``sim_config``
    feeds :class:`~repro.sim.timeloop.SimulationConfig`, with a nested
    ``"stokes"`` dict for :class:`~repro.stokes.solve.StokesConfig` and a
    nested ``"health"`` dict for
    :class:`~repro.resilience.health.HealthConfig`.  An unknown name
    raises ``ValueError``.
    """
    sim_kwargs = dict(spec.sim_config)
    stokes = sim_kwargs.pop("stokes", None)
    if stokes is not None:
        sim_kwargs["stokes"] = config_from(StokesConfig, stokes, "stokes")
    health = sim_kwargs.pop("health", None)
    if health is not None:
        sim_kwargs["health"] = config_from(HealthConfig, {
            key: tuple(val) if isinstance(val, list) else val
            for key, val in health.items()}, "health")
    sim_config = config_from(SimulationConfig, sim_kwargs, "sim_config")

    if spec.scenario not in _SCENARIOS:
        raise ValueError(f"unknown scenario {spec.scenario!r}")
    sc = dict(spec.scenario_config)
    if spec.seed is not None:
        sc["seed"] = int(spec.seed)
    for key in ("shape", "extent", "gravity", "damage_strain"):
        if isinstance(sc.get(key), list):
            sc[key] = tuple(sc[key])
    scenario_cls = _SCENARIOS[spec.scenario][0]
    return config_from(scenario_cls, sc, "scenario_config"), sim_config


def build_simulation(spec):
    """Instantiate the scenario a job names, from its :func:`job_configs`."""
    scenario_config, sim_config = job_configs(spec)
    return _SCENARIOS[spec.scenario][1](scenario_config, sim_config)


def install_job_faults(injector, faults: dict, checkpoint_path: str,
                       sentinel_dir: str) -> None:
    """Install the spec's job-level faults (deterministic, one-shot).

    Every fault defaults to ``once=True``: a filesystem sentinel in the
    job's store directory makes it fire on the first attempt only, so the
    recovery path runs clean.  ``once=False`` makes it fire every attempt
    (retry-budget-exhaustion tests).
    """
    for name in sorted(faults):
        opts = dict(faults[name]) if isinstance(faults[name], dict) else {}
        once = bool(opts.pop("once", True))
        sentinel = (
            os.path.join(sentinel_dir, f"fault_{name}.fired") if once else None
        )
        if name == "hang":
            injector.hang(
                after_step=int(opts.pop("after_step", 1)),
                seconds=float(opts.pop("seconds", 3600.0)),
                sentinel=sentinel,
            )
        elif name == "crash_after_steps":
            raw = faults[name]
            steps = int(raw) if not isinstance(raw, dict) else int(
                opts.pop("steps", 1))
            injector.crash_after_steps(
                steps, exit_code=int(opts.pop("exit_code", 23)),
                sentinel=sentinel,
            )
        elif name == "corrupt_checkpoint":
            injector.corrupt_checkpoint(
                checkpoint_path,
                keep_fraction=float(opts.pop("keep_fraction", 0.5)),
                sentinel=sentinel,
            )
        elif name == "poison_viscosity":
            injector.poison_viscosity(
                mode=str(opts.pop("mode", "nan")),
                fraction=float(opts.pop("fraction", 0.02)),
                when=lambda s=sentinel: claim_sentinel(s),
            )
        else:
            raise ValueError(f"unknown job fault {name!r}")
        if opts:
            raise ValueError(f"unknown options for fault {name!r}: "
                             f"{sorted(opts)}")


def run_job(job_path: str, t_fork: float | None = None) -> int:
    """Execute one job file; returns the process exit code.  ``t_fork``
    is the ``perf_counter`` reading at the zygote's fork (default: now)."""
    t0 = time.perf_counter() if t_fork is None else t_fork
    phases = dict.fromkeys(PHASES, 0.0)
    with open(job_path) as fh:
        doc = json.load(fh)

    spec = JobSpec.from_wire(doc["spec"])
    opts = doc["serve"]
    if set(opts) != set(_SERVE_KEYS):
        raise ValueError(
            f"serve options: unknown {sorted(set(opts) - set(_SERVE_KEYS))}"
            f", missing {sorted(set(_SERVE_KEYS) - set(opts))}")
    store = ResultStore(opts["store_dir"])
    config_hash = spec.config_hash()
    job_dir = store.job_dir(config_hash)
    cp_path = store.checkpoint_path(config_hash)
    checkpoint_every = int(opts["checkpoint_every"])
    workers, ranks = int(opts["workers"]), int(opts["ranks"])

    def heartbeat(beat: dict) -> None:
        _emit("heartbeat", **beat)

    def on_sigterm(signum, frame):
        raise _Terminated()

    signal.signal(signal.SIGTERM, on_sigterm)

    injector = FaultInjector()
    timeloop.add_step_listener(heartbeat)
    comm = None
    last_committed: dict | None = None
    try:
        # the grant is the job's one engine, armed before anything is
        # built so no ``StokesConfig.workers`` widens it: >= 2 ranks route
        # every operator dispatch and CG reduction through real rank
        # processes, else a pool of the granted width (the result is
        # bit-identical either way -- same spans, same fixed-tree
        # reductions)
        if ranks >= 2:
            comm = ProcessComm(ranks)
            engine = ProcommEngine(comm)
        else:
            engine = thread_pool(workers)
        with use_executor(engine):
            t = time.perf_counter()
            sim = build_simulation(spec)
            sim.comm = comm
            # the Simulation constructor stamped its SimulationConfig
            # hash; the *job* identity (scenario + seed + steps) is what
            # names this run everywhere downstream -- flight dumps
            # included -- next to the grant it ran under
            _metrics.set_manifest(config_hash=config_hash, job=spec.name,
                                  workers=workers, ranks=ranks)
            install_job_faults(injector, spec.faults or {}, cp_path, job_dir)
            phases["build"] = time.perf_counter() - t

            resumed_from = 0
            checkpoint_corrupt = False
            if os.path.exists(cp_path):
                t = time.perf_counter()
                try:
                    checkpoint.load_checkpoint(cp_path, sim)
                    resumed_from = sim.step_index
                except ValueError as err:
                    # validated load rejected a corrupt archive with sim
                    # untouched: fall back to a fresh start
                    checkpoint_corrupt = True
                    _emit("checkpoint_corrupt", message=str(err))
                    store.clear_checkpoint(config_hash)
                phases["resume_load"] = time.perf_counter() - t
            phases["fork_to_started"] = time.perf_counter() - t0
            _emit("started", resumed_from=resumed_from,
                  nsteps=int(spec.nsteps), config_hash=config_hash,
                  workers=workers)

            newton_its = 0
            krylov_its = 0
            nsteps = int(spec.nsteps)
            while sim.step_index < nsteps:
                t = time.perf_counter()
                stats = sim.step(spec.dt)
                t_stepped = time.perf_counter()
                phases["steps"] += t_stepped - t
                newton_its += int(stats["newton_iterations"])
                krylov_its += int(stats["krylov_iterations"])
                # always snapshot the committed state: the graceful-
                # shutdown flush must write a *step-boundary* state, and
                # the mid-step one a SIGTERM interrupts is garbage
                last_committed = checkpoint.state_dict(sim)
                if (checkpoint_every > 0 and sim.step_index < nsteps
                        and sim.step_index % checkpoint_every == 0):
                    # through the module attribute, so injected checkpoint
                    # faults (corrupt_checkpoint) see the call
                    checkpoint.save_checkpoint(cp_path, sim)
                    _emit("checkpoint", step=sim.step_index)
                phases["checkpoint"] += time.perf_counter() - t_stepped

        t = time.perf_counter()
        digest = state_digest(sim)
        phases["digest"] = time.perf_counter() - t
        result = {
            "job": spec.name,
            "config_hash": config_hash,
            "scenario": spec.scenario,
            "steps": int(sim.step_index),
            "resumed_from": int(resumed_from),
            "checkpoint_corrupt": bool(checkpoint_corrupt),
            "sim_time": float(sim.time),
            "digest": digest,
            "norms": {
                "u": float(np.linalg.norm(sim.u)),
                "p": float(np.linalg.norm(sim.p)),
            },
            "newton_iterations": newton_its,
            "krylov_iterations": krylov_its,
            "faults_fired": list(injector.fired),
            "ranks": ranks if ranks >= 2 else None,
            "wall_seconds": time.perf_counter() - t0,
            "phases": {k: round(v, 6) for k, v in phases.items()},
        }
        _emit("result", **result)
        return 0
    except _Terminated:
        # graceful shutdown: flush the last committed step so the retry
        # resumes from it instead of replaying from the last periodic
        # checkpoint (or from scratch)
        flushed = None
        if last_committed is not None:
            checkpoint.save_state(cp_path, last_committed)
            flushed = int(last_committed["step_index"])
        _emit("terminated", step=flushed, flushed=flushed is not None)
        return 5
    except BreakdownError as err:
        _emit("error", reason=ConvergedReason(err.reason).name,
              message=str(err))
        return 3
    except Exception as err:  # noqa: BLE001 -- boundary of the process
        _emit("error", reason="JOB_ERROR",
              message=f"{type(err).__name__}: {err}",
              traceback=traceback.format_exc(limit=20))
        return 4
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        timeloop.remove_step_listener(heartbeat)
        injector.remove_all()
        if comm is not None:
            comm.close()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        sys.stderr.write("usage: python -m repro.serve.worker JOB.json\n")
        return 2
    return run_job(argv[0])


if __name__ == "__main__":
    sys.exit(main())
