"""The full pTatin3D time loop (SS II, SS V).

One time step:

1. evaluate flow laws at material points (strain rate / pressure /
   temperature interpolated from the last solution) and project effective
   viscosity and density to the quadrature points (Eq. 11-13);
2. solve the nonlinear Stokes problem -- Newton with the true linearization
   in the Krylov matvec and the Picard operator in the multigrid
   preconditioner, backtracking line search, Eisenstat-Walker forcing,
   ``|F| < rtol |F_0|`` within ``max_newton`` steps (the rifting runs use
   rtol = 1e-2, max 5);
3. update per-point plastic strain where the yield condition was active;
4. advect material points with the new velocity (RK2), delete points that
   exited through open boundaries, migrate across virtual subdomains when
   a decomposition is attached, and repopulate depleted elements;
5. ALE: move the free surface kinematically, remesh the interior columns,
   and relocate all points on the moved mesh;
6. advance temperature with the SUPG energy solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..ale.freesurface import remesh_vertical, update_free_surface
from ..energy.supg import EnergySolver, q1_companion_mesh
from ..fem.quadrature import GaussQuadrature
from ..matfree import NewtonTensorOperator
from ..mpm.advection import advect_points
from ..mpm.location import locate_points
from ..mpm.migration import populate_empty_cells
from ..mpm.projection import project_to_quadrature
from ..obs import flight as _flight
from ..obs import metrics as _metrics
from ..obs import registry as _obs
from ..obs.trace import trace_resilience, trace_step
from ..parallel.executor import use_workers
from ..resilience.health import (
    MIN_POINTS_PER_ELEMENT,
    HealthConfig,
    HealthMonitor,
)
from ..resilience.reasons import BreakdownError, ConvergedReason
from ..solvers.nonlinear import newton
from ..stokes.operators import StokesOperator, StokesProblem
from ..stokes.solve import StokesConfig, solve_stokes, solve_stokes_resilient
from .checkpoint import restore_state, state_dict
from .fields import (
    pressure_at_points,
    strain_invariant_at_points,
    strain_rate_at_quadrature,
    temperature_at_points,
)

#: leading Picard-linearized corrections per nonlinear solve before the
#: Krylov matvec switches to the true Newton operator -- the paper's
#: "Newton in the terminal phase" strategy (SS III-A)
PICARD_CORRECTIONS = 1

#: resilient time loop (``SimulationConfig.resilient``): rollback attempts
#: per step before giving up, the dt multiplier of each rollback
#: (geometric back-off), and the consecutive clean steps after which one
#: back-off factor is undone
MAX_STEP_RETRIES = 3
DT_BACKOFF = 0.5
DT_RECOVER_AFTER = 2

#: per-step listeners fed from ``_advance``: the ensemble worker
#: (``repro.serve.worker``) registers one to pipe heartbeats to the
#: scheduler's watchdog.  Listeners fire once per ``_advance`` that
#: returns -- a step a rollback then rewinds included -- whether or not
#: ``repro.obs`` is enabled.
_STEP_LISTENERS: list = []


def add_step_listener(fn):
    """Register ``fn(beat: dict)`` to observe every committed step.

    ``beat`` carries ``step``, ``time``, ``dt`` and ``seconds``.  Returns
    ``fn`` so the call can be used as a decorator.  Listener exceptions
    propagate -- a broken heartbeat pipe *should* kill the worker run.
    """
    _STEP_LISTENERS.append(fn)
    return fn


def remove_step_listener(fn) -> None:
    """Unregister a step listener (no-op when absent)."""
    try:
        _STEP_LISTENERS.remove(fn)
    except ValueError:
        pass


@dataclass
class SimulationConfig:
    """Knobs of the coupled time loop."""

    stokes: StokesConfig = field(default_factory=StokesConfig)
    newton_rtol: float = 1e-2
    max_newton: int = 5
    picard_only: bool = False
    #: fixed relative tolerance for the inner linear solves; None enables
    #: Eisenstat-Walker adaptive forcing.  Linear rheologies (the sinker)
    #: should pin this to the paper's 1e-5 so one correction suffices.
    linear_rtol: float | None = None
    cfl: float = 0.5
    free_surface: bool = False
    thermal_kappa: float = 0.0  # 0 disables the energy solve
    #: self-healing time loop: route linear solves through the fallback
    #: ladder and retry a hard-diverged step from an in-memory snapshot
    #: with a reduced dt (:data:`MAX_STEP_RETRIES`, :data:`DT_BACKOFF`,
    #: :data:`DT_RECOVER_AFTER`; DESIGN.md, "Failure taxonomy and
    #: recovery")
    resilient: bool = False
    #: physics-state health gates (mesh/particle/field invariants with
    #: guarded degradation); None disables the subsystem entirely.  A
    #: rejected gate raises :class:`HealthCheckFailure`, which the
    #: rollback engine (``resilient=True``) absorbs like any breakdown.
    health: HealthConfig | None = None


@dataclass
class Linearization:
    """One nonlinear iterate, linearized: what its residual, its linear
    solve and the plastic update read (:meth:`Simulation.linearize`)."""

    #: a copy of the iterate ``[u; p]`` it was built at (the reuse key)
    x: np.ndarray
    #: per-point yield flags of the flow-law evaluation
    yielding: np.ndarray
    #: projected ``d eta / d I2`` (the Newton operator's)
    deta_q: np.ndarray
    #: the Picard operator on the projected ``eta_q``/``rho_q``; its
    #: ``problem`` carries them, its viscous block is multigrid level 0
    picard: StokesOperator


class Simulation:
    """Coupled MPM / Stokes / energy / ALE driver.

    Parameters
    ----------
    mesh:
        Fine Q2 mesh.
    materials:
        ``materials[i]`` governs points with ``lithology == i``.
    points:
        Seeded material points (located).
    bc_builder:
        Velocity Dirichlet conditions per mesh level.
    config:
        :class:`SimulationConfig`.
    gravity:
        Body-force vector.
    T0:
        Initial temperature on the corner (Q1) lattice; required when
        ``config.thermal_kappa > 0``.
    thermal_bc_builder:
        ``q1_mesh -> DirichletBC`` for the energy solve.
    """

    def __init__(
        self,
        mesh,
        materials,
        points,
        bc_builder,
        config: SimulationConfig | None = None,
        gravity=(0.0, 0.0, -9.8),
        T0: np.ndarray | None = None,
        thermal_bc_builder=None,
        decomposition=None,
        comm=None,
    ):
        self.mesh = mesh
        self.materials = list(materials)
        self.points = points
        self.bc_builder = bc_builder
        self.config = config or SimulationConfig()
        self.gravity = tuple(gravity)
        self.quad = GaussQuadrature.hex(3)
        self.decomposition = decomposition
        self.comm = comm
        # solution state
        self.u = np.zeros(3 * mesh.nnodes)
        self.p = np.zeros(4 * mesh.nel)
        self.T = T0
        self.time = 0.0
        self.step_index = 0
        self.last_yielded_fraction = 0.0
        # resilience state: current dt reduction and the clean-step count
        # driving its geometric recovery
        self._dt_scale = 1.0
        self._clean_steps = 0
        self._step_fallback_events: list[dict] = []
        #: the last iterate's linearization (see :meth:`linearize`)
        self._linearization = None
        self.health = (
            HealthMonitor(self, self.config.health)
            if self.config.health is not None else None
        )
        # telemetry: stamp the run manifest (config hash rides into every
        # JSON export) -- one dict update at construction, not per step
        _metrics.set_manifest(
            config_hash=_metrics.config_hash(self.config))
        self.energy = None
        if self.config.thermal_kappa > 0.0:
            q1m = q1_companion_mesh(mesh)
            tbc = thermal_bc_builder(q1m) if thermal_bc_builder else None
            self.energy = EnergySolver(q1m, self.config.thermal_kappa, tbc)
            if self.T is None:
                raise ValueError("thermal run needs an initial temperature T0")
        self._relocate_points()

    # ------------------------------------------------------------------ #
    # material state
    # ------------------------------------------------------------------ #
    def _relocate_points(self) -> None:
        els, xi, lost = locate_points(self.mesh, self.points.x, hints=self.points.el)
        self.points.el = np.where(lost, -1, els)
        self.points.xi = xi
        if lost.any():
            self.points.remove(lost)

    def point_properties(self, u: np.ndarray, p: np.ndarray):
        """Per-point ``(eta, deta_dJ2, rho, yielding)`` from the flow laws."""
        pts = self.points
        tab = pts.tables(self.mesh)
        eps = strain_invariant_at_points(self.mesh, u, pts.el, pts.xi, tab)
        prs = pressure_at_points(self.mesh, p, pts.el, pts.xi, tab)
        if self.T is not None:
            Tp = temperature_at_points(self.mesh, self.T, pts.el, pts.xi, tab)
        else:
            Tp = None
        eta = np.empty(pts.n)
        deta = np.empty(pts.n)
        rho = np.empty(pts.n)
        yielding = np.zeros(pts.n, dtype=bool)
        for i, mat in enumerate(self.materials):
            idx = pts.lithology == i
            if not idx.any():
                continue
            Ti = Tp[idx] if Tp is not None else None
            e, d, y = mat.rheology.evaluate(
                eps[idx], prs[idx], Ti, pts.plastic_strain[idx]
            )
            eta[idx], deta[idx], yielding[idx] = e, d, y
            rho[idx] = mat.density(Ti)
        # Newton safeguard: keep the tangent operator positive
        # semidefinite.  Along the strain direction the tangent viscosity
        # is 2 eta + 2 eta' (D:D) = 2 eta + 4 eta' J2; perfect plasticity
        # sits exactly at zero, and the marker->quadrature projection can
        # push the mix below it, so clamp at 90% of the way there.
        J2 = np.maximum(eps**2, 1e-30)
        deta = np.maximum(deta, -0.9 * eta / (2.0 * J2))
        return eta, deta, rho, yielding

    def linearize(self, x: np.ndarray) -> Linearization:
        """The :class:`Linearization` of the iterate ``x = [u; p]``.

        Built once per distinct iterate: the last one is kept and returned
        again while ``x`` equals its stored copy, so the residual, the
        linear solve and the plastic update of one iterate evaluate the
        flow laws, project and guard the fields, and pack the Picard
        operator once.  ``solve_stokes_nonlinear`` drops it on entry (the
        points moved since) and the plastic update drops it on exit.
        """
        lin = self._linearization
        if lin is not None and np.array_equal(lin.x, x):
            return lin
        nu = 3 * self.mesh.nnodes
        eta_p, deta_p, rho_p, yielding = self.point_properties(x[:nu], x[nu:])
        self.last_yielded_fraction = float(yielding.mean()) if yielding.size else 0.0
        pts = self.points
        tab = pts.tables(self.mesh)
        eta_q, deta_q, rho_q = (
            project_to_quadrature(self.mesh, pts.el, pts.xi, v, self.quad,
                                  tables=tab)
            for v in (eta_p, deta_p, rho_p))
        if self.health is not None:
            # guard *after* projection so any corruption upstream (flow
            # law, projection, injected faults) is caught at the last
            # point before the operator consumes the fields
            eta_q, deta_q, rho_q = self.health.guard_coefficient_fields(
                eta_q, deta_q, rho_q)
        problem = StokesProblem(
            self.mesh, eta_q, rho_q, gravity=self.gravity,
            bc_builder=self.bc_builder, quad=self.quad,
        )
        stokes = self.config.stokes
        picard = StokesOperator(problem, kind=stokes.operator)
        self._linearization = Linearization(x.copy(), yielding, deta_q,
                                            picard)
        return self._linearization

    # ------------------------------------------------------------------ #
    # nonlinear Stokes
    # ------------------------------------------------------------------ #
    def solve_stokes_nonlinear(self):
        """Newton (or Picard) solve of the current-configuration Stokes flow.

        Returns the :class:`repro.solvers.nonlinear.NonlinearResult`.
        """
        cfg = self.config
        mesh = self.mesh
        nu = 3 * mesh.nnodes
        self._linearization = None

        def residual(x):
            return self.linearize(x).picard.residual(x)

        solve_count = [0]

        def solve_linearized(x, F, rtol_lin):
            lin = self.linearize(x)
            picard = lin.picard
            vel_op = None
            newton_phase = solve_count[0] >= PICARD_CORRECTIONS
            solve_count[0] += 1
            # with eta' == 0 the Newton operator is the Picard one
            if newton_phase and not cfg.picard_only and lin.deta_q.any():
                Du_q = strain_rate_at_quadrature(mesh, x[:nu], self.quad)
                vel_op = NewtonTensorOperator(
                    mesh, picard.problem.eta_q, Du_q, lin.deta_q,
                    quad=self.quad,
                )

            rtol = cfg.linear_rtol if cfg.linear_rtol is not None else max(rtol_lin, 1e-10)
            solve = solve_stokes_resilient if cfg.resilient else solve_stokes
            sol = solve(
                picard.problem,
                replace(cfg.stokes, rtol=rtol),
                velocity_operator=vel_op,
                rhs=F,
                stokes_operator=picard,
            )
            events = sol.extra.get("fallback_events")
            if events:
                self._step_fallback_events.extend(events)
            return np.concatenate([sol.u, sol.p]), sol.iterations

        x0 = np.concatenate([self.u, self.p])
        # the iterate must satisfy the boundary conditions so Newton
        # corrections stay homogeneous there
        bc = self.bc_builder(mesh)
        x0[:nu] = bc.homogenize(x0[:nu])
        if cfg.picard_only:
            from ..solvers.nonlinear import picard

            result = picard(
                residual, solve_linearized, x0,
                rtol=cfg.newton_rtol, maxiter=cfg.max_newton,
            )
        else:
            result = newton(
                residual, solve_linearized, x0,
                rtol=cfg.newton_rtol, maxiter=cfg.max_newton,
            )
        self.u = result.x[:nu]
        self.p = result.x[nu:]
        return result

    # ------------------------------------------------------------------ #
    # time stepping
    # ------------------------------------------------------------------ #
    def stable_dt(self) -> float:
        """CFL time step from the current velocity field."""
        _, h = self.mesh.element_centroids_and_extents()
        vmax = np.abs(self.u).max()
        if vmax == 0.0:
            return np.inf
        return self.config.cfl * float(h.min()) / float(vmax)

    def _advance(self, dt: float | None = None) -> dict:
        """One coupled time step (no retry logic); returns a stats dict.

        Each phase runs under its own ``repro.obs`` stage (nested in
        ``TimeStep``), so a ``-log_view`` report splits the step the way
        the paper's per-phase timings do.  The resolved dt (given or CFL)
        is multiplied by the rollback engine's ``_dt_scale``, which is 1.0
        outside resilient mode.  Every operator of the step is built on
        the thread pool of ``config.stokes.workers``
        (:func:`~repro.parallel.executor.use_workers`).
        """
        cfg = self.config
        t0 = time.perf_counter()
        self._step_fallback_events = []
        with use_workers(cfg.stokes.workers), _obs.stage("TimeStep"):
            if self.health is not None:
                with _obs.stage("HealthGate"):
                    self.health.pre_step()
            with _obs.stage("StokesNonlinear"):
                result = self.solve_stokes_nonlinear()
            if self.health is not None:
                # validate the solution on the geometry the solve used
                # (the ALE move below changes it)
                with _obs.stage("HealthGate"):
                    self.health.post_step(self.u)
            if dt is None:
                dt = self.stable_dt()
                if not np.isfinite(dt):
                    dt = 0.0  # no flow yet: nothing to advect
            dt = dt * self._dt_scale

            # plastic strain accumulates at yielded points, flagged by the
            # accepted iterate's linearization
            with _obs.stage("PlasticUpdate"):
                yielding = self.linearize(
                    np.concatenate([self.u, self.p])).yielding
                self._linearization = None  # the material state moves on
                if yielding.any() and dt > 0:
                    pts = self.points
                    eps_p = strain_invariant_at_points(
                        self.mesh, self.u, pts.el, pts.xi,
                        pts.tables(self.mesh))
                    self.points.plastic_strain[yielding] += eps_p[yielding] * dt

            lost_count = 0
            if dt > 0:
                with _obs.stage("MPMAdvect"):
                    n_before = self.points.n
                    lost = advect_points(self.mesh, self.u, self.points, dt)
                    lost_count = int(lost.sum())
                    if lost.any():
                        self.points.remove(lost)
                    if self.health is not None:
                        gate = self.health.particle_gate(
                            expected=n_before - lost_count
                        )
                        injected = gate["injected"]
                    else:
                        injected = populate_empty_cells(
                            self.mesh, self.points, MIN_POINTS_PER_ELEMENT
                        )["total"]
            else:
                injected = 0

            if cfg.free_surface and dt > 0:
                with _obs.stage("ALERemesh"):
                    update_free_surface(self.mesh, self.u, dt)
                    if self.health is not None:
                        # fold detection + repair ladder (remesh with
                        # degenerate-column clamping -> smoothing -> reject)
                        self.health.mesh_gate("post_surface",
                                              repair_surface=True)
                    else:
                        remesh_vertical(self.mesh)
                    self._relocate_points()

            if self.energy is not None and dt > 0:
                with _obs.stage("Energy"):
                    # keep the Q1 companion mesh glued to the (possibly
                    # moved) Q2 mesh
                    self.energy.mesh.set_coords(
                        self.mesh.coords[self.mesh.corner_node_lattice()]
                    )
                    u_q1 = self.energy.velocity_at_quadrature(self.mesh, self.u)
                    self.T = self.energy.step(self.T, u_q1, dt)
                    if self.health is not None:
                        self.T = self.health.guard_temperature(self.T)

        seconds = time.perf_counter() - t0
        self.time += dt
        self.step_index += 1
        stats = {
            "dt": dt,
            "health": (self.health.step_summary()
                       if self.health is not None else {}),
            "newton_iterations": result.iterations,
            "krylov_iterations": result.total_linear_iterations,
            "newton_converged": result.converged,
            "newton_reason": result.reason.name,
            "points_lost": lost_count,
            "points_injected": injected,
            "yielded_fraction": self.last_yielded_fraction,
            "seconds": seconds,
            "fallback_events": list(self._step_fallback_events),
            "dt_scale": self._dt_scale,
            "retries": 0,
        }
        if _STEP_LISTENERS:
            beat = {
                "step": int(self.step_index),
                "time": float(self.time),
                "dt": float(dt),
                "seconds": float(seconds),
            }
            for fn in list(_STEP_LISTENERS):
                fn(beat)
        return stats

    def save_checkpoint(self, path: str) -> str:
        """Checkpoint this simulation, collective-consistently.

        Delegates to :func:`repro.sim.checkpoint.cohort_checkpoint` with
        the simulation's own communicator: on a distributed run the write
        is preceded by a barrier and refused while point-to-point
        messages are undelivered, so a recovery resume from this file is
        bit-faithful.  Returns the final path.
        """
        from .checkpoint import cohort_checkpoint

        return cohort_checkpoint(path, self, self.comm)

    # ------------------------------------------------------------------ #
    # self-healing step: snapshot -> attempt -> classify -> rollback
    # ------------------------------------------------------------------ #
    def _fields_finite(self) -> bool:
        if not (np.isfinite(self.u).all() and np.isfinite(self.p).all()):
            return False
        return self.T is None or bool(np.isfinite(self.T).all())

    def step(self, dt: float | None = None) -> dict:
        """Advance one time step; in resilient mode, survive solver failure.

        Returns the step stats.  While ``repro.obs`` is enabled the
        accepted step is recorded once, here, as a ``step`` trace record
        (:func:`~repro.obs.trace.trace_step`): its ``retries`` is final
        and a rolled-back attempt leaves no step record.
        """
        if self.config.resilient:
            stats = self._advance_resilient(dt)
        else:
            stats = self._advance(dt)
        if _obs.STATE.enabled:
            trace_step(
                stats, step=self.step_index, time=float(self.time),
                points=self.points.n,
                comm=None if self.comm is None else self.comm.stats.as_dict(),
            )
        return stats

    def _advance_resilient(self, dt: float | None) -> dict:
        """One step that survives solver failure by rollback and retry.

        Snapshot the evolving state in memory (the checkpoint
        serialization, so file and rollback restores cannot drift), attempt
        the step, and on a *hard* failure -- a ``BreakdownError`` escaping
        the solve stack, a hard-DIVERGED Newton reason, or non-finite
        fields -- restore the snapshot, halve dt (:data:`DT_BACKOFF`), and
        retry up to :data:`MAX_STEP_RETRIES` times.  Every rollback is an
        obs event plus a ``resilience`` trace record.  After
        :data:`DT_RECOVER_AFTER` consecutive clean steps one back-off factor is
        undone, so dt climbs back geometrically once the transient passes.
        """
        snapshot = state_dict(self)
        last_reason = None
        for attempt in range(MAX_STEP_RETRIES + 1):
            t0 = time.perf_counter()
            try:
                stats = self._advance(dt)
            except BreakdownError as err:
                reason = err.reason
            else:
                reason = ConvergedReason[stats["newton_reason"]]
                # DIVERGED_ITS is no rollback: Newton with the rifting budget
                # routinely exhausts it on a healthy visco-plastic step
                hard = reason.needs_recovery or not self._fields_finite()
                if not hard:
                    stats["retries"] = attempt
                    # a step that needed retries is a recovery, not a clean
                    # step: the recovery count starts at the *next* step
                    self._clean_steps = self._clean_steps + 1 if attempt == 0 else 0
                    if (self._dt_scale < 1.0
                            and self._clean_steps >= DT_RECOVER_AFTER):
                        self._dt_scale = min(
                            1.0, self._dt_scale / DT_BACKOFF
                        )
                        self._clean_steps = 0
                        trace_resilience(
                            "dt_restore", step=self.step_index,
                            dt_scale=self._dt_scale,
                        )
                    return stats
            # hard failure: rewind the evolving state and shrink the step
            last_reason = reason
            elapsed = time.perf_counter() - t0
            restore_state(self, snapshot)
            self._dt_scale *= DT_BACKOFF
            self._clean_steps = 0
            _obs.record_span("ResilienceRollback", t0, t0 + elapsed)
            trace_resilience(
                "rollback", step=self.step_index, attempt=attempt + 1,
                reason=ConvergedReason(reason).name, dt_scale=self._dt_scale,
            )
            # black box: dump the repro.obs/1 document (accepted steps,
            # traces, events) the moment the failure fires (no-op while
            # disarmed)
            _flight.trigger(
                "rollback", step=self.step_index, attempt=attempt + 1,
                reason=ConvergedReason(reason).name, dt_scale=self._dt_scale,
            )
        _flight.trigger(
            "breakdown", step=self.step_index,
            attempts=MAX_STEP_RETRIES + 1,
            reason=ConvergedReason(last_reason).name,
            dt_scale=self._dt_scale,
        )
        raise BreakdownError(
            f"time step {self.step_index} failed after "
            f"{MAX_STEP_RETRIES + 1} attempts "
            f"(dt_scale={self._dt_scale:.3g}); last reason: "
            f"{ConvergedReason(last_reason).name}",
            reason=last_reason,
        )

    def run(self, nsteps: int, dt: float | None = None) -> list[dict]:
        """Run ``nsteps`` steps; returns the per-step stats."""
        return [self.step(dt) for _ in range(nsteps)]
