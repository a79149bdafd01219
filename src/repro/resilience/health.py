"""Physics-state health guards: runtime invariant monitoring + repair.

PR 3 made the *solver* stack resilient (typed ConvergedReasons, the
preconditioner fallback ladder, dt rollback).  This module does the same
for the *physics state* the coupled ALE + MPM pipeline (SS I, II-D, V)
evolves, which can go bad long before any Krylov residual notices:

* **mesh** -- surface folding inverts elements; an inverted detJ feeds
  garbage into every matrix-free apply from then on;
* **particles** -- starved elements leave the Eq. 12 projection without
  data, overcrowded ones bias it and slow every pass; a migration bug
  silently loses or duplicates material;
* **fields** -- a poisoned flow-law evaluation puts a NaN or a wild
  outlier into the projected viscosity/density, and the discrete
  incompressibility constraint can drift without anything raising.

The :class:`HealthMonitor` runs cheap gates at fixed points of
``Simulation._advance`` (pre-step, post-advection, post-surface-update,
post-step).  Every gate follows the same policy ladder as the solver
layer: *detect* (report dict), *repair at the cheapest layer that can
absorb it* (vertical remesh -> surface smoothing; point thinning +
injection; bound clipping), and only then *reject* by raising
:class:`HealthCheckFailure` -- which subclasses ``BreakdownError``, so
the time loop's snapshot/rollback engine (``resilient=True``) absorbs it
exactly like a solver breakdown: restore, halve dt, retry.

Every detection and repair is observable: gates log ``Health*`` obs
events (``HealthMeshGate``, ``HealthMeshRepair``, ``HealthThin``,
``HealthInject``, ``HealthClip_<field>``, ``HealthDivergence``) and
append ``health_*`` records to the ``resilience`` trace stream, so a
post-mortem shows *what* degraded and *what it cost* -- the same audit
posture as the fallback ladder.  With ``SimulationConfig.health = None``
(the default) none of this code runs and the clean path pays nothing;
with it enabled the gates are bounded < 5% by
``benchmarks/check_resilience_overhead.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..ale.freesurface import (
    mesh_quality,
    remesh_vertical,
    smooth_surface,
    surface_fold_report,
)
from ..mpm.migration import (
    count_points_per_element,
    populate_empty_cells,
    thin_overcrowded_cells,
)
from ..obs import registry as _obs
from ..obs.trace import trace_resilience
from .reasons import ConvergedReason, HealthCheckFailure

__all__ = ["HealthConfig", "HealthMonitor", "HealthCheckFailure",
           "guard_field"]


def _count_event(name: str, n: int) -> None:
    """A zero-length ``name`` event of ``n`` calls: how many points or
    values one repair touched."""
    now = time.perf_counter()
    _obs.record_span(name, now, now, count=n)


#: mesh gate: fails when any Gauss- or vertex-sampled detJ is <= this
MIN_DETJ = 0.0
#: mesh gate: worst tolerated element bounding-box edge ratio
MAX_ASPECT = 100.0
#: mesh gate: worst tolerated within-element detJ spread (vertex max/min)
MAX_TAPER = 1e6
#: smoothing rung of the mesh repair ladder: damped-Jacobi passes over
#: the surface plane (at :func:`smooth_surface`'s default ``alpha``)
SMOOTHING_PASSES = 2
#: material points per element: the time loop refills every element to
#: at least the minimum after advection (with or without the gates); the
#: particle gate thins elements above the maximum (farthest-point
#: downsampling, lithology fractions preserved)
MIN_POINTS_PER_ELEMENT = 2
MAX_POINTS_PER_ELEMENT = 64


@dataclass
class HealthConfig:
    """Bounds of the health gates.

    Attach an instance as ``SimulationConfig(health=HealthConfig())``;
    ``None`` (the default) disables the whole subsystem.  With it, every
    gate runs: the mesh gate (:data:`MIN_DETJ`, :data:`MAX_ASPECT`,
    :data:`MAX_TAPER`) and its repair ladder (remesh at zero minimum
    column thickness, then :data:`SMOOTHING_PASSES` smoothing passes),
    the particle census with its conservation audit and population band
    (:data:`MIN_POINTS_PER_ELEMENT` to :data:`MAX_POINTS_PER_ELEMENT`),
    the field guards (non-finite values reject, out-of-bound values are
    clipped) and the divergence monitor.
    """

    #: (lo, hi) bounds on the projected coefficient fields; None skips the
    #: bound check for that field (non-finite values always reject).  An
    #: out-of-bound quadrature value is pulled to the nearest bound
    #: (counted in the HealthClip_<field> obs event)
    eta_bounds: tuple[float, float] | None = None
    rho_bounds: tuple[float, float] | None = None
    T_bounds: tuple[float, float] | None = None
    #: reject when ``|B u| / |u|`` exceeds this; None = monitor only
    max_divergence: float | None = None


def guard_field(
    name: str,
    values: np.ndarray,
    bounds: tuple[float, float] | None,
) -> tuple[np.ndarray, int]:
    """Bound-guard one projected field; returns ``(values, n_clipped)``.

    Non-finite entries always reject (a NaN viscosity poisons the whole
    operator; no clip can repair it) with ``DIVERGED_NAN`` so the
    rollback engine classifies it like a solver NaN.  Out-of-bound
    entries are clipped (copy-on-write).
    """
    if not np.isfinite(values).all():
        bad = int((~np.isfinite(values)).sum())
        raise HealthCheckFailure(
            f"projected field {name!r} has {bad} non-finite "
            f"quadrature value(s)",
            check=f"field:{name}",
            details={"nonfinite": bad},
            reason=ConvergedReason.DIVERGED_NAN,
        )
    if bounds is None:
        return values, 0
    lo, hi = bounds
    out = (values < lo) | (values > hi)
    n_out = int(out.sum())
    if n_out == 0:
        return values, 0
    return np.clip(values, lo, hi), n_out


class HealthMonitor:
    """Per-simulation driver of the health gates.

    Holds cumulative counters in :attr:`stats` and per-step counters the
    time loop drains into its stats dict via :meth:`step_summary`.
    """

    def __init__(self, sim, config: HealthConfig):
        self.sim = sim
        self.config = config
        #: cumulative over the run
        self.stats = {
            "mesh_gates": 0, "mesh_repairs": 0, "folds_detected": 0,
            "thinned": 0, "injected": 0, "clipped": 0,
            "divergence": 0.0, "rejections": 0,
        }
        self._step: dict = {}
        self.reset_step()

    def reset_step(self) -> None:
        self._step = {"mesh_repairs": 0, "thinned": 0, "injected": 0,
                      "clipped": 0, "divergence": 0.0}

    def step_summary(self) -> dict:
        """Drain the per-step counters (called once per time step)."""
        out = dict(self._step)
        self.reset_step()
        return out

    # ------------------------------------------------------------------ #
    # mesh
    # ------------------------------------------------------------------ #
    @staticmethod
    def _mesh_bad(q: dict) -> str | None:
        if min(q["min_detJ"], q["min_detJ_vertex"]) <= MIN_DETJ:
            return (f"detJ {min(q['min_detJ'], q['min_detJ_vertex']):.3g} "
                    f"<= {MIN_DETJ:g}")
        if q["max_aspect"] > MAX_ASPECT:
            return f"aspect {q['max_aspect']:.3g} > {MAX_ASPECT:g}"
        if q["max_taper"] > MAX_TAPER:
            return f"taper {q['max_taper']:.3g} > {MAX_TAPER:g}"
        return None

    def _reject(self, exc: HealthCheckFailure) -> None:
        self.stats["rejections"] += 1
        trace_resilience("health_reject", step=self.sim.step_index,
                         check=exc.check, message=str(exc))
        raise exc

    def mesh_gate(self, where: str, repair_surface: bool = False) -> dict:
        """Validate mesh geometry; optionally walk the repair ladder.

        The ladder (``repair_surface=True``, used after the free-surface
        kinematic update): (1) vertical remesh with degenerate-column
        clamping, (2) surface smoothing + remesh, (3) reject -- handing
        the step to the rollback engine.  Pre-step gates run detect-only:
        a mesh that was healthy when the step started cannot be repaired
        into a *different* healthy mesh without desynchronizing the
        rollback snapshot.
        """
        t0 = time.perf_counter()
        self.stats["mesh_gates"] += 1
        actions = []
        folds = 0
        if repair_surface:
            folds = surface_fold_report(self.sim.mesh)["folded_columns"]
            if folds:
                self.stats["folds_detected"] += folds
            # rung 1: vertical remesh (always runs here -- it *is* the ALE
            # interior update -- with bottom-crossing columns clamped)
            repaired = remesh_vertical(self.sim.mesh, on_degenerate="repair")
            if repaired:
                actions.append(f"remesh_clamped[{repaired}]")
        q = mesh_quality(self.sim.mesh)
        why = self._mesh_bad(q)
        if why is not None and repair_surface:
            # rung 2: smooth the surface and redistribute again
            smooth_surface(self.sim.mesh, SMOOTHING_PASSES)
            remesh_vertical(self.sim.mesh, on_degenerate="repair")
            actions.append(f"smooth[{SMOOTHING_PASSES}]")
            q = mesh_quality(self.sim.mesh)
            why = self._mesh_bad(q)
        if actions:
            self._step["mesh_repairs"] += len(actions)
            self.stats["mesh_repairs"] += len(actions)
            _obs.record_span("HealthMeshRepair", t0, time.perf_counter(),
                             count=len(actions))
            trace_resilience(
                "health_mesh_repair", step=self.sim.step_index, where=where,
                actions=",".join(actions), folded_columns=folds,
                min_detj=q["min_detJ_vertex"],
            )
        else:
            _obs.record_span("HealthMeshGate", t0, time.perf_counter())
        if why is not None:
            # rung 3: reject the step (rollback in resilient mode)
            self._reject(HealthCheckFailure(
                f"mesh health gate ({where}) failed: {why}"
                + (f" after repairs [{', '.join(actions)}]" if actions else ""),
                check="mesh", details=q,
            ))
        return q

    # ------------------------------------------------------------------ #
    # particles
    # ------------------------------------------------------------------ #
    def particle_gate(self, expected: int | None = None) -> dict:
        """Census + thinning + injection + conservation audit.

        ``expected`` is the population the caller's bookkeeping predicts
        *before* this gate acts (n_before - advection losses); a mismatch
        means points were lost or duplicated by the pipeline itself and
        always rejects -- there is no repair for silently corrupted
        material state, only rollback.
        """
        sim = self.sim
        t0 = time.perf_counter()
        pts = sim.points
        if expected is not None and pts.n != expected:
            self._reject(HealthCheckFailure(
                f"particle conservation violated: census {pts.n} != "
                f"expected {expected}",
                check="particles",
                details={"census": pts.n, "expected": expected},
            ))
        if pts.n == 0:
            self._reject(HealthCheckFailure(
                "particle population collapsed to zero",
                check="particles", details={"census": 0},
            ))
        thin = thin_overcrowded_cells(sim.mesh, pts, MAX_POINTS_PER_ELEMENT)
        if thin["removed"]:
            self._step["thinned"] += thin["removed"]
            self.stats["thinned"] += thin["removed"]
            _count_event("HealthThin", thin["removed"])
            trace_resilience(
                "health_thin", step=sim.step_index,
                removed=thin["removed"], elements=thin["elements"],
            )
        inj = populate_empty_cells(sim.mesh, pts, MIN_POINTS_PER_ELEMENT)
        if inj["total"]:
            self._step["injected"] += inj["total"]
            self.stats["injected"] += inj["total"]
            _count_event("HealthInject", inj["total"])
            trace_resilience(
                "health_inject", step=sim.step_index, injected=inj["total"],
                elements=inj["elements"],
                per_lithology=str(inj["per_lithology"]),
            )
        # the gate's own bookkeeping must close exactly
        counts = count_points_per_element(sim.mesh, pts)
        if counts.min() < MIN_POINTS_PER_ELEMENT:
            self._reject(HealthCheckFailure(
                f"element population {int(counts.min())} below minimum "
                f"{MIN_POINTS_PER_ELEMENT} after injection",
                check="particles",
                details={"min_count": int(counts.min())},
            ))
        _obs.record_span("HealthParticleGate", t0, time.perf_counter())
        return {"injected": inj["total"], "thinned": thin["removed"],
                "injected_per_lithology": inj.get("per_lithology", {})}

    # ------------------------------------------------------------------ #
    # fields
    # ------------------------------------------------------------------ #
    def guard_coefficient_fields(self, eta_q, deta_q, rho_q):
        """Bound-guard the projected Stokes coefficients (Eq. 12/13)."""
        cfg = self.config
        for name, vals, bounds in (
            ("eta", eta_q, cfg.eta_bounds),
            ("rho", rho_q, cfg.rho_bounds),
        ):
            guarded, n = self._guarded(name, vals, bounds)
            if n:
                self._step["clipped"] += n
                self.stats["clipped"] += n
                _count_event(f"HealthClip_{name}", n)
                trace_resilience("health_clip", step=self.sim.step_index,
                                 field=name, clipped=n)
            if name == "eta":
                eta_q = guarded
            else:
                rho_q = guarded
        # the viscosity derivative only needs finiteness: its magnitude is
        # already clamped by the Newton positivity safeguard
        deta_q, _ = self._guarded("deta", deta_q, None)
        return eta_q, deta_q, rho_q

    def _guarded(self, name, vals, bounds):
        """:func:`guard_field` routed through :meth:`_reject` so field
        rejections are counted and traced like every other gate's."""
        try:
            return guard_field(name, vals, bounds)
        except HealthCheckFailure as exc:
            self._reject(exc)

    def guard_temperature(self, T: np.ndarray) -> np.ndarray:
        """Bound-guard the advected temperature after the energy solve."""
        if T is None:
            return T
        guarded, n = self._guarded("T", T, self.config.T_bounds)
        if n:
            self._step["clipped"] += n
            self.stats["clipped"] += n
            _count_event("HealthClip_T", n)
            trace_resilience("health_clip", step=self.sim.step_index,
                             field="T", clipped=n)
        return guarded

    # ------------------------------------------------------------------ #
    # incompressibility
    # ------------------------------------------------------------------ #
    def divergence_check(self, u: np.ndarray) -> float:
        """Monitor the discrete divergence ``|B u| / |u|`` of the solve.

        The Stokes solve enforces ``B u = 0`` only to the Krylov
        tolerance; a drifting constraint residual is the earliest signal
        of an inconsistent operator (stale geometry cache, corrupted
        divergence).  ``B u`` is read through the Picard operator of the
        simulation's current iterate (the linearization the plastic update
        reuses).  Monitor-only unless ``max_divergence`` is set.
        """
        sim = self.sim
        op = sim.linearize(np.concatenate([u, sim.p])).picard
        t0 = time.perf_counter()
        unorm = float(np.linalg.norm(u))
        div = float(np.linalg.norm(op.constraint(u))) / max(unorm, 1e-300)
        self._step["divergence"] = div
        self.stats["divergence"] = div
        _obs.record_span("HealthDivergence", t0, time.perf_counter())
        trace_resilience("health_divergence", step=self.sim.step_index,
                         rel_divergence=div)
        limit = self.config.max_divergence
        if limit is not None and (not np.isfinite(div) or div > limit):
            self._reject(HealthCheckFailure(
                f"discrete divergence |Bu|/|u| = {div:.3g} exceeds "
                f"{limit:g}",
                check="divergence",
                details={"rel_divergence": div, "limit": limit},
            ))
        return div

    # ------------------------------------------------------------------ #
    # step-level composites called by the time loop
    # ------------------------------------------------------------------ #
    def pre_step(self) -> None:
        """Detect-only gate before the step consumes the state."""
        self.mesh_gate("pre")
        pts = self.sim.points
        if pts.n == 0 or not np.isfinite(pts.x).all():
            self._reject(HealthCheckFailure(
                "material points corrupt at step entry "
                f"(n={pts.n}, finite={bool(np.isfinite(pts.x).all())})",
                check="particles", details={"census": pts.n},
            ))

    def post_step(self, u: np.ndarray) -> None:
        """Field finiteness + divergence monitor after the step's solves."""
        sim = self.sim
        if not (np.isfinite(u).all() and np.isfinite(sim.p).all()):
            self._reject(HealthCheckFailure(
                "non-finite velocity/pressure at step exit",
                check="field:solution", details={},
                reason=ConvergedReason.DIVERGED_NAN,
            ))
        self.divergence_check(u)
