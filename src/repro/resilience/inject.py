"""Deterministic fault injection for the resilience test suite.

Production lithosphere runs die in ways unit tests never exercise: a NaN
escaping a yield-condition evaluation mid-run, a near-degenerate coarse
level handing the smoother a singular diagonal, a worker killed mid-job,
a checkpoint truncated by a dying filesystem.  This module makes each of
those failures *reproducible*: faults are installed by monkey-patching a
named method with a counting wrapper, fire at explicit call numbers (or
caller-supplied predicates), and disarm deterministically, so a test can
assert both the failure and the recovery path byte for byte.  Faults
inside a rank process (kill, stall, dropped message) are armed on the
communicator itself, :meth:`repro.parallel.procomm.ProcessComm.inject_fault`.

Nothing here runs in production paths: when no :class:`FaultInjector` is
active the patched methods do not exist and the clean path pays zero cost.

Typical use::

    with FaultInjector() as fi:
        fi.poison_nan(StokesOperator, "apply", calls={3})
        sol = solve_stokes_resilient(problem, cfg)
    assert fi.fired and sol.converged
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..parallel.procomm import claim_sentinel


@dataclass
class _Patch:
    """One installed fault: where it lives and when it fires."""

    owner: object
    method: str
    original: Callable
    action: Callable          # result -> result, or raises
    calls: set[int] | None    # absolute call numbers that fire (1-based)
    when: Callable | None     # extra predicate; both must hold
    remaining: int | None     # firings left (None = unlimited)
    label: str
    count: int = 0


class FaultInjector:
    """Context manager installing (and always removing) deterministic faults.

    Faults are identified by ``label`` in :attr:`fired`, a chronological
    list of ``{"label", "call"}`` records the tests assert against.
    """

    def __init__(self):
        self._patches: list[_Patch] = []
        self.fired: list[dict] = []

    # -- lifecycle ------------------------------------------------------ #
    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc) -> bool:
        self.remove_all()
        return False

    def remove_all(self) -> None:
        """Restore every patched method (idempotent)."""
        while self._patches:
            p = self._patches.pop()
            setattr(p.owner, p.method, p.original)

    # -- core installer ------------------------------------------------- #
    def install(
        self,
        owner: object,
        method: str,
        action: Callable,
        calls: set[int] | None = None,
        when: Callable | None = None,
        limit: int | None = None,
        label: str | None = None,
    ) -> None:
        """Patch ``owner.method`` so ``action(result)`` replaces the result
        (or raises) whenever the trigger condition holds.

        ``owner`` may be a class (fault applies to every instance) or a
        single object.  ``calls`` is a set of 1-based call numbers;
        ``when`` an argument-free predicate; both must hold when given.
        ``limit`` bounds the number of firings (``None`` = unlimited).
        """
        original = getattr(owner, method)
        patch = _Patch(
            owner=owner, method=method, original=original, action=action,
            calls=set(calls) if calls is not None else None, when=when,
            remaining=limit, label=label or f"{method}",
        )

        def wrapper(*args, **kwargs):
            patch.count += 1
            fire = (
                (patch.remaining is None or patch.remaining > 0)
                and (patch.calls is None or patch.count in patch.calls)
                and (patch.when is None or patch.when())
            )
            result = original(*args, **kwargs)
            if fire:
                if patch.remaining is not None:
                    patch.remaining -= 1
                self.fired.append({"label": patch.label, "call": patch.count})
                return patch.action(result)
            return result

        setattr(owner, method, wrapper)
        self._patches.append(patch)

    # -- concrete faults ------------------------------------------------ #
    def poison_nan(self, owner: object, method: str, calls: set[int] | None = None,
                   when: Callable | None = None, limit: int | None = None,
                   mode: str = "first", label: str | None = None) -> None:
        """Corrupt the (array) return value with NaNs when triggered.

        ``mode="first"`` poisons a single entry -- the sneaky production
        failure where one quadrature point misbehaves; ``mode="all"``
        replaces the whole array.
        """
        if mode not in ("first", "all"):
            raise ValueError(f"mode must be 'first' or 'all', got {mode!r}")

        def action(result):
            out = np.array(result, dtype=np.float64, copy=True)
            if mode == "all":
                out[...] = np.nan
            else:
                out.reshape(-1)[0] = np.nan
            return out

        self.install(owner, method, action, calls=calls, when=when,
                     limit=limit, label=label or f"nan:{method}")

    def singular_diagonal(self, owner: object, method: str = "diagonal",
                          calls: set[int] | None = None,
                          when: Callable | None = None,
                          limit: int | None = None,
                          fraction: float = 0.1,
                          label: str | None = None) -> None:
        """Zero the leading ``fraction`` of a returned diagonal.

        A zero (or negative) Jacobi diagonal is exactly what a degenerate
        coarse level produces; the Chebyshev smoother rejects it at setup,
        which is the failure the fallback ladder must absorb.
        """

        def action(result):
            out = np.array(result, dtype=np.float64, copy=True)
            k = max(1, int(out.size * fraction))
            out.reshape(-1)[:k] = 0.0
            return out

        self.install(owner, method, action, calls=calls, when=when,
                     limit=limit, label=label or f"singular:{method}")

    def fail_with(self, owner: object, method: str, exc: Exception,
                  calls: set[int] | None = None, when: Callable | None = None,
                  limit: int | None = None, label: str | None = None) -> None:
        """Raise ``exc`` instead of returning, when triggered."""

        def action(_result):
            raise exc

        self.install(owner, method, action, calls=calls, when=when,
                     limit=limit, label=label or f"raise:{method}")

    # -- physics-state faults -------------------------------------------- #
    def fold_surface(self, mesh, depth: float = 0.1,
                     span: tuple[float, float] = (1 / 3, 2 / 3),
                     calls: set[int] | None = None,
                     when: Callable | None = None, limit: int | None = 1,
                     label: str | None = None) -> None:
        """Fold the free surface through the bottom after a surface update.

        Patches the time loop's ``update_free_surface`` so that, when
        triggered, a central band of the top plane (``span`` in fractional
        x) is driven ``depth`` *below the bottom plane* -- the
        bottom-crossing, column-inverting fold a violently converging
        surface velocity produces.  Without health guards this writes an
        inverted mesh (or raises from ``remesh_vertical``); with them the
        repair ladder must clamp/smooth or hand the step to rollback.
        """
        from ..sim import timeloop

        def action(result):
            nnx, nny, nnz = mesh.nodes_per_dim
            coords = mesh.coords.copy().reshape(nnz, nny, nnx, 3)
            i0 = int(span[0] * nnx)
            i1 = max(i0 + 1, int(span[1] * nnx))
            coords[-1, :, i0:i1, 2] = coords[0, :, i0:i1, 2] - depth
            mesh.set_coords(coords.reshape(-1, 3))
            return coords[-1, :, :, 2]

        self.install(timeloop, "update_free_surface", action, calls=calls,
                     when=when, limit=limit, label=label or "fold:surface")

    def starve_cells(self, sim, elements, calls: set[int] | None = None,
                     when: Callable | None = None, limit: int | None = 1,
                     label: str | None = None) -> None:
        """Starve ``elements`` of every material point after an advection.

        Patches the time loop's ``advect_points`` to flag all points in
        the target elements as lost, so the caller deletes them -- the
        population collapse that large deformation produces and the
        particle gate must repair by injection (``HealthInject``).
        ``sim`` is read at fire time, so the fault survives rollback
        restores that replace the point container.
        """
        from ..sim import timeloop

        targets = np.asarray(elements, dtype=np.int64)

        def action(result):
            return np.asarray(result, dtype=bool) | np.isin(
                sim.points.el, targets
            )

        self.install(timeloop, "advect_points", action, calls=calls,
                     when=when, limit=limit, label=label or "starve:cells")

    def poison_viscosity(self, mode: str = "spike", factor: float = 1e12,
                         fraction: float = 0.02,
                         calls: set[int] | None = None,
                         when: Callable | None = None,
                         limit: int | None = 1,
                         label: str | None = None) -> None:
        """Corrupt a projected coefficient field (Eq. 12 output).

        Patches the time loop's ``project_to_quadrature``; the *first*
        projection of a ``Simulation.linearize`` evaluation is the
        effective viscosity, so ``when=lambda: sim.step_index == k`` with
        ``limit=1`` poisons exactly one iterate's viscosity.  ``mode``:
        ``"spike"`` multiplies the leading ``fraction`` of quadrature
        values by ``factor`` (the wild outlier a broken flow law emits),
        ``"negative"`` flips their sign (non-physical, kills SPD-ness),
        ``"nan"`` replaces them with NaN.  The field guard must clip or
        reject each of these before the operator consumes it.
        """
        if mode not in ("spike", "negative", "nan"):
            raise ValueError(
                f"mode must be 'spike', 'negative' or 'nan', got {mode!r}"
            )
        from ..sim import timeloop

        def action(result):
            out = np.array(result, dtype=np.float64, copy=True)
            flat = out.reshape(-1)
            k = max(1, int(flat.size * fraction))
            if mode == "spike":
                flat[:k] *= factor
            elif mode == "negative":
                flat[:k] = -np.abs(flat[:k]) - 1.0
            else:
                flat[:k] = np.nan
            return out

        self.install(timeloop, "project_to_quadrature", action, calls=calls,
                     when=when, limit=limit,
                     label=label or f"poison:viscosity:{mode}")

    # -- job-level faults (the ensemble scheduler's recovery paths) ------ #
    def hang(self, after_step: int = 1, seconds: float = 3600.0,
             sentinel: str | None = None, label: str | None = None) -> None:
        """Freeze the time loop after its ``after_step``-th step completes.

        Patches ``Simulation._advance`` class-wide so the triggering call
        returns only after sleeping ``seconds`` -- long past any sane
        watchdog deadline.  The step's heartbeat has already been piped
        (the step listeners run inside ``_advance``), so the failure
        signature is exactly the production one: a healthy-looking job
        that goes silent.  ``sentinel`` (a :func:`claim_sentinel` path)
        makes the hang one-shot across subprocess retries, so the
        requeued job runs clean.  ``after_step`` counts ``_advance``
        calls in *this process* (a resumed worker restarts the count).
        """
        from ..sim.timeloop import Simulation

        def action(result):
            time.sleep(seconds)
            return result

        self.install(
            Simulation, "_advance", action, calls={int(after_step)},
            when=(lambda: claim_sentinel(sentinel)), limit=1,
            label=label or "job:hang",
        )

    def crash_after_steps(self, n: int, exit_code: int = 23,
                          sentinel: str | None = None,
                          label: str | None = None) -> None:
        """Kill the process with ``os._exit`` after its ``n``-th step.

        The un-catchable mid-run death (OOM kill, segfault): no exception
        propagates, no result is emitted, buffered state is lost.  The
        scheduler must classify the silent exit as a crash and the retry
        must resume from the last atomic checkpoint -- and, by the
        determinism contract, finish bit-identical to an uninterrupted
        run.  ``sentinel`` makes the crash one-shot across retries.
        """
        from ..sim.timeloop import Simulation

        def action(_result):
            os._exit(int(exit_code))

        self.install(
            Simulation, "_advance", action, calls={int(n)},
            when=(lambda: claim_sentinel(sentinel)), limit=1,
            label=label or "job:crash",
        )

    def corrupt_checkpoint(self, path: str, keep_fraction: float = 0.5,
                           calls: set[int] | None = None,
                           sentinel: str | None = None,
                           label: str | None = None) -> None:
        """Truncate the checkpoint at ``path`` right after it is written.

        Patches :func:`repro.sim.checkpoint.save_checkpoint` (module
        attribute -- callers must invoke it through the module) so the
        triggering save leaves a half-written archive under the *final*
        name: the corruption the atomic-write protocol cannot prevent
        (e.g. silent media truncation after a successful rename).  The
        validated load must reject it with ``ValueError`` and the worker
        must fall back to a fresh start -- still finishing bit-identical.
        """
        from ..sim import checkpoint as _checkpoint

        target = path if path.endswith(".npz") else path + ".npz"

        def action(result):
            if os.path.exists(target):
                self.truncate_file(target, keep_fraction)
            return result

        self.install(
            _checkpoint, "save_checkpoint", action, calls=calls,
            when=(lambda: claim_sentinel(sentinel)), limit=1,
            label=label or "job:corrupt_checkpoint",
        )

    # -- file faults ----------------------------------------------------- #
    @staticmethod
    def truncate_file(path: str, keep_fraction: float = 0.5) -> int:
        """Truncate ``path`` to a fraction of its size; returns bytes kept.

        Models a checkpoint write cut short by a crash or full disk (the
        case the atomic-write protocol in :mod:`repro.sim.checkpoint`
        prevents, and the validated load must survive).
        """
        size = os.path.getsize(path)
        keep = int(size * keep_fraction)
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        return keep
