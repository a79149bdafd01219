"""Fallback policy engine: walk a ladder of ever-more-robust solver configs.

The paper's production preconditioner -- matrix-free GMG with Chebyshev
smoothing -- is the fastest option but also the most brittle under extreme
viscosity contrast: an indefinite smoother diagonal or a poisoned matvec
takes the whole preconditioned solve down.  PETSc practice (and the
matrix-free literature: Burkhart et al.; Clevenger & Heister) is to fall
back through progressively cheaper-to-trust configurations rather than
abort a 2000-step run.  The default ladder:

1. **primary** -- the caller's configuration, unchanged (matrix-free GMG);
2. **assembled-gmg** -- same hierarchy, but the fine level is the
   assembled kernel, which tolerates operator corner cases the tensor
   kernel may hit;
3. **sa-amg** -- collapse the geometric hierarchy and hand the whole
   viscous block to one smoothed-aggregation V-cycle (purely algebraic,
   no geometric transfer chain to poison);
4. **jacobi-restart** -- diagonal preconditioning under FGMRES with an
   enlarged budget: slow, but it cannot be singular and it cannot be
   indefinite.

Each downgrade is recorded as a ``ResilienceFallback`` obs event plus a
``resilience`` trace record, so a ``-log_view`` report shows exactly where
a run survived on a lower rung.

The engine is generic: a rung is a named config transform, an *attempt* is
any callable running one solve with a config, and a *classifier* maps the
attempt's result to a :class:`~repro.resilience.reasons.ConvergedReason`.
Nothing here imports the Stokes layer, so the same ladder drives any
future subsystem (energy, SCR, ...) without new plumbing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ..obs import registry as _obs
from ..obs.trace import trace_resilience
from .reasons import BreakdownError, ConvergedReason

#: exception types a rung failure may legitimately raise; anything else
#: (programming errors, keyboard interrupts) propagates immediately
RECOVERABLE = (
    BreakdownError,
    FloatingPointError,
    ZeroDivisionError,
    np.linalg.LinAlgError,
    ValueError,
)

#: reasons that trigger a downgrade; DIVERGED_ITS is excluded by default --
#: an exhausted iteration budget yields a usable (finite) iterate, and a
#: weaker preconditioner will not do better
DEFAULT_RETRY_ON = frozenset({
    ConvergedReason.DIVERGED_NAN,
    ConvergedReason.DIVERGED_DTOL,
    ConvergedReason.DIVERGED_BREAKDOWN,
    ConvergedReason.DIVERGED_STAGNATION,
})


@dataclass(frozen=True)
class Rung:
    """One ladder step: a name plus a config transform."""

    name: str
    transform: Callable[[object], object]


def default_rungs() -> list[Rung]:
    """The matrix-free GMG -> assembled GMG -> SA-AMG -> Jacobi ladder.

    Transforms use :func:`dataclasses.replace` on the caller's config
    (duck-typed: any dataclass with ``operator`` / ``mg_levels`` /
    ``coarse_solver`` / ``velocity_pc`` / ``outer`` / ``maxiter`` fields).
    """
    return [
        Rung("primary", lambda cfg: cfg),
        Rung("assembled-gmg", lambda cfg: replace(cfg, operator="asmb")),
        Rung("sa-amg", lambda cfg: replace(
            cfg, operator="asmb", mg_levels=1, coarse_solver="sa")),
        Rung("jacobi-restart", lambda cfg: replace(
            cfg, velocity_pc="jacobi", outer="fgmres",
            maxiter=2 * cfg.maxiter)),
    ]


@dataclass
class FallbackLadder:
    """Walk rungs until one attempt survives; record every downgrade.

    Parameters
    ----------
    rungs:
        Ordered :class:`Rung` list (default: :func:`default_rungs`).
    retry_on:
        The DIVERGED reasons that trigger a downgrade (exceptions in
        :data:`RECOVERABLE` always do).
    """

    rungs: list[Rung] = field(default_factory=default_rungs)
    retry_on: frozenset = DEFAULT_RETRY_ON

    def walk(
        self,
        base_config: object,
        attempt: Callable[[object], object],
        classify: Callable[[object], ConvergedReason],
    ) -> tuple[object, list[dict]]:
        """Run ``attempt(rung.transform(base_config))`` down the ladder.

        Returns ``(result, events)`` where ``events`` lists one dict per
        downgrade taken.  Raises :class:`BreakdownError` only if *every*
        rung raised (i.e. no attempt produced a result object at all).
        If the final rung returns a result that still classifies as
        diverged, that result is returned -- the caller sees the reason
        and owns the next policy level (time-step rollback).
        """
        events: list[dict] = []
        last_result = None
        last_error: Exception | None = None
        for i, rung in enumerate(self.rungs):
            cfg = rung.transform(base_config)
            t0 = time.perf_counter()
            error = None
            try:
                result = attempt(cfg)
                reason = classify(result)
            except RECOVERABLE as err:
                result, error = None, err
                reason = getattr(err, "reason", ConvergedReason.DIVERGED_BREAKDOWN)
            elapsed = time.perf_counter() - t0
            failed = (reason in self.retry_on) or error is not None
            if not failed:
                return result, events
            if result is not None:
                last_result = result
            if error is not None:
                last_error = error
            event = {
                "rung": rung.name,
                "reason": ConvergedReason(reason).name,
                "error": repr(error) if error is not None else None,
                "seconds": elapsed,
                "next": self.rungs[i + 1].name if i + 1 < len(self.rungs) else None,
            }
            events.append(event)
            _obs.record_span(f"ResilienceFallback[{rung.name}]", t0,
                             t0 + elapsed)
            trace_resilience(
                "fallback", rung=rung.name, reason=event["reason"],
                next=event["next"],
            )
        if last_result is None:
            raise BreakdownError(
                f"every fallback rung failed "
                f"({', '.join(e['rung'] for e in events)}); last error: "
                f"{last_error!r}",
                reason=ConvergedReason.DIVERGED_BREAKDOWN,
            ) from last_error
        return last_result, events
