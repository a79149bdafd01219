"""``repro.obs``: PETSc-style performance observability.

The measurement substrate behind every number this reproduction reports:
nested stage/event wall-time profiling with flop and byte accounting, and
:func:`record_span` for intervals stamped elsewhere (executor tasks, rank
replies, failed recovery attempts) (:mod:`~repro.obs.registry`); a
``-log_view`` ASCII summary with achieved GF/s, GB/s and roofline
fractions (:mod:`~repro.obs.report`); structured solver convergence
traces and the one record per accepted time step (``trace_step``),
exported through a stable JSON schema (:mod:`~repro.obs.trace`); the
per-step metric series derived from that step stream, and the run
manifest (:mod:`~repro.obs.metrics`); the flight recorder, which dumps
that same document when a failure fires (:mod:`~repro.obs.flight`); and
the span timeline every load-balance number is computed from
(:mod:`~repro.obs.timeline`).  Per-step data lives once, in
``REGISTRY.traces``; series are computed from it on export, and
``repro.obs/1`` is the only document this package writes.

Typical use::

    from repro import obs

    obs.enable()
    sol = solve_stokes(problem, config)   # hot layers are pre-instrumented
    obs.log_view()                        # PETSc-style stage/event table
    obs.write_json("trace.json")          # schema-validated JSON document
    obs.disable(); obs.reset()

Profiling is off by default; the disabled fast path is a single flag test
(see the dedicated overhead test), so the instrumentation stays in the
hot paths permanently.
"""

from . import flight, metrics, timeline
from .registry import (
    REGISTRY,
    STATE,
    EventRecord,
    StageRecord,
    disable,
    enable,
    enabled,
    instrument,
    log_bytes,
    log_flops,
    record_span,
    register_reset_hook,
    reset,
    stage,
    timed,
)
from .report import log_view, roofline_fraction
from .trace import (
    SCHEMA,
    attach_monitor,
    snapshot,
    trace_ksp,
    trace_mg,
    trace_resilience,
    trace_snes,
    trace_step,
    validate,
    write_json,
)

__all__ = [
    "REGISTRY", "STATE", "EventRecord", "StageRecord",
    "enable", "disable", "enabled", "reset", "register_reset_hook",
    "stage", "timed", "instrument", "log_flops", "log_bytes",
    "record_span",
    "log_view", "roofline_fraction",
    "SCHEMA", "snapshot", "validate", "write_json", "attach_monitor",
    "trace_ksp", "trace_snes", "trace_mg", "trace_resilience", "trace_step",
    "metrics", "flight", "timeline",
]
