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
manifest (:mod:`~repro.obs.metrics`); the flight recorder, whose ring is
the tail of the same stream (:mod:`~repro.obs.flight`); and the span
timeline every load-balance number is computed from
(:mod:`~repro.obs.timeline`).  Per-step data lives once, in
``REGISTRY.traces``; series and rings are computed from it on export.

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

# NOTE: .timeline is deliberately not imported eagerly -- it is a
# ``python -m`` CLI, and pre-importing it here would trip runpy's
# double-import warning on every invocation; reach it lazily via
# attribute access (``obs.timeline`` works through __getattr__ below)
from . import flight, metrics
from .flight import FLIGHT_SCHEMA, ProgressLine, validate_flight
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
    "FLIGHT_SCHEMA", "ProgressLine", "validate_flight",
]


def __getattr__(name):
    # lazy submodule access for the python -m CLI (see NOTE above)
    if name == "timeline":
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
