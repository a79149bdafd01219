"""Structured convergence tracing and the ``repro.obs`` JSON schema.

Five trace streams mirror the paper's solver diagnostics:

``ksp``
    One record per Krylov iteration (Fig. 2's residual histories):
    ``{"solver", "solve", "iteration", "rnorm"}`` -- appended by the
    methods in :mod:`repro.solvers.krylov` next to their ``monitor``
    hooks, so the existing callbacks keep working unchanged.
``snes``
    One record per nonlinear step (Fig. 4's Newton history):
    ``{"solve", "iteration", "fnorm", "lambda", "linear_iterations"}``.
``mg``
    Per-level residual reduction inside the V-cycle
    (``{"cycle", "level", "phase", "rnorm", "rnorm_in"}``); the
    ``postsmooth`` phase costs an extra operator apply and is only
    recorded under ``enable(mg_post_residuals=True)``.
``resilience``
    One record per recovery action (``{"event", ...}``): preconditioner
    fallback downgrades, time-step rollbacks with dt halving, dt
    restoration, and the physics-state health
    actions (``health_mesh_repair``, ``health_thin``, ``health_inject``,
    ``health_clip``, ``health_divergence``, ``health_reject``) -- the
    audit trail of how a run survived (appended by
    :mod:`repro.resilience` and :mod:`repro.sim.timeloop`).
``step``
    One record per *accepted* time step (Fig. 4's per-step record): the
    stats :meth:`repro.sim.timeloop.Simulation.step` returns plus
    ``step``, ``time``, ``points`` and the owned communicator's ``comm``
    totals.  A rolled-back attempt leaves no step record, only its
    ``resilience`` ``rollback`` record.  The per-step metric series
    (:func:`repro.obs.metrics.export`) are read from this stream; nothing
    stores a step a second time.

:func:`snapshot` exports everything -- stages, events, traces, attached
monitors -- as one JSON document with a stable ``"schema"`` tag; the
``benchmarks/`` drivers write their ``BENCH_*.json`` through it and
:func:`validate` is the documented contract (also enforced in
``tests/test_obs.py``).
"""

from __future__ import annotations

import json
import os

from . import metrics as _metrics
from .registry import REGISTRY, STATE

#: schema tag written into every exported document; bump on breaking change
SCHEMA = "repro.obs/1"


# --------------------------------------------------------------------- #
# trace appenders (each is a guarded no-op while profiling is disabled)
# --------------------------------------------------------------------- #
def trace_ksp(solver: str, iteration: int, rnorm: float) -> None:
    """Record one Krylov iteration; iteration 0 opens a new solve."""
    if not STATE.enabled:
        return
    if iteration == 0:
        REGISTRY._ksp_index += 1
    REGISTRY.traces["ksp"].append({
        "solver": solver,
        "solve": REGISTRY._ksp_index,
        "iteration": int(iteration),
        "rnorm": float(rnorm),
    })


def trace_snes(
    iteration: int,
    fnorm: float,
    step_length: float | None = None,
    linear_iterations: int | None = None,
) -> None:
    """Record one nonlinear (Newton/Picard) step; iteration 0 opens a solve."""
    if not STATE.enabled:
        return
    if iteration == 0:
        REGISTRY._snes_index += 1
    REGISTRY.traces["snes"].append({
        "solve": REGISTRY._snes_index,
        "iteration": int(iteration),
        "fnorm": float(fnorm),
        "lambda": None if step_length is None else float(step_length),
        "linear_iterations": (
            None if linear_iterations is None else int(linear_iterations)
        ),
    })


def trace_mg(
    level: int, phase: str, rnorm: float, rnorm_in: float | None = None
) -> None:
    """Record a per-level residual norm; level 0 ``presmooth`` opens a cycle."""
    if not STATE.enabled:
        return
    if level == 0 and phase == "presmooth":
        REGISTRY._mg_cycle += 1
    REGISTRY.traces["mg"].append({
        "cycle": REGISTRY._mg_cycle,
        "level": int(level),
        "phase": phase,
        "rnorm": float(rnorm),
        "rnorm_in": None if rnorm_in is None else float(rnorm_in),
    })


def trace_resilience(event: str, **fields) -> None:
    """Record one recovery action (fallback, rollback, respawn, ...).

    ``fields`` are free-form JSON scalars; ``event`` names the action.
    Like every trace appender this is a no-op while profiling is off --
    the recovery itself happens regardless, only the audit trail is
    conditional.
    """
    if not STATE.enabled:
        return
    REGISTRY.traces["resilience"].append({"event": str(event), **fields})


def _jsonable(obj):
    """Deep-convert numpy scalars/arrays so ``json.dump`` never chokes on
    a stats dict assembled from solver internals."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item") and callable(obj.item):  # numpy scalar
        try:
            return obj.item()
        except (ValueError, TypeError):
            return [_jsonable(v) for v in obj.tolist()]
    return obj


def trace_step(stats: dict, **fields) -> None:
    """Record one accepted time step: ``fields`` (``step``, ``time``, ...)
    and the step's ``stats``, converted to JSON types once (a copy: later
    edits of ``stats`` do not reach the record)."""
    if not STATE.enabled:
        return
    REGISTRY.traces["step"].append(_jsonable({**fields, **stats}))


def attach_monitor(name: str, data: dict) -> None:
    """Attach a monitor export (e.g. ``FieldSplitMonitor.as_dict()``) so it
    rides along in :func:`snapshot` under ``"monitors"`` -- the route the
    benches publish their numbers by instead of hand-rolled dicts.
    Recorded even while profiling is disabled (the caller already paid
    for the data)."""
    REGISTRY.monitors[str(name)] = dict(data)


# --------------------------------------------------------------------- #
# export + validation
# --------------------------------------------------------------------- #
def snapshot(meta: dict | None = None) -> dict:
    """The full registry as one schema-tagged, JSON-serializable document.

    Besides the stage/event/trace/monitor aggregates this carries the
    per-step metric series derived from the ``step`` stream
    (``"metrics"``, see :mod:`repro.obs.metrics`) and the run manifest
    (``"manifest"``: config hash, machine model, package versions, seed)
    -- every export, benchmarks included, is self-describing.
    """
    doc = {
        "schema": SCHEMA,
        "stages": [s.as_dict() for s in REGISTRY.stages.values()],
        "events": [e.as_dict() for e in REGISTRY.events.values()],
        "traces": {k: list(v) for k, v in REGISTRY.traces.items()},
        "monitors": {k: dict(v) for k, v in REGISTRY.monitors.items()},
        "metrics": _metrics.export(),
        "manifest": _metrics.build_manifest(),
        "meta": dict(meta or {}),
    }
    # function-level: repro.obs.timeline imports _check_fields from this
    # module, so a module-level import here would be an import cycle
    from . import timeline as _timeline

    tl = _timeline.armed()
    if tl is not None:
        doc["timeline"] = tl.export()
    return doc


def write_json(path: str | os.PathLike, meta: dict | None = None) -> dict:
    """Validate and write :func:`snapshot` to ``path``; returns the doc."""
    doc = validate(snapshot(meta))
    with open(os.fspath(path), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


_EVENT_FIELDS = {
    "name": str, "stage": str, "count": int, "seconds": float,
    "self_seconds": float, "flops": int, "bytes": int,
    "gflops_per_s": float, "gbytes_per_s": float,
}
_STAGE_FIELDS = {
    "name": str, "count": int, "seconds": float, "mem_peak_bytes": int,
}
_SERIES_FIELDS = {
    "name": str, "kind": str, "steps": list, "values": list,
}
_TRACE_FIELDS = {
    "ksp": {"solver": str, "solve": int, "iteration": int, "rnorm": float},
    "snes": {"solve": int, "iteration": int, "fnorm": float},
    "mg": {"cycle": int, "level": int, "phase": str, "rnorm": float},
    "resilience": {"event": str},
    "step": {"step": int, "time": float},
}


def _check_fields(record: dict, fields: dict, where: str) -> None:
    for key, typ in fields.items():
        if key not in record:
            raise ValueError(f"{where}: missing field {key!r}")
        val = record[key]
        if typ is float:
            ok = isinstance(val, (int, float)) and not isinstance(val, bool)
        else:
            ok = isinstance(val, typ) and not isinstance(val, bool)
        if not ok:
            raise ValueError(
                f"{where}: field {key!r} has {type(val).__name__}, "
                f"expected {typ.__name__}"
            )


def validate(doc: dict) -> dict:
    """Check ``doc`` against the ``repro.obs/1`` schema; returns it.

    Raises :class:`ValueError` with a pointed message on the first
    violation -- the tests and the bench drivers both go through here, so
    the schema cannot drift silently.
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a dict")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema tag {doc.get('schema')!r}")
    for key in ("stages", "events", "traces", "monitors", "meta", "metrics",
                "manifest"):
        if key not in doc:
            raise ValueError(f"missing top-level key {key!r}")
    for i, ev in enumerate(doc["events"]):
        _check_fields(ev, _EVENT_FIELDS, f"events[{i}]")
    for i, st in enumerate(doc["stages"]):
        _check_fields(st, _STAGE_FIELDS, f"stages[{i}]")
    if not isinstance(doc["traces"], dict):
        raise ValueError("traces must be a dict of record lists")
    for kind, fields in _TRACE_FIELDS.items():
        records = doc["traces"].get(kind, [])
        for i, rec in enumerate(records):
            _check_fields(rec, fields, f"traces[{kind!r}][{i}]")
    if not isinstance(doc["monitors"], dict) or not isinstance(doc["meta"], dict):
        raise ValueError("monitors and meta must be dicts")
    m = doc["metrics"]
    if not isinstance(m, dict) or not isinstance(m.get("series"), list):
        raise ValueError("metrics must be a dict with a 'series' list")
    for i, s in enumerate(m["series"]):
        _check_fields(s, _SERIES_FIELDS, f"metrics.series[{i}]")
        if len(s["steps"]) != len(s["values"]):
            raise ValueError(
                f"metrics.series[{i}]: steps/values length mismatch"
            )
    if not isinstance(doc["manifest"], dict):
        raise ValueError("manifest must be a dict")
    # "timeline" only appears while repro.obs.timeline is armed
    if "timeline" in doc:
        from . import timeline as _timeline

        _timeline.validate_timeline(doc["timeline"])
    return doc
