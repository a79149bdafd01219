"""Per-step metric series and the run manifest (``repro.obs.metrics``).

The ``-log_view`` registry (:mod:`repro.obs.registry`) answers *where the
time went* as a post-mortem aggregate; the ``step`` trace stream
(:func:`repro.obs.trace.trace_step`, one record per accepted time step)
answers *how the run evolved*.  :func:`export` turns that stream into
columnar series -- one per numeric step field, nested dicts flattened
with dots (``health.clipped``, ``comm.messages``) -- that ride inside the
``repro.obs/1`` JSON document under ``"metrics"``.  Nothing is stored
here: the series are a pure function of ``REGISTRY.traces["step"]``.

Two series kinds, Prometheus-style:

``counter``
    A field in :data:`COUNTS` (Newton/Krylov iterations, points lost or
    injected, retries, health repairs): the series holds the cumulative
    value at each step, so per-step values are first differences.
``gauge``
    Every other numeric field (``dt``, ``time``, ``points``, ``seconds``,
    ``comm.*`` totals, ...): the step's value as recorded.

Every export also carries a **run manifest** (:func:`build_manifest`):
config hash, machine model, package versions, RNG seed, the compiled
tensor kernel actually used (ISA variant, or why it fell back) and the
``REPRO_*`` environment -- so any ``BENCH_*.json`` / ``FLIGHT_*.json`` is
self-describing and two documents can be compared knowing *what* ran.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform

from .registry import REGISTRY, register_reset_hook

__all__ = [
    "COUNTS",
    "build_manifest",
    "config_hash",
    "export",
    "set_manifest",
]

#: manifest schema tag (nested inside the ``repro.obs/1`` document)
MANIFEST_SCHEMA = "repro.obs.manifest/1"

#: step fields that count work done within the step: their series
#: accumulate; every other numeric field is a gauge
COUNTS = frozenset({
    "newton_iterations", "krylov_iterations", "points_lost",
    "points_injected", "retries", "health.mesh_repairs", "health.thinned",
    "health.injected", "health.clipped",
})

#: manifest fields set by the application (config hash, seed, ...)
_OVERRIDES: dict = {}
register_reset_hook(_OVERRIDES.clear)


# --------------------------------------------------------------------- #
# per-step series, derived from the step stream
# --------------------------------------------------------------------- #
def _numeric_fields(record: dict, prefix: str = ""):
    """``(dotted name, value)`` of every numeric field of a step record."""
    for key, val in record.items():
        if isinstance(val, dict):
            yield from _numeric_fields(val, f"{prefix}{key}.")
        elif isinstance(val, (int, float)) and not isinstance(val, bool):
            yield prefix + key, val


def export() -> dict:
    """The ``"metrics"`` block of the document: one series per numeric
    field of the ``step`` stream, sampled at each record's ``step``."""
    records = REGISTRY.traces["step"]
    series: dict[str, dict] = {}
    for rec in records:
        for name, value in _numeric_fields(rec):
            if name == "step":
                continue
            s = series.get(name)
            if s is None:
                kind = "counter" if name in COUNTS else "gauge"
                s = series[name] = {"name": name, "kind": kind,
                                    "steps": [], "values": []}
            if s["kind"] == "counter" and s["values"]:
                value += s["values"][-1]
            s["steps"].append(rec["step"])
            s["values"].append(float(value))
    return {"series": [series[name] for name in sorted(series)],
            "last_step": records[-1]["step"] if records else None}


# --------------------------------------------------------------------- #
# run manifest
# --------------------------------------------------------------------- #
def set_manifest(**fields) -> None:
    """Record application-level manifest fields (config hash, seed, ...).

    Recorded even while profiling is disabled (one dict update; the data
    is free) so a later ``enable()`` + export still knows what ran.
    """
    _OVERRIDES.update(fields)


def config_hash(obj) -> str:
    """Stable short hash of a (nested-dataclass) configuration object."""

    def default(o):
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            return dataclasses.asdict(o)
        return repr(o)

    blob = json.dumps(obj, default=default, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _package_versions() -> dict:
    out = {}
    for mod in ("numpy", "scipy"):
        try:
            out[mod] = __import__(mod).__version__
        except Exception:
            continue
    return out


def build_manifest() -> dict:
    """The run manifest: what ran, on what model, with which packages.

    Application overrides (:func:`set_manifest`) win over the computed
    defaults; ``machine_model`` may be a name set by the report layer
    (which records the model actually used for the roofline columns).
    """
    from ..perf.machine import resolve_machine

    from ..matfree import _ckernel

    over = dict(_OVERRIDES)
    machine = resolve_machine(over.pop("machine_model", None))
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "packages": _package_versions(),
        "machine_model": machine.name,
        "machine": machine.as_dict(),
        "env": {k: os.environ[k] for k in sorted(os.environ)
                if k.startswith("REPRO_")},
        "config_hash": over.pop("config_hash", None),
        "seed": over.pop("seed", None),
        # which compiled tensor kernel ran ({"isa": ...}) or why none did
        # ({"fallback_reason": ...}); None if no operator asked for it.
        # Compiled and fallback hosts differ in the last bits of a result.
        "tensor_kernel": _ckernel.status(),
    }
    manifest.update(over)
    return manifest
