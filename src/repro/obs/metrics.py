"""Per-step metric time-series and the run manifest (``repro.obs.metrics``).

The ``-log_view`` registry (:mod:`repro.obs.registry`) answers *where the
time went* as a post-mortem aggregate; this module answers *how the run
evolved*: a compact set of instruments sampled once per time step (and,
through the trace appenders, per solve) into columnar time-series that
ride inside the ``repro.obs/1`` JSON document under ``"metrics"``.

Three instrument kinds, Prometheus-style:

``counter``
    Monotone cumulative count (:func:`inc`): Krylov/Newton iterations,
    V-cycle counts, points lost/injected, resilience events.  The series
    records the cumulative value at each commit, so per-step rates are
    first differences.
``gauge``
    Last-write-wins sample (:func:`gauge`): dt, residual norms, MPM point
    census, the simulation's communicator totals.
``histogram``
    Running ``count/sum/min/max`` summary (:func:`observe`), exported as
    four sub-series (``name.count`` ...).

:func:`commit_step` flushes every touched instrument as one sample row
and returns it -- the flight recorder buffers it.  Every instrument is
written by the code that owns the number (executor timings are
``ParExec*`` events, not gauges).

Every export also carries a **run manifest** (:func:`build_manifest`):
config hash, machine model, package versions, RNG seed, the compiled
tensor kernel actually used (ISA variant, or why it fell back) and the
``REPRO_*`` environment -- so any ``BENCH_*.json`` / ``FLIGHT_*.json`` is
self-describing and two documents can be compared knowing *what* ran.

All appenders early-return on the module flag while profiling is
disabled -- the clean path stays one attribute test, matching the
registry contract.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform

from .registry import STATE, register_reset_hook

__all__ = [
    "build_manifest",
    "commit_step",
    "config_hash",
    "export",
    "gauge",
    "get_gauge",
    "inc",
    "manifest_override",
    "observe",
    "set_manifest",
]

#: manifest schema tag (nested inside the ``repro.obs/1`` document)
MANIFEST_SCHEMA = "repro.obs.manifest/1"


class _Store:
    """All metric state; cleared in place by the registry reset hook."""

    __slots__ = ("counters", "gauges", "hists", "series", "overrides",
                 "last_step")

    def __init__(self):
        self.clear()

    def clear(self):
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        # name -> [count, sum, min, max]
        self.hists: dict[str, list] = {}
        # name -> {"kind": str, "steps": [int], "values": [float]}
        self.series: dict[str, dict] = {}
        #: manifest fields set by the application (config hash, seed, ...)
        self.overrides: dict = {}
        self.last_step: int | None = None


_STORE = _Store()
register_reset_hook(_STORE.clear)


# --------------------------------------------------------------------- #
# instruments
# --------------------------------------------------------------------- #
def inc(name: str, n: float = 1) -> None:
    """Bump a cumulative counter (no-op while profiling is disabled)."""
    if not STATE.enabled:
        return
    _STORE.counters[name] = _STORE.counters.get(name, 0) + n


def gauge(name: str, value: float) -> None:
    """Set a last-write-wins gauge (no-op while profiling is disabled)."""
    if not STATE.enabled:
        return
    _STORE.gauges[name] = float(value)


def get_gauge(name: str, default: float | None = None) -> float | None:
    """Current value of a gauge (the progress line reads residuals here)."""
    return _STORE.gauges.get(name, default)


def observe(name: str, value: float) -> None:
    """Add one observation to a running histogram summary."""
    if not STATE.enabled:
        return
    value = float(value)
    h = _STORE.hists.get(name)
    if h is None:
        _STORE.hists[name] = [1, value, value, value]
    else:
        h[0] += 1
        h[1] += value
        h[2] = min(h[2], value)
        h[3] = max(h[3], value)


# --------------------------------------------------------------------- #
# per-step sampling
# --------------------------------------------------------------------- #
def _append(name: str, kind: str, step: int, value: float) -> None:
    s = _STORE.series.get(name)
    if s is None:
        s = _STORE.series[name] = {"kind": kind, "steps": [], "values": []}
    s["steps"].append(int(step))
    s["values"].append(float(value))


def commit_step(step: int) -> dict:
    """Sample every touched instrument at ``step``; returns the flat row.

    Counters emit their cumulative value, gauges their current value,
    histograms their ``count/sum/min/max`` summary -- one appended sample
    per series per commit.
    """
    if not STATE.enabled:
        return {}
    row: dict[str, float] = {}
    for name in sorted(_STORE.counters):
        v = _STORE.counters[name]
        _append(name, "counter", step, v)
        row[name] = float(v)
    for name in sorted(_STORE.gauges):
        v = _STORE.gauges[name]
        _append(name, "gauge", step, v)
        row[name] = float(v)
    for name in sorted(_STORE.hists):
        cnt, tot, lo, hi = _STORE.hists[name]
        for suffix, v in (("count", cnt), ("sum", tot), ("min", lo),
                          ("max", hi)):
            _append(f"{name}.{suffix}", "histogram", step, v)
            row[f"{name}.{suffix}"] = float(v)
    _STORE.last_step = int(step)
    return row


def export() -> dict:
    """The metric time-series as the ``"metrics"`` block of the document."""
    series = [
        {
            "name": name,
            "kind": s["kind"],
            "steps": list(s["steps"]),
            "values": [float(v) for v in s["values"]],
        }
        for name, s in sorted(_STORE.series.items())
    ]
    return {"series": series, "last_step": _STORE.last_step}


# --------------------------------------------------------------------- #
# run manifest
# --------------------------------------------------------------------- #
def set_manifest(**fields) -> None:
    """Record application-level manifest fields (config hash, seed, ...).

    Recorded even while profiling is disabled (one dict update; the data
    is free) so a later ``enable()`` + export still knows what ran.
    """
    _STORE.overrides.update(fields)


def manifest_override(key: str, default=None):
    """An application-set manifest field (see :func:`set_manifest`).

    The flight recorder reads ``config_hash`` here to namespace its dump
    files per run identity, so concurrent ensemble jobs sharing one dump
    directory cannot collide.
    """
    return _STORE.overrides.get(key, default)


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

    over = dict(_STORE.overrides)
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
