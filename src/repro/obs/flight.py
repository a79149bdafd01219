"""Failure flight recorder and live progress line (``repro.obs.flight``).

A ``-log_view`` aggregate cannot show what the solver was doing in the
moments *before* a rollback killed a step.  The flight recorder dumps a
schema-validated ``FLIGHT_*.json`` black box whenever a failure trigger
fires; its ``steps`` ring is the last ``capacity`` records of the
``step`` trace stream (:func:`repro.obs.trace.trace_step`), read at dump
time, so the recorder stores nothing of its own:

=================  ====================================================
trigger            fired by
=================  ====================================================
``rollback``       :meth:`repro.sim.timeloop.Simulation.step` restoring
                   its snapshot after a ``BreakdownError`` /
                   ``HealthCheckFailure`` or a hard-diverged Newton step
``breakdown``      the same step loop exhausting ``MAX_STEP_RETRIES``
                   (the error still propagates; the dump is the black box)
``manual``         :func:`trigger` called by the application
=================  ====================================================

The recorder is **armed explicitly** (:func:`arm`) -- it is never on by
accident, and while disarmed :func:`trigger` is one ``is None`` test.
Dumps go to ``$REPRO_FLIGHT_DIR`` (default: the working directory).

:class:`ProgressLine` is the companion live view for long runs: one
``\\r``-rewritten stderr line with step, dt, steps/s, the latest residual
norm (the last ``snes``/``ksp`` trace record), and how many workers were
busy -- enabled with
``Simulation.run(..., progress=True)``.
"""

from __future__ import annotations

import json
import os
import sys
import time

from . import metrics
from .registry import REGISTRY

__all__ = [
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "ProgressLine",
    "arm",
    "armed",
    "disarm",
    "trigger",
    "validate_flight",
]

#: schema tag of every flight dump; bump on breaking change
FLIGHT_SCHEMA = "repro.obs.flight/1"
ENV_FLIGHT_DIR = "REPRO_FLIGHT_DIR"

#: trace records kept per stream in a dump (the tail is what matters)
_TRACE_TAIL = 200


class FlightRecorder:
    """Triggered black-box dumps of the last ``capacity`` step records."""

    def __init__(self, capacity: int = 32,
                 directory: str | os.PathLike | None = None,
                 prefix: str = "FLIGHT"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.directory = os.fspath(
            directory
            if directory is not None
            else os.environ.get(ENV_FLIGHT_DIR, "") or "."
        )
        self.prefix = str(prefix)
        self.dumps: list[str] = []   # paths written, oldest first
        self._dump_index = 0

    def document(self, kind: str, detail: dict | None = None) -> dict:
        """The dump document for one trigger (schema-validated by dump)."""
        return {
            "schema": FLIGHT_SCHEMA,
            "trigger": {"kind": str(kind), **(detail or {})},
            "capacity": self.capacity,
            "steps": REGISTRY.traces["step"][-self.capacity:],
            "events": [e.as_dict() for e in REGISTRY.events.values()],
            "traces_tail": {
                k: list(v[-_TRACE_TAIL:]) for k, v in REGISTRY.traces.items()
            },
            "metrics": metrics.export(),
            "manifest": metrics.build_manifest(),
        }

    def _dump_name(self, kind: str, index: int) -> str:
        """Dump filename: ``{prefix}[_{confighash}]_{kind}_{NNN}.json``.

        When the application stamped a ``config_hash`` manifest field
        (``metrics.set_manifest``), it is woven into the name so N
        concurrent ensemble jobs dumping into one shared directory get
        disjoint namespaces instead of silently overwriting each other's
        black boxes.  Without the override (single-run usage, existing
        tests) the historical ``FLIGHT_<kind>_<NNN>.json`` name is kept.
        """
        run_id = metrics.manifest_override("config_hash")
        parts = [self.prefix]
        if run_id:
            parts.append(str(run_id)[:12])
        parts += [str(kind), f"{index:03d}"]
        return "_".join(parts) + ".json"

    def dump(self, kind: str, detail: dict | None = None) -> str:
        """Write one validated ``FLIGHT_*.json``; returns its path."""
        doc = validate_flight(self.document(kind, detail))
        os.makedirs(self.directory, exist_ok=True)
        # exclusive create: two recorders (or a restarted worker resuming
        # into an old directory) bump past existing indices rather than
        # clobbering a dump already on disk
        while True:
            self._dump_index += 1
            path = os.path.join(
                self.directory, self._dump_name(kind, self._dump_index)
            )
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                             0o644)
            except FileExistsError:
                continue
            break
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        self.dumps.append(path)
        return path


#: the armed recorder; ``None`` keeps trigger a single test
_RECORDER: FlightRecorder | None = None


def arm(capacity: int = 32, directory: str | os.PathLike | None = None,
        prefix: str = "FLIGHT") -> FlightRecorder:
    """Arm the flight recorder (replacing any armed one); returns it."""
    global _RECORDER
    _RECORDER = FlightRecorder(capacity, directory, prefix)
    return _RECORDER


def disarm() -> None:
    """Disarm; written dumps stay on disk."""
    global _RECORDER
    _RECORDER = None


def armed() -> FlightRecorder | None:
    """The armed recorder, or ``None``."""
    return _RECORDER


def trigger(kind: str, **detail) -> str | None:
    """Dump the black box for one failure event; returns the path (or
    ``None`` while disarmed -- the failure handling itself never depends
    on the recorder)."""
    if _RECORDER is None:
        return None
    return _RECORDER.dump(kind, detail)


# --------------------------------------------------------------------- #
# flight-dump schema validation
# --------------------------------------------------------------------- #
def validate_flight(doc: dict) -> dict:
    """Check a flight dump against ``repro.obs.flight/1``; returns it."""
    if not isinstance(doc, dict):
        raise ValueError("flight document must be a dict")
    if doc.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(f"unknown flight schema tag {doc.get('schema')!r}")
    for key in ("trigger", "capacity", "steps", "events", "traces_tail",
                "metrics", "manifest"):
        if key not in doc:
            raise ValueError(f"flight dump missing top-level key {key!r}")
    trig = doc["trigger"]
    if not isinstance(trig, dict) or not isinstance(trig.get("kind"), str):
        raise ValueError("trigger must be a dict with a string 'kind'")
    if not isinstance(doc["capacity"], int) or doc["capacity"] < 1:
        raise ValueError("capacity must be a positive int")
    if not isinstance(doc["steps"], list):
        raise ValueError("steps must be a list")
    if len(doc["steps"]) > doc["capacity"]:
        raise ValueError("more buffered steps than capacity")
    for i, s in enumerate(doc["steps"]):
        if not isinstance(s, dict) or not isinstance(s.get("step"), int):
            raise ValueError(f"steps[{i}] must be a dict with an int 'step'")
    if not isinstance(doc["metrics"], dict) or \
            not isinstance(doc["metrics"].get("series"), list):
        raise ValueError("metrics must be a dict with a 'series' list")
    if not isinstance(doc["manifest"], dict):
        raise ValueError("manifest must be a dict")
    if not isinstance(doc["traces_tail"], dict):
        raise ValueError("traces_tail must be a dict of record lists")
    return doc


# --------------------------------------------------------------------- #
# live progress line
# --------------------------------------------------------------------- #
def _task_seconds() -> float:
    """Seconds booked so far into executor task events (``ParExecTask:*``,
    one per dispatched method); zero while ``repro.obs`` is disabled."""
    return sum(ev.seconds for ev in REGISTRY.events.values()
               if ev.name.startswith("ParExecTask:"))


def _last_residual() -> float | None:
    """The latest nonlinear residual norm, else the latest Krylov one."""
    traces = REGISTRY.traces
    if traces["snes"]:
        return traces["snes"][-1]["fnorm"]
    if traces["ksp"]:
        return traces["ksp"][-1]["rnorm"]
    return None


class ProgressLine:
    """One-line ``\\r``-rewritten run status for long simulations.

    ``step 12  t 3.1e-2  dt 2.5e-3  1.84 steps/s  |F| 4.2e-05  1.3 workers busy``

    Steps/s is a running average over the line's lifetime; busy workers
    is the executor task-event seconds added since the previous update
    divided by the wall time since then.  Like the residual column (the
    last ``snes``, else ``ksp``, trace record) it reads ``repro.obs``, so
    it shows only while profiling is enabled and some task has run.  Writes to ``stream`` (default stderr) and never
    raises -- a broken pipe must not kill the run it narrates.

    The ``\\r`` rewrite only happens when the stream reports
    ``isatty()``; on a redirected stream (CI logs, ``2>run.log``) every
    ``interval``-th update -- plus the first -- is written as a plain
    newline-terminated line instead, so logs stay readable rather than
    accumulating one giant carriage-return soup line.
    """

    def __init__(self, stream=None, interval: int = 10):
        self.stream = stream if stream is not None else sys.stderr
        self.interval = max(1, int(interval))
        try:
            self._tty = bool(self.stream.isatty())
        except Exception:
            self._tty = False
        self.t0 = time.perf_counter()
        self._last_t = self.t0
        self._last_busy = _task_seconds()
        self.count = 0
        self._width = 0

    def format(self, step: int, sim_time: float, dt: float,
               residual: float | None, busy_workers: float | None) -> str:
        rate = self.count / max(time.perf_counter() - self.t0, 1e-9)
        parts = [f"step {step}", f"t {sim_time:.3g}", f"dt {dt:.2e}",
                 f"{rate:.2f} steps/s"]
        if residual is not None:
            parts.append(f"|F| {residual:.2e}")
        if busy_workers is not None:
            parts.append(f"{busy_workers:.1f} workers busy")
        return "  ".join(parts)

    def update(self, step: int, sim_time: float, dt: float,
               residual: float | None = None) -> str:
        self.count += 1
        now = time.perf_counter()
        busy = _task_seconds()
        busy_workers = None
        if busy > 0:
            wall = max(now - self._last_t, 1e-9)
            busy_workers = max(busy - self._last_busy, 0.0) / wall
        self._last_busy = busy
        self._last_t = now
        if residual is None:
            residual = _last_residual()
        text = self.format(step, sim_time, dt, residual, busy_workers)
        self._width = max(self._width, len(text))
        try:
            if self._tty:
                self.stream.write("\r" + text.ljust(self._width))
                self.stream.flush()
            elif self.count == 1 or self.count % self.interval == 0:
                self.stream.write(text + "\n")
                self.stream.flush()
        except Exception:
            pass
        return text

    def close(self) -> None:
        try:
            if self.count and self._tty:
                self.stream.write("\n")
                self.stream.flush()
        except Exception:
            pass
