"""Failure flight recorder (``repro.obs.flight``).

A ``-log_view`` aggregate cannot show what the solver was doing in the
moments *before* a rollback killed a step.  The flight recorder writes a
``FLIGHT_*.json`` black box whenever a failure trigger fires.  A dump is
an ordinary ``repro.obs/1`` document (:func:`repro.obs.snapshot`, checked
by :func:`repro.obs.validate`): its ``traces["step"]`` holds every
accepted step so far and ``meta["trigger"]`` names what fired it, so the
recorder stores nothing of its own:

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
"""

from __future__ import annotations

import json
import os

from .trace import snapshot, validate

__all__ = ["FlightRecorder", "arm", "armed", "disarm", "trigger"]

ENV_FLIGHT_DIR = "REPRO_FLIGHT_DIR"


class FlightRecorder:
    """Triggered black-box dumps of the ``repro.obs/1`` document."""

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = os.fspath(
            directory
            if directory is not None
            else os.environ.get(ENV_FLIGHT_DIR, "") or "."
        )
        self.dumps: list[str] = []   # paths written, oldest first
        self._dump_index = 0

    def dump(self, kind: str, detail: dict | None = None) -> str:
        """Write one validated ``FLIGHT_*.json``; returns its path.

        The name is ``FLIGHT[_{confighash}]_{kind}_{NNN}.json``.  When the
        application stamped a ``config_hash`` manifest field
        (``metrics.set_manifest``), its first 12 characters are woven into
        the name so N concurrent ensemble jobs dumping into one shared
        directory get disjoint namespaces instead of silently overwriting
        each other's black boxes.
        """
        doc = validate(snapshot(
            meta={"trigger": {"kind": str(kind), **(detail or {})}}))
        run_id = doc["manifest"]["config_hash"]
        stem = "_".join(["FLIGHT", *([str(run_id)[:12]] if run_id else []),
                         str(kind)])
        os.makedirs(self.directory, exist_ok=True)
        # exclusive create: two recorders (or a restarted worker resuming
        # into an old directory) bump past existing indices rather than
        # clobbering a dump already on disk
        while True:
            self._dump_index += 1
            path = os.path.join(self.directory,
                                f"{stem}_{self._dump_index:03d}.json")
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


def arm(directory: str | os.PathLike | None = None) -> FlightRecorder:
    """Arm the flight recorder (replacing any armed one); returns it."""
    global _RECORDER
    _RECORDER = FlightRecorder(directory)
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
