"""Per-worker timeline tracing and Perfetto export (``repro.obs.timeline``).

The ``-log_view`` registry answers *where the time went* as an aggregate;
this module answers *when, and on which worker*: every event/stage exit of
:mod:`repro.obs.registry` and every :func:`~repro.obs.registry.record_span`
(executor tasks, rank replies, queue waits, failed recovery attempts)
becomes a **span** -- ``(name, category, stage path, t0, t1, worker rank,
os pid, thread id, flops, bytes, dispatch id)`` -- buffered in a bounded
ring per worker and merged into one global timeline that exports as

* a ``repro.obs.timeline/1`` section inside every ``repro.obs/1`` JSON
  document (:func:`repro.obs.snapshot` attaches it while armed), and
* Chrome trace-event JSON (:func:`chrome_trace` /
  :func:`write_chrome_trace`), viewable at https://ui.perfetto.dev.

Capture model
-------------
The timeline is **armed explicitly** (:func:`arm`); while disarmed the
registry's span sink is ``None`` and every hot path stays a single test.
Spans only accumulate while profiling is enabled (the registry entry
points are no-ops otherwise).  The timeline stores
spans and one counter, the next dispatch id, so the tasks of every
engine's dispatches get distinct ids.

Worker ranks are the executor's **task indices** -- the same virtual
subdomain ranks the :class:`~repro.parallel.decomposition.BlockDecomposition`
slabs correspond to -- so they are deterministic for any engine; the
master thread records under rank ``-1`` (rendered as ``main``).  Only the
master records: task and queue-wait spans come from
:func:`~repro.parallel.executor.account_tasks` once a dispatch is done,
from ``perf_counter`` stamps taken on the worker thread or sent back in a
rank process's reply.  No event runs inside a task.

Analysis
--------
:func:`analyze` is the one reduction of a span list to load-balance
facts: wall time split into serial vs parallel segments (the critical
path), per-worker busy/idle utilization, and per-dispatch
straggler/imbalance factors (``max task time / mean task time``).  The
``-log_view`` tail (:func:`summary`) and the export's ``analysis`` block
both read it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

from .registry import MAIN_RANK, register_reset_hook, set_span_sink
from .trace import _check_fields

__all__ = [
    "DEFAULT_CAPACITY",
    "MAIN_RANK",
    "TIMELINE_SCHEMA",
    "Timeline",
    "analyze",
    "arm",
    "armed",
    "chrome_trace",
    "disarm",
    "summary",
    "validate_chrome_trace",
    "validate_timeline",
    "write_chrome_trace",
]

#: schema tag of the timeline section; bump on breaking change
TIMELINE_SCHEMA = "repro.obs.timeline/1"
#: per-worker ring capacity when not given explicitly
DEFAULT_CAPACITY = 16384

#: positional layout of one span tuple (cheap to capture, stable to export)
_FIELDS = ("name", "cat", "stage", "t0", "t1", "rank", "pid", "tid",
           "flops", "bytes", "dispatch")


class Timeline:
    """Bounded per-worker span rings and the dispatch-id counter.

    Times are stored relative to ``origin`` (the ``perf_counter`` value at
    arm time); ``perf_counter`` is ``CLOCK_MONOTONIC`` system-wide on
    Linux, so task stamps taken in rank processes land on the same axis.
    Every load-balance number is computed from the spans by
    :func:`analyze`; the timeline keeps no running tallies of its own.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.clear()

    # -- capture -------------------------------------------------------- #
    def _push(self, rank: int, span: tuple) -> None:
        buf = self.buffers.get(rank)
        if buf is None:
            buf = self.buffers[rank] = deque(maxlen=self.capacity)
        if len(buf) == self.capacity:
            self.dropped[rank] = self.dropped.get(rank, 0) + 1
        buf.append(span)
        self.recorded += 1

    def sink(self, name: str, cat: str, stage: str, t0: float, t1: float,
             flops: int = 0, nbytes: int = 0, rank: int = MAIN_RANK,
             dispatch: int | None = -1) -> int:
        """Registry span sink (absolute ``perf_counter`` endpoints).

        ``dispatch=None`` opens a new dispatch with the next id of this
        timeline's one counter, so ids are unique across engines; returns
        the span's dispatch id."""
        if dispatch is None:
            dispatch = self._next_dispatch
            self._next_dispatch += 1
        self._push(rank, (
            name, cat, stage, t0 - self.origin, t1 - self.origin, rank,
            os.getpid(), threading.get_ident(), int(flops), int(nbytes),
            dispatch,
        ))
        return dispatch

    def clear(self) -> None:
        """Drop buffered spans and restart the dispatch ids; re-anchor
        the origin."""
        #: rank -> ring of span tuples
        self.buffers: dict[int, deque] = {}
        self.dropped: dict[int, int] = {}
        self.recorded = 0
        self._next_dispatch = 0
        self.origin = time.perf_counter()

    # -- export --------------------------------------------------------- #
    def spans(self) -> list[dict]:
        """The merged timeline: every buffered span as a dict, by ``t0``."""
        out = []
        for rank in sorted(self.buffers):
            for sp in self.buffers[rank]:
                out.append({
                    "name": str(sp[0]), "cat": str(sp[1]),
                    "stage": str(sp[2]), "t0": float(sp[3]),
                    "t1": float(sp[4]), "rank": int(sp[5]),
                    "pid": int(sp[6]), "tid": int(sp[7]),
                    "flops": int(sp[8]), "bytes": int(sp[9]),
                    "dispatch": int(sp[10]),
                })
        out.sort(key=lambda s: (s["t0"], s["t1"]))
        return out

    def export(self) -> dict:
        """The ``repro.obs.timeline/1`` section (spans + analysis)."""
        spans = self.spans()
        return {
            "schema": TIMELINE_SCHEMA,
            "clock": "perf_counter",
            "capacity": self.capacity,
            "recorded": int(self.recorded),
            "dropped": int(sum(self.dropped.values())),
            "spans": spans,
            "analysis": analyze(spans),
        }


#: the armed timeline; ``None`` keeps every capture path a single test
_TIMELINE: Timeline | None = None


def arm(capacity: int = DEFAULT_CAPACITY) -> Timeline:
    """Arm timeline capture (replacing any armed one); returns it."""
    global _TIMELINE
    _TIMELINE = Timeline(capacity)
    set_span_sink(_TIMELINE.sink)
    return _TIMELINE


def disarm() -> None:
    """Disarm; buffered spans are dropped."""
    global _TIMELINE
    _TIMELINE = None
    set_span_sink(None)


def armed() -> Timeline | None:
    """The armed timeline, or ``None``."""
    return _TIMELINE


def _clear_on_reset() -> None:
    if _TIMELINE is not None:
        _TIMELINE.clear()


register_reset_hook(_clear_on_reset)


# --------------------------------------------------------------------- #
# analysis: critical path, utilization, imbalance
# --------------------------------------------------------------------- #
def _union_seconds(intervals) -> float:
    """Total length of the union of ``(t0, t1)`` intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if end is None or a >= end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _clip(intervals, lo: float, hi: float):
    return [(max(a, lo), min(b, hi)) for a, b in intervals
            if b > lo and a < hi]


def analyze(spans: list[dict]) -> dict:
    """Reduce a span list to critical-path / utilization / imbalance facts.

    Pure on its input (works on a loaded document as well as a live
    export):

    * ``critical_path``: the wall clock split into **parallel** segments
      (some worker task running) and **serial** segments (master-only) --
      the serial fraction is the Amdahl ceiling of the run;
    * ``workers``: per-rank busy seconds (interval union of every span
      but queue waits, so nested spans do not double-count) and busy/wall
      utilization;
    * ``dispatches``: per-dispatch imbalance ``max task / mean task`` over
      the task spans, aggregated to max/mean plus a straggler census;
    * ``steps``: the same serial/parallel split inside each ``TimeStep``
      stage span.
    """
    out = {
        "wall_seconds": 0.0,
        "critical_path": {"serial_seconds": 0.0, "parallel_seconds": 0.0,
                          "serial_fraction": 1.0},
        "workers": [],
        "dispatches": {"count": 0, "max_imbalance": 0.0,
                       "mean_imbalance": 0.0, "stragglers": {}},
        "steps": [],
    }
    if not spans:
        return out
    tmin = min(s["t0"] for s in spans)
    tmax = max(s["t1"] for s in spans)
    wall = max(tmax - tmin, 0.0)
    out["wall_seconds"] = wall

    by_rank: dict[int, list] = {}
    for s in spans:
        if s["cat"] != "wait":  # a queue wait is idle time on its rank
            by_rank.setdefault(int(s["rank"]), []).append((s["t0"], s["t1"]))
    for rank in sorted(by_rank):
        busy = _union_seconds(by_rank[rank])
        out["workers"].append({
            "rank": rank,
            "spans": len(by_rank[rank]),
            "busy_seconds": busy,
            "utilization": busy / wall if wall > 0 else 0.0,
        })

    worker_iv = [iv for r, ivs in by_rank.items() if r >= 0 for iv in ivs]
    par = min(_union_seconds(worker_iv), wall)
    serial = max(wall - par, 0.0)
    out["critical_path"] = {
        "serial_seconds": serial,
        "parallel_seconds": par,
        "serial_fraction": serial / wall if wall > 0 else 1.0,
    }

    groups: dict[int, list] = {}
    for s in spans:
        if s["cat"] == "task" and s["dispatch"] >= 0:
            groups.setdefault(int(s["dispatch"]), []).append(s)
    imbs = []
    stragglers: dict[str, int] = {}
    for ts in groups.values():
        durs = [t["t1"] - t["t0"] for t in ts]
        mean = sum(durs) / len(durs)
        if mean <= 0:
            continue
        imbs.append(max(durs) / mean)
        worst = max(ts, key=lambda t: t["t1"] - t["t0"])
        key = str(int(worst["rank"]))
        stragglers[key] = stragglers.get(key, 0) + 1
    out["dispatches"] = {
        "count": len(groups),
        "max_imbalance": max(imbs) if imbs else 0.0,
        "mean_imbalance": sum(imbs) / len(imbs) if imbs else 0.0,
        "stragglers": stragglers,
    }

    for s in spans:
        if s["cat"] == "stage" and s["name"] == "TimeStep":
            secs = s["t1"] - s["t0"]
            p = min(_union_seconds(_clip(worker_iv, s["t0"], s["t1"])), secs)
            out["steps"].append({
                "t0": s["t0"], "t1": s["t1"], "seconds": secs,
                "parallel_seconds": p,
                "serial_seconds": max(secs - p, 0.0),
                "serial_fraction": (secs - p) / secs if secs > 0 else 1.0,
            })
    return out


# --------------------------------------------------------------------- #
# report summary
# --------------------------------------------------------------------- #
def summary() -> str | None:
    """The armed timeline's analysis as the ``-log_view`` tail (or
    ``None`` while disarmed or empty)."""
    tl = _TIMELINE
    if tl is None or tl.recorded == 0:
        return None
    return _render(tl.export())


# --------------------------------------------------------------------- #
# Chrome trace-event export (Perfetto / chrome://tracing)
# --------------------------------------------------------------------- #
def chrome_trace(section: dict) -> dict:
    """A validated timeline section as a Chrome trace-event document.

    Worker ranks become trace processes (``main`` is the master), real
    thread idents are renumbered per rank for readable track names, and
    span payloads (stage path, flops, bytes, dispatch index, OS pid) ride
    in ``args``.  Complete events (``ph: "X"``) with microsecond
    timestamps -- drop the file on https://ui.perfetto.dev to explore.
    """
    spans = section["spans"]
    events: list[dict] = []
    for rank in sorted({int(s["rank"]) for s in spans}):
        events.append({
            "ph": "M", "name": "process_name", "pid": rank + 1, "tid": 0,
            "args": {"name": "main" if rank < 0 else f"worker {rank}"},
        })
    tid_maps: dict[int, dict] = {}
    for s in spans:
        rank = int(s["rank"])
        tmap = tid_maps.setdefault(rank, {})
        tid = tmap.setdefault(int(s["tid"]), len(tmap))
        ev = {
            "name": s["name"], "cat": s["cat"] or "event", "ph": "X",
            "ts": round(s["t0"] * 1e6, 3),
            "dur": round((s["t1"] - s["t0"]) * 1e6, 3),
            "pid": rank + 1, "tid": tid,
            "args": {"stage": s["stage"], "rank": rank,
                     "os_pid": int(s["pid"])},
        }
        if s["dispatch"] >= 0:
            ev["args"]["dispatch"] = int(s["dispatch"])
        if s["flops"]:
            ev["args"]["flops"] = int(s["flops"])
        if s["bytes"]:
            ev["args"]["bytes"] = int(s["bytes"])
        events.append(ev)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": TIMELINE_SCHEMA},
    }


def write_chrome_trace(path: str | os.PathLike,
                       section: dict | None = None) -> dict:
    """Write the Chrome trace for ``section`` (default: the armed
    timeline's export) to ``path``; returns the trace document."""
    if section is None:
        tl = _TIMELINE
        if tl is None:
            raise RuntimeError(
                "timeline is not armed and no section was given")
        section = tl.export()
    doc = chrome_trace(validate_timeline(section))
    with open(os.fspath(path), "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return doc


# --------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------- #
_SPAN_FIELDS = {
    "name": str, "cat": str, "stage": str, "t0": float, "t1": float,
    "rank": int, "pid": int, "tid": int, "flops": int, "bytes": int,
    "dispatch": int,
}


def validate_timeline(section: dict) -> dict:
    """Check a section against ``repro.obs.timeline/1``; returns it."""
    if not isinstance(section, dict):
        raise ValueError("timeline section must be a dict")
    if section.get("schema") != TIMELINE_SCHEMA:
        raise ValueError(
            f"unknown timeline schema tag {section.get('schema')!r}")
    for key in ("capacity", "recorded", "dropped", "spans", "analysis"):
        if key not in section:
            raise ValueError(f"timeline section missing key {key!r}")
    if not isinstance(section["spans"], list):
        raise ValueError("timeline spans must be a list")
    for i, sp in enumerate(section["spans"]):
        _check_fields(sp, _SPAN_FIELDS, f"timeline.spans[{i}]")
        if sp["t1"] < sp["t0"]:
            raise ValueError(f"timeline.spans[{i}]: t1 < t0")
    if not isinstance(section["analysis"], dict):
        raise ValueError("timeline analysis must be a dict")
    return section


def validate_chrome_trace(doc: dict) -> dict:
    """Check a Chrome trace-event document's structure; returns it."""
    if not isinstance(doc, dict) or not isinstance(
            doc.get("traceEvents"), list):
        raise ValueError("chrome trace must carry a 'traceEvents' list")
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise ValueError(f"{where}: not a dict")
        if ev.get("ph") not in ("X", "M"):
            raise ValueError(f"{where}: ph must be 'X' or 'M'")
        for key in ("name", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"{where}: missing {key!r}")
        if ev["ph"] == "X":
            for key in ("ts", "dur"):
                val = ev.get(key)
                ok = isinstance(val, (int, float)) and not isinstance(
                    val, bool) and val >= 0
                if not ok:
                    raise ValueError(
                        f"{where}: {key!r} must be a number >= 0")
    return doc


# --------------------------------------------------------------------- #
# text: the -log_view tail
# --------------------------------------------------------------------- #
def _render(section: dict) -> str:
    """A timeline section's analysis as text (the ``-log_view`` tail)."""
    analysis = section["analysis"]
    cp = analysis["critical_path"]
    disp = analysis["dispatches"]
    lines = [
        f"timeline: {len(section['spans'])} spans buffered "
        f"({section['recorded']} recorded, {section['dropped']} dropped, "
        f"ring capacity {section['capacity']}/worker)",
        f"wall {analysis['wall_seconds']:.4f} s: "
        f"serial {cp['serial_seconds']:.4f} s, "
        f"parallel {cp['parallel_seconds']:.4f} s "
        f"(serial fraction {cp['serial_fraction']:.1%})",
    ]
    for wk in analysis["workers"]:
        label = "main" if wk["rank"] < 0 else f"worker {wk['rank']}"
        lines.append(
            f"  {label:<9} {wk['spans']:>6} spans, "
            f"busy {wk['busy_seconds']:.4f} s, "
            f"util {wk['utilization']:.1%}"
        )
    if disp["count"]:
        worst = max(disp["stragglers"].items(),
                    key=lambda kv: kv[1])[0] if disp["stragglers"] else "-"
        lines.append(
            f"{disp['count']} dispatches: imbalance max "
            f"{disp['max_imbalance']:.2f}, mean "
            f"{disp['mean_imbalance']:.2f}, top straggler rank {worst}"
        )
    if analysis["steps"]:
        fr = [st["serial_fraction"] for st in analysis["steps"]]
        lines.append(
            f"{len(analysis['steps'])} TimeStep spans: serial fraction "
            f"min {min(fr):.1%}, max {max(fr):.1%}"
        )
    return "\n".join(lines)

