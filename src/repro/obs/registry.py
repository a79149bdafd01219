"""Event/stage registry: the core of the ``repro.obs`` profiling layer.

Modeled on PETSc's ``-log_view`` machinery (the instrument behind every
measured number in the paper -- Table I's achieved GF/s, Fig. 1's solve
times, Table II's setup/solve breakdown):

* **events** are short named code regions (``MatMult_tensor``,
  ``MGSmooth_level0``, ``PCApply_fieldsplit``...) that accumulate call
  count, inclusive and self wall time, and optionally flops and streamed
  bytes, so measured time converts directly to achieved GF/s and GB/s
  against the :mod:`repro.perf` roofline;
* **stages** are long named phases (``StokesSolve``, ``TimeStep``,
  ``MPMAdvect``...) that group the event table the way PETSc stages do.
  Stages nest; an event is attributed to the innermost active stage path,
  so the same ``MatMult_tensor`` inside setup and solve is reported
  separately.  With ``enable(memory=True)`` each stage also records its
  ``tracemalloc`` high-water mark;
* :func:`record_span` books an interval stamped elsewhere -- an executor
  task, a rank's reply, a failed recovery attempt -- into its event and,
  while :mod:`repro.obs.timeline` is armed, as one span: the single
  primitive behind every executor and resilience number.

Everything hangs off a single module-level :data:`STATE` flag.  The
disabled fast path of :func:`timed` / :func:`stage` is one attribute test
plus returning a shared no-op context manager, and the
:func:`instrument` decorator calls the wrapped function directly -- cheap
enough to leave on every hot path permanently (verified by
``tests/test_obs.py::test_disabled_overhead``).
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass, field


class _State:
    """Module-level switches (a slotted singleton: one attribute load to test)."""

    __slots__ = ("enabled", "memory", "mg_post_residuals")

    def __init__(self):
        self.enabled = False
        #: track per-stage memory high-water via tracemalloc (slow; opt-in)
        self.memory = False
        #: compute the extra residual needed for post-smooth MG traces
        self.mg_post_residuals = False


STATE = _State()


@dataclass
class EventRecord:
    """Accumulated statistics of one named event within one stage."""

    name: str
    stage: str
    count: int = 0
    seconds: float = 0.0        # inclusive wall time
    self_seconds: float = 0.0   # exclusive of nested events
    flops: int = 0
    bytes: int = 0

    @property
    def gflops_per_s(self) -> float:
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0

    @property
    def gbytes_per_s(self) -> float:
        return self.bytes / self.seconds / 1e9 if self.seconds > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "stage": self.stage,
            "count": int(self.count),
            "seconds": float(self.seconds),
            "self_seconds": float(self.self_seconds),
            "flops": int(self.flops),
            "bytes": int(self.bytes),
            "gflops_per_s": float(self.gflops_per_s),
            "gbytes_per_s": float(self.gbytes_per_s),
        }


@dataclass
class StageRecord:
    """Accumulated statistics of one stage path (e.g. ``TimeStep/MPMAdvect``)."""

    name: str
    count: int = 0
    seconds: float = 0.0
    mem_peak_bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "count": int(self.count),
            "seconds": float(self.seconds),
            "mem_peak_bytes": int(self.mem_peak_bytes),
        }


class Registry:
    """Global accumulator for events, stages, and convergence traces."""

    def __init__(self):
        self.events: dict[tuple[str, str], EventRecord] = {}
        self.stages: dict[str, StageRecord] = {}
        #: convergence and per-step traces appended by :mod:`repro.obs.trace`
        self.traces: dict[str, list[dict]] = {
            "ksp": [], "snes": [], "mg": [], "resilience": [], "step": [],
        }
        #: monitor exports attached via :func:`repro.obs.trace.attach_monitor`
        self.monitors: dict[str, dict] = {}
        self._stage_stack: list = []  # active _StageTimer frames
        self._stage_path: str = ""
        self._frames: list = []  # active _Timer frames (innermost last)
        # per-solve counters used by the trace layer
        self._ksp_index = 0
        self._snes_index = 0
        self._mg_cycle = 0


REGISTRY = Registry()


def enabled() -> bool:
    return STATE.enabled


def enable(memory: bool = False, mg_post_residuals: bool = False) -> None:
    """Turn profiling on (idempotent).

    Parameters
    ----------
    memory:
        Also start ``tracemalloc`` and record per-stage memory high-water.
        Adds real overhead -- leave off for timing runs.
    mg_post_residuals:
        Record the post-smooth residual norm per multigrid level, which
        costs one extra operator apply per level per cycle.
    """
    STATE.enabled = True
    STATE.memory = memory
    STATE.mg_post_residuals = mg_post_residuals
    if memory and not tracemalloc.is_tracing():
        tracemalloc.start()


def disable() -> None:
    """Turn profiling off; accumulated records stay readable."""
    STATE.enabled = False
    if STATE.memory and tracemalloc.is_tracing():
        tracemalloc.stop()
    STATE.memory = False
    STATE.mg_post_residuals = False


#: callbacks run by :func:`reset` so satellite state (the manifest
#: overrides, the armed timeline's spans) clears in lockstep with the
#: registry without this module having to import it (it imports us)
_RESET_HOOKS: list = []


def register_reset_hook(fn) -> None:
    """Register ``fn`` to run on every :func:`reset` (idempotent add)."""
    if fn not in _RESET_HOOKS:
        _RESET_HOOKS.append(fn)


def reset() -> None:
    """Drop all accumulated events, stages, traces, and satellite state."""
    REGISTRY.__init__()
    for fn in _RESET_HOOKS:
        fn()


#: rank of spans recorded on the master, outside any worker task
MAIN_RANK = -1

#: span sink armed by :mod:`repro.obs.timeline` -- called with
#: ``(name, cat, stage_path, t0, t1[, flops, nbytes, rank, dispatch])``
#: at every event/stage exit and :func:`record_span` while set, returning
#: the span's dispatch id; ``None`` keeps those paths one extra test each
_SPAN_SINK = None


def set_span_sink(fn) -> None:
    """Install (or clear, with ``None``) the timeline span sink."""
    global _SPAN_SINK
    _SPAN_SINK = fn


class _NullTimer:
    """Shared no-op context manager: the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add_flops(self, n):
        pass

    def add_bytes(self, n):
        pass


_NULL = _NullTimer()


class _Timer:
    """Context manager accumulating into one :class:`EventRecord`."""

    __slots__ = ("rec", "t0", "child", "flops", "nbytes", "cat")

    def __init__(self, rec: EventRecord, flops: int, nbytes: int,
                 cat: str = "event"):
        self.rec = rec
        self.flops = flops
        self.nbytes = nbytes
        self.cat = cat

    def add_flops(self, n: int) -> None:
        self.flops += n

    def add_bytes(self, n: int) -> None:
        self.nbytes += n

    def __enter__(self):
        self.child = 0.0
        REGISTRY._frames.append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.t0
        frames = REGISTRY._frames
        frames.pop()
        rec = self.rec
        rec.count += 1
        rec.seconds += elapsed
        rec.self_seconds += elapsed - self.child
        rec.flops += self.flops
        rec.bytes += self.nbytes
        if frames:
            frames[-1].child += elapsed
        if _SPAN_SINK is not None:
            _SPAN_SINK(rec.name, self.cat, rec.stage, self.t0,
                       self.t0 + elapsed, self.flops, self.nbytes)
        return False


def timed(name: str, flops: int = 0, nbytes: int = 0, cat: str = "event"):
    """Event context manager: ``with timed("MatMult_tensor", flops=...)``.

    ``flops``/``nbytes`` are the analytic work of *one* entry (seeded from
    :mod:`repro.perf.counts` at the operator call sites); more can be
    added from inside via ``add_flops``/``add_bytes`` or the module-level
    :func:`log_flops`/:func:`log_bytes`.  ``cat`` tags the timeline span
    category when a sink is armed -- communication events pass ``"comm"``
    so Perfetto renders compute and communication on separable tracks.
    """
    if not STATE.enabled:
        return _NULL
    key = (REGISTRY._stage_path, name)
    rec = REGISTRY.events.get(key)
    if rec is None:
        rec = REGISTRY.events[key] = EventRecord(name, REGISTRY._stage_path)
    return _Timer(rec, flops, nbytes, cat)


class _StageTimer:
    """Context manager accumulating into one :class:`StageRecord`; the
    active stage frames are ``REGISTRY._stage_stack`` (innermost last)."""

    __slots__ = ("name", "path", "t0", "peak")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        stack = REGISTRY._stage_stack
        self.path = f"{stack[-1].path}/{self.name}" if stack else self.name
        stack.append(self)
        REGISTRY._stage_path = self.path
        self.peak = 0
        if STATE.memory and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.t0
        path = self.path
        stack = REGISTRY._stage_stack
        stack.pop()
        REGISTRY._stage_path = stack[-1].path if stack else ""
        if _SPAN_SINK is not None:
            _SPAN_SINK(self.name, "stage", path, self.t0, self.t0 + elapsed)
        rec = REGISTRY.stages.get(path)
        if rec is None:
            rec = REGISTRY.stages[path] = StageRecord(path)
        rec.count += 1
        rec.seconds += elapsed
        if STATE.memory and tracemalloc.is_tracing():
            peak = max(self.peak, tracemalloc.get_traced_memory()[1])
            rec.mem_peak_bytes = max(rec.mem_peak_bytes, peak)
            # a nested reset_peak hides the child's high-water from the
            # parent; propagate it by hand so parents dominate children
            for frame in stack:
                frame.peak = max(frame.peak, peak)
            tracemalloc.reset_peak()
        return False


def stage(name: str):
    """Stage context manager: ``with stage("StokesSolve"): ...``.

    Stages nest; the active path (joined with ``/``) labels both the
    stage record and every event entered underneath it.
    """
    if not STATE.enabled:
        return _NULL
    return _StageTimer(name)


def record_span(name: str, t0: float, t1: float, *, cat: str = "event",
                rank: int = MAIN_RANK, dispatch: int | None = -1,
                count: int = 1, flops: int = 0, nbytes: int = 0) -> int:
    """Record an interval stamped somewhere else, once.

    For work no ``timed`` frame can wrap: a task on an executor thread, a
    rank process's reply, a recovery attempt that failed.  ``t0``/``t1``
    are ``perf_counter`` readings.  The interval adds ``count`` calls and
    ``t1 - t0`` seconds to the ``-log_view`` event ``name`` in the active
    stage (inclusive and self time alike: no enclosing frame subtracts
    it) and, while the timeline is armed, becomes one span on worker
    ``rank`` (default: the master).

    ``dispatch`` groups the tasks of one fan-out: ``-1`` for none,
    ``None`` to open a new dispatch (the timeline assigns the id from its
    one counter), or the id an earlier call returned.  Returns the span's
    dispatch id (``-1`` when it has none or nothing is armed).
    """
    if not STATE.enabled:
        return -1
    path = REGISTRY._stage_path
    rec = REGISTRY.events.get((path, name))
    if rec is None:
        rec = REGISTRY.events[(path, name)] = EventRecord(name, path)
    rec.count += count
    rec.seconds += t1 - t0
    rec.self_seconds += t1 - t0
    rec.flops += flops
    rec.bytes += nbytes
    if _SPAN_SINK is None:
        return -1
    return _SPAN_SINK(name, cat, path, t0, t1, flops, nbytes, rank, dispatch)


def log_flops(n: int) -> None:
    """Add flops to the innermost active event (PETSc's ``PetscLogFlops``)."""
    if STATE.enabled and REGISTRY._frames:
        REGISTRY._frames[-1].flops += n


def log_bytes(n: int) -> None:
    """Add streamed bytes to the innermost active event."""
    if STATE.enabled and REGISTRY._frames:
        REGISTRY._frames[-1].nbytes += n


def instrument(name: str, flops: int = 0, nbytes: int = 0):
    """Decorator form of :func:`timed` for whole functions.

    When profiling is disabled the wrapper calls the function directly
    (one attribute test of overhead).  The undecorated function stays
    reachable as ``fn.__wrapped__`` -- the overhead test uses it as the
    uninstrumented baseline.
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not STATE.enabled:
                return fn(*args, **kwargs)
            with timed(name, flops, nbytes):
                return fn(*args, **kwargs)

        return wrapper

    return deco
