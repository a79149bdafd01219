"""Fault-isolated ensemble scheduler: one event loop over forked workers.

The driver process never runs simulation code (subprocess isolation mode).
A job that misses the cache is forked from this run's **zygote**
(:mod:`repro.serve.zygote`: started by a run's first launch, every import
a job needs already paid) into a session of its own, speaking
newline-delimited JSON on a pipe the scheduler owns.  One single-threaded
``selectors`` loop reads every pipe and blocks until the next thing that
can happen: a pipe turns readable, the earliest watchdog or grace deadline
expires, or the earliest backoff window closes.  A battery that is all
cache hits settles before any process, pipe or selector exists.

The **watchdog** is the deadline each attempt carries: ``startup_timeout``
from the launch request to ``spawned`` (the fork) and again from there to
``started``; then every committed time step emits a heartbeat (piped from
a ``timeloop`` step listener) and silence longer than ``step_timeout``
means the job is stuck *inside* a step -- the scheduler SIGTERMs the
worker, SIGKILLs its session :data:`TERM_GRACE` seconds later, and
requeues the job, which resumes from its last atomic checkpoint.  The
zygote reports each job's exit code on its pipe; if the zygote dies, its
in-flight jobs are swept and settle as crashes, and the next launch
starts a new one.

Failure policy, layered (DESIGN.md section 6 has the full table):

* **Retry with backoff** -- hangs, crashes, spawn errors and solver
  breakdowns each consume one attempt of a per-job budget
  (``max_retries``); re-eligibility waits out an exponential backoff with
  deterministic jitter (:func:`backoff_delay` from :data:`BACKOFF_BASE`,
  capped at :data:`BACKOFF_MAX`).  Budget exhausted ->
  ``FAILED(reason)``, with the PR-3 ``ConvergedReason`` name when the
  solver itself broke down.
* **Circuit breaker** -- :data:`QUARANTINE_AFTER` consecutive failures of
  one *configuration* (config hash, not job name) quarantine the job and
  its queued twins instead of burning their budgets.
* **Graceful degradation** -- under pressure a job's ``parallel.executor``
  grant shrinks (floor 1, written into the job file) instead of the
  job being rejected; the executor is bit-identical for any worker count.

``JobSpec.fn`` callables and ``isolation="inline"`` schedulers run jobs
synchronously, in submit order, in the driver process -- no watchdog
(nothing to kill), same retry/breaker/cache policy.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from ..parallel.executor import resolve_workers
from ..resilience.reasons import BreakdownError, ConvergedReason
from .jobs import (
    REASON_CRASH,
    REASON_HANG,
    REASON_QUARANTINED,
    REASON_SPAWN_FAILED,
    JobRecord,
    JobSpec,
    JobState,
    PHASES,
)
from .store import ResultStore

__all__ = [
    "BatteryReport",
    "Scheduler",
    "ServeConfig",
    "backoff_delay",
    "run_battery",
]


#: seconds a watchdog-expired worker gets, after SIGTERM, to flush its
#: last *committed* step (a ``terminated`` event) before its session is
#: SIGKILLed
TERM_GRACE = 5.0
#: retry delay: ``BACKOFF_BASE`` doubling per failed attempt, capped at
#: ``BACKOFF_MAX``
BACKOFF_BASE = 0.05
BACKOFF_MAX = 2.0
#: consecutive failures of one config hash that open its breaker
QUARANTINE_AFTER = 3


def backoff_delay(config_hash: str, attempt: int, base: float = BACKOFF_BASE,
                  factor: float = 2.0, cap: float = BACKOFF_MAX) -> float:
    """Retry delay before attempt ``attempt + 1`` (deterministic jitter).

    Exponential in the number of failed attempts, capped, then stretched
    by up to +100% jitter derived from ``sha256(hash:attempt)`` -- spread
    like random jitter (decorrelating retry storms across a battery), but
    a battery rerun schedules identically.
    """
    raw = min(float(cap), float(base) * float(factor) ** max(0, attempt - 1))
    token = hashlib.sha256(
        f"{config_hash}:{attempt}".encode()
    ).digest()[:4]
    jitter = int.from_bytes(token, "big") / 2.0 ** 32
    return raw * (1.0 + jitter)


@dataclass
class ServeConfig:
    """Policy knobs of one :class:`Scheduler` (the grace period, backoff
    and breaker are module constants; a retry always resumes from the
    last checkpoint that validates)."""

    #: concurrent jobs (subprocess mode); inline mode is always serial
    max_jobs: int = 2
    #: total `parallel.executor` worker budget shared by running jobs;
    #: ``None`` -> ``os.cpu_count()``
    total_workers: int | None = None
    #: ``"subprocess"`` (isolated, watchdogged) or ``"inline"`` (driver
    #: process, serial, for trusted callables / benchmark batteries)
    isolation: str = "subprocess"
    #: seconds without a heartbeat after ``started`` before the watchdog
    #: kills the worker (covers one full time step incl. rollback retries)
    step_timeout: float = 60.0
    #: seconds from the fork (``spawned``) to ``started``: scenario build
    #: + optional checkpoint load.  The same bound covers launch request
    #: -> fork, i.e. the zygote's one-time imports for the first launches.
    startup_timeout: float = 90.0
    #: failed attempts a job may retry (budget; 2 -> up to 3 attempts)
    max_retries: int = 2
    #: worker saves a resume checkpoint every N committed steps (0 = off)
    checkpoint_every: int = 1
    #: results-store root; ``None`` -> private temporary directory
    store_dir: str | None = None
    python: str = sys.executable

    def __post_init__(self):
        if self.isolation not in ("subprocess", "inline"):
            raise ValueError(
                f"isolation must be 'subprocess' or 'inline', "
                f"got {self.isolation!r}"
            )
        if self.max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")


class BatteryReport:
    """Outcome of one :meth:`Scheduler.run`: every record, none lost."""

    def __init__(self, records: list[JobRecord], wall_seconds: float):
        self.records = list(records)
        self.wall_seconds = float(wall_seconds)

    @property
    def counts(self) -> dict:
        out = {state.value: 0 for state in JobState}
        for rec in self.records:
            out[rec.state.value] += 1
        return out

    @property
    def all_terminal(self) -> bool:
        return all(rec.terminal for rec in self.records)

    @property
    def all_done(self) -> bool:
        return all(rec.state is JobState.DONE for rec in self.records)

    def results(self) -> dict:
        """``{job name: worker result document}`` for DONE jobs."""
        return {rec.spec.name: rec.result for rec in self.records
                if rec.state is JobState.DONE and rec.result is not None}

    def values(self) -> dict:
        """``{job name: in-process return value}`` for DONE inline jobs."""
        return {rec.spec.name: rec.value for rec in self.records
                if rec.state is JobState.DONE}

    def record(self, name: str) -> JobRecord:
        for rec in self.records:
            if rec.spec.name == name:
                return rec
        raise KeyError(name)

    def phases_p50(self) -> dict:
        """Median seconds per :data:`~repro.serve.jobs.PHASES` entry over
        the ``runs`` attempts that reached a result: where cold jobs went."""
        runs = [a["phases"] for rec in self.records for a in rec.attempts
                if a.get("phases")]
        return {"runs": len(runs), **{
            key: statistics.median(run[key] for run in runs)
            for key in PHASES if runs}}

    def summary(self) -> str:
        lines = [f"{'job':<24} {'state':<12} {'att':>3} {'cache':>5} "
                 f"{'resume':>6}  reason"]
        for rec in self.records:
            lines.append(
                f"{rec.spec.name:<24.24} {rec.state.value:<12} "
                f"{len(rec.attempts):>3} "
                f"{'hit' if rec.cache_hit else '-':>5} "
                f"{rec.resumed_from if rec.resumed_from else '-':>6}  "
                f"{rec.reason or ''}"
            )
        counts = ", ".join(f"{k}={v}" for k, v in self.counts.items() if v)
        lines.append(f"-- {len(self.records)} jobs in "
                     f"{self.wall_seconds:.1f}s: {counts}")
        phases = self.phases_p50()
        if phases.pop("runs"):
            lines.append("-- p50 seconds per run: " + ", ".join(
                f"{key} {value:.3f}" for key, value in phases.items()))
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "schema": "repro.serve.battery/1",
            "wall_seconds": self.wall_seconds, "counts": self.counts,
            "all_terminal": self.all_terminal,
            "phases_p50": self.phases_p50(),
            "jobs": [rec.as_dict() for rec in self.records],
        }


#: seconds to wait for a death we caused (a SIGKILLed session's ``exit``
#: line, the zygote's own exit) before settling without the confirmation
_REAP_GRACE = 10.0


@dataclass
class _Attempt:
    """One in-flight worker: its pipe, what it said, its watchdog clock."""

    record: JobRecord
    fd: int                        # read end of the per-job pipe
    t0: float
    deadline: float                # monotonic: next watchdog/grace expiry
    buf: bytes = b""
    #: last event of each kind the worker (or the zygote, about it) wrote
    events: dict = field(default_factory=dict)
    pid: int | None = None         # also the job's session / group id
    beats: int = 0
    termed: bool = False
    killed: bool = False


class Scheduler:
    """Supervise a battery of jobs to terminal states, on one thread: the
    loop owns all state (records, breaker, worker budget), every worker
    pipe and the zygote."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        if self.config.store_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            store_root = self._tmpdir.name
        else:
            self._tmpdir = None
            store_root = self.config.store_dir
        self.store = ResultStore(store_root)
        self.records: list[JobRecord] = []
        #: consecutive-failure count per config hash (breaker state)
        self._fails: dict[str, int] = {}
        self._quarantined_hashes: set[str] = set()
        self._attempts: dict[int, _Attempt] = {}   # in flight, by pipe fd
        #: ``(Popen, control socket)`` and selector: created by a run's
        #: first launch, gone when it returns
        self._zygote: tuple | None = None
        self._sel: selectors.BaseSelector | None = None

    # -- submission ----------------------------------------------------- #
    def submit(self, spec: JobSpec) -> JobRecord:
        record = JobRecord(spec=spec, index=len(self.records))
        self.records.append(record)
        return record

    # -- shared policy -------------------------------------------------- #
    def _breaker_open(self, config_hash: str) -> bool:
        return (config_hash in self._quarantined_hashes
                or self._fails.get(config_hash, 0) >= QUARANTINE_AFTER)

    def _settled_without_running(self, record: JobRecord) -> bool:
        """Open breaker -> QUARANTINED; stored result -> DONE (cache hit).

        Faulted jobs must actually *run* (the injected fault is the point
        of the job), so they bypass the read -- but their recovered result
        still lands in the store, where the determinism contract keeps it
        valid for clean twins.
        """
        spec = record.spec
        if self._breaker_open(record.config_hash):
            record.transition(JobState.QUARANTINED)
            record.reason = REASON_QUARANTINED
        elif spec.cache_allowed and not spec.faults:
            cached = self.store.get(record.config_hash)
            if cached is not None:
                self._settle_done(record, cached, cache_hit=True)
        return record.terminal

    def _settle_done(self, record: JobRecord, result: dict | None,
                     value=None, cache_hit: bool = False) -> None:
        record.transition(JobState.DONE)
        record.reason = None   # clear any earlier attempt's failure code
        record.result = result
        record.value = value if value is not None else record.value
        record.cache_hit = cache_hit
        self._fails[record.config_hash] = 0
        if not cache_hit and result is not None and record.spec.cache_allowed:
            self.store.put(record.config_hash, result)
            self.store.clear_checkpoint(record.config_hash)

    def _settle_failure(self, record: JobRecord, reason: str) -> None:
        """Route one failed attempt: breaker -> budget -> backoff."""
        record.reason = reason
        count = self._fails.get(record.config_hash, 0) + 1
        self._fails[record.config_hash] = count
        if count >= QUARANTINE_AFTER:
            self._quarantined_hashes.add(record.config_hash)
            record.transition(JobState.QUARANTINED)
            record.reason = REASON_QUARANTINED
            self._quarantine_twins(record.config_hash)
            return
        if record.attempt_index > self.config.max_retries:
            record.transition(JobState.FAILED)
            return
        record.transition(JobState.RETRYING)
        record.not_before = time.monotonic() + backoff_delay(
            record.config_hash, record.attempt_index,
            base=BACKOFF_BASE, cap=BACKOFF_MAX,
        )

    def _quarantine_twins(self, config_hash: str) -> None:
        """Open breaker: quarantine every non-terminal twin still queued."""
        for rec in self.records:
            if (rec.config_hash == config_hash and not rec.terminal
                    and rec.state is not JobState.RUNNING):
                rec.transition(JobState.QUARANTINED)
                rec.reason = REASON_QUARANTINED

    # -- worker budget (graceful degradation) --------------------------- #
    def _worker_budget(self) -> int:
        if self.config.total_workers is not None:
            return max(1, int(self.config.total_workers))
        return max(1, os.cpu_count() or 1)

    def _workers_in_use(self) -> int:
        return sum(rec.granted_workers or 0 for rec in self.records
                   if rec.state is JobState.RUNNING)

    def _grant_workers(self, record: JobRecord) -> int:
        """Workers granted to this launch: shrink under pressure, floor 1.

        The executor is bit-identical for any worker count, so shrinking
        a grant degrades throughput only -- never the answer and never
        admission (a saturated battery still runs every job, one worker
        at a time).
        """
        requested = record.spec.workers
        if requested is None:
            requested = resolve_workers(None)
        requested = max(1, int(requested))
        if record.spec.ranks:
            # rank processes draw on the same core budget as pool workers;
            # the grant covers the larger of the two demands
            requested = max(requested, int(record.spec.ranks))
        free = self._worker_budget() - self._workers_in_use()
        return max(1, min(requested, free))

    # -- run loop ------------------------------------------------------- #
    def run(self) -> BatteryReport:
        t0 = time.monotonic()
        if self.config.isolation == "inline":
            self._run_inline()
        else:
            self._run_pool()
        return BatteryReport(self.records, time.monotonic() - t0)

    # ---- inline mode -------------------------------------------------- #
    def _run_inline(self) -> None:
        for record in self.records:
            if record.terminal:
                continue
            self._run_one_inline(record)

    def _run_one_inline(self, record: JobRecord) -> None:
        spec = record.spec
        if spec.faults and spec.fn is None:
            raise ValueError(
                f"job {spec.name!r}: injected faults need subprocess "
                "isolation (a hang or crash inline would take the driver "
                "down with it)"
            )
        if self._settled_without_running(record):
            return
        while True:
            record.transition(JobState.RUNNING)
            record.attempt_index += 1
            record.granted_workers = self._grant_workers(record)
            t_attempt = time.monotonic()
            try:
                if spec.fn is not None:
                    record.value = spec.fn()
                    result = None
                    if spec.cache_allowed:
                        result = _jsonable({"job": spec.name,
                                            "value": record.value})
                    self._settle_done(record, result, value=record.value)
                else:
                    result = self._run_scenario_inline(record)
                    self._settle_done(record, result)
                return
            except BreakdownError as err:
                reason = ConvergedReason(err.reason).name
                record.exception = err
            except Exception as err:  # noqa: BLE001 -- job boundary
                reason = f"JOB_ERROR:{type(err).__name__}"
                record.exception = err
            record.attempts.append({
                "attempt": record.attempt_index,
                "outcome": "error",
                "reason": reason,
                "seconds": time.monotonic() - t_attempt,
            })
            self._settle_failure(record, reason)
            if record.terminal:
                return
            # RETRYING: inline mode has no event loop to wait in
            delay = record.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)

    def _run_scenario_inline(self, record: JobRecord) -> dict:
        """Run a scenario job in the driver process (no isolation)."""
        from .store import state_digest
        from .worker import build_simulation

        spec = record.spec
        sim = build_simulation(spec)
        while sim.step_index < int(spec.nsteps):
            sim.step(spec.dt)
        return {"job": spec.name, "config_hash": record.config_hash,
                "scenario": spec.scenario, "steps": int(sim.step_index),
                "resumed_from": 0, "sim_time": float(sim.time),
                "digest": state_digest(sim)}

    # ---- subprocess mode ---------------------------------------------- #
    def _run_pool(self) -> None:
        try:
            while True:
                self._launch_eligible()
                if all(rec.terminal for rec in self.records):
                    return
                self._wait()
        finally:
            self._close_pool()

    def _eligible(self) -> list[JobRecord]:
        now = time.monotonic()
        # dedupe: per config hash, only the *leader* (first non-terminal
        # twin) may launch; the others wait -- even through the leader's
        # backoff windows -- and are then served from the cache, so one
        # configuration never runs twice concurrently (two workers would
        # race on the shared checkpoint) nor back to back
        leaders: dict[str, int] = {}
        group_running: dict[str, int] = {}
        for rec in self.records:
            if not rec.terminal:
                leaders.setdefault(rec.config_hash, rec.index)
            if rec.state is JobState.RUNNING:
                group_running[rec.group] = group_running.get(rec.group, 0) + 1
        out = [rec for rec in self.records
               if leaders.get(rec.config_hash) == rec.index
               and (rec.state is JobState.QUEUED
                    or (rec.state is JobState.RETRYING
                        and now >= rec.not_before))]
        # priority first, then fair share (groups with fewer running jobs
        # win), then submission order for stability
        out.sort(key=lambda rec: (-rec.spec.priority,
                                  group_running.get(rec.group, 0),
                                  rec.index))
        return out

    def _launch_eligible(self) -> None:
        """Settle or launch everything that can move right now.  A leader
        that turns terminal here (cache hit, open breaker, spawn failure
        out of budget) hands its configuration to the next twin, so the
        pass repeats until nothing settles: an all-hit battery never waits.
        """
        settled = True
        while settled:
            settled = False
            for record in self._eligible():
                if len(self._attempts) >= self.config.max_jobs:
                    break
                if not self._settled_without_running(record):
                    self._launch(record)
                settled = settled or record.terminal

    def _launch(self, record: JobRecord) -> None:
        """Hand one attempt to the zygote and start its watchdog clock."""
        from . import zygote   # not at the top: ``-m`` runs it as __main__
        spec = record.spec
        record.transition(JobState.RUNNING)
        record.attempt_index += 1
        record.granted_workers = self._grant_workers(record)
        job_dir = self.store.job_dir(record.config_hash)
        job_path = os.path.join(job_dir, "job.json")
        serve = {"store_dir": self.store.root,
                 "checkpoint_every": int(self.config.checkpoint_every),
                 "workers": record.granted_workers,
                 "ranks": max(1, min(int(spec.ranks or 1),
                                     record.granted_workers))}
        with open(job_path, "w") as fh:
            json.dump({"spec": spec.to_wire(), "serve": serve}, fh,
                      indent=1, sort_keys=True)
        log_path = os.path.join(job_dir,
                                f"attempt_{record.attempt_index:02d}.log")
        self._sel = self._sel or selectors.DefaultSelector()
        try:
            if self._zygote is None:   # one per run, on first use
                self._zygote = zygote.start(self.config.python)
                self._sel.register(self._zygote[1], selectors.EVENT_READ)
            pipe_r = zygote.submit(self._zygote[1], job_path, log_path)
        except OSError as err:
            record.attempts.append({
                "attempt": record.attempt_index, "outcome": "spawn_failed",
                "reason": REASON_SPAWN_FAILED, "message": str(err)})
            self._settle_failure(record, REASON_SPAWN_FAILED)
            return
        now = time.monotonic()
        attempt = _Attempt(record, pipe_r, t0=now,
                           deadline=now + self.config.startup_timeout)
        self._attempts[pipe_r] = attempt
        self._sel.register(pipe_r, selectors.EVENT_READ, attempt)

    def _wait(self) -> None:
        """Block until the next thing that can happen -- a pipe (or the
        zygote's socket) readable, a deadline, a backoff end -- handle it."""
        wake = [attempt.deadline for attempt in self._attempts.values()]
        wake += [rec.not_before for rec in self.records
                 if rec.state is JobState.RETRYING]
        timeout = max(0.0, min(wake) - time.monotonic())
        self._sel = self._sel or selectors.DefaultSelector()
        for key, _ in self._sel.select(timeout):
            if key.data is None:
                self._zygote_died()
            elif key.fd in self._attempts:
                self._read(key.data)
        now = time.monotonic()
        for attempt in list(self._attempts.values()):
            if now >= attempt.deadline:
                self._expire(attempt)

    def _read(self, attempt: _Attempt) -> None:
        """Consume what the worker (and the zygote, about it) wrote."""
        try:
            chunk = os.read(attempt.fd, 1 << 16)
        except OSError:
            chunk = b""
        if not chunk:
            # EOF with no ``exit`` line: the zygote died under this job
            self._finish(attempt)
            return
        now = time.monotonic()
        *lines, attempt.buf = (attempt.buf + chunk).split(b"\n")
        for line in lines:
            try:
                event = json.loads(line)
                kind = event["event"]
            except (ValueError, TypeError, KeyError):
                continue   # blank, torn or foreign line: not protocol
            attempt.events[kind] = event
            if kind == "spawned":
                # forked: the startup clock restarts for build + resume
                attempt.pid = int(event["pid"])
                attempt.deadline = now + self.config.startup_timeout
            elif kind in ("started", "heartbeat"):
                attempt.beats += kind == "heartbeat"
                attempt.deadline = now + self.config.step_timeout
            elif kind == "exit":
                self._finish(attempt)
                return

    def _expire(self, attempt: _Attempt) -> None:
        """A deadline passed: SIGTERM plus a grace period first (the worker
        flushes its last committed step); then SIGKILL; then stop waiting."""
        now = time.monotonic()
        if attempt.killed:
            self._finish(attempt)   # the zygote never confirmed the death
        elif not attempt.termed and attempt.pid is not None:
            # SIGTERM the worker only: its rank/pool children must live
            # while it flushes (the later SIGKILL sweeps the session)
            attempt.termed = True
            attempt.deadline = now + TERM_GRACE
            with contextlib.suppress(OSError):
                os.kill(attempt.pid, signal.SIGTERM)
        else:
            attempt.killed = True
            attempt.deadline = now + _REAP_GRACE
            if attempt.pid is not None:
                self._kill(attempt.pid)
            elif self._zygote is not None:
                self._zygote[0].kill()   # never forked: the zygote is stuck

    @staticmethod
    def _kill(pid: int) -> None:
        """SIGKILL the worker's whole session (it may have its own pool);
        the worker called ``setsid`` before it announced ``pid``."""
        with contextlib.suppress(OSError):
            os.killpg(pid, signal.SIGKILL)

    def _zygote_died(self) -> None:
        """Nobody will report its jobs' exits now: every in-flight attempt
        is swept and settles as a crash; the next launch starts a new one."""
        proc, sock = self._zygote
        self._zygote = None
        self._sel.unregister(sock)
        sock.close()
        proc.wait()
        for attempt in list(self._attempts.values()):
            if attempt.pid is not None:
                self._kill(attempt.pid)
            self._finish(attempt)

    def _finish(self, attempt: _Attempt) -> None:
        """Classify one ended attempt and settle its record."""
        del self._attempts[attempt.fd]
        self._sel.unregister(attempt.fd)
        os.close(attempt.fd)
        record, events = attempt.record, attempt.events
        if "started" in events:
            record.resumed_from = int(events["started"].get("resumed_from", 0))
        record.checkpoint_corrupt |= "checkpoint_corrupt" in events
        returncode = events.get("exit", {}).get("returncode")
        terminated = events.get("terminated")
        entry = {"attempt": record.attempt_index, "beats": attempt.beats,
                 "seconds": time.monotonic() - attempt.t0, "pid": attempt.pid}
        record.attempts.append(entry)
        if returncode == 0 and "result" in events:
            # a worker that completed right at the deadline still counts
            result = events["result"]
            del result["event"]
            entry.update(outcome="done", phases=result.pop("phases", None))
            self._settle_done(record, result)
            return
        if attempt.killed or attempt.termed or terminated is not None:
            entry.update(outcome="hang", reason=REASON_HANG,
                         started="started" in events,
                         graceful=terminated is not None,
                         flushed_step=(terminated or {}).get("step"))
        elif "error" in events:
            error = events["error"]
            entry.update(outcome="error", message=error.get("message"),
                         reason=str(error.get("reason", "JOB_ERROR")))
        else:
            entry.update(outcome="crash", reason=REASON_CRASH,
                         returncode=returncode)
        self._settle_failure(record, entry["reason"])

    def _close_pool(self) -> None:
        """Leave no process, pipe or selector behind, whatever happened."""
        while self._attempts:   # only after an exception out of the loop
            os.close(self._attempts.popitem()[0])
        if self._zygote is not None:
            proc, sock = self._zygote
            sock.close()   # EOF: the zygote kills what it still has, exits
            try:
                proc.wait(timeout=_REAP_GRACE)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._sel is not None:
            self._sel.close()
        self._zygote = self._sel = None


def _jsonable(doc: dict) -> dict:
    """Best-effort JSON-safe copy (drops what cannot be serialized)."""
    out = {}
    for key, value in doc.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            value = repr(value)
        out[key] = value
    return out


def run_battery(specs, config: ServeConfig | None = None) -> BatteryReport:
    """Run a battery of :class:`~repro.serve.jobs.JobSpec` to completion.

    Every submitted job reaches a terminal state; the report accounts for
    each exactly once.  This is the single entry point shared by the CLI
    (``python -m repro.serve``), the benchmark battery, and the tests.
    """
    scheduler = Scheduler(config)
    for spec in specs:
        if not isinstance(spec, JobSpec):
            spec = JobSpec.from_wire(dict(spec))
        scheduler.submit(spec)
    return scheduler.run()
