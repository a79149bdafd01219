"""Job model of the ensemble service: specs, identity, and the state machine.

A *job* is one supervised simulation run: a scenario configuration plus a
seed, executed in an isolated worker process (or inline for trusted
callables) under the scheduler's watchdog/retry/quarantine policy.  Two
design rules anchor everything else:

* **Identity is the configuration hash.**  ``JobSpec.config_hash()`` is
  :func:`repro.obs.metrics.config_hash` over the canonical *physics*
  identity -- scenario, scenario/sim configuration, step count, dt, seed.
  Scheduling hints (priority, fair-share group, worker count) and test
  instrumentation (injected faults) are deliberately excluded: they must
  not change the answer, so they must not change the key.  The identity
  keys the results store (bit-exact cache hits under the determinism
  contract), the checkpoint used for resume, and the circuit breaker.

* **Every job ends in a terminal state.**  The state machine is
  ``QUEUED -> RUNNING -> {DONE, RETRYING, QUARANTINED, FAILED}`` with
  ``RETRYING -> RUNNING`` closing the retry loop; illegal transitions
  raise, so a scheduler bug cannot silently lose or double-count a job.
  ``FAILED`` and ``QUARANTINED`` carry a ``reason`` string reusing the
  PR-3 :class:`~repro.resilience.reasons.ConvergedReason` names when the
  simulation itself diverged (``DIVERGED_NAN``, ...) plus the job-level
  codes below for failures the solver never saw (hang, crash, spawn).
"""

from __future__ import annotations

import dataclasses
import enum
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs.metrics import config_hash as _config_hash

__all__ = [
    "JobRecord",
    "JobSpec",
    "JobState",
    "PHASES",
    "REASON_CRASH",
    "REASON_HANG",
    "REASON_QUARANTINED",
    "REASON_SPAWN_FAILED",
    "TERMINAL_STATES",
    "config_from",
]

#: job-level failure codes (the solver-level ones are ConvergedReason names)
REASON_HANG = "JOB_HANG"                 # watchdog killed a silent worker
REASON_CRASH = "JOB_CRASH"               # worker died without a result
REASON_SPAWN_FAILED = "JOB_SPAWN_FAILED"  # subprocess could not start
REASON_QUARANTINED = "JOB_QUARANTINED"   # circuit breaker opened for the config


def config_from(cls, doc: dict, section: str):
    """``cls(**doc)``; a key ``cls`` lacks raises ``ValueError`` naming
    it, the battery ``section`` and the allowed set."""
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown {section} fields {sorted(unknown)}; "
                         f"allowed: {sorted(allowed)}")
    return cls(**doc)


#: where a run's seconds go; ``fork_to_started`` contains the next two
PHASES = ("fork_to_started", "build", "resume_load", "steps", "checkpoint",
          "digest")


class JobState(enum.Enum):
    """Lifecycle of one supervised job."""

    QUEUED = "queued"
    RUNNING = "running"
    RETRYING = "retrying"
    DONE = "done"
    FAILED = "failed"
    QUARANTINED = "quarantined"


TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.QUARANTINED}
)

#: legal edges; QUEUED/RETRYING -> DONE covers a cache hit (the twin job or
#: a previous battery already produced this config's result), QUEUED/
#: RETRYING -> QUARANTINED an already-open breaker at launch time
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.QUEUED: frozenset(
        {JobState.RUNNING, JobState.DONE, JobState.QUARANTINED}
    ),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.RETRYING, JobState.FAILED,
         JobState.QUARANTINED}
    ),
    JobState.RETRYING: frozenset(
        {JobState.RUNNING, JobState.DONE, JobState.QUARANTINED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.QUARANTINED: frozenset(),
}


@dataclass
class JobSpec:
    """One requested simulation run.

    ``scenario`` names a registered builder (``"sinker"``/``"rifting"``;
    see :func:`repro.serve.worker.build_simulation`); ``scenario_config``
    and ``sim_config`` are plain-JSON overrides applied to the scenario's
    config dataclass and :class:`~repro.sim.timeloop.SimulationConfig`
    (with nested ``"stokes"`` and ``"health"`` dicts for
    :class:`~repro.stokes.solve.StokesConfig` and
    :class:`~repro.resilience.health.HealthConfig`).  ``fn``
    is the inline escape hatch -- an arbitrary callable executed in the
    driver process (no subprocess isolation, no serialization) used by
    the benchmark port; such jobs never enter the results cache unless
    given an explicit ``cache_key``.
    """

    name: str
    scenario: str = "sinker"
    scenario_config: dict = field(default_factory=dict)
    sim_config: dict = field(default_factory=dict)
    nsteps: int = 1
    dt: float | None = None
    seed: int | None = None
    # -- scheduling hints (excluded from identity) -------------------- #
    priority: int = 0
    group: str | None = None
    #: requested `parallel.executor` workers for this job's own pool;
    #: ``None`` reads ``$REPRO_WORKERS``.  The scheduler may grant fewer
    #: under resource pressure (graceful degradation, never rejection).
    workers: int | None = None
    #: requested real rank processes (``repro.parallel.procomm``); the
    #: job's solve runs rank-decomposed over a ProcessComm when >= 2.
    #: A scheduling hint like ``workers``: counts against the same core
    #: budget, may be shrunk under pressure, and is excluded from
    #: identity -- the distributed solve is bit-identical for any rank
    #: count, so a shrunken grant never changes the answer.
    ranks: int | None = None
    use_cache: bool = True
    #: deterministic job-level faults installed inside the worker
    #: (``repro.resilience.inject``); test instrumentation, not physics,
    #: hence excluded from identity -- a faulted run must produce the
    #: bit-identical result of its clean twin
    faults: dict = field(default_factory=dict)
    # -- inline payload ------------------------------------------------ #
    fn: Callable[[], Any] | None = None
    cache_key: str | None = None

    def identity(self) -> dict:
        """The canonical dict that *is* this job, for hashing purposes."""
        if self.fn is not None:
            return {"callable": self.cache_key or f"fn:{self.name}"}
        return {
            "scenario": self.scenario,
            "scenario_config": self.scenario_config,
            "sim_config": self.sim_config,
            "nsteps": int(self.nsteps),
            "dt": self.dt,
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        """Identity hash (``obs.metrics.config_hash`` of :meth:`identity`)."""
        return _config_hash(self.identity())

    @property
    def cache_allowed(self) -> bool:
        """May this job be served from / written to the results store?

        Faulted jobs always *run* (the faults are the point) but still
        write their result -- the determinism contract says a recovered
        run is bit-identical to a clean one, so the entry stays valid.
        Inline callables without an explicit ``cache_key`` have no
        serializable result and stay out of the store entirely.
        """
        if not self.use_cache:
            return False
        if self.fn is not None and self.cache_key is None:
            return False
        return True

    @property
    def fair_group(self) -> str:
        return self.group if self.group is not None else self.scenario

    # -- wire format (driver <-> worker subprocess) -------------------- #
    def to_wire(self) -> dict:
        """JSON-safe dict shipped to the worker subprocess."""
        if self.fn is not None:
            raise ValueError(
                f"job {self.name!r} carries an inline callable and cannot "
                "be serialized for subprocess execution; use "
                "isolation='inline'"
            )
        return {
            "name": self.name,
            "scenario": self.scenario,
            "scenario_config": self.scenario_config,
            "sim_config": self.sim_config,
            "nsteps": int(self.nsteps),
            "dt": self.dt,
            "seed": self.seed,
            "priority": int(self.priority),
            "group": self.group,
            "workers": self.workers,
            "ranks": self.ranks,
            "use_cache": bool(self.use_cache),
            "faults": self.faults,
        }

    @classmethod
    def from_wire(cls, doc: dict) -> "JobSpec":
        known = {
            "name", "scenario", "scenario_config", "sim_config", "nsteps",
            "dt", "seed", "priority", "group", "workers", "ranks",
            "use_cache", "faults",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {sorted(unknown)}")
        if "name" not in doc:
            raise ValueError("JobSpec requires a 'name'")
        return cls(**doc)


@dataclass
class JobRecord:
    """Mutable scheduler-side view of one submitted job."""

    spec: JobSpec
    index: int = 0
    state: JobState = JobState.QUEUED
    #: attempts launched so far (== len(attempts) once each one settles)
    attempt_index: int = 0
    #: one dict per settled attempt: outcome kind, reason, seconds, beats
    attempts: list[dict] = field(default_factory=list)
    reason: str | None = None
    result: dict | None = None     # worker result document (subprocess)
    value: Any = None              # in-process return value (inline)
    exception: BaseException | None = None
    cache_hit: bool = False
    #: monotonic time before which a RETRYING job is not eligible
    not_before: float = 0.0
    granted_workers: int | None = None
    resumed_from: int | None = None
    checkpoint_corrupt: bool = False
    history: list[tuple[str, float]] = field(default_factory=list)

    def __post_init__(self):
        self._config_hash = self.spec.config_hash()

    @property
    def config_hash(self) -> str:
        return self._config_hash

    @property
    def group(self) -> str:
        return self.spec.fair_group

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, new: JobState) -> None:
        """Move to ``new``, enforcing the state machine."""
        if new not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"job {self.spec.name!r}: illegal transition "
                f"{self.state.value} -> {new.value}"
            )
        self.state = new
        self.history.append((new.value, time.time()))

    def as_dict(self) -> dict:
        """JSON-safe summary for battery reports."""
        return {
            "name": self.spec.name,
            "config_hash": self.config_hash,
            "state": self.state.value,
            "reason": self.reason,
            "attempts": list(self.attempts),
            "cache_hit": self.cache_hit,
            "granted_workers": self.granted_workers,
            "resumed_from": self.resumed_from,
            "checkpoint_corrupt": self.checkpoint_corrupt,
            "result": self.result,
        }
