"""Real multi-process communicator: the distributed-memory rank runtime.

:class:`~repro.parallel.comm.VirtualComm` executes ranks sequentially in
one address space; this module runs them as **actual worker processes**
and keeps the virtual communicator as the bit-exactness oracle.  Each
rank of a :class:`ProcessComm` is a forked child in its own session,
wired to the master by two pipes:

* a **command pipe** (master -> rank) carrying one newline-delimited JSON
  document per operation (span kernels, dot partials, mailbox traffic,
  barriers, fault arming);
* an **event pipe** (rank -> master) carrying heartbeats and replies --
  the same newline-JSON watchdog protocol the ensemble scheduler speaks
  with its workers.  The master starts no thread: it reads a rank's pipe
  only while it awaits that rank's reply (:meth:`ProcessComm._wait`).

Bulk data never rides the pipes: vectors, stashes and state payloads
move through master-owned, grow-only shared-memory blocks
(:class:`_ShmBlock`).  Ranks are forked once (again only by
:meth:`ProcessComm.recover`) and hold ``token -> (version, state)``:
:meth:`ProcessComm.share_state` ships a state version the cohort lacks
as one ``state`` op, and a ``span`` naming a key a rank was never sent
fails as a :class:`CommError`.

Fault tolerance, end to end:

* every rank emits a heartbeat every :data:`HEARTBEAT_INTERVAL` seconds from
  a dedicated thread, so a rank stalled inside a kernel still beats and a
  *dead* rank goes silent.  Every event carries the rank's
  ``time.monotonic()`` (CLOCK_MONOTONIC, one clock for the whole
  machine), so beats that waited in the pipe while the master was busy
  still date the rank's last sign of life exactly;
* every collective and point-to-point wait is **deadline-bounded**: no
  reply within :data:`OP_TIMEOUT` (or heartbeat silence beyond
  :data:`HEARTBEAT_TIMEOUT`; a new cohort's startup ping within
  :data:`STARTUP_TIMEOUT`) raises a typed :class:`CommTimeout` --
  nothing in this module can hang indefinitely;
* rank death is detected by event-pipe EOF plus ``waitpid`` and raised
  as :class:`RankFailure` carrying the exit status;
* :meth:`ProcessComm.recover` SIGKILLs every straggler's process group,
  reaps the cohort, respawns it, and re-arms any armed faults whose
  one-shot sentinel is still unclaimed.  The caller resumes from the last
  collective-consistent checkpoint
  (:func:`repro.sim.checkpoint.cohort_checkpoint`) and -- by the
  determinism contract -- finishes bit-identical to an uninterrupted run.

Orphan safety: rank children live in their own sessions, so a killed
master cannot take them down via its process group.  Instead each rank
exits on command-pipe EOF (the kernel closes the master's write end at
death) and on the first failed heartbeat write, so no master exit path
leaks rank processes.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import os
import pickle
import select
import signal
import threading
import time
import weakref

import numpy as np

from ..obs import registry as _obs
from .comm import CommStats, _payload_bytes

__all__ = [
    "CommError",
    "CommTimeout",
    "ProcessComm",
    "RankFailure",
]

#: operations that advance a rank's work-op counter (fault trigger points);
#: control traffic (ping, state shipments, fault arming, mail_count
#: liveness probes, exit) deliberately does not trigger faults
_WORK_OPS = frozenset({"span", "dot", "put_mail", "drain_mail", "barrier"})


class CommError(RuntimeError):
    """Base class of transport-level communicator failures."""


class CommTimeout(CommError):
    """A bounded collective/operation expired without a reply.

    ``kind`` is ``"deadline"`` (no reply within the per-op budget) or
    ``"heartbeat"`` (the rank stopped beating -- silent long before the
    op deadline, so stalls are detected early).
    """

    def __init__(self, op: str, rank: int, seconds: float,
                 kind: str = "deadline"):
        super().__init__(
            f"comm op {op!r} on rank {rank} timed out after "
            f"{seconds:.1f}s ({kind})"
        )
        self.op = op
        self.rank = rank
        self.seconds = float(seconds)
        self.kind = kind


class RankFailure(CommError):
    """A rank process died (pipe EOF + ``waitpid``)."""

    def __init__(self, rank: int, returncode: int | None, op: str = ""):
        detail = f" during {op!r}" if op else ""
        super().__init__(
            f"rank {rank} died{detail} "
            f"(returncode={returncode if returncode is not None else '?'})"
        )
        self.rank = rank
        self.returncode = returncode
        self.op = op


#: seconds between worker heartbeats (a dedicated thread per rank)
HEARTBEAT_INTERVAL = 0.25
#: deadlines of the fault-tolerant transport, in seconds: heartbeat
#: silence that declares a rank stalled, the per-operation reply deadline
#: that bounds every collective, and the deadline for a new cohort to
#: answer its startup ping (each raises :class:`CommTimeout`)
HEARTBEAT_TIMEOUT = 15.0
OP_TIMEOUT = 60.0
STARTUP_TIMEOUT = 30.0


def span_dot(x: np.ndarray, y: np.ndarray, s: int, e: int) -> float:
    """One rank's partial of a distributed dot product.

    The **single** implementation used by both the rank worker and the
    virtual oracle engine, so the per-rank partials -- and therefore the
    tree-reduced global dot -- cannot drift between the two by kernel
    choice or memory-alignment path.
    """
    return float(np.dot(np.ascontiguousarray(x[s:e]),
                        np.ascontiguousarray(y[s:e])))


# --------------------------------------------------------------------- #
# state tokens and shared-memory transport
# --------------------------------------------------------------------- #
_TOKENS = itertools.count(1)
#: token -> state object, weakly: the dispatched states still alive in the
#: master; every ``state`` op lists these tokens and ranks drop the rest
_LIVE_STATES: "weakref.WeakValueDictionary[int, object]" = (
    weakref.WeakValueDictionary()
)
#: rank-side cache of attached shared-memory blocks, keyed by name
_WORKER_SHM: dict = {}


def _attach_shm(name: str):
    cached = _WORKER_SHM.get(name)
    if cached is None:
        from multiprocessing import shared_memory

        cached = shared_memory.SharedMemory(name=name)
        _WORKER_SHM[name] = cached
    return cached


class _ShmBlock:
    """A master-owned, grow-only shared-memory block."""

    def __init__(self):
        self.shm = None

    def ensure(self, nbytes: int) -> "_ShmBlock":
        nbytes = max(int(nbytes), 8)
        if self.shm is None or self.shm.size < nbytes:
            from multiprocessing import shared_memory

            self.close()
            self.shm = shared_memory.SharedMemory(create=True, size=nbytes)
        return self

    def view(self, n: int, offset: int = 0) -> np.ndarray:
        return np.ndarray((n,), dtype=np.float64, buffer=self.shm.buf,
                          offset=8 * offset)

    @property
    def name(self) -> str:
        return self.shm.name

    def close(self) -> None:
        if self.shm is not None:
            self.shm.close()
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass
            self.shm = None


def claim_sentinel(path: str | None) -> bool:
    """Atomically claim a cross-process one-shot token; ``True`` on first call.

    A fault must fire **once**, not once per process: a respawned rank or
    a killed job's retry is a fresh process with fresh state, so the only
    memory that survives is the filesystem.  The token is an
    ``O_CREAT | O_EXCL`` file.  ``path=None`` always claims (the fault
    fires every time).
    """
    if path is None:
        return True
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


# --------------------------------------------------------------------- #
# rank worker (runs in the forked child; never returns)
# --------------------------------------------------------------------- #
def _worker_loop(rank: int, cmd_fd: int, evt_fd: int) -> None:
    # Attach-side shared-memory views must NOT register with a resource
    # tracker: a rank forked before the master's tracker existed would
    # lazily spawn its *own*, and that private tracker -- at the rank's
    # first death (recovery respawn!) -- would "clean up" by unlinking
    # the master's live segments out from under the whole cohort
    # (CPython's long-standing attach-side tracker bug).  The master owns
    # every segment and remains the single cleanup point.
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register = lambda *a, **k: None
        resource_tracker.unregister = lambda *a, **k: None
    except Exception:
        pass
    wlock = threading.Lock()

    def emit(doc: dict) -> None:
        # a beat blocks here while the pipe is full (64 KiB, minutes of
        # beats of an idle master) until the master's next wait drains it
        doc["t"] = time.monotonic()
        data = (json.dumps(doc) + "\n").encode()
        with wlock:
            off = 0
            while off < len(data):
                off += os.write(evt_fd, data[off:])

    def beat() -> None:
        while True:
            time.sleep(HEARTBEAT_INTERVAL)
            try:
                emit({"event": "hb"})
            except OSError:
                os._exit(0)  # master is gone; nothing to report to

    threading.Thread(target=beat, daemon=True).start()

    mailbox: list = []
    faults: list[dict] = []
    #: token -> (version, state): what the master shipped, live tokens only
    states: dict = {}
    nwork = 0
    buf = b""
    while True:
        while b"\n" not in buf:
            try:
                chunk = os.read(cmd_fd, 1 << 16)
            except OSError:
                chunk = b""
            if not chunk:
                os._exit(0)  # command-pipe EOF: master died; do not orphan
            buf += chunk
        line, buf = buf.split(b"\n", 1)
        doc = json.loads(line)
        op = doc["op"]
        seq = doc["seq"]
        if op in _WORK_OPS:
            nwork += 1
            for f in list(faults):
                if nwork < int(f.get("at", 1)):
                    continue
                if f["kind"] == "kill" and claim_sentinel(f.get("sentinel")):
                    os._exit(int(f.get("exit_code", 137)))
                elif (f["kind"] == "stall"
                      and claim_sentinel(f.get("sentinel"))):
                    faults.remove(f)
                    time.sleep(float(f.get("seconds", 3600.0)))
        reply = {"event": "reply", "seq": seq, "status": "ok"}
        try:
            if op == "ping":
                reply["rank"] = rank
            elif op == "state":
                block = _attach_shm(doc["in_shm"]).buf
                states[doc["token"]] = (
                    doc["version"], pickle.loads(block[:int(doc["nbytes"])]))
                states = {t: v for t, v in states.items() if t in doc["live"]}
                reply["held"] = len(states)
            elif op == "span":
                t0 = time.perf_counter()
                version, state = states.get(doc["token"], (None, None))
                if version != doc["version"]:
                    raise CommError(f"state {doc['token']} version "
                                    f"{doc['version']} was never sent to "
                                    f"rank {rank}")
                u = np.ndarray((doc["n_in"],), dtype=np.float64,
                               buffer=_attach_shm(doc["in_shm"]).buf)
                u.flags.writeable = False
                # owner-writes: the shared output vector, then this span's
                # stash further down the same block
                block = _attach_shm(doc["out_shm"]).buf
                out = np.ndarray((doc["n_out"],), dtype=np.float64,
                                 buffer=block)
                n = int(doc["stash_len"])
                stash = np.ndarray((n,), dtype=np.float64, buffer=block,
                                   offset=8 * doc["stash_off"]) if n else None
                getattr(state, doc["method"])(
                    u, int(doc["s"]), int(doc["e"]), out, stash)
                reply["t0"], reply["t1"] = t0, time.perf_counter()
            elif op == "dot":
                n = int(doc["n"])
                block = _attach_shm(doc["in_shm"])
                x = np.ndarray((n,), dtype=np.float64, buffer=block.buf)
                y = np.ndarray((n,), dtype=np.float64, buffer=block.buf,
                               offset=8 * n)
                reply["value"] = span_dot(x, y, int(doc["s"]), int(doc["e"]))
            elif op == "put_mail":
                dropped = False
                for f in list(faults):
                    if f["kind"] == "drop_message" and claim_sentinel(
                            f.get("sentinel")):
                        faults.remove(f)
                        dropped = True
                        break
                if not dropped:
                    payload = pickle.loads(base64.b64decode(doc["b64"]))
                    mailbox.append((int(doc["src"]), payload))
                reply["dropped"] = dropped
            elif op == "drain_mail":
                reply["b64"] = base64.b64encode(
                    pickle.dumps(mailbox)).decode("ascii")
                mailbox = []
            elif op == "mail_count":
                reply["count"] = len(mailbox)
            elif op == "barrier":
                pass
            elif op == "fault":
                faults.append(dict(doc["fault"]))
            elif op == "clear_faults":
                faults = []
            elif op == "exit":
                emit(reply)
                os._exit(0)
            else:
                reply["status"] = "error"
                reply["error"] = f"unknown op {op!r}"
        except Exception as err:  # noqa: BLE001 -- process boundary
            reply = {"event": "reply", "seq": seq, "status": "error",
                     "error": f"{type(err).__name__}: {err}"}
        emit(reply)


# --------------------------------------------------------------------- #
# master side
# --------------------------------------------------------------------- #
class _Rank:
    """Master-side handle of one rank process.

    ``buf`` holds what was read from the event pipe but not yet parsed:
    replies to ops posted after the one being awaited, and a torn line.
    ``last_beat`` is the rank's own clock in its latest event read.
    """

    __slots__ = ("index", "pid", "cmd_fd", "evt_fd", "poll", "buf",
                 "last_beat", "eof", "returncode", "reaped")

    def __init__(self, index: int, pid: int, cmd_fd: int, evt_fd: int):
        self.index = index
        self.pid = pid
        self.cmd_fd = cmd_fd
        self.evt_fd = evt_fd
        self.poll = select.poll()
        self.poll.register(evt_fd, select.POLLIN)
        self.buf = b""
        self.last_beat = time.monotonic()
        self.eof = False
        self.returncode: int | None = None
        self.reaped = False

    def readable(self, seconds: float) -> bool:
        """Wait up to ``seconds`` for the event pipe to have data or EOF."""
        return bool(self.poll.poll(math.ceil(1e3 * max(seconds, 0.0))))

    def read(self) -> bool:
        """Append one read of the event pipe to ``buf``; ``False`` at EOF."""
        try:
            chunk = os.read(self.evt_fd, 1 << 16)
        except OSError:
            chunk = b""
        self.eof = not chunk
        self.buf += chunk
        return not self.eof


def _cohort_cleanup(holder: dict) -> None:
    """Best-effort finalizer: no rank process survives the master object."""
    for pid in holder.get("pids", []):
        try:
            os.killpg(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            pass
        try:
            os.waitpid(pid, os.WNOHANG)
        except (ChildProcessError, OSError):
            pass
    for shm in holder.get("shm", []):
        shm.close()


class ProcessComm:
    """A communicator of ``size`` real rank processes.

    Drop-in for :class:`~repro.parallel.comm.VirtualComm`: the same
    ``send``/``recv_all``/``barrier``/``pending`` surface with the same
    :class:`CommStats` accounting, plus the engine-facing state/span/dot
    transport used by :class:`repro.parallel.distributed.ProcommEngine`
    and the fault-tolerance surface (:meth:`inject_fault`,
    :meth:`recover`).  The master side is single-threaded.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("communicator needs at least one rank")
        self.size = int(size)
        self.stats = CommStats()
        self._seq = itertools.count(1)
        self._ranks: list[_Rank] = []
        #: armed transport faults, re-applied to every recovered cohort
        #: (their O_EXCL sentinels keep one-shot semantics across cohorts)
        self._armed: list[tuple[int, dict]] = []
        self.shm_in = _ShmBlock()
        self.shm_out = _ShmBlock()
        # materialize the segments (and the master's resource tracker)
        # *before* the first fork, so every rank inherits a live tracker
        # and never needs one of its own
        self.shm_in.ensure(8)
        self.shm_out.ensure(8)
        self._holder = {"pids": [], "shm": [self.shm_in, self.shm_out]}
        self._finalizer = weakref.finalize(self, _cohort_cleanup, self._holder)
        self._spawn_cohort()

    # -- lifecycle ------------------------------------------------------ #
    def _spawn_cohort(self) -> None:
        ranks: list[_Rank] = []
        for r in range(self.size):
            cmd_r, cmd_w = os.pipe()
            evt_r, evt_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # child: own session (killpg target), own pipe ends only
                try:
                    os.setsid()
                except OSError:
                    pass
                os.close(cmd_w)
                os.close(evt_r)
                for prev in ranks:
                    os.close(prev.cmd_fd)
                    os.close(prev.evt_fd)
                try:
                    _worker_loop(r, cmd_r, evt_w)
                finally:
                    os._exit(1)
            os.close(cmd_r)
            os.close(evt_w)
            ranks.append(_Rank(r, pid, cmd_w, evt_r))
        self._ranks = ranks
        self._holder["pids"] = [rank.pid for rank in ranks]
        # liveness: every rank must answer the startup ping in time
        seqs = [self._post(r, "ping") for r in range(self.size)]
        for r, seq in enumerate(seqs):
            self._wait(r, seq, "ping", timeout=STARTUP_TIMEOUT)
        #: token -> version every rank holds; states per rank after the
        #: last ``state`` op
        self._shipped, self.held = {}, [0] * self.size
        for rank_index, fault in self._armed:
            seq = self._post(rank_index, "fault", fault=fault)
            self._wait(rank_index, seq, "fault")

    def shutdown(self, kill: bool = False) -> None:
        """Stop the cohort: cooperative ``exit`` op, or SIGKILL the groups.

        Idempotent; always reaps children.  A cooperative stop reads every
        rank to EOF under one 5 s deadline, then SIGKILLs what is left.
        """
        ranks, self._ranks = self._ranks, []
        if not kill:
            for rank in ranks:
                if rank.eof:
                    continue
                try:
                    self._post_rank(rank, {"seq": next(self._seq),
                                           "op": "exit"})
                except CommError:
                    pass
            deadline = time.monotonic() + 5.0
            for rank in ranks:
                while (not rank.eof
                       and rank.readable(deadline - time.monotonic())
                       and rank.read()):
                    rank.buf = b""
        for rank in ranks:
            if not rank.eof:
                self._kill_rank(rank)
            self._reap(rank)
            try:
                os.close(rank.cmd_fd)
            except OSError:
                pass
            try:
                os.close(rank.evt_fd)
            except OSError:
                pass
        self._holder["pids"] = []

    def close(self) -> None:
        """Clean shutdown plus shared-memory release."""
        self.shutdown()
        self.shm_in.close()
        self.shm_out.close()

    def recover(self) -> None:
        """Failure-path respawn, the only one (``stats.respawns``):
        SIGKILL every rank's process group first.

        Mailbox contents and shipped states die with the ranks -- recovery
        is only sound from a collective-consistent checkpoint, which
        :func:`repro.sim.checkpoint.cohort_checkpoint` guarantees by
        refusing to write while messages are in flight.
        """
        self.stats.respawns += 1
        self.shutdown(kill=True)
        self._spawn_cohort()

    def _kill_rank(self, rank: _Rank) -> None:
        try:
            os.killpg(rank.pid, signal.SIGKILL)  # setsid: pid == pgid
        except (ProcessLookupError, PermissionError, OSError):
            try:
                os.kill(rank.pid, signal.SIGKILL)
            except OSError:
                pass

    def _reap(self, rank: _Rank) -> None:
        """Record the exit status of a rank that is gone: its pipe hit EOF
        or EPIPE, or it was SIGKILLed, so ``waitpid`` returns promptly."""
        if rank.reaped:
            return
        try:
            _, status = os.waitpid(rank.pid, 0)
            rank.returncode = os.waitstatus_to_exitcode(status)
        except ChildProcessError:
            pass
        rank.reaped = True

    # -- wire protocol --------------------------------------------------- #
    def _post_rank(self, rank: _Rank, doc: dict) -> None:
        data = (json.dumps(doc) + "\n").encode()
        try:
            off = 0
            while off < len(data):
                off += os.write(rank.cmd_fd, data[off:])
        except OSError as err:
            self._reap(rank)
            self.stats.rank_failures += 1
            raise RankFailure(rank.index, rank.returncode,
                              op=str(doc.get("op", ""))) from err

    def _post(self, rank_index: int, op: str, **fields) -> int:
        self._check_rank(rank_index)
        rank = self._ranks[rank_index]
        seq = next(self._seq)
        if rank.eof:
            self.stats.rank_failures += 1
            raise RankFailure(rank_index, rank.returncode, op=op)
        self._post_rank(rank, {"seq": seq, "op": op, **fields})
        return seq

    def _wait(self, rank_index: int, seq: int, op: str,
              timeout: float | None = None) -> dict:
        """Read rank ``rank_index``'s event pipe until the reply to ``seq``.

        Blocks in ``poll`` on that one pipe until the nearer of the op
        deadline and ``last_beat + HEARTBEAT_TIMEOUT``.  The heartbeat
        bound is checked only when the pipe has nothing more to read, so
        beats that queued while the master was busy elsewhere count with
        the rank time they carry.  Replies to ops posted after ``seq``
        stay in the rank's buffer for their own wait.
        """
        rank = self._ranks[rank_index]
        budget = OP_TIMEOUT if timeout is None else timeout
        deadline = time.monotonic() + budget
        drained = False
        while True:
            *lines, rank.buf = rank.buf.split(b"\n")
            for i, line in enumerate(lines):
                try:
                    doc = json.loads(line)
                    rank.last_beat = max(rank.last_beat, float(doc["t"]))
                except (ValueError, TypeError, KeyError):
                    continue  # torn or foreign line: not protocol
                # skip beats, and replies to ops abandoned by an exception
                if doc.get("event") != "reply" or doc.get("seq") != seq:
                    continue
                rank.buf = b"\n".join([*lines[i + 1:], rank.buf])
                if doc.get("status") == "error":
                    raise CommError(f"rank {rank_index} failed op {op!r}: "
                                    f"{doc.get('error')}")
                return doc
            now = time.monotonic()
            if now >= deadline:
                self.stats.timeouts += 1
                raise CommTimeout(op, rank_index, budget, kind="deadline")
            if drained and now - rank.last_beat > HEARTBEAT_TIMEOUT:
                self.stats.timeouts += 1
                raise CommTimeout(op, rank_index, now - rank.last_beat,
                                  kind="heartbeat")
            wake = min(deadline, rank.last_beat + HEARTBEAT_TIMEOUT)
            drained = not rank.readable(wake - now)
            if not drained and not rank.read():
                self._reap(rank)
                self.stats.rank_failures += 1
                raise RankFailure(rank_index, rank.returncode, op=op)

    def call(self, rank_index: int, op: str, timeout: float | None = None,
             **fields) -> dict:
        """Post one op to one rank and await its reply (bounded)."""
        seq = self._post(rank_index, op, **fields)
        return self._wait(rank_index, seq, op, timeout=timeout)

    def call_all(self, op: str, per_rank: list[dict] | None = None,
                 timeout: float | None = None) -> list[dict]:
        """Post one op to every rank, then await all replies (bounded).

        Replies are awaited rank by rank, but every command is posted
        before the first wait, so the ranks execute concurrently.
        """
        seqs = [
            self._post(r, op, **(per_rank[r] if per_rank else {}))
            for r in range(self.size)
        ]
        return [self._wait(r, seq, op, timeout=timeout)
                for r, seq in enumerate(seqs)]

    # -- state shipping --------------------------------------------------- #
    def share_state(self, state) -> tuple[int, int]:
        """The ``(token, version)`` key every rank holds ``state`` under.

        A version this cohort lacks is shipped once (one ``CommState``
        event): the state's pickle, its rank payload, goes into the input
        block, and every rank gets one ``state`` op -- control traffic,
        like ``ping`` -- listing the live tokens it may keep.
        """
        token = getattr(state, "_repro_exec_token", None)
        if token is None or _LIVE_STATES.get(token) is not state:
            token = next(_TOKENS)
            try:
                state._repro_exec_token = token
            except AttributeError:
                pass  # slotted objects get a fresh token per dispatch
            _LIVE_STATES[token] = state
        version = int(getattr(state, "_parallel_state_version", 0))
        if self._shipped.get(token) == version:
            return token, version
        with _obs.timed("CommState", cat="comm") as event:
            data = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            event.add_bytes(len(data) * self.size)
            self.shm_in.ensure(len(data)).shm.buf[:len(data)] = data
            replies = self.call_all("state", [{
                "token": token, "version": version, "nbytes": len(data),
                "in_shm": self.shm_in.name, "live": list(_LIVE_STATES),
            }] * self.size)
        self.held = [int(reply["held"]) for reply in replies]
        self._shipped = {t: v for t, v in self._shipped.items()
                         if t in _LIVE_STATES}
        self._shipped[token] = version
        return token, version

    # -- VirtualComm-compatible surface ---------------------------------- #
    def send(self, src: int, dest: int, payload,
             nbytes: int | None = None) -> None:
        """Ship ``payload`` into rank ``dest``'s mailbox (pickled)."""
        self._check_rank(src)
        self._check_rank(dest)
        if src == dest:
            raise ValueError("self-sends are not a thing; handle locally")
        size = _payload_bytes(payload) if nbytes is None else int(nbytes)
        with _obs.timed("CommSend", nbytes=size, cat="comm"):
            b64 = base64.b64encode(pickle.dumps(payload)).decode("ascii")
            self.call(dest, "put_mail", src=src, b64=b64)
            self.stats.messages += 1
            self.stats.bytes += size

    def recv_all(self, rank: int) -> list[tuple[int, object]]:
        """Drain rank ``rank``'s mailbox back to the caller."""
        self._check_rank(rank)
        with _obs.timed("CommRecv", cat="comm"):
            reply = self.call(rank, "drain_mail")
            return pickle.loads(base64.b64decode(reply["b64"]))

    def barrier(self) -> None:
        """Synchronize: every rank must answer within the op deadline."""
        with _obs.timed("CommBarrier", cat="comm"):
            self.call_all("barrier")
            self.stats.reductions += 1

    def pending(self) -> int:
        """Undelivered messages across all rank mailboxes (live query)."""
        return sum(int(r["count"]) for r in self.call_all("mail_count"))

    # -- fault injection -------------------------------------------------- #
    def inject_fault(self, rank: int, kind: str, **opts) -> None:
        """Arm a transport fault inside rank ``rank`` (worker-side).

        ``kind``: ``"kill"`` (``os._exit`` at the ``at``-th work op),
        ``"stall"`` (sleep ``seconds`` before replying), or
        ``"drop_message"`` (silently drop one incoming mailbox payload).
        ``sentinel`` (an O_EXCL path) makes the fault one-shot across
        :meth:`recover`; armed faults are re-applied to the recovered
        cohort, so an unfired fault survives a recovery.
        """
        if kind not in ("kill", "stall", "drop_message"):
            raise ValueError(f"unknown transport fault {kind!r}")
        self._check_rank(rank)
        fault = {"kind": kind, **opts}
        self._armed.append((rank, fault))
        self.call(rank, "fault", fault=fault)

    def clear_faults(self) -> None:
        """Disarm every transport fault, in live ranks and for recovery."""
        self._armed.clear()
        self.call_all("clear_faults")

    def _check_rank(self, r: int) -> None:
        if not 0 <= r < self.size:
            raise ValueError(f"rank {r} out of range [0, {self.size})")
