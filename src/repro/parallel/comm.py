"""An in-process stand-in for an MPI communicator.

Ranks are executed one after another in the same address space; ``send``
enqueues payloads that the destination rank drains with ``recv_all``.
All traffic is tallied in :class:`CommStats`, feeding the performance
model's latency/bandwidth terms.

With the real multi-process transport (:mod:`repro.parallel.procomm`)
this class is the **oracle**: both communicators expose the same
``send``/``recv_all``/``barrier``/``pending`` surface, the rank engines
over them (:mod:`repro.parallel.distributed`) reduce their dot partials
with the same fixed binary tree (:func:`tree_reduce`), and CI asserts
the distributed solve is bit-identical to the virtual one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..obs import registry as _obs

#: reduction combiners of :func:`tree_reduce`, the one reduction both
#: rank engines use -- so the oracle cannot drift
_REDUCE_OPS = {
    "sum": lambda a, b: a + b,
}


def tree_reduce(values, op: str = "sum"):
    """Reduce rank-indexed contributions with a **fixed binary tree**.

    The combination order depends only on ``len(values)`` -- pairs
    ``(0,1), (2,3), ...`` then pairs of pairs -- never on the order the
    contributions *arrived* in.  A real transport receives replies in
    nondeterministic order; evaluating the reduction over the
    rank-indexed list makes the result bitwise-stable for any rank count
    and any arrival interleaving (a left-fold over arrival order is not:
    floating-point addition does not associate).
    """
    if op not in _REDUCE_OPS:
        raise ValueError(f"unknown reduction op {op!r}")
    if len(values) == 0:
        raise ValueError("tree_reduce needs at least one value")
    combine = _REDUCE_OPS[op]
    vals = [np.asarray(v) for v in values]
    while len(vals) > 1:
        nxt = [combine(vals[i], vals[i + 1])
               for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


@dataclass
class CommStats:
    """Running totals of communication (virtual or real).

    The fault counters stay zero on :class:`VirtualComm` -- only the real
    transport can time out, lose a rank, or ``recover()`` -- but they
    live here so a simulation records one shape of its own communicator
    as the ``comm`` totals of each ``step`` trace record
    (``Simulation.step``).
    """

    messages: int = 0
    bytes: int = 0
    reductions: int = 0
    timeouts: int = 0
    rank_failures: int = 0
    respawns: int = 0

    def reset(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.reductions = 0
        self.timeouts = 0
        self.rank_failures = 0
        self.respawns = 0

    def as_dict(self) -> dict:
        return {
            "messages": int(self.messages),
            "bytes": int(self.bytes),
            "reductions": int(self.reductions),
            "timeouts": int(self.timeouts),
            "rank_failures": int(self.rank_failures),
            "respawns": int(self.respawns),
        }


def _payload_bytes(payload) -> int:
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (list, tuple)):
        return sum(_payload_bytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(_payload_bytes(v) for v in payload.values())
    return np.asarray(payload).nbytes


class VirtualComm:
    """A communicator of ``size`` virtual ranks.

    Point-to-point: :meth:`send` / :meth:`recv_all`; collective:
    :meth:`barrier`.  There is no concurrency -- the caller iterates over
    ranks -- but message counting and the mailbox discipline mirror MPI.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("communicator needs at least one rank")
        self.size = int(size)
        self.stats = CommStats()
        self._mailboxes: dict[int, list] = defaultdict(list)

    def send(self, src: int, dest: int, payload, nbytes: int | None = None) -> None:
        """Enqueue ``payload`` from ``src`` to ``dest``.

        ``nbytes`` overrides the accounted message size for payloads whose
        wire size the default introspection cannot see (rich objects).
        """
        self._check_rank(src)
        self._check_rank(dest)
        if src == dest:
            raise ValueError("self-sends are not a thing; handle locally")
        size = _payload_bytes(payload) if nbytes is None else int(nbytes)
        with _obs.timed("CommSend", nbytes=size, cat="comm"):
            self.stats.messages += 1
            self.stats.bytes += size
            self._mailboxes[dest].append((src, payload))

    def recv_all(self, rank: int) -> list[tuple[int, object]]:
        """Drain and return all pending ``(src, payload)`` for ``rank``."""
        self._check_rank(rank)
        out = self._mailboxes[rank]
        self._mailboxes[rank] = []
        return out

    def barrier(self) -> None:
        """Synchronize all ranks (trivially satisfied: ranks are serial)."""
        with _obs.timed("CommBarrier", cat="comm"):
            self.stats.reductions += 1

    def pending(self) -> int:
        """Number of undelivered messages (should be 0 between phases)."""
        return sum(len(v) for v in self._mailboxes.values())

    def _check_rank(self, r: int) -> None:
        if not 0 <= r < self.size:
            raise ValueError(f"rank {r} out of range [0, {self.size})")
