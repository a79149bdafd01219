"""Rank-decomposed dispatch engines and the distributed sinker driver.

Two rank transports of the one owner-writes dispatch
(:class:`~repro.parallel.executor.DispatchEngine`), armed for the whole
solve stack by :func:`~repro.parallel.executor.use_executor`:

:class:`ProcommEngine`
    Fans span tasks and dot partials out to the **real rank processes**
    of a :class:`~repro.parallel.procomm.ProcessComm`; the input vector,
    the shared output vector and the stashes live in the communicator's
    shared-memory blocks, and a state reaches the ranks once per version
    (:meth:`~repro.parallel.procomm.ProcessComm.share_state`).

:class:`VirtualRankEngine`
    The single-process **oracle**: the identical span partition, kernels,
    dot partials (:func:`~repro.parallel.procomm.span_dot`), reduction
    order, and :class:`~repro.parallel.comm.CommStats` accounting,
    executed inline over a :class:`~repro.parallel.comm.VirtualComm`.

Operator applies come out equal to the serial ones for any rank count
(the owner-writes contract); dot products are reduced over the fixed
binary tree (:func:`~repro.parallel.comm.tree_reduce`) of the rank
partials, so they depend on the rank count but not on the transport or
the reply order.  The two engines therefore produce **bit-identical**
solves at equal rank counts -- the equality CI asserts, clean and across
an injected rank kill.

:func:`run_sinker_distributed` is the end-to-end driver: it runs the
sinker time loop under either engine, writes a collective-consistent
checkpoint after every committed step
(:func:`~repro.sim.checkpoint.cohort_checkpoint`), and -- when a rank
dies or a collective times out -- recovers by respawning the cohort,
rebuilding the simulation, and resuming from the checkpoint.  The final
``state_digest`` equals the uninterrupted oracle's.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..obs import registry as _obs
from .comm import VirtualComm, tree_reduce
from .decomposition import BlockDecomposition
from .executor import (
    DispatchEngine,
    account_tasks,
    partition_range,
    use_executor,
)
from .procomm import CommError, ProcessComm, span_dot

__all__ = [
    "ProcommEngine",
    "VirtualRankEngine",
    "run_sinker_distributed",
]


def _account_dot(comm, ntasks: int, nbytes: int) -> None:
    """One distributed dot: a partial per rank, one tree reduction."""
    comm.stats.messages += ntasks
    comm.stats.bytes += nbytes
    comm.stats.reductions += 1


class _RankEngineBase(DispatchEngine):
    """What the rank engines add to the shared dispatch: the distributed
    dot, the ``CommHaloExchange`` event and comm-stats accounting."""

    _event, _event_cat = "CommHaloExchange", "comm"

    def __init__(self, comm):
        super().__init__(comm.size)
        self.comm = comm

    def _count(self, ntasks: int, nbytes_in: int, nbytes_out: int) -> None:
        """Also count the dispatch in the comm stats, identically on both
        engines so the oracle's ``comm.*`` gauges match the real
        transport's: one input-vector broadcast plus one output (and
        stash) block back per task."""
        super()._count(ntasks, nbytes_in, nbytes_out)
        self.comm.stats.messages += ntasks + 1
        self.comm.stats.bytes += nbytes_in + nbytes_out

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """Distributed inner product: per-rank partials, fixed-tree sum.

        Each rank computes :func:`span_dot` over its contiguous slab; the
        partials are combined with :func:`tree_reduce` over the
        rank-indexed list, so the result is bitwise-stable for any rank
        count and any reply arrival order.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        spans = partition_range(x.size, self.workers)
        with _obs.timed("CommDot", nbytes=x.nbytes + y.nbytes, cat="comm"):
            partials = self._dot_partials(x, y, spans)
            _account_dot(self.comm, len(spans), x.nbytes + y.nbytes)
            return float(tree_reduce(partials, "sum"))


class VirtualRankEngine(_RankEngineBase):
    """The sequential oracle engine over a :class:`VirtualComm`.

    Executes the exact rank partition inline -- same spans, same kernels,
    same reduction order, same accounting -- so a run under this engine
    is the bit-exactness reference for :class:`ProcommEngine`.
    """

    def __init__(self, comm: VirtualComm | None = None, size: int = 2):
        super().__init__(comm if comm is not None else VirtualComm(size))

    def _dot_partials(self, x, y, spans):
        return [span_dot(x, y, s, e) for s, e in spans]

    def _run_spans(self, state, method, spans, u, out, vals) -> None:
        fn = getattr(state, method)
        times = []
        for (s, e), stash in zip(spans, vals):
            t0 = time.perf_counter()
            fn(u, int(s), int(e), out, stash)
            times.append((t0, time.perf_counter()))
        account_tasks(method, times)


class ProcommEngine(_RankEngineBase):
    """Dispatch engine over the real rank processes of a
    :class:`ProcessComm`.

    Data path per dispatch: the input vector is written once into the
    communicator's input shared-memory block; the output vector and, past
    it, every span's stash live in the output block, zeroed by the master;
    one ``span`` op per task is posted round-robin to the ranks, each
    writing its own entries of the output and its own stash; the master
    copies the output and the stashes out, and the shared dispatch
    replays the stashes in span order.  The span ops name the state by
    the ``(token, version)`` key
    :meth:`~repro.parallel.procomm.ProcessComm.share_state` returns,
    which ships it first if the ranks do not hold that version yet.
    """

    def _rank_of(self, task: int) -> int:
        return task % self.comm.size

    def _dot_partials(self, x, y, spans):
        comm = self.comm
        n = x.size
        comm.shm_in.ensure(16 * max(n, 1))
        comm.shm_in.view(n)[:] = x
        comm.shm_in.view(n, offset=n)[:] = y
        seqs = [
            (self._rank_of(i),
             comm._post(self._rank_of(i), "dot", n=n,
                        in_shm=comm.shm_in.name, s=int(s), e=int(e)))
            for i, (s, e) in enumerate(spans)
        ]
        # JSON round-trips float64 exactly (repr), so the partials arrive
        # bit-identical to the worker-side span_dot results
        return [float(comm._wait(r, seq, "dot")["value"])
                for r, seq in seqs]

    def _run_spans(self, state, method, spans, u, out, vals) -> None:
        comm = self.comm
        token, version = comm.share_state(state)
        comm.shm_in.ensure(u.nbytes)
        comm.shm_in.view(u.size)[:] = u
        n_out = out.size
        sizes = [0 if v is None else v.size for v in vals]
        # stash k starts at offsets[k], right after the output vector
        offsets = np.cumsum([n_out, *sizes])
        comm.shm_out.ensure(8 * int(offsets[-1]))
        comm.shm_out.view(n_out)[:] = 0.0
        seqs = [
            (self._rank_of(i),
             comm._post(self._rank_of(i), "span", token=token,
                        version=version, method=method, s=int(s), e=int(e),
                        in_shm=comm.shm_in.name, n_in=int(u.size),
                        out_shm=comm.shm_out.name, n_out=n_out,
                        stash_off=int(offsets[i]), stash_len=int(sizes[i])))
            for i, (s, e) in enumerate(spans)
        ]
        replies = [comm._wait(r, seq, "span") for r, seq in seqs]
        # ranks stamp perf_counter, a system-wide clock on Linux
        account_tasks(method, [(reply["t0"], reply["t1"]) for reply in replies])
        out[:] = comm.shm_out.view(n_out)
        for i, stash in enumerate(vals):
            if stash is not None:
                stash[:] = comm.shm_out.view(stash.size, int(offsets[i]))


# --------------------------------------------------------------------- #
# end-to-end driver
# --------------------------------------------------------------------- #
def _default_sinker():
    from ..sim.sinker import SinkerConfig

    return SinkerConfig(shape=(4, 4, 4), n_spheres=1, radius=0.2,
                        delta_eta=100.0, points_per_dim=2, seed=3)


def _default_sim_config():
    from ..sim.timeloop import SimulationConfig
    from ..stokes.solve import StokesConfig

    return SimulationConfig(
        stokes=StokesConfig(mg_levels=2, coarse_solver="lu"),
        linear_rtol=1e-5,
    )


def _exercise_migration(sim, comm, ranks: int) -> dict:
    """One point-migration round over the communicator under test.

    Points owned by rank 0's subdomain are deliberately misplaced onto
    rank 1 (a neighbor under the ``(1, 1, p)`` split), so the flooding
    protocol must ship them home; the built-in audit asserts conservation.
    """
    from ..mpm.migration import migrate_points

    decomp = BlockDecomposition(sim.mesh, (1, 1, ranks))
    pts = sim.points
    owner = np.where(pts.el >= 0,
                     decomp.element_owner[np.clip(pts.el, 0, None)], 0)
    held = owner.copy()
    misplaced = 0
    if ranks > 1:
        move = owner == 0
        misplaced = int(move.sum())
        held[move] = 1
    rank_points = [pts.subset(np.flatnonzero(held == r))
                   for r in range(ranks)]
    total_before = sum(p.n for p in rank_points)
    rank_points, deleted = migrate_points(decomp, comm, rank_points,
                                          audit=True)
    return {
        "misplaced": misplaced,
        "outflow": int(deleted),
        "points_before": int(total_before),
        "points_after": int(sum(p.n for p in rank_points)),
    }


def run_sinker_distributed(
    ranks: int = 2,
    nsteps: int = 2,
    dt: float = 0.05,
    sinker_config=None,
    sim_config=None,
    faults: list[dict] | None = None,
    checkpoint_dir: str | None = None,
    comm=None,
    max_recoveries: int = 4,
    oracle: bool = False,
    migrate: bool = True,
) -> dict:
    """Run the rank-decomposed sinker end to end; return the evidence.

    With ``oracle=True`` the run executes under :class:`VirtualRankEngine`
    (single process, virtual communicator); otherwise under
    :class:`ProcommEngine` over ``ranks`` real worker processes.  Both
    paths execute the identical rank partition and reduction orders, so
    the returned ``digest`` (sha256 over the full evolving state) is
    equal between them -- the bit-exactness contract CI asserts.

    ``faults`` is a list of transport-fault dicts (``{"rank": 1, "kind":
    "kill", "at": 3, "sentinel": path}``) armed on the real transport
    before the loop; a sentinel path makes a fault one-shot across
    recoveries.  An ``"after_step": N`` key defers arming until step
    ``N``'s cohort checkpoint exists, pinning the fault into step ``N + 1``
    so recovery provably resumes from the checkpoint instead of rebuilding
    from scratch.  On :class:`CommError` (rank death, collective timeout)
    the driver respawns the cohort (``recover()``, the only respawn),
    rebuilds the simulation, and resumes from the last per-step cohort
    checkpoint; ``max_recoveries`` bounds the attempts.
    """
    from ..serve.store import state_digest
    from ..sim.checkpoint import cohort_checkpoint, load_checkpoint
    from ..sim.sinker import make_sinker

    if ranks < 1:
        raise ValueError("need at least one rank")
    sinker_config = sinker_config or _default_sinker()
    sim_config = sim_config or _default_sim_config()
    owns_comm = comm is None
    if comm is None:
        comm = VirtualComm(ranks) if oracle else ProcessComm(ranks)
    deferred: list[tuple[int, dict]] = []
    if faults:
        if oracle or not hasattr(comm, "inject_fault"):
            raise ValueError("transport faults need the real transport "
                             "(oracle=False)")
        for f in faults:
            f = dict(f)
            # "after_step": N defers arming until step N's cohort
            # checkpoint is on disk, so a kill with a small "at" lands in
            # step N+1 and recovery must resume from that checkpoint
            # rather than rebuild from scratch
            when = int(f.pop("after_step", 0) or 0)
            if when > 0:
                deferred.append((when, f))
            else:
                comm.inject_fault(f.pop("rank"), f.pop("kind"), **f)
    deferred.sort(key=lambda item: item[0])
    engine = (VirtualRankEngine(comm) if oracle else ProcommEngine(comm))
    t0 = time.perf_counter()

    own_ckdir = checkpoint_dir is None
    if own_ckdir:
        import tempfile

        checkpoint_dir = tempfile.mkdtemp(prefix="repro-distributed-")
    ck = os.path.join(checkpoint_dir, "distributed")

    def build():
        sim = make_sinker(sinker_config, sim_config)
        sim.comm = comm
        return sim

    recoveries = 0
    events: list[dict] = []
    try:
        with use_executor(engine):
            sim = build()
            while sim.step_index < nsteps:
                try:
                    sim.step(dt)
                    cohort_checkpoint(ck, sim, comm)
                    while deferred and deferred[0][0] <= sim.step_index:
                        f = dict(deferred.pop(0)[1])
                        comm.inject_fault(f.pop("rank"), f.pop("kind"), **f)
                except CommError as err:
                    events.append({
                        "error": type(err).__name__,
                        "step": int(sim.step_index),
                        "rank": int(getattr(err, "rank", -1)),
                        "detail": str(err),
                    })
                    recoveries += 1
                    if recoveries > max_recoveries:
                        raise
                    comm.recover()
                    # mid-step state is garbage: rebuild and resume from
                    # the last collective-consistent checkpoint
                    sim = build()
                    if os.path.exists(ck + ".npz"):
                        load_checkpoint(ck, sim)
            migration = (_exercise_migration(sim, comm, ranks)
                         if migrate else None)
        return {
            "digest": state_digest(sim),
            "steps": int(sim.step_index),
            "time": float(sim.time),
            "ranks": int(ranks),
            "oracle": bool(oracle),
            "recoveries": int(recoveries),
            "wall_seconds": time.perf_counter() - t0,
            "events": events,
            "comm": comm.stats.as_dict(),
            "engine": engine.stats.as_dict(),
            "migration": migration,
            "checkpoint": ck + ".npz",
        }
    finally:
        if owns_comm and hasattr(comm, "close"):
            comm.close()
