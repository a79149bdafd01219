"""Engine choice, the thread pool and the one owner-writes dispatch.

The paper's Stokes operator is a per-rank element loop whose answer must
not depend on how the mesh is cut.  Two kernels here fan out over
workers: the compiled Tensor apply of
:mod:`repro.matfree.tensor_compiled` (a ``ctypes`` call, so the GIL is
released) and the row-split CSR SpMV of the assembled multigrid levels
(:class:`ParallelCSRMatVec`).  Everything else -- the NumPy element
kernels, the diagonal, assembly -- is a plain serial function.

:mod:`repro.parallel.executor` is the one place that decides which
engine a kernel dispatches on.  An operator binds :func:`current_engine`
when it is built: the innermost :func:`use_executor` engine, else the
process's one :class:`ParallelExecutor` for the ``$REPRO_WORKERS`` width
(:func:`thread_pool`), else ``None`` -- serial, the compiled apply a
direct kernel call.  ``StokesConfig.workers`` arms its width's pool for a
solve or a step through :func:`use_workers`, unless an outer scope
armed an engine first.

Every engine is a :class:`DispatchEngine` and shares its ``dispatch``; a
transport supplies only how the spans run: :class:`ParallelExecutor` on
a ``ThreadPoolExecutor`` whose threads stop before any ``os.fork``; the
rank engines of :mod:`repro.parallel.distributed` inline
(:class:`~repro.parallel.distributed.VirtualRankEngine`) or in real rank
processes over shared memory
(:class:`~repro.parallel.distributed.ProcommEngine`), which are sent a
state's pickle once per version: only what its span method reads.

Owner-writes contract
---------------------
``dispatch(state, method, spans, u, n_out, stashes)`` zeroes one output
vector ``out`` and calls ``getattr(state, method)(u, s, e, out, stash)``
once per span ``(s, e)``:

* task ``k`` writes its span's contributions straight into ``out``,
  except those to the indices ``stashes[k]`` -- entries an earlier span
  also writes -- which it writes, in that order, to its own ``stash``
  buffer of ``len(stashes[k])`` floats (``None`` when empty);
* when every task is done, the master adds each stash into ``out`` with
  ``np.add.at`` (unbuffered, in index order), span after span.

No two tasks write the same entry of ``out``, so tasks need no locks and
no partial vectors; and every entry receives its terms in the order the
serial loop adds them, so the result does not depend on the worker
count.  Row-split SpMV passes no stashes: each output row is one task's
dot product.  For the element scatter the stashed entries are the dofs of
nodes an earlier span touches (see
:class:`~repro.matfree.tensor_compiled.TensorCompiledOperator`, and
DESIGN.md for why that reproduces the serial scatter for any cut).

Observation
-----------
A thread-pool dispatch is one ``ParExecDispatch`` event (a rank
engine's: ``CommHaloExchange``) around one ``ParExecTask:<method>`` and,
on threads, one ``ParExecQueueWait`` span per task, each recorded once by
:func:`account_tasks` through :func:`repro.obs.record_span`, and the
``ParExecReduce`` stash replay.
:class:`ExecutorStats` keeps counts only.
"""

from __future__ import annotations

import contextlib
import os
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from ..obs import registry as _obs
from .decomposition import BlockDecomposition

__all__ = [
    "DispatchEngine",
    "ExecutorStats",
    "ParallelCSRMatVec",
    "ParallelExecutor",
    "account_tasks",
    "current_engine",
    "partition_elements",
    "partition_range",
    "replay_stashes",
    "resolve_workers",
    "stash_sizes",
    "thread_pool",
    "use_executor",
    "use_workers",
]

#: the thread count when nothing explicit is given (read when needed)
ENV_WORKERS = "REPRO_WORKERS"


@dataclass
class ExecutorStats:
    """Accumulated engine counts (kept even while ``repro.obs`` is off);
    the engine's timings are the ``ParExec*`` events of ``repro.obs``."""

    dispatches: int = 0
    tasks: int = 0
    bytes_in: int = 0      # input-vector bytes handed to the tasks
    bytes_out: int = 0     # output and stash bytes the tasks wrote

    def as_dict(self) -> dict:
        return asdict(self)


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else ``$REPRO_WORKERS``, else 1."""
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "") or "1"
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"${ENV_WORKERS} must be an integer >= 1, got {raw!r}"
            ) from None
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def partition_range(n: int, nparts: int) -> list[tuple[int, int]]:
    """As-even-as-possible contiguous split of ``range(n)`` (row blocks)."""
    nparts = max(1, min(int(nparts), int(n))) if n else 1
    bounds = np.linspace(0, n, nparts + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(nparts)]


def partition_elements(mesh, nparts: int) -> list[tuple[int, int]]:
    """Contiguous element slabs from a ``(1, 1, p)`` block decomposition.

    The element index is x-fastest (``ex + M*(ey + N*ez)``), so splitting
    only the slowest (z) dimension makes every subdomain one contiguous
    index range ``[M*N*bz[k], M*N*bz[k+1])`` -- the executor's unit of work.
    Falls back to a plain index split when the mesh has fewer element
    layers than parts.
    """
    M, N, P = mesh.shape
    nparts = max(1, int(nparts))
    if nparts == 1:
        return [(0, mesh.nel)]
    if nparts > P:
        return partition_range(mesh.nel, nparts)
    decomp = BlockDecomposition(mesh, (1, 1, nparts))
    layer = M * N
    return [
        (int(layer * decomp.bz[k]), int(layer * decomp.bz[k + 1]))
        for k in range(nparts)
    ]


def stash_sizes(spans, stashes) -> list[int]:
    """Stash length of each span (all zero when ``stashes`` is ``None``)."""
    if stashes is None:
        return [0] * len(spans)
    if len(stashes) != len(spans):
        raise ValueError(f"need one stash index array per span: "
                         f"{len(stashes)} for {len(spans)} spans")
    return [len(idx) for idx in stashes]


def replay_stashes(out: np.ndarray, stashes, vals) -> np.ndarray:
    """Add each span's stashed values into ``out``, in span order."""
    if stashes is not None:
        for idx, v in zip(stashes, vals):
            if len(idx):
                np.add.at(out, idx, v)
    return out


def account_tasks(method: str, times, submitted=()) -> None:
    """Record one dispatch's tasks, each once, through ``record_span``.

    ``times[k]`` is the ``(t0, t1)`` ``perf_counter`` span of task ``k``
    (task index = worker rank): a ``ParExecTask:<method>`` event and task
    span, the first of which opens the dispatch.  ``submitted[k]``, when
    given, is the ``perf_counter`` reading at which task ``k`` was queued:
    its wait until ``t0`` is a ``ParExecQueueWait`` event and wait span in
    the same dispatch.
    """
    if not _obs.STATE.enabled:
        return
    name = f"ParExecTask:{method}"
    dispatch = None
    for rank, (t0, t1) in enumerate(times):
        dispatch = _obs.record_span(name, t0, t1, cat="task", rank=rank,
                                    dispatch=dispatch)
    for rank, (ts, (t0, _)) in enumerate(zip(submitted, times)):
        _obs.record_span("ParExecQueueWait", ts, t0, cat="wait", rank=rank,
                         dispatch=dispatch)


class DispatchEngine:
    """The owner-writes ``dispatch``; a transport supplies ``_run_spans``.

    ``dispatch`` sizes the stashes, allocates the output and the stash
    buffers, has the transport run every span into them, replays the
    stashes and counts the dispatch in :attr:`stats`, all inside one
    ``repro.obs`` event named by ``_event`` (category ``_event_cat``).
    ``_run_spans(state, method, spans, u, out, vals)`` calls
    ``getattr(state, method)(u, s, e, out, stash)`` once per span, however
    its transport runs them: :class:`ParallelExecutor` on its threads,
    :class:`~repro.parallel.distributed.VirtualRankEngine` inline,
    :class:`~repro.parallel.distributed.ProcommEngine` on rank processes.
    """

    _event, _event_cat = "ParExecDispatch", "event"

    def __init__(self, workers: int):
        self.workers = int(workers)
        self.stats = ExecutorStats()

    def dispatch(self, state, method: str, spans: list[tuple[int, int]],
                 u: np.ndarray, n_out: int, stashes=None) -> np.ndarray:
        """Run ``getattr(state, method)(u, s, e, out, stash)`` over
        ``spans`` under the owner-writes contract; return ``out``."""
        u = np.ascontiguousarray(u, dtype=np.float64)
        sizes = stash_sizes(spans, stashes)
        out = np.zeros(n_out)
        vals = [np.empty(n) if n else None for n in sizes]
        nbytes_out = 8 * (int(n_out) + sum(sizes))
        with _obs.timed(self._event, nbytes=u.nbytes + nbytes_out,
                        cat=self._event_cat):
            self._run_spans(state, method, spans, u, out, vals)
            with _obs.timed("ParExecReduce"):
                replay_stashes(out, stashes, vals)
        self._count(len(spans), u.nbytes, nbytes_out)
        return out

    def _count(self, ntasks: int, nbytes_in: int, nbytes_out: int) -> None:
        st = self.stats
        st.dispatches += 1
        st.tasks += ntasks
        st.bytes_in += nbytes_in
        st.bytes_out += nbytes_out

    def shutdown(self) -> None:
        """Release the transport's resources (idempotent)."""


#: thread pools with live threads, stopped before every ``os.fork``
_STARTED: weakref.WeakSet = weakref.WeakSet()


def _stop_threads() -> None:
    for engine in list(_STARTED):
        engine.shutdown()


# a child forked while engine threads run inherits their locks but not the
# threads: rank processes and serve jobs always fork from a thread-free pool
os.register_at_fork(before=_stop_threads)


class ParallelExecutor(DispatchEngine):
    """Thread-pool transport: a dispatch's tasks run on ``workers`` threads.

    The threads start at the first multi-span dispatch and stop before
    any ``os.fork`` (and at :meth:`shutdown`); the next dispatch starts
    them again.  ``workers=None`` reads ``$REPRO_WORKERS``.  With one
    worker, or one span, the tasks run inline on the caller's thread.
    Operators get the process's one pool per width from
    :func:`thread_pool`.
    """

    def __init__(self, workers: int | None = None):
        super().__init__(resolve_workers(workers))
        self._pool = None

    def shutdown(self) -> None:
        """Stop the worker threads (idempotent)."""
        _STARTED.discard(self)
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _run_spans(self, state, method, spans, u, out, vals) -> None:
        fn = getattr(state, method)
        if self.workers == 1 or len(spans) == 1:
            for (s, e), stash in zip(spans, vals):
                fn(u, s, e, out, stash)
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec",
            )
            _STARTED.add(self)

        def task(s, e, stash):
            t0 = time.perf_counter()
            fn(u, s, e, out, stash)
            return t0, time.perf_counter()

        submitted, futures = [], []
        for (s, e), stash in zip(spans, vals):
            submitted.append(time.perf_counter())
            futures.append(self._pool.submit(task, s, e, stash))
        account_tasks(method, [fut.result() for fut in futures], submitted)


class ParallelCSRMatVec:
    """Row-split CSR matvec through a dispatch engine.

    Each task writes its own row block of the output -- one dot product
    per row, computed by exactly one task -- so the result is ``A @ u``
    bit for bit on any engine.  Used by the assembled operator and the
    assembled (Galerkin) multigrid levels.
    """

    def __init__(self, matrix, engine):
        self.matrix = matrix.tocsr() if not hasattr(matrix, "indptr") else matrix
        self.engine = engine
        self.spans = partition_range(self.matrix.shape[0], engine.workers)
        self._blocks = {(s, e): self.matrix[s:e] for s, e in self.spans}

    def __getstate__(self) -> dict:  # the pickle ranks get: the row blocks
        return {"_blocks": self._blocks}

    def _apply_rows(self, u: np.ndarray, s: int, e: int, out: np.ndarray,
                    stash) -> None:
        out[s:e] = self._blocks[(s, e)] @ u

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.engine.dispatch(self, "_apply_rows", self.spans, u,
                                    self.matrix.shape[0])


#: the process's thread pools, one per width
_POOLS: dict[int, ParallelExecutor] = {}
#: engines armed by :func:`use_executor`, innermost last
_ARMED: list = []


def thread_pool(workers: int | None = None) -> ParallelExecutor | None:
    """The process's pool of ``resolve_workers(workers)`` threads, built
    at the first request for that width; ``None`` (serial) for one."""
    workers = resolve_workers(workers)
    if workers == 1:
        return None
    if workers not in _POOLS:
        _POOLS[workers] = ParallelExecutor(workers)
    return _POOLS[workers]


def current_engine():
    """The engine an operator built now runs on.

    The innermost :func:`use_executor` engine; else the process's
    :func:`thread_pool` for ``$REPRO_WORKERS`` (read now, not at
    import); else ``None`` (serial).
    Operators, :class:`ParallelCSRMatVec` users and multigrid levels call
    it once, when they are built.
    """
    if _ARMED:
        return _ARMED[-1]
    return thread_pool()


@contextlib.contextmanager
def use_executor(engine):
    """Make ``engine`` the :func:`current_engine` inside the block.

    ``engine`` is a :class:`DispatchEngine` (a thread pool or a rank
    engine from :mod:`repro.parallel.distributed`) or ``None`` (serial).
    Scopes nest; the innermost wins.
    """
    _ARMED.append(engine)
    try:
        yield engine
    finally:
        _ARMED.pop()


def use_workers(workers: int | None):
    """Arm the :func:`thread_pool` of ``workers`` threads for a solve or a
    step (``StokesConfig.workers``); a no-op when ``workers`` is ``None``
    (``$REPRO_WORKERS`` decides) or when an outer scope already armed an
    engine, whose choice wins."""
    if _ARMED or workers is None:
        return contextlib.nullcontext()
    return use_executor(thread_pool(workers))
