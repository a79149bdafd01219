"""Shared-memory thread pool and the owner-writes dispatch contract.

The paper's Stokes operator is a per-rank element loop whose answer must
not depend on how the mesh is cut.  Two kernels here fan out over
workers: the compiled Tensor apply of
:mod:`repro.matfree.tensor_compiled` (a ``ctypes`` call, so the GIL is
released) and the row-split CSR SpMV of the assembled multigrid levels
(:class:`ParallelCSRMatVec`).  Everything else -- the NumPy element
kernels, the diagonal, assembly -- is a plain serial function.

:class:`ParallelExecutor` runs the tasks on a persistent
``ThreadPoolExecutor``; the rank engines of
:mod:`repro.parallel.distributed` run the same tasks inline
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
A thread-pool dispatch is one ``ParExecDispatch`` event around one
``ParExecTask:<method>`` and one ``ParExecQueueWait`` span per task,
each recorded once by :func:`account_tasks` through
:func:`repro.obs.record_span`, and the ``ParExecReduce`` stash replay.
:class:`ExecutorStats` keeps counts only.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from ..obs import registry as _obs
from .decomposition import BlockDecomposition

__all__ = [
    "ExecutorStats",
    "ParallelCSRMatVec",
    "ParallelExecutor",
    "account_tasks",
    "make_executor",
    "partition_elements",
    "partition_range",
    "replay_stashes",
    "resolve_workers",
    "stash_sizes",
    "use_executor",
]

#: environment knob honored when the call site passes ``None``
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
        workers = int(os.environ.get(ENV_WORKERS, "1") or "1")
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


class ParallelExecutor:
    """Persistent thread pool running owner-writes span tasks.

    ``workers=None`` reads ``$REPRO_WORKERS`` (default 1).  With one
    worker, or one span, the tasks run inline on the caller's thread.
    """

    def __init__(self, workers: int | None = None):
        self.workers = resolve_workers(workers)
        self.stats = ExecutorStats()
        self._pool = None

    def shutdown(self) -> None:
        """Stop the worker threads (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def dispatch(self, state, method: str, spans: list[tuple[int, int]],
                 u: np.ndarray, n_out: int, stashes=None) -> np.ndarray:
        """Run ``getattr(state, method)(u, s, e, out, stash)`` over
        ``spans`` under the owner-writes contract; return ``out``."""
        u = np.ascontiguousarray(u, dtype=np.float64)
        out = np.zeros(n_out)
        sizes = stash_sizes(spans, stashes)
        vals = [np.empty(n) if n else None for n in sizes]
        fn = getattr(state, method)
        if self.workers == 1 or len(spans) == 1:
            for (s, e), stash in zip(spans, vals):
                fn(u, s, e, out, stash)
            return replay_stashes(out, stashes, vals)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec",
            )

        def task(s, e, stash):
            t0 = time.perf_counter()
            fn(u, s, e, out, stash)
            return t0, time.perf_counter()

        nbytes_out = 8 * (n_out + sum(sizes))
        with _obs.timed("ParExecDispatch", nbytes=u.nbytes + nbytes_out):
            submitted, futures = [], []
            for (s, e), stash in zip(spans, vals):
                submitted.append(time.perf_counter())
                futures.append(self._pool.submit(task, s, e, stash))
            times = [fut.result() for fut in futures]
            account_tasks(method, times, submitted)
            with _obs.timed("ParExecReduce"):
                replay_stashes(out, stashes, vals)
        self.stats.dispatches += 1
        self.stats.tasks += len(spans)
        self.stats.bytes_in += u.nbytes
        self.stats.bytes_out += nbytes_out
        return out


class ParallelCSRMatVec:
    """Row-split CSR matvec through a dispatch engine.

    Each task writes its own row block of the output -- one dot product
    per row, computed by exactly one task -- so the result is ``A @ u``
    bit for bit on any engine.  Used by the assembled operator and the
    assembled (Galerkin) multigrid levels.
    """

    def __init__(self, matrix, executor):
        self.matrix = matrix.tocsr() if not hasattr(matrix, "indptr") else matrix
        self.executor = executor
        self.spans = partition_range(self.matrix.shape[0], executor.workers)
        self._blocks = {(s, e): self.matrix[s:e] for s, e in self.spans}

    def __getstate__(self) -> dict:  # the pickle ranks get: the row blocks
        return {"_blocks": self._blocks}

    def _apply_rows(self, u: np.ndarray, s: int, e: int, out: np.ndarray,
                    stash) -> None:
        out[s:e] = self._blocks[(s, e)] @ u

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.executor.dispatch(self, "_apply_rows", self.spans, u,
                                      self.matrix.shape[0])


#: engine override stack armed by :func:`use_executor` -- while non-empty,
#: every call site resolving an executor through :func:`make_executor`
#: (operators, GMG hierarchies, assembled matvecs) gets the innermost
#: override instead of building its own pool.  This is how the
#: rank-decomposed driver (:mod:`repro.parallel.distributed`) injects one
#: engine into the whole solve stack without threading it through every
#: constructor.
_EXECUTOR_OVERRIDE: list = []


@contextlib.contextmanager
def use_executor(engine):
    """Route every :func:`make_executor` call site through ``engine``.

    ``engine`` must satisfy the dispatch contract (``dispatch(state,
    method, spans, u, n_out, stashes)``, ``.workers``, ``.stats``); it may
    be a :class:`ParallelExecutor` or a rank engine from
    :mod:`repro.parallel.distributed`.  Overrides nest (innermost wins)
    and only cover call sites that do not pass an explicit ``executor``.
    """
    _EXECUTOR_OVERRIDE.append(engine)
    try:
        yield engine
    finally:
        _EXECUTOR_OVERRIDE.pop()


def make_executor(workers: int | None = None, executor=None):
    """Resolve the executor for an operator call site.

    Returns ``executor`` unchanged when given; else the innermost
    :func:`use_executor` override when one is armed; otherwise builds one
    when the resolved worker count exceeds 1, and returns ``None`` (pure
    serial, no engine in the loop) when it does not.
    """
    if executor is not None:
        return executor
    if _EXECUTOR_OVERRIDE:
        return _EXECUTOR_OVERRIDE[-1]
    if resolve_workers(workers) <= 1:
        return None
    return ParallelExecutor(workers)
