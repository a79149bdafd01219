"""Parallelism: domain decomposition, virtual and real.

The paper runs on 192-12288 MPI ranks of a Cray XC-30; this reproduction
preserves the *parallel semantics* the paper's algorithms depend on:
block decomposition of the structured element grid (SS II-D), neighbor
lists, halo (ghost-node) exchange accounting, and material-point
migration between subdomains.  Every communication is counted (messages,
bytes, reductions) so the machine model in :mod:`repro.perf` can
translate a run into modeled at-scale timings for Tables II/III.

Two communicators share one surface:

* :class:`VirtualComm` executes ranks sequentially in-process -- the
  deterministic **oracle**;
* :class:`~repro.parallel.procomm.ProcessComm` runs them as real worker
  processes with heartbeats, deadline-bounded operations, rank-failure
  detection, and checkpoint-based recovery
  (:mod:`repro.parallel.procomm`), with the rank-decomposed solve
  (:mod:`repro.parallel.distributed`) asserted bit-identical to the
  oracle's.
"""

from .comm import CommStats, VirtualComm, tree_reduce
from .decomposition import BlockDecomposition
from .distributed import (
    ProcommEngine,
    VirtualRankEngine,
    run_sinker_distributed,
)
from .executor import (
    ExecutorStats,
    ParallelCSRMatVec,
    ParallelExecutor,
    current_engine,
    partition_elements,
    partition_range,
    resolve_workers,
    thread_pool,
    use_executor,
)
from .halo import (
    ExchangeStats,
    halo_exchange_plan,
    validate_decomposition_compat,
)
from .procomm import (
    CommError,
    CommTimeout,
    ProcessComm,
    RankFailure,
)

__all__ = [
    "VirtualComm",
    "CommStats",
    "CommError",
    "CommTimeout",
    "BlockDecomposition",
    "ExecutorStats",
    "ExchangeStats",
    "ParallelCSRMatVec",
    "ParallelExecutor",
    "ProcessComm",
    "ProcommEngine",
    "RankFailure",
    "VirtualRankEngine",
    "current_engine",
    "halo_exchange_plan",
    "partition_elements",
    "partition_range",
    "resolve_workers",
    "run_sinker_distributed",
    "thread_pool",
    "tree_reduce",
    "use_executor",
    "validate_decomposition_compat",
]
