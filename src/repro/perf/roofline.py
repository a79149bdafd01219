"""Roofline timing model for operator applies and Stokes solves.

An operator apply over ``nel`` elements on ``cores`` cores takes

    t = nel/cores * max( flops_el / (f * peak_core),
                         bytes_el / (bandwidth_core) )

-- compute-limited for the matrix-free kernels (intensity 22-53 f/B) and
bandwidth-limited for assembled SpMV, which is the entire point of
SS III-D.  The solve-level model composes per-iteration costs (smoother
applies + residuals + transfers) with halo-exchange and reduction latency
terms, producing the modeled columns of Tables II and III.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counts import OPERATOR_COUNTS, PAPER_COUNTS, OperatorCounts
from .machine import MachineModel, EDISON


def apply_time_per_element(
    kind: str, machine: MachineModel = EDISON, cache: str = "perfect",
    counts: dict[str, OperatorCounts] | None = None,
) -> float:
    """Seconds per element per core for one operator application.

    ``counts`` selects the accounting table: the implementation-true
    ``OPERATOR_COUNTS`` by default, or ``PAPER_COUNTS`` to model the
    paper's Table I arithmetic (see :mod:`repro.perf.counts` for why the
    Tensor-C rows differ).
    """
    c = (counts or OPERATOR_COUNTS)[kind]
    bytes_el = (
        c.bytes_perfect_cache if cache == "perfect" else c.bytes_pessimal_cache
    )
    if kind == "asmb":
        bw = machine.stream_gbytes_per_core * machine.spmv_stream_fraction
        t_mem = bytes_el / (bw * 1e9)
        # SpMV flops ride along for free; memory dominates
        return t_mem
    flops_rate = machine.peak_gflops_per_core * machine.mf_flop_fraction
    t_flop = c.flops / (flops_rate * 1e9)
    t_mem = bytes_el / (machine.stream_gbytes_per_core * 1e9)
    return max(t_flop, t_mem)


def modeled_apply_time(
    kind: str,
    nel: int,
    cores: int,
    machine: MachineModel = EDISON,
    cache: str = "perfect",
    counts: dict[str, OperatorCounts] | None = None,
) -> float:
    """Seconds for one (perfectly load balanced) parallel operator apply."""
    return apply_time_per_element(kind, machine, cache, counts) * nel / cores


def modeled_gflops(kind: str, nel: int, seconds: float) -> float:
    """Sustained GF/s for an apply that took ``seconds``."""
    return OPERATOR_COUNTS[kind].flops * nel / seconds / 1e9


def table1_model(
    nel: int = 64**3, nodes: int = 8, machine: MachineModel = EDISON
) -> list[dict]:
    """Modeled Table I: time (ms) and GF/s per operator kind.

    Defaults to the paper's setting: 64^3 elements on 8 Edison nodes.
    Uses the paper's own counts (``PAPER_COUNTS``) so the table stays a
    reproduction of the published arithmetic; implementation-true GF/s
    accounting lives in ``OPERATOR_COUNTS``.
    """
    cores = nodes * machine.cores_per_node
    rows = []
    for kind, c in PAPER_COUNTS.items():
        t = modeled_apply_time(kind, nel, cores, machine, counts=PAPER_COUNTS)
        rows.append(
            {
                "operator": kind,
                "flops": c.flops,
                "bytes_perfect": c.bytes_perfect_cache,
                "bytes_pessimal": c.bytes_pessimal_cache,
                "intensity": c.intensity_perfect,
                "time_ms": t * 1e3,
                "gflops": c.flops * nel / t / 1e9,
            }
        )
    return rows


@dataclass
class SolveCostModel:
    """Per-iteration operator-apply tally of the fieldsplit+V(m,m) solve."""

    smoother_degree: int = 2
    levels: int = 3

    @property
    def fine_applies_per_iteration(self) -> int:
        """Fine-level operator applications per outer Krylov iteration.

        Pre+post smoothing (2 * degree Chebyshev matvecs) + the V-cycle's
        fine residual + the outer matvec.
        """
        return 2 * self.smoother_degree + 2


def modeled_solve_time(
    kind: str,
    nel: int,
    cores: int,
    iterations: int,
    machine: MachineModel = EDISON,
    cost: SolveCostModel | None = None,
    halo_bytes_per_apply: float = 0.0,
    reductions_per_iteration: int = 3,
) -> float:
    """Modeled wall-clock of a full Stokes solve (fine level dominated).

    Coarse levels contribute <15% of flops in a 3-level V-cycle (1/8 the
    elements per level) and are folded into a 1.2x overhead factor; halo
    and reduction latency terms model the communication the paper blames
    for the >2k-rank coarse-solve degradation (SS V).
    """
    cost = cost or SolveCostModel()
    t_apply = modeled_apply_time(kind, nel, cores, machine)
    t_halo = halo_bytes_per_apply / (machine.network_gbytes_per_link * 1e9)
    t_latency = reductions_per_iteration * machine.network_latency_us * 1e-6
    per_it = cost.fine_applies_per_iteration * (t_apply + t_halo) + t_latency
    return 1.2 * iterations * per_it


def memory_bytes(kind: str, nel: int, nnodes: int) -> int:
    """Estimated storage an operator representation needs (SS VI).

    "Avoiding assembled matrices also reduces memory requirements, thus
    increasing the maximum problem sizes that can be solved": the assembled
    matrix stores ~4608 nonzeros/element (value + index), the matrix-free
    kernels only coordinates + coefficient, and Tensor-C adds its packed
    16-value coefficient tensor per quadrature point (the paper's 21-entry
    Voigt storage for the anisotropic case; our isotropic Picard operator
    packs exactly into 16 -- see :mod:`repro.matfree.tensor_c`); the
    compiled kernel holds the same values in whole 8-element batches.
    """
    vectors = 2 * 3 * nnodes * 8  # state + residual
    if kind == "asmb":
        return vectors + nel * 4608 * 12  # 8 B value + 4 B column index
    coords = 3 * nnodes * 8
    coeff = nel * 27 * 8
    if kind in ("mf", "tensor"):
        return vectors + coords + coeff
    if kind == "tensor_c":
        return vectors + coords + nel * 27 * 16 * 8
    if kind == "tensor_compiled":
        # lane-interleaved batches of 8 elements, the last one zero-padded
        return vectors + coords + -(-nel // 8) * 8 * 27 * 16 * 8
    raise ValueError(f"unknown operator kind {kind!r}")


def efficiency_metrics(
    nel: int, cores: int, seconds: float, flops_total: float
) -> dict:
    """The Table III metrics: elements/core/s, GF/s, GF/core/s."""
    ecs = nel / cores / seconds
    gf = flops_total / seconds / 1e9
    return {"elements_per_core_per_s": ecs, "gflops": gf, "gflops_per_core": gf / cores}
