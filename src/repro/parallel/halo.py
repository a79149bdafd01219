"""Halo exchange accounting for the performance model.

The sequential run operates on global vectors, so historically no data
moved and these routines were purely analytic: message counts and byte
volumes a real distributed run would incur, which the Edison machine model
converts into communication time for Tables II/III.  The bytes a
dispatch engine actually moves are its own ``ExecutorStats``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import BlockDecomposition


@dataclass
class ExchangeStats:
    """One exchange round: messages, total bytes, per-rank maximum."""

    messages: int
    bytes_total: int
    max_bytes_per_rank: int


def validate_decomposition_compat(
    decomp: BlockDecomposition, peer: BlockDecomposition
) -> None:
    """Raise ``ValueError`` unless two decompositions can exchange halos.

    A halo exchange is only meaningful between decompositions of the same
    element grid cut into the same rank grid; a mismatch used to surface
    as an index error deep in the ghost arithmetic.  The error names both
    shapes so the caller can see *which* side is wrong.
    """
    mine = (tuple(decomp.mesh.shape), tuple(decomp.ranks))
    theirs = (tuple(peer.mesh.shape), tuple(peer.ranks))
    if mine != theirs:
        raise ValueError(
            "incompatible decompositions for halo exchange: "
            f"mesh {mine[0]} / ranks {mine[1]} vs "
            f"mesh {theirs[0]} / ranks {theirs[1]}"
        )


def halo_exchange_plan(
    decomp: BlockDecomposition, dofs_per_node: int = 3,
    peer: BlockDecomposition | None = None,
) -> ExchangeStats:
    """Per-rank halo traffic for one ghost update of a nodal field.

    Returns an :class:`ExchangeStats` from the analytic ghost-node count.
    ``peer`` (the decomposition on the other side of the exchange, when it
    is not ``decomp`` itself) is validated for compatibility up front.
    """
    if peer is not None:
        validate_decomposition_compat(decomp, peer)
    msgs = 0
    total_bytes = 0
    max_rank_bytes = 0
    for rank in range(decomp.nranks):
        nbrs = decomp.neighbors(rank)
        ghosts = decomp.ghost_node_count(rank)
        b = ghosts * dofs_per_node * 8
        msgs += len(nbrs)
        total_bytes += b
        max_rank_bytes = max(max_rank_bytes, b)
    return ExchangeStats(msgs, total_bytes, max_rank_bytes)

