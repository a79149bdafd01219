"""Smoothed aggregation AMG: the GAMG/ML substitute.

The paper's distributed coarse solver is PETSc's GAMG configured with the
six rigid-body modes as the near-nullspace and a strength threshold of 0.01
(SS III-C); Table IV additionally benchmarks ML with a 0.01 drop tolerance.
This module implements the same algorithm family from scratch:

1. block strength-of-connection graph on nodes (Frobenius norms of the
   3x3 velocity blocks), threshold :data:`THETA`;
2. greedy MIS-style aggregation (root pass / attach pass / leftover pass);
3. tentative prolongator from a local QR of the near-nullspace restricted
   to each aggregate (coarse near-nullspace = stacked R factors);
4. prolongator smoothing ``P = (I - omega D^{-1} A) P_tent`` with
   ``omega = 4/3 / lambda_max(D^{-1}A)``, optionally followed by an
   ML-style drop tolerance;
5. Galerkin RAP and recursion until ``max_coarse``.

The resulting :class:`repro.mg.cycles.MGHierarchy` uses the same Chebyshev
(Jacobi) smoothers as the geometric part unless a custom smoother factory
is supplied (the SAML-ii row of Table IV uses FGMRES(2)/block-Jacobi-ILU0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..solvers.chebyshev import ChebyshevSmoother, estimate_lambda_max
from ..solvers.relaxation import BlockJacobiLU
from .cycles import MGLevel, MGHierarchy


def rigid_body_modes(coords: np.ndarray, bc_mask: np.ndarray | None = None) -> np.ndarray:
    """The six rigid-body modes of 3D elasticity on interleaved dofs.

    Three translations and three rotations about the centroid.  Rows at
    constrained dofs are zeroed (they carry no near-nullspace).
    """
    n = coords.shape[0]
    c = coords - coords.mean(axis=0)
    B = np.zeros((3 * n, 6))
    for t in range(3):
        B[t::3, t] = 1.0
    x, y, z = c[:, 0], c[:, 1], c[:, 2]
    # rotation about x: (0, -z, y); about y: (z, 0, -x); about z: (-y, x, 0)
    B[1::3, 3] = -z
    B[2::3, 3] = y
    B[0::3, 4] = z
    B[2::3, 4] = -x
    B[0::3, 5] = -y
    B[1::3, 5] = x
    if bc_mask is not None:
        B[bc_mask] = 0.0
    return B


def block_strength_graph(A: sp.csr_matrix, block_size: int, theta: float) -> sp.csr_matrix:
    """Strength-of-connection adjacency on node blocks.

    Edge (i, j) is strong iff ``||A_ij||_F > theta * sqrt(||A_ii|| ||A_jj||)``.
    Returns a symmetric boolean CSR without the diagonal.
    """
    if block_size > 1:
        n_nodes = A.shape[0] // block_size
        Ab = A.tobsr((block_size, block_size))
        norms = np.sqrt((Ab.data**2).sum(axis=(1, 2)))
        S = sp.csr_matrix(
            (norms, Ab.indices, Ab.indptr), shape=(n_nodes, n_nodes)
        )
    else:
        S = A.copy().tocsr()
        S.data = np.abs(S.data)
    d = S.diagonal()
    d = np.where(d > 0, d, 1.0)
    # scale by sqrt(d_i d_j)
    Dinv = sp.diags(1.0 / np.sqrt(d))
    S = (Dinv @ S @ Dinv).tocsr()
    S.data = (S.data > theta).astype(np.int8)
    S.setdiag(0)
    S.eliminate_zeros()
    S = S.maximum(S.T).tocsr()
    return S


def isolated_nodes(A: sp.csr_matrix, block_size: int) -> np.ndarray:
    """Nodes whose matrix row has no off-diagonal coupling.

    Dirichlet elimination leaves identity rows; such dofs carry zero
    residual inside the cycle and would otherwise persist as uncoarsenable
    singletons on every level (they are excluded from aggregation and get
    zero prolongator rows).
    """
    A = A.tocsr()
    n = A.shape[0]
    n_nodes = n // block_size
    off = np.zeros(n_nodes, dtype=bool)
    for b in range(block_size):
        rows = np.arange(b, n, block_size)
        counts = np.diff(A.indptr)[rows]
        # a row with >1 entry, or 1 entry off the diagonal, couples
        has_off = counts > 1
        single = np.flatnonzero(counts == 1)
        if single.size:
            cols = A.indices[A.indptr[rows[single]]]
            has_off[single] = cols != rows[single]
        off |= has_off
    return ~off


def aggregate(S: sp.csr_matrix, skip: np.ndarray | None = None) -> np.ndarray:
    """Greedy aggregation on the strength graph.

    Returns ``agg`` with ``agg[i]`` the aggregate id of node ``i``; nodes
    flagged in ``skip`` keep ``agg[i] = -1`` and receive no coarse dofs.
    """
    n = S.shape[0]
    agg = np.full(n, -1, dtype=np.int64)
    indptr, indices = S.indptr, S.indices
    next_id = 0
    if skip is None:
        skip = np.zeros(n, dtype=bool)
    # pass 1: roots whose (non-skipped) neighborhoods are fully unaggregated
    for i in range(n):
        if agg[i] != -1 or skip[i]:
            continue
        nbrs = indices[indptr[i]:indptr[i + 1]]
        nbrs = nbrs[~skip[nbrs]]
        if nbrs.size and np.all(agg[nbrs] == -1):
            agg[i] = next_id
            agg[nbrs] = next_id
            next_id += 1
    # pass 2: attach stragglers to an adjacent aggregate
    for i in np.flatnonzero((agg == -1) & ~skip):
        nbrs = indices[indptr[i]:indptr[i + 1]]
        assigned = nbrs[agg[nbrs] != -1]
        if assigned.size:
            agg[i] = agg[assigned[0]]
    # pass 3: leftovers (unattached) form their own aggregates
    for i in np.flatnonzero((agg == -1) & ~skip):
        if agg[i] != -1:
            continue
        agg[i] = next_id
        nbrs = indices[indptr[i]:indptr[i + 1]]
        free = nbrs[(agg[nbrs] == -1) & ~skip[nbrs]]
        agg[free] = next_id
        next_id += 1
    return agg


def tentative_prolongator(
    agg: np.ndarray, B: np.ndarray, block_size: int
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Tentative prolongator and coarse near-nullspace via per-aggregate QR,
    one stacked QR per aggregate size."""
    n_agg = int(agg.max()) + 1
    order = np.argsort(agg, kind="stable")
    # skipped nodes (agg == -1) sort first and receive no coarse dofs
    order = order[agg[order] >= 0]
    boundaries = np.searchsorted(agg[order], np.arange(n_agg + 1))
    sizes = np.diff(boundaries)
    groups, rank = [], np.empty(n_agg, dtype=np.int64)
    for size in np.unique(sizes):
        ids = np.flatnonzero(sizes == size)
        nodes = order[boundaries[ids, None] + np.arange(size)]
        dofs = (block_size * nodes[:, :, None]
                + np.arange(block_size)).reshape(ids.size, -1)
        Q, R = np.linalg.qr(B[dofs])
        # rank by diagonal of R (zero rows of B at bc dofs shrink the rank)
        diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
        scale = diag.max(axis=1)
        r = np.sum(diag > 1e-10 * np.maximum(scale, 1e-300)[:, None], axis=1)
        # aggregate fully constrained: inject the first dof so the
        # prolongator keeps full column rank
        empty = scale <= 0
        Q[empty], R[empty], r[empty] = 0.0, 0.0, 1
        Q[empty, 0, 0] = 1.0
        rank[ids] = r
        groups.append((ids, dofs, Q, R, r))
    start = np.concatenate([[0], np.cumsum(rank)])
    coarse_B = np.zeros((start[-1], B.shape[1]))
    rows, cols, vals = [], [], []
    for ids, dofs, Q, R, r in groups:
        for rr in np.unique(r):
            sel = r == rr
            c = start[ids[sel], None] + np.arange(rr)
            rows.append(np.repeat(dofs[sel], rr, axis=1).ravel())
            cols.append(np.repeat(c[:, None], dofs.shape[1], axis=1).ravel())
            vals.append(Q[sel, :, :rr].ravel())
            coarse_B[c] = R[sel, :rr]
    P = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(block_size * agg.size, start[-1]),
    )
    return P, coarse_B


def _drop_small(P: sp.csr_matrix, tol: float) -> sp.csr_matrix:
    """ML-style drop tolerance: prune entries below ``tol`` * row max."""
    P = P.tocsr()
    out = P.copy()
    row_max = np.zeros(P.shape[0])
    for i in range(P.shape[0]):
        seg = np.abs(P.data[P.indptr[i]:P.indptr[i + 1]])
        row_max[i] = seg.max() if seg.size else 0.0
    keep = np.ones_like(P.data, dtype=bool)
    for i in range(P.shape[0]):
        s = slice(P.indptr[i], P.indptr[i + 1])
        keep[s] = np.abs(P.data[s]) >= tol * row_max[i]
    out.data = np.where(keep, out.data, 0.0)
    out.eliminate_zeros()
    return out


#: LU subdomains of the block-Jacobi coarse solvers (one per virtual
#: rank; here and in the geometric hierarchy's ``bjacobi-lu``/``asm-cg``)
COARSE_NBLOCKS = 1
#: cap on the aggregation hierarchy's depth
MAX_LEVELS = 10
#: strength-of-connection threshold (the paper's GAMG setting)
THETA = 0.01
#: Chebyshev degree of the aggregation levels' smoothers
SMOOTHER_DEGREE = 2
#: relative tolerance of the ``fgmres-ilu`` coarse solve
COARSE_RTOL = 1e-3


@dataclass
class SAConfig:
    """Smoothed-aggregation configuration (defaults mirror the paper's GAMG).

    ``drop_tol`` enables the ML-style pruning of the smoothed prolongator
    (SAML rows of Table IV).  Aggregation stops at ``max_coarse``
    unknowns or :data:`MAX_LEVELS` levels; the other settings (:data:`THETA`,
    :data:`SMOOTHER_DEGREE`, :data:`COARSE_NBLOCKS`, :data:`COARSE_RTOL`)
    are module constants.  The hierarchy applies one V-cycle per call.
    """

    max_coarse: int = 400
    drop_tol: float = 0.0
    coarse_solver: str = "bjacobi-lu"  # or "lu", "fgmres-ilu"
    smoother_factory: Callable | None = None


def _coarse_solver(A: sp.csr_matrix, cfg: SAConfig) -> Callable:
    if cfg.coarse_solver == "lu":
        lu = spla.splu(A.tocsc())
        return lambda b: lu.solve(b)
    if cfg.coarse_solver == "bjacobi-lu":
        bj = BlockJacobiLU(A, COARSE_NBLOCKS)
        return bj
    if cfg.coarse_solver == "fgmres-ilu":
        from ..solvers.krylov import fgmres
        from ..solvers.ilu import ILU0

        M = ILU0(A)
        def solve(b):
            return fgmres(lambda v: A @ v, b, M=M, rtol=COARSE_RTOL,
                          maxiter=50).x
        return solve
    raise ValueError(f"unknown coarse solver {cfg.coarse_solver!r}")


def smoothed_aggregation(
    A: sp.csr_matrix,
    near_nullspace: np.ndarray | None = None,
    config: SAConfig | None = None,
) -> MGHierarchy:
    """Build a smoothed-aggregation hierarchy for ``A``.

    ``near_nullspace`` defaults to the constant vector (scalar problems);
    pass :func:`rigid_body_modes` output (six columns: three dofs per
    node) for elasticity/viscous blocks.
    """
    cfg = config or SAConfig()
    A = A.tocsr()
    if near_nullspace is None:
        near_nullspace = np.ones((A.shape[0], 1))
    B = near_nullspace
    levels: list[MGLevel] = []
    block_size = 3 if B.shape[1] == 6 else 1
    level_matrices = [A]
    prolongs = []
    while (
        level_matrices[-1].shape[0] > cfg.max_coarse
        and len(level_matrices) < MAX_LEVELS
    ):
        Ak = level_matrices[-1]
        if Ak.shape[0] % block_size != 0:
            block_size = 1
        S = block_strength_graph(Ak, block_size, THETA)
        skip = isolated_nodes(Ak, block_size)
        agg = aggregate(S, skip)
        n_agg = int(agg.max()) + 1
        if n_agg <= 0 or n_agg >= agg.size:  # no coarsening possible
            break
        P, B = tentative_prolongator(agg, B, block_size)
        diag = Ak.diagonal()
        diag = np.where(diag != 0, diag, 1.0)
        dinv = 1.0 / diag
        lmax = estimate_lambda_max(lambda v: Ak @ v, dinv)
        omega = 4.0 / (3.0 * lmax)
        P = (P - sp.diags(omega * dinv) @ (Ak @ P)).tocsr()
        if cfg.drop_tol > 0:
            P = _drop_small(P, cfg.drop_tol)
        Ac = (P.T @ Ak @ P).tocsr()
        prolongs.append(P)
        level_matrices.append(Ac)
        # after the first aggregation the block structure is gone
        block_size = 1
    for k, Ak in enumerate(level_matrices):
        is_coarsest = k == len(level_matrices) - 1
        apply_k = (lambda M: (lambda v: M @ v))(Ak)
        if is_coarsest:
            levels.append(
                MGLevel(
                    apply=apply_k,
                    coarse_solve=_coarse_solver(Ak, cfg),
                    ndof=Ak.shape[0],
                    label=f"sa-coarse[{Ak.shape[0]}]",
                )
            )
        else:
            diag = Ak.diagonal()
            diag = np.where(diag != 0, diag, 1.0)
            if cfg.smoother_factory is not None:
                smoother = cfg.smoother_factory(apply_k, diag, Ak)
            else:
                smoother = ChebyshevSmoother(apply_k, diag,
                                             degree=SMOOTHER_DEGREE)
            levels.append(
                MGLevel(
                    apply=apply_k,
                    smoother=smoother,
                    prolong=prolongs[k],
                    ndof=Ak.shape[0],
                    label=f"sa[{Ak.shape[0]}]",
                )
            )
    return MGHierarchy(levels)
