"""Krylov methods: GCR, FGMRES, GMRES, CG, BiCGstab.

Design notes (SS III-A of the paper):

* Multigrid V-cycles with Chebyshev smoothers and inner iterative coarse
  solves make the preconditioner *nonlinear*, so the outer method must be
  flexible: GCR or FGMRES.
* The paper monitors velocity- and pressure-block residuals separately
  (Fig. 2).  All methods here accept a ``monitor`` callback and pass it the
  residual vector each iteration: GCR, CG and BiCGstab the one their
  recurrence updates, GMRES and FGMRES one rebuilt from the Arnoldi basis
  and the Givens rotations (only when a monitor is attached).
* FGMRES is :func:`~repro.stokes.solve.solve_stokes`'s default outer
  method.  GMRES and FGMRES orthogonalize by one classical Gram-Schmidt
  pass (PETSc's default), two matrix-vector products per basis block.

Operators and preconditioners are plain callables ``v -> A v`` and
``r -> M^{-1} r``; convergence is tested on the unpreconditioned residual
(matching the paper's "unpreconditioned relative tolerance of 1e-5").

Every method returns a :class:`SolveResult` carrying a typed
:class:`~repro.resilience.reasons.ConvergedReason` -- no solver path can
hand back a non-finite iterate without ``DIVERGED_NAN``, growth past
``dtol * ||r0||`` stops with ``DIVERGED_DTOL``, and GCR, (F)GMRES and
BiCGstab declare ``DIVERGED_STAGNATION`` instead of spinning to
``maxiter`` when no residual reduction happens over a window (see
:class:`~repro.resilience.guard.ResidualGuard`; the checks are scalar
compares on norms the iterations already compute, so the clean path is
unaffected).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..obs.registry import STATE as _OBS, instrument
from ..obs.trace import trace_ksp
from ..parallel.executor import current_engine
from ..resilience.guard import DEFAULT_DTOL, ResidualGuard
from ..resilience.reasons import ConvergedReason, nonfinite, stopping_tolerance
from .result import SolveResult

Operator = Callable[[np.ndarray], np.ndarray]

_NAN = ConvergedReason.DIVERGED_NAN
_ITS = ConvergedReason.DIVERGED_ITS
_BREAKDOWN = ConvergedReason.DIVERGED_BREAKDOWN
_STAGNATION = ConvergedReason.DIVERGED_STAGNATION

#: iterations without a new best residual before a minimal-residual outer
#: method (GCR, GMRES, FGMRES) or BiCGstab declares stagnation; CG trusts
#: its orthogonality and carries only the NaN/dtol guards
STAG_WINDOW = 60
BICGSTAB_STAG_WINDOW = 40


def _identity(r: np.ndarray) -> np.ndarray:
    # a copy: callers may update the returned vector in place
    return r.copy()


#: GCR allocates its direction storage this many rows at a time
GCR_BLOCK = 4
#: GMRES and FGMRES allocate their bases this many rows at a time; the
#: last block of V and of Z is partly unused, and at 16 rows that slack
#: alone raised a 12^3 solve's high-water 12 % above GCR's
GMRES_BLOCK = 8


def _matmul_dot(a: np.ndarray, b: np.ndarray) -> float:
    return a @ b


def _rows(blocks: list[np.ndarray], k: int):
    """``(start, rows)`` spans of the first ``k`` rows of vectors stored
    in a list of equal-height blocks."""
    for s, block in zip(range(0, k, len(blocks[0])), blocks):
        yield s, block[:k - s]


@instrument("KSPSolve_gcr")
def gcr(
    A: Operator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    M: Operator | None = None,
    rtol: float = 1e-5,
    atol: float = 0.0,
    maxiter: int = 1000,
    restart: int = 30,
    monitor: Callable | None = None,
    dtol: float = DEFAULT_DTOL,
    stag_window: int = STAG_WINDOW,
) -> SolveResult:
    """Preconditioned Generalized Conjugate Residual method.

    Flexible (the preconditioner may change between iterations) and keeps
    the true residual vector available at every step.  Restarted every
    ``restart`` directions to bound memory.  ``stag_window`` iterations
    without a new best residual return ``DIVERGED_STAGNATION`` (GCR is
    norm-minimizing, so a genuinely stuck solve -- e.g. an inconsistent
    system -- makes *exactly zero* progress forever; the window must only
    outlive floating-point jitter, not a Fig. 2 plateau, which still
    shrinks the residual every iteration).
    """
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b - A(x)
    rnorm = float(np.linalg.norm(r))
    residuals = [rnorm]
    tol, good = stopping_tolerance(np.linalg.norm(b), rnorm, rtol, atol)
    if _OBS.enabled:
        trace_ksp("gcr", 0, rnorm)
    if monitor:
        monitor(0, r, rnorm)
    if nonfinite(rnorm):
        return SolveResult(x, False, 0, residuals, _NAN)
    if rnorm <= tol:
        return SolveResult(x, True, 0, residuals, good)
    guard = ResidualGuard(rnorm, dtol, stag_window)
    # direction storage owned by the solve: contiguous blocks of GCR_BLOCK
    # rows, one more allocated when the iterations reach it (a 3-iteration
    # solve must not commit ``restart`` vectors) and all reused after a
    # restart; never copied or freed mid-solve.  M's and A's outputs are
    # copied into the rows, so every update below is in place whatever they
    # alias; ``t`` is the one scaled-vector temporary.
    # NumPy only -- ``scipy.linalg.blas.daxpy`` would fuse multiply and add,
    # but SciPy carries its own threaded OpenBLAS, and alternating between
    # its pool and NumPy's (the dots) made the sweep 40x slower unpinned.
    n = r.size
    p_blocks: list[np.ndarray] = []
    ps: list[np.ndarray] = []  # rows of p_blocks
    qs: list[np.ndarray] = []  # q = A p, normalized
    betas = np.empty(restart)
    t = np.empty(n)
    k = 0  # directions stored since the last restart
    it = 0
    while it < maxiter:
        if k == len(ps):
            p_blocks.append(np.empty((GCR_BLOCK, n)))
            ps.extend(p_blocks[-1])
            qs.extend(np.empty((GCR_BLOCK, n)))
        p, q = ps[k], qs[k]
        np.copyto(p, r if M is None else M(r))
        np.copyto(q, A(p))
        # orthogonalize q against previous directions (modified Gram-Schmidt)
        for j in range(k):
            betas[j] = q @ qs[j]
            np.multiply(qs[j], betas[j], out=t)
            q -= t
        # p takes the same combination; it does not feed back into the
        # coefficients, so it is one matrix-vector product per block
        for s, rows in _rows(p_blocks, k):
            np.dot(betas[s:s + len(rows)], rows, out=t)
            p -= t
        qnorm = float(np.linalg.norm(q))
        if qnorm == 0.0:
            # A M r lies entirely in the span of the accepted directions:
            # the method cannot produce a new one (singular operator or
            # preconditioner)
            return SolveResult(x, False, it, residuals, _BREAKDOWN)
        q /= qnorm
        p /= qnorm
        alpha = r @ q
        np.multiply(p, alpha, out=t)
        x += t
        np.multiply(q, alpha, out=t)
        r -= t
        k = k + 1 if k + 1 < restart else 0
        it += 1
        rnorm = float(np.linalg.norm(r))
        residuals.append(rnorm)
        if _OBS.enabled:
            trace_ksp("gcr", it, rnorm)
        if monitor:
            monitor(it, r, rnorm)
        if rnorm <= tol:
            return SolveResult(x, True, it, residuals, good)
        bad = guard.check(rnorm)
        if bad is not None:
            return SolveResult(x, False, it, residuals, bad)
    return SolveResult(x, False, it, residuals, _ITS)


def _row(blocks: list[np.ndarray], rows: list[np.ndarray], i: int,
         n: int) -> np.ndarray:
    """Row ``i`` of a basis stored in ``blocks``; a new block of
    :data:`GMRES_BLOCK` rows is allocated when ``i`` reaches it."""
    if i == len(rows):
        blocks.append(np.empty((GMRES_BLOCK, n)))
        rows.extend(blocks[-1])
    return rows[i]


def _combination(blocks: list[np.ndarray], c: np.ndarray) -> np.ndarray:
    """``sum_i c[i] * row_i`` over the first ``len(c)`` rows of a basis."""
    out = np.zeros(blocks[0].shape[1])
    for s, rows in _rows(blocks, c.size):
        out += c[s:s + len(rows)] @ rows
    return out


def _gmres_residual(blocks, cs, sn, g, j) -> np.ndarray:
    """The residual of the ``j``-th GMRES iterate as a vector.

    ``r_j = V_{j+1} Q_j^T (g_j e_j)``: the rotated right-hand side keeps
    only its last entry once the triangular system is solved, and the
    transposed Givens rotations carry it back to basis coordinates.
    """
    c = np.zeros(j + 1)
    c[j] = g[j]
    for i in range(j - 1, -1, -1):
        c[i], c[i + 1] = -sn[i] * c[i + 1], cs[i] * c[i + 1]
    return _combination(blocks, c)


def _gmres_core(
    A: Operator,
    b: np.ndarray,
    x0: np.ndarray | None,
    M: Operator | None,
    rtol: float,
    atol: float,
    maxiter: int,
    restart: int,
    monitor: Callable | None,
    flexible: bool,
    name: str,
    dtol: float = DEFAULT_DTOL,
) -> SolveResult:
    """Right-preconditioned GMRES core shared by :func:`gmres`/:func:`fgmres`.

    ``flexible=True`` stores the preconditioned basis ``Z`` (Saad's FGMRES),
    so ``M`` may change between iterations.  ``flexible=False`` keeps only
    ``V`` and reconstructs the update as ``x += M(V^T y)``, which is exact
    for a *linear* fixed preconditioner and saves the ``Z`` basis.

    Each new Arnoldi vector is orthogonalized by one classical
    Gram-Schmidt pass (PETSc's default, ``KSP_GMRES_CGS_REFINE_NEVER``):
    all coefficients ``h = V w`` against the unmodified ``w``, then one
    combined subtraction ``w - h V`` into the next basis row -- two
    matrix-vector products per block of the basis instead of a Python loop
    over its rows.

    Happy breakdown (``H[j+1, j] == 0``): the Krylov space is invariant, so
    the small least-squares problem is solved and the (exact) iterate is
    returned immediately instead of orthogonalizing against a zero vector.
    A fully dependent column (``H[j, j] == H[j+1, j] == 0`` after rotations,
    e.g. from a singular preconditioner) is discarded rather than driven
    into a singular triangular solve.  :data:`STAG_WINDOW` iterations
    without a new best residual return ``DIVERGED_STAGNATION``, as in
    :func:`gcr`.

    Each cycle ends by forming the true residual ``b - A x`` of its
    update; only that decides convergence, and the result carries its
    norm (:attr:`~repro.solvers.result.SolveResult.true_residual`).  The
    one-pass estimate can undershoot once the basis loses orthogonality,
    so a restart resets the guard's best residual to the true one, and a
    cycle whose true residual exceeds its start's is discarded: the start
    iterate is returned (``DIVERGED_STAGNATION``, or ``DIVERGED_ITS`` at
    ``maxiter``).

    A NaN/Inf anywhere in a matvec or preconditioner output propagates into
    the Givens-recurrence residual estimate within the same iteration, so
    the guard catches it without touching the vectors.
    """
    M = M or _identity
    x = np.zeros_like(b) if x0 is None else x0.copy()
    n = b.size
    r = b - A(x)
    rnorm = float(np.linalg.norm(r))
    residuals = [rnorm]
    tol, good = stopping_tolerance(np.linalg.norm(b), rnorm, rtol, atol)
    if _OBS.enabled:
        trace_ksp(name, 0, rnorm)
    if monitor:
        monitor(0, r, rnorm)
    if nonfinite(rnorm):
        return SolveResult(x, False, 0, residuals, _NAN)
    if rnorm <= tol:
        return SolveResult(x, True, 0, residuals, good)
    guard = ResidualGuard(rnorm, dtol, STAG_WINDOW)
    # basis storage owned by the solve, as in gcr: blocks of GMRES_BLOCK
    # rows allocated when the iterations reach them (a (restart + 1, n)
    # array up front commits memory a short solve never touches) and
    # reused by every restart cycle.  NumPy products only (see gcr).
    V: list[np.ndarray] = []  # blocks of the Arnoldi basis
    Z: list[np.ndarray] = []  # blocks of the preconditioned basis
    vs: list[np.ndarray] = []  # rows of V
    zs: list[np.ndarray] = []  # rows of Z
    t = np.empty(n)
    it = 0
    while it < maxiter and rnorm > tol:
        if it:
            guard.restart(rnorm)
        r_start = rnorm  # the true residual of the cycle's start iterate
        m = min(restart, maxiter - it)
        H = np.zeros((m + 1, m))
        h = np.empty(m + 1)
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        np.divide(r, rnorm, out=_row(V, vs, 0, n))
        g[0] = rnorm
        j = 0
        breakdown = False
        bad = None
        while j < m:
            if flexible:
                z = _row(Z, zs, j, n)
                np.copyto(z, M(vs[j]))
                w = A(z)
            else:
                w = A(M(vs[j]))
            # one classical Gram-Schmidt pass over V_0..V_j, written into
            # the next basis row: out of place, because A may have returned
            # a view of the basis row it was handed (an identity operator)
            v = _row(V, vs, j + 1, n)
            for s, rows in _rows(V, j + 1):
                np.dot(rows, w, out=h[s:s + len(rows)])
            for s, rows in _rows(V, j + 1):
                np.dot(h[s:s + len(rows)], rows, out=t)
                np.subtract(w if s == 0 else v, t, out=v)
            H[:j + 1, j] = h[:j + 1]
            H[j + 1, j] = float(np.linalg.norm(v))
            if nonfinite(H[j + 1, j]):
                # poisoned matvec/preconditioner: the column is unusable,
                # but the iterate built from the accepted columns is not
                bad = _NAN
                break
            breakdown = H[j + 1, j] == 0.0
            if not breakdown:
                v /= H[j + 1, j]
            # apply stored Givens rotations to the new column
            for i in range(j):
                tmp = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = tmp
            denom = np.hypot(H[j, j], H[j + 1, j])
            if denom == 0.0:
                # the new column lies entirely in the span of the accepted
                # ones and carries no information; keeping it would put a
                # zero on the diagonal of the triangular solve below
                break
            cs[j] = H[j, j] / denom
            sn[j] = H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            j += 1
            it += 1
            rnorm = abs(g[j])
            residuals.append(rnorm)
            if _OBS.enabled:
                trace_ksp(name, it, rnorm)
            if monitor:
                monitor(it, _gmres_residual(V, cs, sn, g, j), rnorm)
            if breakdown or rnorm <= tol:
                break
            bad = guard.check(rnorm)
            if bad is not None:
                break
        if j == 0:
            # no usable direction at all (zero operator / singular M):
            # report breakdown instead of crashing on a singular solve
            return SolveResult(x, False, it, residuals, bad or _BREAKDOWN)
        # solve the small triangular system and update
        y = np.linalg.solve(H[:j, :j], g[:j])
        x_new = x + (_combination(Z, y) if flexible
                     else M(_combination(V, y)))
        r = b - A(x_new)
        rnorm = float(np.linalg.norm(r))
        if nonfinite(rnorm):
            residuals[-1] = rnorm
            return SolveResult(x_new, False, it, residuals, _NAN)
        if rnorm > r_start:
            # the estimate misled the cycle: keep the iterate it started at
            residuals[-1] = r_start
            reason = (bad if bad is not None
                      else _ITS if it >= maxiter else _STAGNATION)
            return SolveResult(x, False, it, residuals, reason, r_start)
        x = x_new
        residuals[-1] = rnorm
        if rnorm <= tol:
            return SolveResult(x, True, it, residuals, good, rnorm)
        if bad is not None:
            return SolveResult(x, False, it, residuals, bad, rnorm)
        if breakdown:
            # the Krylov space was invariant yet the exact iterate misses
            # the tolerance: nothing further can happen
            return SolveResult(x, False, it, residuals, _BREAKDOWN, rnorm)
    return SolveResult(x, False, it, residuals, _ITS, rnorm)


@instrument("KSPSolve_fgmres")
def fgmres(
    A: Operator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    M: Operator | None = None,
    rtol: float = 1e-5,
    atol: float = 0.0,
    maxiter: int = 1000,
    restart: int = 30,
    monitor: Callable | None = None,
    dtol: float = DEFAULT_DTOL,
) -> SolveResult:
    """Flexible GMRES (Saad): right preconditioning, per-iterate Z storage.

    The default outer method of :func:`~repro.stokes.solve.solve_stokes`.
    The residual norm is tracked through the Givens recurrence; when a
    monitor is attached it also receives the residual vector, rebuilt from
    the basis each iteration, so per-field monitors work as under GCR.
    """
    return _gmres_core(
        A, b, x0, M, rtol, atol, maxiter, restart, monitor,
        flexible=True, name="fgmres", dtol=dtol,
    )


@instrument("KSPSolve_gmres")
def gmres(
    A: Operator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    M: Operator | None = None,
    rtol: float = 1e-5,
    atol: float = 0.0,
    maxiter: int = 1000,
    restart: int = 30,
    monitor: Callable | None = None,
    dtol: float = DEFAULT_DTOL,
) -> SolveResult:
    """Right-preconditioned GMRES (fixed *linear* preconditioner).

    Identical iterates to :func:`fgmres` when the preconditioner is linear,
    but stores no Z basis: the update is reconstructed from the Arnoldi
    basis as ``x += M(V^T y)`` at the cost of one extra preconditioner
    application per restart cycle.  The monitor receives the residual
    vector as under :func:`fgmres`.  Use :func:`fgmres` or :func:`gcr`
    whenever the preconditioner changes between iterations.
    """
    return _gmres_core(
        A, b, x0, M, rtol, atol, maxiter, restart, monitor,
        flexible=False, name="gmres", dtol=dtol,
    )


@instrument("KSPSolve_cg")
def cg(
    A: Operator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    M: Operator | None = None,
    rtol: float = 1e-5,
    atol: float = 0.0,
    maxiter: int = 1000,
    monitor: Callable | None = None,
    dtol: float = DEFAULT_DTOL,
) -> SolveResult:
    """Preconditioned conjugate gradients for SPD operators.

    The inner products are those of the :func:`current_engine` in scope:
    a rank engine's tree-reduced ``dot`` (every CG reduction a rank
    collective, bitwise-identical between the oracle and the real
    transport), otherwise ``a @ b``.
    """
    dot = getattr(current_engine(), "dot", _matmul_dot)
    M = M or _identity
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b - A(x)
    rnorm = float(np.linalg.norm(r))
    residuals = [rnorm]
    tol, good = stopping_tolerance(np.linalg.norm(b), rnorm, rtol, atol)
    if _OBS.enabled:
        trace_ksp("cg", 0, rnorm)
    if monitor:
        monitor(0, r, rnorm)
    if nonfinite(rnorm):
        return SolveResult(x, False, 0, residuals, _NAN)
    if rnorm <= tol:
        return SolveResult(x, True, 0, residuals, good)
    guard = ResidualGuard(rnorm, dtol, stag_window=0)
    z = M(r)
    p = z.copy()
    rz = dot(r, z)
    for it in range(1, maxiter + 1):
        Ap = A(p)
        pAp = dot(p, Ap)
        if pAp <= 0:
            # operator not SPD on this subspace; bail out safely (a NaN
            # pAp falls through this comparison and is caught by the
            # residual guard below)
            return SolveResult(x, False, it - 1, residuals, _BREAKDOWN)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rnorm = float(np.linalg.norm(r))
        residuals.append(rnorm)
        if _OBS.enabled:
            trace_ksp("cg", it, rnorm)
        if monitor:
            monitor(it, r, rnorm)
        if rnorm <= tol:
            return SolveResult(x, True, it, residuals, good)
        bad = guard.check(rnorm)
        if bad is not None:
            return SolveResult(x, False, it, residuals, bad)
        z = M(r)
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return SolveResult(x, False, maxiter, residuals, _ITS)


@instrument("KSPSolve_bicgstab")
def bicgstab(
    A: Operator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    M: Operator | None = None,
    rtol: float = 1e-5,
    atol: float = 0.0,
    maxiter: int = 1000,
    monitor: Callable | None = None,
    dtol: float = DEFAULT_DTOL,
    stag_window: int = BICGSTAB_STAG_WINDOW,
) -> SolveResult:
    """BiCGstab for nonsymmetric systems (used by the SUPG energy solve).

    Unlike the minimizing methods, BiCGstab's residual can wander or grow
    without bound on indefinite operators; the guard turns that into
    ``DIVERGED_DTOL`` / ``DIVERGED_STAGNATION`` instead of ``maxiter``
    useless iterations, and zero inner products exit as
    ``DIVERGED_BREAKDOWN``.
    """
    M = M or _identity
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b - A(x)
    rnorm = float(np.linalg.norm(r))
    residuals = [rnorm]
    tol, good = stopping_tolerance(np.linalg.norm(b), rnorm, rtol, atol)
    if _OBS.enabled:
        trace_ksp("bicgstab", 0, rnorm)
    if monitor:
        monitor(0, r, rnorm)
    if nonfinite(rnorm):
        return SolveResult(x, False, 0, residuals, _NAN)
    if rnorm <= tol:
        return SolveResult(x, True, 0, residuals, good)
    guard = ResidualGuard(rnorm, dtol, stag_window)
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    reason = _ITS
    for it in range(1, maxiter + 1):
        rho_new = r_hat @ r
        if rho_new == 0.0 or nonfinite(rho_new):
            reason = _NAN if nonfinite(rho_new) else _BREAKDOWN
            break
        beta = (rho_new / rho) * (alpha / omega) if it > 1 else 0.0
        p = r + beta * (p - omega * v) if it > 1 else r.copy()
        y = M(p)
        v = A(y)
        denom = r_hat @ v
        if denom == 0.0 or nonfinite(denom):
            reason = _NAN if nonfinite(denom) else _BREAKDOWN
            break
        alpha = rho_new / denom
        s = r - alpha * v
        snorm = float(np.linalg.norm(s))
        if snorm <= tol:
            # half-step convergence exits before the stabilization step;
            # it must still emit trace/monitor like every other exit path,
            # or obs convergence traces drop the final iterate
            x += alpha * y
            residuals.append(snorm)
            if _OBS.enabled:
                trace_ksp("bicgstab", it, snorm)
            if monitor:
                monitor(it, s, snorm)
            return SolveResult(x, True, it, residuals, good)
        z = M(s)
        t = A(z)
        tt = t @ t
        omega = (t @ s) / tt if tt > 0 else 0.0
        x += alpha * y + omega * z
        r = s - omega * t
        rho = rho_new
        rnorm = float(np.linalg.norm(r))
        residuals.append(rnorm)
        if _OBS.enabled:
            trace_ksp("bicgstab", it, rnorm)
        if monitor:
            monitor(it, r, rnorm)
        if rnorm <= tol:
            return SolveResult(x, True, it, residuals, good)
        bad = guard.check(rnorm)
        if bad is not None:
            return SolveResult(x, False, it, residuals, bad)
        if omega == 0.0:
            reason = _BREAKDOWN
            break
    return SolveResult(x, False, it, residuals, reason)
