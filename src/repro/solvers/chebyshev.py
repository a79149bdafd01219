"""Jacobi-preconditioned Chebyshev smoothing (paper SS III-C).

The paper fixes the multigrid smoother on every level -- geometric and
algebraic alike -- as Chebyshev iteration preconditioned by Jacobi,
targeting the interval ``[0.2 lambda_max, 1.1 lambda_max]`` where
``lambda_max`` estimates the largest eigenvalue of the Jacobi-preconditioned
operator, obtained from a few Krylov iterations.  Chebyshev needs only
operator applications (no inner products in the iteration itself) and, per
the cited results [47], matches multiplicative smoothers for elasticity-like
problems while being trivially parallel -- the key requirement for the
matrix-free fine level, where rows of the operator are never available.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..resilience.reasons import BreakdownError, ConvergedReason, nonfinite


def estimate_lambda_max(
    A: Callable[[np.ndarray], np.ndarray],
    dinv: np.ndarray,
    iters: int = 10,
    seed: int = 7,
) -> float:
    """Largest eigenvalue of ``D^{-1} A`` via a short Lanczos process.

    A few iterations of the symmetric Lanczos recurrence in the
    ``D``-weighted inner product (so the preconditioned operator is
    self-adjoint) give an estimate well within the paper's 1.1x safety
    factor.  Falls back to power iteration if the recurrence breaks down.

    The recurrence runs on ``B = D^{-1/2} A D^{-1/2}``, so ``dinv`` must be
    strictly positive: a negative entry (possible on a near-degenerate
    coarse level) would send NaNs from the ``sqrt`` through every later
    V-cycle.  Such diagonals are rejected with :class:`ValueError`; callers
    that want to smooth anyway should hand in ``1/|diag|`` (see
    :class:`ChebyshevSmoother`'s ``indefinite="abs"``).
    """
    dinv = np.asarray(dinv, dtype=np.float64)
    if not np.all(np.isfinite(dinv)) or np.any(dinv <= 0.0):
        raise ValueError(
            "estimate_lambda_max requires a strictly positive Jacobi "
            "diagonal (Lanczos runs on D^{-1/2} A D^{-1/2}); got "
            f"min(dinv) = {float(np.nanmin(dinv))!r}. For an indefinite "
            "diagonal, pass 1/abs(diag) explicitly or construct the "
            "smoother with indefinite='abs'."
        )
    n = dinv.size
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    # Lanczos on B = D^{-1/2} A D^{-1/2} (same spectrum as D^{-1} A)
    dhalf_inv = np.sqrt(dinv)
    v /= np.linalg.norm(v)
    alphas, betas = [], []
    v_prev = np.zeros(n)
    beta = 0.0
    for _ in range(iters):
        w = dhalf_inv * A(dhalf_inv * v)
        alpha = float(v @ w)
        w = w - alpha * v - beta * v_prev
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        if beta < 1e-14:
            break
        betas.append(beta)
        v_prev = v
        v = w / beta
    k = len(alphas)
    T = np.diag(alphas)
    if k > 1:
        off = np.array(betas[: k - 1])
        T += np.diag(off, 1) + np.diag(off, -1)
    eigs = np.linalg.eigvalsh(T)
    lmax = float(eigs.max())
    if not np.isfinite(lmax) or lmax <= 0:
        # power-iteration fallback
        v = rng.standard_normal(n)
        for _ in range(iters):
            v = dinv * A(v)
            v /= np.linalg.norm(v)
        lmax = float(v @ (dinv * A(v)))
    return lmax


class ChebyshevSmoother:
    """Fixed-iteration-count Chebyshev smoother / preconditioner.

    Parameters
    ----------
    A:
        Operator apply (already carrying boundary conditions).
    diag:
        Operator diagonal (Jacobi preconditioner).
    degree:
        Number of Chebyshev iterations per smooth (2 for the paper's
        V(2,2), 3 for V(3,3)).
    interval:
        Target interval ``(lmin, lmax)``; if omitted, estimated as
        ``(emin_factor * lmax_hat, emax_factor * lmax_hat)`` with the
        paper's factors 0.2 and 1.1.
    indefinite:
        What to do when ``diag`` has negative entries (a near-degenerate
        coarse level).  ``"raise"`` (default) rejects the diagonal with a
        clear :class:`ValueError` instead of letting ``sqrt`` seed silent
        NaNs; ``"abs"`` smooths with ``|diag|`` as the Jacobi scaling,
        which keeps the V-cycle running at reduced smoothing quality.
    guard:
        Check the smoothed iterate for NaN/Inf before returning and raise
        :class:`~repro.resilience.reasons.BreakdownError` (reason
        ``DIVERGED_NAN``) instead of handing a poisoned correction back
        into the V-cycle.  One ``x @ x`` dot product per smooth -- noise
        next to ``degree`` operator applies -- and it turns a silent
        NaN-everywhere V-cycle into a recoverable, attributable failure.
    """

    def __init__(
        self,
        A: Callable[[np.ndarray], np.ndarray],
        diag: np.ndarray,
        degree: int = 2,
        interval: tuple[float, float] | None = None,
        emin_factor: float = 0.2,
        emax_factor: float = 1.1,
        eig_iters: int = 10,
        indefinite: str = "raise",
        guard: bool = True,
    ):
        self.guard = bool(guard)
        if indefinite not in ("raise", "abs"):
            raise ValueError(
                f"indefinite must be 'raise' or 'abs', got {indefinite!r}"
            )
        self.A = A
        diag = np.asarray(diag, dtype=np.float64)
        if np.any(diag == 0.0) or not np.all(np.isfinite(diag)):
            raise ValueError("operator diagonal contains zeros or non-finite entries")
        if np.any(diag < 0.0):
            if indefinite == "abs":
                diag = np.abs(diag)
            else:
                raise ValueError(
                    f"operator diagonal has {int(np.count_nonzero(diag < 0.0))}"
                    " negative entries; Jacobi-Chebyshev requires a positive "
                    "diagonal (sqrt(1/diag) in the eigenvalue estimate would "
                    "produce NaNs). Pass indefinite='abs' to smooth with "
                    "|diag|, or fix the level operator."
                )
        self.dinv = 1.0 / diag
        self.degree = int(degree)
        if interval is None:
            lmax_hat = estimate_lambda_max(A, self.dinv, iters=eig_iters)
            interval = (emin_factor * lmax_hat, emax_factor * lmax_hat)
        self.lmin, self.lmax = interval
        if not 0 < self.lmin < self.lmax:
            raise ValueError(f"invalid Chebyshev interval {interval}")
        # work buffers of the recurrence (see _iterate)
        self._d = np.empty_like(self.dinv)
        self._t = np.empty_like(self.dinv)

    def smooth(self, b: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        """Run ``degree`` Chebyshev iterations on ``A x = b`` from ``x``.

        Stops after the last iterate update, so it costs ``degree - 1``
        operator applies from a zero guess (``x is None``) and ``degree``
        from a non-zero one -- the residual of the returned iterate is
        never formed.
        """
        return self._iterate(b, x, want_residual=False)[0]

    def smooth_with_residual(
        self, b: np.ndarray, x: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Smooth and return ``(x, r)`` with ``r = b - A x``.

        The Chebyshev recurrence maintains the residual at every iterate
        (``r <- r - A d`` tracks ``b - A x`` exactly as ``x <- x + d``), so
        carrying it through the last update costs one apply more than
        :meth:`smooth` -- the same apply an explicit ``b - A(x)`` would
        spend -- and returns the same vector up to rounding.  The V-cycle
        takes its pre-smoothing residual from here.
        """
        return self._iterate(b, x, want_residual=True)

    def _iterate(
        self, b: np.ndarray, x: np.ndarray | None, want_residual: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """The recurrence behind both entry points.

        ``x`` and ``r`` are owned by the call; the direction ``d`` and the
        Jacobi-scaled residual live in per-instance work buffers updated in
        place, so one smoother must not run on two threads at once.
        """
        theta = 0.5 * (self.lmax + self.lmin)
        delta = 0.5 * (self.lmax - self.lmin)
        if x is None:
            x = np.zeros_like(b)
            r = b.copy()
        else:
            x = x.copy()
            r = b - self.A(x)
        sigma = theta / delta
        rho = 1.0 / sigma
        d, t = self._d, self._t
        np.multiply(self.dinv, r, out=d)
        d /= theta
        for k in range(1, self.degree + 1):
            x += d
            last = k == self.degree
            if last and not want_residual:
                break
            r -= self.A(d)
            if last:
                break
            rho_new = 1.0 / (2.0 * sigma - rho)
            np.multiply(self.dinv, r, out=t)
            t *= 2.0 * rho_new / delta
            d *= rho_new * rho
            d += t
            rho = rho_new
        if self.guard and nonfinite(float(x @ x)):
            raise BreakdownError(
                "Chebyshev smoother produced a non-finite iterate "
                "(poisoned operator apply or diagonal)",
                reason=ConvergedReason.DIVERGED_NAN,
            )
        return x, r

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Preconditioner interface: approximate ``A^{-1} r`` from zero."""
        return self.smooth(r, None)
