"""Shared machinery for the viscous-operator implementations."""

from __future__ import annotations

import zlib

import numpy as np

from ..fem.quadrature import GaussQuadrature
from ..fem import assembly
from ..obs import registry as _obs

#: operators without their own Table I row borrow the closest kernel's
#: analytic counts (the Newton apply is the tensor kernel plus a rank-one
#: correction of the same order)
_COUNT_ALIAS = {"newton": "tensor"}


class ViscousOperatorBase:
    """Common state for ``v -> -div(2 eta D(v))`` on interleaved Q2 dofs.

    Subclasses implement :meth:`_apply` (the whole-mesh kernel, in
    element order); :meth:`apply` refreshes derived state first.

    ``eta_q`` is the effective viscosity at the quadrature points, shape
    ``(nel, nq)`` -- in the full pipeline this is the MPM-projected field
    (SS II-C).

    State-version contract
    ----------------------
    Derived state (cached coefficient tensors, the rank processes' fork
    snapshots) depends on exactly two inputs: the mesh geometry and the
    viscosity field.  Each carries its own monotonically increasing
    version -- ``mesh.coords_version`` (bumped by ``mesh.deform``) and
    :attr:`eta_version` (bumped by :meth:`set_viscosity`,
    :meth:`invalidate_coefficients`, or automatically when
    :meth:`_before_apply` detects that ``eta_q`` was mutated in place via
    a CRC fingerprint).  Coefficient-caching subclasses rebuild when the
    pair changes, and the compiled operator publishes it as its
    ``_parallel_state_version`` so rank processes re-snapshot.  Keying
    off ``coords_version`` alone -- the pre-fix behavior -- silently
    applied stale operators after a viscosity re-linearization.
    """

    #: label used in benchmark tables (matches Table I rows)
    name = "base"
    #: the dispatch engine applies run through; only the two kinds that
    #: dispatch (``asmb``, ``tensor_compiled``) set one, the NumPy
    #: reference kernels are serial
    executor = None

    def __init__(self, mesh, eta_q: np.ndarray, quad: GaussQuadrature | None = None,
                 chunk: int = 2048):
        self.mesh = mesh
        self.quad = quad or GaussQuadrature.hex(3)
        self.eta_q = self._validated_eta(eta_q)
        #: coefficient-state version; see the class docstring's contract
        self.eta_version = 0
        self._eta_fingerprint = self._eta_crc()
        self.chunk = int(chunk)
        self.ndof = 3 * mesh.nnodes
        #: number of operator applications performed (cost accounting)
        self.napplies = 0
        #: lazy (flops, bytes) per apply for the MatMult event
        self._event_cost = None
        conn = mesh.connectivity
        self._edofs = (
            3 * conn[:, :, None] + np.arange(3)[None, None, :]
        )  # (nel, nb, 3)

    # -- coefficient-state management ----------------------------------- #
    def _validated_eta(self, eta_q) -> np.ndarray:
        """Shape/finiteness/positivity gate on a viscosity field.

        A NaN-poisoned ``eta_q`` used to flow into cached coefficient
        tensors and only trip guards deep in the Krylov loop; fail fast
        here instead, with the PR-3/PR-4 ``ConvergedReason`` taxonomy so
        the fallback ladder and rollback engine can attribute it.  Zero
        viscosity is allowed (rank-restricted operators mask elements by
        zeroing their coefficient); negative viscosity is not.
        """
        eta_q = np.ascontiguousarray(eta_q, dtype=np.float64)
        if eta_q.shape != (self.mesh.nel, self.quad.npoints):
            raise ValueError(
                f"eta_q must have shape {(self.mesh.nel, self.quad.npoints)}, "
                f"got {eta_q.shape}"
            )
        from ..resilience.reasons import BreakdownError, ConvergedReason

        nonfinite = eta_q.size - int(np.count_nonzero(np.isfinite(eta_q)))
        if nonfinite:
            raise BreakdownError(
                f"eta_q carries {nonfinite} non-finite entries; refusing to "
                "build a poisoned viscous operator (guard the projected "
                "field, or fix the rheology evaluation)",
                reason=ConvergedReason.DIVERGED_NAN,
            )
        emin = float(eta_q.min(initial=0.0))
        if emin < 0.0:
            raise BreakdownError(
                f"eta_q has negative entries (min {emin:.3e}); the viscous "
                "operator requires eta >= 0 to stay semi-definite",
                reason=ConvergedReason.DIVERGED_BREAKDOWN,
            )
        return eta_q

    def _eta_crc(self) -> int:
        """CRC-32 fingerprint of the viscosity buffer (~GB/s; zlib C loop)."""
        return zlib.crc32(self.eta_q)

    def _refresh_eta_version(self) -> None:
        """Bump :attr:`eta_version` if ``eta_q`` was mutated in place."""
        crc = self._eta_crc()
        if crc != self._eta_fingerprint:
            self._eta_fingerprint = crc
            self.eta_version += 1

    def invalidate_coefficients(self) -> None:
        """Explicitly mark the viscosity as changed.

        Unconditional alternative to the CRC auto-detection in
        :meth:`_before_apply` (which is probabilistic in principle --
        CRC-32 collisions -- and skippable by performance-critical callers
        that know when they mutate).  Cached coefficient tensors rebuild
        and rank processes re-snapshot on the next apply.
        """
        self.eta_version += 1
        self._eta_fingerprint = self._eta_crc()

    def set_viscosity(self, eta_q) -> None:
        """Replace the viscosity field (re-linearization entry point)."""
        self.eta_q = self._validated_eta(eta_q)
        self.invalidate_coefficients()

    # -- interface ------------------------------------------------------ #
    def _apply(self, u: np.ndarray) -> np.ndarray:
        """``y = A u`` over the whole mesh (derived state is current)."""
        raise NotImplementedError

    def _before_apply(self) -> None:
        """Refresh derived state before an apply."""
        self._refresh_eta_version()

    def apply(self, u: np.ndarray) -> np.ndarray:
        self._before_apply()
        return self._apply(u)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        self.napplies += 1
        return self.timed_apply(u)

    def timed_apply(self, u: np.ndarray) -> np.ndarray:
        """:meth:`apply` under a ``MatMult_<kind>`` event seeded with the
        analytic per-element flop/byte counts of :mod:`repro.perf.counts`,
        so a ``-log_view`` report turns measured time into achieved GF/s.
        Does not touch :attr:`napplies` (cost accounting stays with
        ``__call__``)."""
        if _obs.STATE.enabled:
            cost = self._event_cost
            if cost is None:
                cost = self._event_cost = self._lookup_event_cost()
            with _obs.timed("MatMult_" + self.name,
                            flops=cost[0], nbytes=cost[1]):
                return self.apply(u)
        return self.apply(u)

    def _lookup_event_cost(self) -> tuple[int, int]:
        """Analytic (flops, bytes) of one whole-mesh apply, for the event."""
        from ..perf.counts import OPERATOR_COUNTS

        c = OPERATOR_COUNTS.get(_COUNT_ALIAS.get(self.name, self.name))
        if c is None:
            return (0, 0)
        return (c.flops * self.mesh.nel, c.bytes_perfect_cache * self.mesh.nel)

    @property
    def flops_performed(self) -> int:
        """Analytic flop total for the applies made through ``__call__``.

        Uses the per-element counts of :mod:`repro.perf.counts` for this
        kernel kind (counted calls only; direct ``apply`` calls bypass the
        counter by design -- smoother internals go through ``__call__``).
        """
        from ..perf.counts import OPERATOR_COUNTS

        counts = OPERATOR_COUNTS.get(self.name)
        if counts is None:
            return 0
        return counts.flops * self.mesh.nel * self.napplies

    def diagonal(self) -> np.ndarray:
        """Operator diagonal (for Jacobi/Chebyshev), computed matrix-free."""
        return assembly.viscous_diagonal(self.mesh, self.eta_q, self.quad)

    # -- helpers for subclasses ----------------------------------------- #
    def _scatter(self, ye: np.ndarray, s: int, e: int, out: np.ndarray) -> None:
        """Accumulate element contributions into the global vector."""
        out += np.bincount(
            self._edofs[s:e].ravel(), weights=ye.ravel(), minlength=self.ndof
        )

    def _chunks(self):
        """Cache-sized element chunks, in index order."""
        for start in range(0, self.mesh.nel, self.chunk):
            yield start, min(self.mesh.nel, start + self.chunk)
