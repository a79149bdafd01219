"""Shared machinery for the viscous-operator implementations.

Ownership contract (DESIGN.md): what an operator derives at setup depends
on two inputs, each with one writer -- the viscosity, a private read-only
copy only ``set_viscosity`` replaces, and the read-only ``mesh.coords``
only ``mesh.set_coords`` replaces.  An in-place write raises at the call
site.  ``set_viscosity``, or a new ``mesh.coords_version`` seen by
``apply``, runs ``_refresh``: bump ``version``, then the kind's ``_rebuild``.
"""

from __future__ import annotations

import numpy as np

from ..fem.quadrature import GaussQuadrature
from ..fem import assembly
from ..obs import registry as _obs


def _owned_copy(a, shape: tuple, name: str) -> np.ndarray:
    """A read-only C-contiguous float64 copy of ``a`` (never an alias)."""
    a = np.array(a, dtype=np.float64, order="C")
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    a.flags.writeable = False
    return a


class ViscousOperatorBase:
    """Common state for ``v -> -div(2 eta D(v))`` on interleaved Q2 dofs.

    Subclasses implement :meth:`_apply` (the whole-mesh kernel, in
    element order) and, if they cache derived state, :meth:`_rebuild`.

    ``eta_q`` is the effective viscosity at the quadrature points, shape
    ``(nel, nq)`` -- in the full pipeline this is the MPM-projected field
    (SS II-C).
    """

    #: label used in benchmark tables (matches Table I rows)
    name = "base"
    #: the dispatch engine applies run through, bound at construction;
    #: only the kinds that dispatch (``asmb``, ``tensor_compiled``,
    #: ``newton``) set one, the NumPy reference kernels are serial
    engine = None

    def __init__(self, mesh, eta_q: np.ndarray, quad: GaussQuadrature | None = None,
                 chunk: int = 2048):
        self.mesh = mesh
        self.quad = quad or GaussQuadrature.hex(3)
        self._eta_q = self._validated_eta(eta_q)
        #: bumped by every rebuild of the derived state
        self.version = 0
        #: the ``mesh.coords_version`` the derived state was built at
        self._coords_version = mesh.coords_version
        self.chunk = int(chunk)
        self.ndof = 3 * mesh.nnodes
        #: lazy (flops, bytes) per apply of each MatMult_<kind> event
        self._event_costs = {}
        conn = mesh.connectivity
        self._edofs = (
            3 * conn[:, :, None] + np.arange(3)[None, None, :]
        )  # (nel, nb, 3)

    # -- the viscosity and its one writer ------------------------------- #
    @property
    def eta_q(self) -> np.ndarray:
        """Read-only; :meth:`set_viscosity` is its one writer."""
        return self._eta_q

    def _validated_eta(self, eta_q) -> np.ndarray:
        """An owned copy of ``eta_q``, failing fast (with a typed
        ``ConvergedReason``) on NaN/inf or negative entries; zero is
        allowed (rank-restricted operators mask elements with it)."""
        eta_q = _owned_copy(eta_q, (self.mesh.nel, self.quad.npoints), "eta_q")
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

    def set_viscosity(self, eta_q) -> None:
        """Replace the viscosity field (re-linearization entry point)."""
        self._eta_q = self._validated_eta(eta_q)
        self._refresh()

    def _refresh(self) -> None:
        self._coords_version = self.mesh.coords_version
        self.version += 1
        self._rebuild()

    def _rebuild(self) -> None:
        """Recompute derived state (none: geometry is read per apply)."""

    def _sync(self) -> None:
        """Rebuild if the mesh moved since the derived state was built."""
        if self._coords_version != self.mesh.coords_version:
            self._refresh()

    # -- interface ------------------------------------------------------ #
    def _apply(self, u: np.ndarray) -> np.ndarray:
        """``y = A u`` over the whole mesh (derived state is current)."""
        raise NotImplementedError

    def apply(self, u: np.ndarray) -> np.ndarray:
        self._sync()
        return self._apply(u)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """:meth:`apply` under a ``MatMult_<kind>`` event (:meth:`_event`),
        so a ``-log_view`` report turns measured time into achieved GF/s."""
        if not _obs.STATE.enabled:
            return self.apply(u)
        with self._event(self.name):
            return self.apply(u)

    def _event(self, kind: str):
        """The ``MatMult_<kind>`` event of one pass over the mesh, seeded
        with the analytic per-element flop/byte counts of
        :mod:`repro.perf.counts` (zero for a kind without a row)."""
        cost = self._event_costs.get(kind)
        if cost is None:
            from ..perf.counts import OPERATOR_COUNTS

            c = OPERATOR_COUNTS.get(kind)
            nel = self.mesh.nel
            cost = self._event_costs[kind] = (
                (0, 0) if c is None
                else (c.flops * nel, c.bytes_perfect_cache * nel))
        return _obs.timed("MatMult_" + kind, flops=cost[0], nbytes=cost[1])

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
