"""Residual monitors for the Krylov solves.

The Fig. 2 diagnostic needs the *actual* residual vector per iteration,
split into momentum and pressure parts -- the reason the paper prefers GCR
over GMRES (SS III-A).  :class:`FieldSplitMonitor` plugs into the
``monitor`` hook of :mod:`repro.solvers.krylov`.
"""

from __future__ import annotations

import numpy as np


class FieldSplitMonitor:
    """Records |r|, |r_u|, |r_uz| (vertical momentum) and |r_p| per iteration."""

    def __init__(self, mesh):
        self.nu = 3 * mesh.nnodes
        self.iterations: list[int] = []
        self.total: list[float] = []
        self.momentum: list[float] = []
        self.vertical_momentum: list[float] = []
        self.pressure: list[float] = []

    def __call__(self, k: int, r: np.ndarray | None, rnorm: float) -> None:
        self.iterations.append(k)
        self.total.append(rnorm)
        if r is None:
            # GMRES-style recurrence: per-field norms unavailable
            self.momentum.append(float("nan"))
            self.vertical_momentum.append(float("nan"))
            self.pressure.append(float("nan"))
            return
        ru = r[: self.nu]
        self.momentum.append(float(np.linalg.norm(ru)))
        self.vertical_momentum.append(float(np.linalg.norm(ru[2::3])))
        self.pressure.append(float(np.linalg.norm(r[self.nu:])))

    def as_dict(self) -> dict:
        return {
            "iterations": list(self.iterations),
            "total": list(self.total),
            "momentum": list(self.momentum),
            "vertical_momentum": list(self.vertical_momentum),
            "pressure": list(self.pressure),
        }

    def attach(self, name: str = "fieldsplit") -> dict:
        """Export into the ``repro.obs`` JSON document (``"monitors"`` key)."""
        from ..obs.trace import attach_monitor

        data = self.as_dict()
        attach_monitor(name, data)
        return data
