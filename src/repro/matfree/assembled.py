"""Assembled-CSR baseline operator (Table I row "Assembled")."""

from __future__ import annotations

import numpy as np

from ..fem import assembly
from ..parallel.executor import ParallelCSRMatVec, current_engine
from .base import ViscousOperatorBase


class AssembledOperator(ViscousOperatorBase):
    """SpMV with the assembled viscous block.

    The paper's analysis: 4608 nonzeros per element, 37248 bytes streamed
    per element apply even with perfect vector caching, so peak throughput
    is bounded by memory bandwidth (85% of STREAM triad observed on Edison).
    Assembly cost and matrix storage are the price paid at setup.  On the
    engine in scope at construction, if any
    (:func:`~repro.parallel.executor.current_engine`), the SpMV is
    row-split (:class:`~repro.parallel.executor.ParallelCSRMatVec`),
    bit-identical to the plain matvec.
    """

    name = "asmb"

    def __init__(self, mesh, eta_q, quad=None, chunk=2048):
        super().__init__(mesh, eta_q, quad, chunk)
        self.engine = current_engine()
        self._rebuild()

    def _rebuild(self) -> None:
        self.matrix = assembly.assemble_viscous(self.mesh, self.eta_q,
                                                self.quad)
        if self.engine is not None:
            # a new state object: rank processes are sent it afresh
            self._spmv = ParallelCSRMatVec(self.matrix, self.engine)

    def _apply(self, u: np.ndarray) -> np.ndarray:
        if self.engine is None:
            return self.matrix @ u
        return self._spmv(u)

    def diagonal(self) -> np.ndarray:
        self._sync()
        return self.matrix.diagonal()
