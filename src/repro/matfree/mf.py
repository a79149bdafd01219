"""Reference (non-tensor) matrix-free kernel (Table I row "Matrix-free").

Per apply and per element this kernel recomputes the coordinate Jacobian,
inverts it, forms the full physical gradient operator (the 81x27 ``D_e`` of
Eq. 18), evaluates the strain at every quadrature point, applies the
constitutive update and accumulates the weak-form residual -- exactly the
data flow the paper counts at 53622 flops against 1008-2376 streamed bytes
per element, i.e. arithmetic intensity 22.5-53 flops/byte, far above any
machine balance, hence compute-limited rather than bandwidth-limited.
"""

from __future__ import annotations

import numpy as np

from ..fem import geometry
from .base import ViscousOperatorBase


class MFOperator(ViscousOperatorBase):
    """Matrix-free viscous operator, dense per-element gradient matrices."""

    name = "mf"

    def __init__(self, mesh, eta_q, quad=None, chunk=2048):
        super().__init__(mesh, eta_q, quad, chunk)
        self._dN = mesh.basis.at_quadrature(self.quad)[1]  # (nq, nb, 3)

    def _apply(self, u: np.ndarray) -> np.ndarray:
        y = np.zeros(self.ndof)
        coords = self.mesh.coords
        conn = self.mesh.connectivity
        w = self.quad.weights
        for s, e in self._chunks():
            ue = u.reshape(-1, 3)[conn[s:e]]  # (n, nb, 3)
            ce = coords[conn[s:e]]
            # geometry recomputed every apply (paper's MF data flow)
            G, det = geometry.physical_gradients(ce, self._dN)
            wdet = det * w[None, :]
            # grad u at quadrature points: H[n,q,c,d] = du_c/dx_d
            H = np.einsum("nac,nqad->nqcd", ue, G, optimize=True)
            # tau = 2 eta w det D(u); contraction with D(v) only needs sym part
            D = 0.5 * (H + H.transpose(0, 1, 3, 2))
            tau = (2.0 * self.eta_q[s:e] * wdet)[:, :, None, None] * D
            ye = np.einsum("nqad,nqcd->nac", G, tau, optimize=True)
            self._scatter(ye, s, e, y)
        return y
