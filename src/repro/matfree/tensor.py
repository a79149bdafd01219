"""Tensor-product matrix-free kernel (Table I row "Tensor").

The reference derivative matrix of a Q2 element factors into Kronecker
products of the 3x3 one-dimensional basis and derivative matrices,

    D_xi = { D^ (x) B^ (x) B^,  B^ (x) D^ (x) B^,  B^ (x) B^ (x) D^ },

so each directional reference gradient costs three batched 3x3 contractions
instead of a dense 81x27 matrix apply (Eq. 19).  The per-element flop count
drops from 53622 to 15228, the 17 kB per-element gradient matrix disappears,
and -- crucially for the paper's vectorization story -- the working set per
element becomes small enough to process long batches of elements
simultaneously.

The NumPy kernels in this module take a shortcut the paper's does not:
they batch by a single GEMM of every element in a chunk against the
*constant* dense 27x27 Kronecker gradient factors
(:func:`kron_gradient_matrices`), which BLAS runs well but which costs
13122 flops per gradient sweep.  The factored form itself -- 1-D 3x3
contractions along x, y, z, eight elements per SIMD vector -- is what the
compiled kernel of :mod:`repro.matfree.tensor_compiled` executes;
:mod:`repro.perf.counts` keeps the paper's analytic count for this row and
first-principles counts for both implementations.

The strain and residual stages here (:meth:`TensorOperator._strain_stage`,
:meth:`TensorOperator._residual_stage`) also carry the einsum form of the
Newton linearization, ``NewtonTensorOperator._apply_einsum`` in
:mod:`repro.matfree.tensor_compiled`: the fallback without a toolchain
and the oracle the compiled Newton kernel is tested against.
"""

from __future__ import annotations

import numpy as np

from ..fem.basis import tensor_line_matrices
from ..fem.geometry import invert_3x3
from .base import ViscousOperatorBase


def kron_gradient_matrices(B: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The three directional reference-gradient factors, stacked.

    ``DK[d] = B (x) B (x) D`` / ``B (x) D (x) B`` / ``D (x) B (x) B`` for
    d = x, y, z: constant 27x27 matrices shared by *every* element.  This
    is the property the paper's kernel exploits -- unlike the MF kernel's
    per-element 81x27 ``D_e``, nothing element-dependent has to be formed
    or stored, so long batches of elements go through the same small
    matrices.  NumPy realizes the batched contraction as a GEMM against
    these dense factors; the compiled kernel applies the 1-D factors
    directly, vectorized over elements as in the paper.
    """
    return np.stack([
        np.kron(B, np.kron(B, D)),
        np.kron(B, np.kron(D, B)),
        np.kron(D, np.kron(B, B)),
    ])


def forward_gradient(B: np.ndarray, D: np.ndarray, u: np.ndarray,
                     DK: np.ndarray | None = None) -> np.ndarray:
    """Reference gradient of a lattice field via the tensor-product factors.

    ``u`` has shape ``(nel, 3, 3, 3, nc)`` with axes (element, local-z,
    local-y, local-x, component).  Returns ``g`` of shape
    ``(nel, nq, nc, 3)`` with ``g[..., d] = du/dxi_d`` and quadrature points
    flattened x-fastest (matching :class:`repro.fem.quadrature.GaussQuadrature`).
    """
    if DK is None:
        DK = kron_gradient_matrices(B, D)
    nel = u.shape[0]
    nc = u.shape[-1]
    ue = u.reshape(nel, 27, nc)
    return np.einsum("dqa,nac->nqcd", DK, ue, optimize=True)


def adjoint_gradient(B: np.ndarray, D: np.ndarray, t: np.ndarray,
                     DK: np.ndarray | None = None) -> np.ndarray:
    """Transpose of :func:`forward_gradient`: accumulate weak-form residual.

    ``t`` has shape ``(nel, nq, nc, 3)`` (a reference-space flux per
    quadrature point); returns nodal contributions ``(nel, 3, 3, 3, nc)``.
    """
    if DK is None:
        DK = kron_gradient_matrices(B, D)
    nel, _, nc, _ = t.shape
    out = np.einsum("dqa,nqcd->nac", DK, t, optimize=True)
    return out.reshape(nel, 3, 3, 3, nc)


class TensorOperator(ViscousOperatorBase):
    """Tensor-product matrix-free viscous operator."""

    name = "tensor"

    def __init__(self, mesh, eta_q, quad=None, chunk=4096):
        super().__init__(mesh, eta_q, quad, chunk)
        if self.quad.npoints_1d != 3 or mesh.order != 2:
            raise ValueError("tensor kernel requires Q2 elements with 3^3 quadrature")
        self.B_hat, self.D_hat = tensor_line_matrices(3)
        self._DK = kron_gradient_matrices(self.B_hat, self.D_hat)
        w1 = self.quad.line()[1]
        ZW, YW, XW = np.meshgrid(w1, w1, w1, indexing="ij")
        self._wq = (XW * YW * ZW).ravel()

    # -- shared geometry pipeline (also the Newton einsum oracle's) ----- #
    def _geometry(self, s: int, e: int):
        """Inverse Jacobians and weighted determinants for an element chunk.

        Recomputed per apply from nodal coordinates, as in the paper's
        kernel: metric terms are evaluated inside the quadrature loop rather
        than stored.
        """
        ce = self.mesh.coords[self.mesh.connectivity[s:e]]
        ce = ce.reshape(e - s, 3, 3, 3, 3)
        # gx[n, q, c, d] = dx_c / dxi_d
        gx = forward_gradient(self.B_hat, self.D_hat, ce, self._DK)
        J = gx.reshape(e - s, 27, 3, 3)
        Jinv, det = invert_3x3(J)  # Jinv[d, e] = dxi_d / dx_e
        wdet = det * self._wq[None, :]
        return Jinv, wdet

    def _strain_stage(self, u, s, e):
        """Gather + reference gradient + push-forward for a chunk."""
        ue = u.reshape(-1, 3)[self.mesh.connectivity[s:e]]
        ue = ue.reshape(e - s, 3, 3, 3, 3)
        g = forward_gradient(self.B_hat, self.D_hat, ue, self._DK)  # (n, q, c, d)
        Jinv, wdet = self._geometry(s, e)
        # physical gradient H_ce = sum_d g_cd * dxi_d/dx_e
        H = np.einsum("nqcd,nqde->nqce", g, Jinv, optimize=True)
        return H, Jinv, wdet

    def _residual_stage(self, tau, Jinv, s, e, y):
        """Pull stress back to reference space, adjoint-contract, scatter."""
        t = np.einsum("nqce,nqde->nqcd", tau, Jinv, optimize=True)
        ye = adjoint_gradient(self.B_hat, self.D_hat, t, self._DK)
        self._scatter(ye.reshape(e - s, 27, 3), s, e, y)

    def _apply(self, u: np.ndarray) -> np.ndarray:
        y = np.zeros(self.ndof)
        for s, e in self._chunks():
            H, Jinv, wdet = self._strain_stage(u, s, e)
            D = 0.5 * (H + H.transpose(0, 1, 3, 2))
            tau = (2.0 * self.eta_q[s:e] * wdet)[:, :, None, None] * D
            self._residual_stage(tau, Jinv, s, e, y)
        return y

