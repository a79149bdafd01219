"""Tensor-product kernel with stored coefficient tensor (Table I "Tensor C").

Instead of recomputing metric terms per apply, this variant precomputes at
every quadrature point the rank-4 tensor

    C = (grad_x xi)^T (w det J  2 eta) (grad_x xi)

mapping the *reference* velocity gradient directly to the reference-space
flux.  The paper counts 21 distinct entries per point for its symmetric
Voigt storage; the dense rank-4 array has 81.  Early versions of this
kernel stored all 81 (while quoting the paper's 21-entry byte counts --
the mismatch the roofline model now reflects honestly, see
:mod:`repro.perf.counts`).  The current storage is a 16-value packing that
is exact for the isotropic Picard operator:

    per point:  S = w eta K K^T   (symmetric, 6 values)
                K = grad_x xi     (inverse Jacobian, 9 values)
                w = w eta         (1 value)

with the apply ``t = g S + w (K g K)^T`` (derivation in
:func:`build_packed_coefficients`).  That cuts the stored coefficient
memory ~5x versus the dense rank-4 form (81 -> 16 values/point), which is
what lets the 16^3-32^3 Table 1 runs fit; the compiled backend
(:mod:`repro.matfree.tensor_compiled`) streams the same 16 values per
point, interleaved eight elements to a SIMD batch.

The packed tensor is this operator's derived state under the ownership
contract of :mod:`repro.matfree.base`: ``_rebuild`` repacks it when
``set_viscosity`` replaces the viscosity or the mesh moves.
"""

from __future__ import annotations

import numpy as np

from .tensor import TensorOperator, forward_gradient, adjoint_gradient

#: packed coefficient values per quadrature point (6 of S + 9 of K + w)
PACKED_VALUES = 16


def build_packed_coefficients(Jinv: np.ndarray, weta: np.ndarray) -> np.ndarray:
    """Pack ``(S, K, w)`` per quadrature point into ``(..., 16)``.

    Derivation: with ``K = grad_x xi`` the physical gradient is
    ``H_ce = g_cd K_de``; the weak-form flux is ``t_cd = K_de tau_ce`` with
    ``tau = w 2 eta sym(H)``.  Expanding,

        C_cdef = w eta ( delta_ce (K K^T)_df + K_de K_fc ),

    which has the major symmetry ``C_cdef = C_efcd`` (the stored operator
    stays symmetric, SPD on the constrained space).  Contracting against
    ``g_ef`` gives the two-term apply this packing supports directly:

        t = g S + w (K g K)^T,   S = w eta K K^T.
    """
    S = np.einsum("...de,...fe->...df", Jinv, Jinv, optimize=True)
    S = weta[..., None, None] * S
    out = np.empty(weta.shape + (PACKED_VALUES,))
    out[..., 0] = S[..., 0, 0]
    out[..., 1] = S[..., 0, 1]
    out[..., 2] = S[..., 0, 2]
    out[..., 3] = S[..., 1, 1]
    out[..., 4] = S[..., 1, 2]
    out[..., 5] = S[..., 2, 2]
    out[..., 6:15] = Jinv.reshape(Jinv.shape[:-2] + (9,))
    out[..., 15] = weta
    return out


def unpack_sym(packed: np.ndarray) -> np.ndarray:
    """Expand the 6 stored values of ``S`` back to full ``(..., 3, 3)``."""
    S = np.empty(packed.shape[:-1] + (3, 3))
    S[..., 0, 0] = packed[..., 0]
    S[..., 0, 1] = S[..., 1, 0] = packed[..., 1]
    S[..., 0, 2] = S[..., 2, 0] = packed[..., 2]
    S[..., 1, 1] = packed[..., 3]
    S[..., 1, 2] = S[..., 2, 1] = packed[..., 4]
    S[..., 2, 2] = packed[..., 5]
    return S


class TensorCOperator(TensorOperator):
    """Tensor-product apply with a precomputed packed coefficient tensor."""

    name = "tensor_c"

    def __init__(self, mesh, eta_q, quad=None, chunk=4096):
        super().__init__(mesh, eta_q, quad, chunk)
        self._rebuild()

    def _packed_chunks(self):
        """``(s, e, packed (e - s, nq, 16))`` per element chunk, in order."""
        for s, e in self._chunks():
            Jinv, wdet = self._geometry(s, e)  # K[d, e] = dxi_d/dx_e
            yield s, e, build_packed_coefficients(Jinv, wdet * self.eta_q[s:e])

    def _rebuild(self) -> None:
        """Repack ``_C``, ``(nel, nq, 16)`` (see module docstring)."""
        C = np.empty((self.mesh.nel, 27, PACKED_VALUES))
        for s, e, packed in self._packed_chunks():
            C[s:e] = packed
        self._C = C

    def _apply_packed_chunk(self, g: np.ndarray, s: int, e: int) -> np.ndarray:
        """Reference flux ``t = g S + w (K g K)^T`` for one chunk."""
        Cp = self._C[s:e]
        S = unpack_sym(Cp)
        K = Cp[..., 6:15].reshape(e - s, 27, 3, 3)
        w = Cp[..., 15]
        t = np.einsum("nqce,nqed->nqcd", g, S, optimize=True)
        kg = np.einsum("nqef,nqfc->nqec", g, K, optimize=True)
        kgk = np.einsum("nqde,nqec->nqdc", K, kg, optimize=True)
        t += w[..., None, None] * kgk.transpose(0, 1, 3, 2)
        return t

    def _apply(self, u: np.ndarray) -> np.ndarray:
        y = np.zeros(self.ndof)
        for s, e in self._chunks():
            ue = u.reshape(-1, 3)[self.mesh.connectivity[s:e]]
            g = forward_gradient(
                self.B_hat, self.D_hat, ue.reshape(e - s, 3, 3, 3, 3), self._DK
            )
            t = self._apply_packed_chunk(g, s, e)
            ye = adjoint_gradient(self.B_hat, self.D_hat, t, self._DK)
            self._scatter(ye.reshape(e - s, 27, 3), s, e, y)
        return y
